import dataclasses
import math

import numpy as np
import pytest

import oracles
from relaygap.bounds import outer_bound
from relaygap.certifier import ORDERINGS, random_channel
from relaygap.downlink import DownlinkPowerAlloc, scheme_rates
from relaygap.effective import EffectiveSystem, canonicalize
from relaygap.model import (
    RateTuple,
    SystemParams,
    ValidationError,
    capacity_terms,
    effective_noises,
    received_powers,
)
from relaygap.polytope import HalfspaceSystem, enumerate_vertices, maximal_vertices

from conftest import unit_gain


def ordered_params() -> SystemParams:
    """A channel already satisfying every canonical convention for (1, 3)."""
    return SystemParams(
        h=(2.0, 1.0, 2.0, 1.0),
        g=(1.0, 1.0, 1.0, 1.0),
        P=(1.0, 1.0, 1.0, 1.0),
        sigma2=(2.0, 1.0, 4.0, 3.0),
        sigmaR2=1.0,
        PR=1.0,
    )


# ---------------------------------------------------------------------------
# the three construction steps, one at a time
# ---------------------------------------------------------------------------


def test_already_ordered_channel_is_untouched():
    params = ordered_params()
    eff = canonicalize(params)
    assert eff.params == params
    assert eff.perm == (1, 2, 3, 4)
    assert eff.pair_swapped is False


def test_stronger_trailing_user_takes_the_leaders_uplink_pair():
    params = SystemParams(
        h=(1.0, 2.0, 1.0, 1.0),
        g=(1.0, 1.0, 1.0, 1.0),
        P=(1.0, 1.0, 1.0, 1.0),
        sigma2=(2.0, 1.0, 4.0, 3.0),
        sigmaR2=1.0,
        PR=1.0,
    )
    eff = canonicalize(params)
    assert eff.perm == (1, 2, 3, 4)
    assert eff.params.h == (1.0, 1.0, 1.0, 1.0)
    assert eff.params.P == params.P
    assert eff.params.g == params.g
    assert received_powers(eff.params)[1] == received_powers(params)[0]


def test_uplink_substitution_ties_received_powers_exactly():
    params = SystemParams(
        h=(0.1, 4.0, 1.0, 1.0),
        g=(1.0, 1.0, 1.0, 1.0),
        P=(0.3, 4.0, 1.0, 1.0),
        sigma2=(2.0, 1.0, 4.0, 3.0),
        sigmaR2=1.0,
        PR=1.0,
    )
    # 0.1*0.1*0.3 < 4*4*4, so user 2 takes user 1's (h, P): no sqrt, no rounding
    eff = canonicalize(params)
    assert (eff.params.h[1], eff.params.P[1]) == (0.1, 0.3)
    q, q_orig = received_powers(eff.params), received_powers(params)
    assert q[1] == q[0] == q_orig[0]
    assert q[2:] == q_orig[2:]


def test_better_leading_downlink_noise_is_inflated():
    params = SystemParams(
        h=(1.0, 1.0, 1.0, 1.0),
        g=(2.0, 0.3, 1.0, 1.0),
        P=(1.0, 1.0, 1.0, 1.0),
        sigma2=(1.0, 0.7, 9.0, 8.0),
        sigmaR2=1.0,
        PR=1.0,
    )
    # 1/4 < 0.7/0.09: user 1's effective noise is inflated by taking user 2's (g, sigma2)
    eff = canonicalize(params)
    assert eff.perm == (1, 2, 3, 4)
    assert eff.params.g == (0.3, 0.3, 1.0, 1.0)
    assert eff.params.sigma2 == (0.7, 0.7, 9.0, 8.0)
    sbar, sbar_orig = effective_noises(eff.params), effective_noises(params)
    assert sbar[0] == sbar[1] == sbar_orig[1]
    assert sbar[2:] == sbar_orig[2:]


def test_unreachable_trailing_user_inflates_leader_noise_to_infinity():
    params = SystemParams(
        h=(1.0, 1.0, 1.0, 1.0),
        g=(1.0, 0.0, 1.0, 1.0),
        P=(1.0, 1.0, 1.0, 1.0),
        sigma2=(1.0, 1.0, 1.0, 1.0),
        sigmaR2=1.0,
        PR=1.0,
    )
    eff = canonicalize(params)
    # the unreachable pair also has the larger trailing effective noise, so
    # it lands in the second slot pair
    assert eff.pair_swapped is True
    assert eff.params.g[2] == 0.0
    assert effective_noises(eff.params)[2:] == (math.inf, math.inf)


def test_pair_swap_is_recorded_and_mapped():
    params = SystemParams(
        h=(2.0, 1.0, 2.0, 1.0),
        g=(1.0, 1.0, 1.0, 1.0),
        P=(1.0, 1.0, 1.0, 1.0),
        sigma2=(4.0, 3.0, 2.0, 1.0),  # sbar4 = 1 < sbar2 = 3 forces the swap
        sigmaR2=1.0,
        PR=1.0,
    )
    eff = canonicalize(params)
    assert eff.pair_swapped is True
    assert eff.perm == (3, 4, 1, 2)
    assert eff.params.sigma2 == (2.0, 1.0, 4.0, 3.0)
    back = eff.to_original((0.1, 0.2, 0.3, 0.4))
    assert tuple(back) == pytest.approx((0.3, 0.4, 0.1, 0.2))


def test_zero_trailing_power_needs_no_rescale():
    # a zero trailing power cannot out-receive the leader, so step 2 leaves
    # its (h, P) alone
    params = unit_gain(P=(1.0, 0.0, 1.0, 1.0), sigma2=(2.0, 1.0, 4.0, 3.0))
    eff = canonicalize(params)
    assert eff.params.h == params.h


# ---------------------------------------------------------------------------
# rate-order handling
# ---------------------------------------------------------------------------


def test_rate_order_places_leaders_in_slots_one_and_three():
    params = ordered_params()
    eff = canonicalize(params, rate_order=(2, 4))
    assert eff.perm[0] == 2 and eff.perm[2] == 4 or eff.pair_swapped
    # whichever pair lands first, slots 1 and 3 hold users 2 and 4
    assert {eff.perm[0], eff.perm[2]} == {2, 4}
    assert {eff.perm[1], eff.perm[3]} == {1, 3}


@pytest.mark.parametrize("order", [(3, 1), (0, 3), (1, 2), (2, 2), (1, 5), None, (1,)])
def test_invalid_rate_orders_are_rejected(order):
    with pytest.raises(ValidationError):
        canonicalize(unit_gain(), rate_order=order)


def test_index_maps_are_inverse_permutations():
    rng = np.random.default_rng(8)
    for _ in range(20):
        params = random_channel(rng)
        for order in ORDERINGS:
            eff = canonicalize(params, rate_order=order)
            rates = (0.125, 0.25, 0.375, 0.5)
            assert tuple(eff.to_effective(eff.to_original(rates))) == rates
            assert tuple(eff.to_original(eff.to_effective(rates))) == rates
            assert sorted(eff.perm) == [1, 2, 3, 4]
            # pairing is preserved: partners stay partners
            slots_of = {u: k for k, u in enumerate(eff.perm)}
            assert abs(slots_of[1] - slots_of[2]) == 1
            assert abs(slots_of[3] - slots_of[4]) == 1


# ---------------------------------------------------------------------------
# output conventions (what downstream synthesis relies on)
# ---------------------------------------------------------------------------


def test_effective_system_satisfies_all_output_orderings():
    rng = np.random.default_rng(314159)
    for _ in range(200):
        params = random_channel(rng)
        for order in ORDERINGS:
            eff = canonicalize(params, rate_order=order)
            e = eff.params
            q = received_powers(e)
            assert q[0] >= q[1] and q[2] >= q[3]
            sb = capacity_terms(e).sigma_bar2
            assert sb[0] >= sb[1] and sb[2] >= sb[3] and sb[3] >= sb[1]
            assert e.sigmaR2 == params.sigmaR2
            assert e.PR == params.PR


def test_no_effective_user_is_better_off():
    rng = np.random.default_rng(27182)
    for _ in range(200):
        params = random_channel(rng)
        q_orig, sbar_orig = received_powers(params), effective_noises(params)
        for order in ORDERINGS:
            eff = canonicalize(params, rate_order=order)
            q, sbar = received_powers(eff.params), effective_noises(eff.params)
            for slot, user in enumerate(eff.perm):
                assert q[slot] <= q_orig[user - 1]
                assert sbar[slot] >= sbar_orig[user - 1]


def test_capacity_terms_degrade_componentwise():
    rng = np.random.default_rng(161803)
    for _ in range(100):
        params = random_channel(rng)
        eff = canonicalize(params)
        t_orig = capacity_terms(params)
        t_eff = capacity_terms(eff.params)
        for slot, user in enumerate(eff.perm):
            assert t_eff.C[slot] <= t_orig.C[user - 1] + 1e-12
            assert t_eff.D[slot] <= t_orig.D[user - 1] + 1e-12


def test_broadcast_rate_maps_degrade_at_identical_allocations():
    rng = np.random.default_rng(666)
    for _ in range(100):
        params = random_channel(rng)
        eff = canonicalize(params)
        sb_eff = capacity_terms(eff.params).sigma_bar2
        sb_orig = capacity_terms(params).sigma_bar2
        aligned = tuple(sb_orig[user - 1] for user in eff.perm)
        frac = rng.random(4)
        p = tuple(params.PR * frac / max(1.0, frac.sum()))
        alloc = DownlinkPowerAlloc(p[0], p[1], p[2], p[3], scheme_id="4.2")
        worse = scheme_rates(alloc, sb_eff)
        better = scheme_rates(alloc, aligned)
        for w, b in zip(worse, better):
            assert w <= b + 1e-12


# ---------------------------------------------------------------------------
# outer-bound equivalence on the ordered cone
# ---------------------------------------------------------------------------


def restricted_maximal(system_rows, lead_rows):
    sys_ = HalfspaceSystem(list(system_rows) + list(lead_rows))
    return [tuple(v) for v in maximal_vertices(enumerate_vertices(sys_))]


def lead_rows_for(order) -> list:
    rows = []
    for lead in order:
        partner = {1: 2, 2: 1, 3: 4, 4: 3}[lead]
        a = [0.0, 0.0, 0.0, 0.0]
        a[partner - 1] = 1.0
        a[lead - 1] = -1.0
        rows.append((tuple(a), 0.0))
    return rows


SLOT_LEAD_ROWS = [((-1.0, 1.0, 0.0, 0.0), 0.0), ((0.0, 0.0, -1.0, 1.0), 0.0)]


def test_outer_bound_unchanged_by_reduction_on_ordered_cone():
    rng = np.random.default_rng(555)
    for trial in range(200):
        params = random_channel(rng)
        eff = canonicalize(params, rate_order=(1, 3))

        orig_sys = outer_bound(capacity_terms(params))
        orig_pts = restricted_maximal(
            orig_sys.rows[: orig_sys.n_user_rows], lead_rows_for((1, 3))
        )

        eff_sys = outer_bound(capacity_terms(eff.params))
        eff_pts = [
            tuple(eff.to_original(v))
            for v in restricted_maximal(
                eff_sys.rows[: eff_sys.n_user_rows], SLOT_LEAD_ROWS
            )
        ]
        assert oracles.same_point_sets(orig_pts, eff_pts, tol=1e-9), (
            f"trial {trial}: restricted outer bounds differ"
        )


def test_outer_bound_equivalence_holds_for_every_rate_order():
    rng = np.random.default_rng(717)
    for _ in range(50):
        params = random_channel(rng)
        for order in ORDERINGS:
            eff = canonicalize(params, rate_order=order)
            orig_sys = outer_bound(capacity_terms(params))
            orig_pts = restricted_maximal(
                orig_sys.rows[: orig_sys.n_user_rows], lead_rows_for(order)
            )
            eff_sys = outer_bound(capacity_terms(eff.params))
            eff_pts = [
                tuple(eff.to_original(v))
                for v in restricted_maximal(
                    eff_sys.rows[: eff_sys.n_user_rows], SLOT_LEAD_ROWS
                )
            ]
            assert oracles.same_point_sets(orig_pts, eff_pts, tol=1e-9)


def test_effective_record_is_frozen():
    eff = canonicalize(ordered_params())
    assert isinstance(eff, EffectiveSystem)
    with pytest.raises(dataclasses.FrozenInstanceError):
        eff.perm = (4, 3, 2, 1)
