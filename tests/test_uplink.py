import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from relaygap.bounds import uplink_polytope
from relaygap.certifier import random_channel
from relaygap.effective import canonicalize
from relaygap.model import (
    CapacityTerms,
    InternalConsistencyError,
    RateTuple,
    SystemParams,
    ValidationError,
    capacity_terms,
)
from relaygap.polytope import contains, enumerate_vertices, maximal_vertices
from relaygap.uplink import (
    UPLINK_LABELS,
    Step,
    UplinkPowerAlloc,
    decoding_order,
    gaussian_rate,
    lattice_rate,
    sic_rates,
    uplink_achievable,
    uplink_certificate,
    uplink_power_alloc,
    uplink_vertices,
)

from conftest import assert_elementwise_parity, unit_gain

HALF_LOG_3_2 = 0.5 * math.log2(1.5)


# ---------------------------------------------------------------------------
# rate primitives
# ---------------------------------------------------------------------------


def test_gaussian_rate_values():
    assert gaussian_rate(0.0, 0.0, 1.0) == 0.0
    assert gaussian_rate(3.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert gaussian_rate(2.0, 3.0, 1.0) == pytest.approx(HALF_LOG_3_2, abs=1e-15)
    assert HALF_LOG_3_2 == pytest.approx(0.29248, abs=5e-6)
    assert type(gaussian_rate(np.float64(3.0), 1, 2.0)) is float


def test_lattice_rate_values():
    assert lattice_rate(0.0, 0.0, 1.0) == 0.0
    assert lattice_rate(1.0, 0.0, 1.0) == pytest.approx(HALF_LOG_3_2, abs=1e-15)
    # p = (interference + sigma2) / 2 sits exactly on the clamp boundary
    assert lattice_rate(1.0, 1.0, 1.0) == 0.0
    assert lattice_rate(0.5, 0.0, 1.0) == 0.0
    assert type(lattice_rate(np.float64(3.0), 1, 2.0)) is float


def test_rate_primitives_validate_inputs():
    for fn in (gaussian_rate, lattice_rate):
        with pytest.raises(ValidationError):
            fn(-1.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            fn(1.0, -0.5, 1.0)
        with pytest.raises(ValidationError):
            fn(1.0, 0.0, 0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                fn(bad, 0.0, 1.0)
            with pytest.raises(ValidationError):
                fn(1.0, bad, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    p=st.floats(min_value=0.0, max_value=1e6),
    interference=st.floats(min_value=0.0, max_value=1e6),
    sigma2=st.floats(min_value=1e-6, max_value=1e6),
)
def test_lattice_rate_within_half_bit_of_gaussian(p, interference, sigma2):
    lat = lattice_rate(p, interference, sigma2)
    gau = gaussian_rate(p, interference, sigma2)
    assert lat >= gau - 0.5 - 1e-12
    assert lat <= gau + 1e-12  # the lattice decoder never beats the Gaussian one


# ---------------------------------------------------------------------------
# power allocation
# ---------------------------------------------------------------------------


def test_power_alloc_symmetric_unit(unit_params):
    alloc = uplink_power_alloc(unit_params)
    assert (alloc.p10, alloc.p11, alloc.p30, alloc.p31) == (0.5, 0.0, 0.5, 0.0)


def test_power_alloc_hand_values():
    params = unit_gain(P=(4.0, 2.0, 3.0, 1.0))
    alloc = uplink_power_alloc(params)
    assert (alloc.p10, alloc.p11, alloc.p30, alloc.p31) == (1.0, 2.0, 0.5, 2.0)


def test_power_alloc_with_silent_trailing_user():
    params = SystemParams(
        h=(1.0, 0.0, 1.0, 1.0),
        g=(1.0, 1.0, 1.0, 1.0),
        P=(2.0, 5.0, 1.0, 1.0),
        sigma2=(1.0, 1.0, 1.0, 1.0),
        sigmaR2=1.0,
        PR=1.0,
    )
    alloc = uplink_power_alloc(params)
    assert alloc.p10 == 0.0
    assert alloc.p11 == 2.0  # h1^2 P1


def test_power_alloc_requires_canonical_ordering():
    with pytest.raises(ValidationError, match="canonicalize"):
        uplink_power_alloc(unit_gain(P=(1.0, 2.0, 1.0, 1.0)))
    with pytest.raises(ValidationError, match="canonicalize"):
        uplink_power_alloc(unit_gain(P=(1.0, 1.0, 1.0, 2.0)))


def test_power_alloc_satisfies_received_power_budgets():
    rng = np.random.default_rng(99)
    for _ in range(100):
        params = canonicalize(random_channel(rng)).params
        q = [params.h[i] ** 2 * params.P[i] for i in range(4)]
        alloc = uplink_power_alloc(params)
        assert alloc.p10 + alloc.p11 <= q[0] + 1e-9
        assert alloc.p10 <= q[1] + 1e-9
        assert alloc.p30 + alloc.p31 <= q[2] + 1e-9
        assert alloc.p30 <= q[3] + 1e-9


def test_alloc_record_rejects_negative_or_nonfinite_entries():
    with pytest.raises(ValidationError):
        UplinkPowerAlloc(p10=-0.1, p11=0.0, p30=0.0, p31=0.0)
    with pytest.raises(ValidationError):
        UplinkPowerAlloc(p10=math.inf, p11=0.0, p30=0.0, p31=0.0)


# ---------------------------------------------------------------------------
# decoding orders
# ---------------------------------------------------------------------------


def test_decoding_orders_match_the_frozen_table():
    assert decoding_order("U1") == (Step.G1, Step.LA, Step.G3, Step.LB)
    assert decoding_order("U2") == (Step.G3, Step.LB, Step.G1, Step.LA)
    assert decoding_order("U3") == (Step.G1, Step.G3, Step.LA, Step.LB)
    assert decoding_order("U4") == (Step.G3, Step.G1, Step.LA, Step.LB)
    assert decoding_order("U5") == (Step.G1, Step.G3, Step.LB, Step.LA)
    assert decoding_order("U6") == (Step.G3, Step.G1, Step.LB, Step.LA)


def test_every_decoding_order_is_a_permutation():
    for label in UPLINK_LABELS:
        order = decoding_order(label)
        assert sorted(s.value for s in order) == ["G1", "G3", "LA", "LB"]


def test_unknown_label_is_rejected():
    with pytest.raises(ValidationError):
        decoding_order("U7")
    with pytest.raises(ValidationError, match="unknown uplink vertex label"):
        decoding_order(["U1"])


# ---------------------------------------------------------------------------
# SIC evaluation
# ---------------------------------------------------------------------------


def test_sic_hand_evaluation_symmetric_unit():
    alloc = UplinkPowerAlloc(p10=0.5, p11=0.0, p30=0.5, p31=0.0)
    split = uplink_achievable(alloc, decoding_order("U1"), sigmaR2=1.0)
    # both lattice pairs sit at the clamp boundary or below
    assert split.r10 == 0.0
    assert split.r30 == 0.0
    assert split.r11 == 0.0
    assert split.r31 == 0.0


def test_sic_hand_evaluation_private_then_lattice():
    alloc = UplinkPowerAlloc(p10=1.0, p11=2.0, p30=0.0, p31=0.0)
    split = uplink_achievable(alloc, (Step.G1, Step.LA, Step.G3, Step.LB), sigmaR2=1.0)
    assert split.r11 == pytest.approx(0.5 * math.log2(1.0 + 2.0 / 3.0), abs=1e-15)
    assert split.r10 == pytest.approx(HALF_LOG_3_2, abs=1e-15)
    assert split.r30 == 0.0
    assert split.r31 == 0.0


def test_sic_all_zero_alloc_gives_all_zero_rates():
    alloc = UplinkPowerAlloc(p10=0.0, p11=0.0, p30=0.0, p31=0.0)
    for label in UPLINK_LABELS:
        split = uplink_achievable(alloc, decoding_order(label), sigmaR2=2.0)
        assert (split.r10, split.r11, split.r30, split.r31) == (0.0, 0.0, 0.0, 0.0)


def test_sic_pending_lattice_pair_interferes_twice():
    alloc = UplinkPowerAlloc(p10=3.0, p11=1.0, p30=0.0, p31=0.0)
    split = uplink_achievable(alloc, (Step.G1, Step.LA, Step.G3, Step.LB), sigmaR2=1.0)
    # while LA is pending it contributes 2*p10 = 6, not 3
    assert split.r11 == pytest.approx(gaussian_rate(1.0, 6.0, 1.0), abs=1e-15)


def test_sic_rejects_non_permutations():
    alloc = UplinkPowerAlloc(p10=1.0, p11=1.0, p30=1.0, p31=1.0)
    with pytest.raises(ValidationError):
        uplink_achievable(alloc, (Step.G1, Step.G1, Step.LA, Step.LB), sigmaR2=1.0)
    with pytest.raises(ValidationError):
        uplink_achievable(alloc, (Step.G1, Step.LA, Step.LB), sigmaR2=1.0)
    with pytest.raises(ValidationError):
        uplink_achievable(alloc, decoding_order("U1"), sigmaR2=0.0)
    # the step names as plain strings are no Steps
    with pytest.raises(ValidationError, match="permutation"):
        uplink_achievable(alloc, ["G1", "LA", "G3", "LB"], sigmaR2=1.0)


def test_sic_chain_matches_on_floats_and_arrays_for_every_order(bitwise):
    rng = np.random.default_rng(5)
    n = 60
    powers = [np.exp(rng.uniform(math.log(1e-6), math.log(1e6), n)) for _ in range(4)]
    for p in powers:
        p[rng.random(n) < 0.2] = 0.0
    sigmaR2 = 2.0
    # a lone lattice pair at half the relay noise sits exactly on the clip
    for p in powers:
        p[:2] = 0.0
    powers[0][0] = powers[2][1] = 0.5 * sigmaR2
    orders = list(itertools.permutations(Step))
    assert len(orders) == 24
    for r10, _, r30, _ in sic_rates(*powers, orders, sigmaR2):
        assert r10[0] == 0.0 and r30[1] == 0.0

    def every_order(*p):
        return tuple(r for rates in sic_rates(*p, orders, sigmaR2) for r in rates)

    assert_elementwise_parity(every_order, powers, bitwise)
    alloc = UplinkPowerAlloc(*(float(p[5]) for p in powers))
    assert type(uplink_achievable(alloc, orders[0], sigmaR2).user_rates()) is RateTuple


def test_shared_sic_layers_are_bit_identical_to_the_per_order_chain():
    # orders share each layer whose step, set of first two pending steps and
    # later pending steps agree; against the per-order loop, by float.hex, on
    # floats and sparse 4-axis grids: zero powers, power and weight ties, a
    # +inf relay noise and a NaN power
    every = list(itertools.permutations(Step))
    certificate = [decoding_order(label) for label in UPLINK_LABELS]
    rng = np.random.default_rng(20)
    draws = []
    for _ in range(300):
        powers = [float(x) for x in 10.0 ** rng.uniform(-4, 4, 4)]
        if rng.random() < 0.25:
            powers[rng.integers(4)] = 0.0
        if rng.random() < 0.25:
            powers[rng.integers(4)] = powers[rng.integers(4)]
        if rng.random() < 0.25:  # G1 weighs what lattice pair A weighs
            powers[1] = 2.0 * powers[0]
        draws.append((powers, float(10.0 ** rng.uniform(-4, 4))))
    draws += [([1.0, 2.0, 0.5, 0.25], math.inf), ([0.0] * 4, 1.0), ([1.0, 1.0, 1.0, 1.0], 1.0),
              ([1.0, math.nan, 0.5, 0.25], 1.0), ([math.nan, 2.0, 0.5, 0.25], math.inf)]
    axis = np.array([0.0, 0.3, 1.0, 7.0])
    grids = [np.meshgrid(*[axis] * 4, indexing="ij", sparse=True),
             np.meshgrid(axis, np.append(axis, np.nan), 2.0 * axis, axis, indexing="ij", sparse=True)]

    def hexes(chains):
        return [[float.hex(x) for x in np.ravel(r).tolist()] for rates in chains for r in rates]

    for orders in (every, every[::-1], certificate):
        for powers, sigmaR2 in draws:
            got = list(sic_rates(*powers, orders, sigmaR2))
            assert all(type(r) is float for rates in got for r in rates)
            want = oracles.reference_sic_rates(*powers, orders, sigmaR2)
            assert hexes(got) == hexes(want), (powers, sigmaR2)
        with np.errstate(invalid="ignore"):
            for powers in grids:
                for sigmaR2 in (1.0, 0.3, math.inf):
                    got = list(sic_rates(*powers, orders, sigmaR2))
                    want = list(oracles.reference_sic_rates(*powers, orders, sigmaR2))
                    assert [np.shape(r) for rates in got for r in rates] == \
                        [np.shape(r) for rates in want for r in rates]
                    assert hexes(got) == hexes(want), sigmaR2


def test_user_rates_compose_paired_plus_private():
    alloc = UplinkPowerAlloc(p10=1.0, p11=2.0, p30=0.5, p31=0.25)
    split = uplink_achievable(alloc, decoding_order("U2"), sigmaR2=1.0)
    rates = split.user_rates()
    assert rates[0] == pytest.approx(split.r10 + split.r11, abs=1e-15)
    assert rates[1] == pytest.approx(split.r10, abs=1e-15)
    assert rates[2] == pytest.approx(split.r30 + split.r31, abs=1e-15)
    assert rates[3] == pytest.approx(split.r30, abs=1e-15)


# ---------------------------------------------------------------------------
# vertices
# ---------------------------------------------------------------------------


def test_first_vertex_formula():
    terms = capacity_terms(unit_gain(P=(4.0, 2.0, 3.0, 1.0)))
    v = uplink_vertices(terms)[0]
    assert v.label == "U1"
    c13, c23 = terms.pair(1, 3), terms.pair(2, 3)
    c3, c4 = terms.C[2], terms.C[3]
    assert tuple(v.rates) == pytest.approx(
        (c13 - c3, c23 - c3, c3, c4), abs=1e-12
    )


def test_vertices_on_symmetric_unit_channel_swap_pairwise(unit_params):
    terms = capacity_terms(unit_params)
    vs = {v.label: tuple(v.rates) for v in uplink_vertices(terms)}
    a = 0.5 * math.log2(3.0) - 0.5
    assert vs["U1"] == pytest.approx((a, a, 0.5, 0.5), abs=1e-12)
    assert vs["U2"] == pytest.approx((0.5, 0.5, a, a), abs=1e-12)
    # swapping the two pairs maps U1 onto U2
    assert vs["U1"][2:] + vs["U1"][:2] == pytest.approx(vs["U2"], abs=1e-12)


def test_zero_channel_vertices_are_all_zero():
    terms = capacity_terms(unit_gain(P=(0.0, 0.0, 0.0, 0.0)))
    for v in uplink_vertices(terms):
        assert tuple(v.rates) == (0.0, 0.0, 0.0, 0.0)
        assert v.split == (0.0, 0.0, 0.0, 0.0)


def test_vertices_require_canonical_terms():
    terms = capacity_terms(unit_gain(P=(1.0, 2.0, 1.0, 1.0)))
    with pytest.raises(ValidationError, match="canonicalize"):
        uplink_vertices(terms)


@pytest.mark.parametrize("c23, message", [
    (0.5, "U1.rates[2] = -0.5 is negative"),   # c23 < c3
    (1.5, "U3.split[4] = -0.5 is negative"),   # c23 < c24 by less than c4
])
def test_a_broken_vertex_closed_form_names_its_entry(c23, message):
    pairs = {(1, 3): 2.0, (1, 4): 2.0, (2, 3): c23, (2, 4): 2.0}
    terms = CapacityTerms(C=(1.0,) * 4, D=(1.0,) * 4, Cpair=pairs, sigma_bar2=(1.0,) * 4)
    with pytest.raises(InternalConsistencyError, match=re.escape(message)):
        uplink_vertices(terms)


def test_vertex_splits_compose_and_stay_nonnegative():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        params = canonicalize(random_channel(rng)).params
        terms = capacity_terms(params)
        c1, c2, c3, c4 = terms.C
        c13, c14, c23, c24 = (terms.pair(i, j) for i, j in ((1, 3), (1, 4), (2, 3), (2, 4)))
        # the paper's split (R10', R11', R30', R31') of each vertex, written
        # out independently of the rates it composes to
        paper = {
            "U1": (c23 - c3, c13 - c23, c4, c3 - c4),
            "U2": (c2, c1 - c2, c14 - c1, c13 - c14),
            "U3": (c24 - c4, c13 - c23, c4, c23 - c24),
            "U4": (c24 - c4, c14 - c24, c4, c13 - c14),
            "U5": (c2, c13 - c23, c24 - c2, c23 - c24),
            "U6": (c2, c14 - c24, c24 - c2, c13 - c14),
        }
        for v in uplink_vertices(terms):
            r10, r11, r30, r31 = v.split
            assert min(v.split) >= 0.0
            assert v.split == pytest.approx(paper[v.label], abs=1e-12)
            assert v.rates[0] == pytest.approx(r10 + r11, abs=1e-9)
            assert v.rates[1] == pytest.approx(r10, abs=1e-9)
            assert v.rates[2] == pytest.approx(r30 + r31, abs=1e-9)
            assert v.rates[3] == pytest.approx(r30, abs=1e-9)


def test_labeled_vertices_are_exactly_the_maximal_polytope_corners():
    rng = np.random.default_rng(31337)
    for trial in range(100):
        params = canonicalize(random_channel(rng)).params
        terms = capacity_terms(params)
        labeled = [tuple(v.rates) for v in uplink_vertices(terms)]
        corners = [
            tuple(v)
            for v in maximal_vertices(enumerate_vertices(uplink_polytope(terms)))
        ]
        assert oracles.same_point_sets(labeled, corners, tol=1e-8), (
            f"trial {trial}: labeled vertices differ from polytope corners"
        )


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certificate_on_symmetric_unit_channel(unit_params):
    certs = uplink_certificate(unit_params)
    assert [c.vertex_label for c in certs] == list(UPLINK_LABELS)
    for c in certs:
        assert c.link == "uplink"
        assert c.passed
        assert max(c.slack) <= 0.5 + 1e-7


def test_certificate_on_zero_channel_has_zero_slack():
    certs = uplink_certificate(unit_gain(P=(0.0, 0.0, 0.0, 0.0)))
    for c in certs:
        assert c.passed
        assert c.slack == (0.0, 0.0, 0.0, 0.0)


def test_certificates_pass_on_random_canonical_channels():
    rng = np.random.default_rng(7777)
    for _ in range(100):
        params = canonicalize(random_channel(rng)).params
        terms = capacity_terms(params)
        region = uplink_polytope(terms)
        for c in uplink_certificate(params):
            assert c.passed
            assert max(c.slack) <= 0.5 + 1e-7
            assert contains(region, tuple(c.achieved))
