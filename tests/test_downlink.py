import dataclasses
import math

import numpy as np
import pytest
from mpmath import mp

import oracles
from relaygap import downlink
from relaygap.bounds import _NOISE_ORDERS, downlink_polytope
from relaygap.certifier import random_channel, targeted_channels
from relaygap.downlink import (
    CASE_SCHEMES,
    DECODE_PLAIN,
    DECODE_SELF,
    SCHEME_IDS,
    SCHEME_LAYERS,
    SIC_REMOVE,
    SUBCASE_TAGS,
    CaseLabel,
    DecodeStep,
    DownlinkPowerAlloc,
    MessagePlan,
    RelayCodeword,
    alloc_for_vertex,
    case_of_label,
    classify_case,
    downlink_certificate,
    downlink_vertices,
    message_plan,
    pr4_interval,
    scheme_map,
    scheme_rates,
)
from relaygap.effective import canonicalize
from relaygap.model import (
    InternalConsistencyError,
    RateTuple,
    SystemParams,
    ValidationError,
    capacity_terms,
)
from relaygap.polytope import (
    HalfspaceSystem,
    contains,
    enumerate_vertices,
    maximal_vertices,
)

from conftest import assert_elementwise_parity, unit_gain

HL = lambda x: 0.5 * math.log2(x)  # noqa: E731

CASE1_NOISES = (2.0, 1.0, 4.0, 3.0)
CASE2_NOISES = (3.0, 1.0, 4.0, 2.0)
CASE3_NOISES = (4.0, 1.0, 3.0, 2.0)


def rates(scheme_id, sbar, pR1=0.0, pR2=0.0, pR3=0.0, pR4=0.0):
    """One broadcast scheme's rate map through the validated public entry."""
    return scheme_rates(DownlinkPowerAlloc(pR1, pR2, pR3, pR4, scheme_id), sbar)


def case_params(sbar, PR=1.0) -> SystemParams:
    """Unit-gain canonical channel with the requested effective noises."""
    return unit_gain(P=(4.0, 2.0, 4.0, 2.0), sigma2=sbar, PR=PR)


# ---------------------------------------------------------------------------
# rate maps
# ---------------------------------------------------------------------------


def test_two_layer_rates_all_power_in_bottom_layer():
    s = CASE1_NOISES
    r = rates("4.1", s, 0.0, 5.0)
    assert r[0] == pytest.approx(HL(1 + 5.0 / s[1]), abs=1e-15)
    assert r[1] == pytest.approx(HL(1 + 5.0 / s[0]), abs=1e-15)
    assert r[2] == 0.0 and r[3] == 0.0


def test_two_layer_rates_zero_power():
    assert tuple(rates("4.1", CASE1_NOISES)) == (0.0, 0.0, 0.0, 0.0)


def test_two_layer_rates_symmetric_unit():
    r = rates("4.1", (1.0, 1.0, 1.0, 1.0), 1.0, 1.0)
    assert tuple(r) == pytest.approx((0.5, 0.5, HL(1.5), HL(1.5)), abs=1e-15)


def test_four_layer_rates_top_layer_only():
    # all power in the first layer reaches only the pair-B users; user 3
    # collects it at its own noise level, user 4 at the worse of its two
    # decoding positions
    s = CASE2_NOISES
    p = 2.5
    r = rates("4.2", s, p)
    assert r[0] == 0.0 and r[1] == 0.0
    assert r[2] == pytest.approx(HL(1 + p / s[0]), abs=1e-15)
    assert r[3] == pytest.approx(HL(1 + p / s[2]), abs=1e-15)


def test_four_layer_rates_zero_power():
    assert tuple(rates("4.2", CASE2_NOISES)) == (0.0, 0.0, 0.0, 0.0)


def test_four_layer_rates_generic_substitution():
    # pR = (1,1,1,1), sbar = (3,1,4,2); interference sums written out by hand
    r = rates("4.2", (3.0, 1.0, 4.0, 2.0), 1.0, 1.0, 1.0, 1.0)
    assert r[0] == pytest.approx(HL(2.0) + HL(1.25), abs=1e-12)        # 1/1, 1/(2+2)
    assert r[1] == pytest.approx(HL(1.2), abs=1e-12)                   # 1/(2+3)
    assert r[2] == pytest.approx(HL(7 / 6) + HL(4 / 3), abs=1e-12)     # 1/(3+3), 1/(1+2)
    assert r[3] == pytest.approx(min(HL(7 / 6), HL(7 / 6)), abs=1e-12)


def test_four_layer_user4_takes_the_worse_of_two_positions():
    # the second decoding position sees the third layer as extra
    # interference; give that layer enough power that the min genuinely bites
    s = (50.0, 1.0, 55.0, 2.0)
    r = rates("4.2", s, 4.0, 1.0, 10.0, 1.0)
    own = HL(1 + 4.0 / (1.0 + 1.0 + 55.0))
    via_user2 = HL(1 + 4.0 / (1.0 + 10.0 + 1.0 + 50.0))
    assert r[3] == pytest.approx(min(own, via_user2), abs=1e-15)
    assert via_user2 < own  # the min genuinely bites here


def test_alternate_two_layer_rates():
    s = CASE2_NOISES
    r = rates("4.3", s, 2.0, 3.0)
    assert r[0] == pytest.approx(HL(1 + 3.0 / s[1]), abs=1e-15)
    assert r[1] == pytest.approx(HL(1 + 3.0 / (2.0 + s[0])), abs=1e-15)
    assert r[2] == pytest.approx(HL(1 + 2.0 / (3.0 + s[3])), abs=1e-15)
    assert r[3] == pytest.approx(HL(1 + 2.0 / (3.0 + s[2])), abs=1e-15)
    # with no top-layer power it degenerates to the two-layer map
    assert tuple(rates("4.3", s, 0.0, 3.0))[:2] == pytest.approx(
        (HL(1 + 3.0 / s[1]), HL(1 + 3.0 / s[0])), abs=1e-15
    )


def test_three_layer_rates_private_layer_only():
    s = CASE3_NOISES
    r = rates("4.4", s, 0.0, 0.0, 6.0)
    assert r[0] == pytest.approx(HL(1 + 6.0 / s[1]), abs=1e-15)
    assert (r[1], r[2], r[3]) == (0.0, 0.0, 0.0)


def test_three_layer_rates_generic_substitution():
    r = rates("4.4", (4.0, 1.0, 3.0, 2.0), 1.0, 1.0, 1.0)
    assert r[0] == pytest.approx(HL(2.0) + HL(1.2), abs=1e-12)   # 1/1, 1/(1+1+3)
    assert r[1] == pytest.approx(min(HL(1.2), HL(1.2)), abs=1e-12)
    assert r[2] == pytest.approx(HL(4 / 3), abs=1e-12)           # 1/(1+2)
    assert r[3] == pytest.approx(HL(1.25), abs=1e-12)            # 1/(1+3)


def test_three_layer_user2_takes_the_worse_of_two_positions():
    s = (4.0, 1.0, 300.0, 2.0)
    # sbar3 is not actually case III here, but the map itself is oblivious;
    # the min must pick the pair-B decoding position when it is worse
    r = rates("4.4", s, 5.0, 1.0, 1.0)
    assert r[1] == pytest.approx(
        min(HL(1 + 5.0 / (1.0 + 4.0)), HL(1 + 5.0 / (1.0 + 1.0 + 300.0))), abs=1e-15
    )


def test_rate_maps_reject_bad_powers():
    with pytest.raises(ValidationError):
        rates("4.1", CASE1_NOISES, -1.0, 0.0)
    with pytest.raises(ValidationError):
        rates("4.2", CASE2_NOISES, 0.0, math.inf)
    with pytest.raises(ValidationError):
        rates("4.3", CASE2_NOISES, float("nan"), 0.0)
    with pytest.raises(ValidationError):
        rates("4.4", CASE3_NOISES, 0.0, -2.0)


def test_rate_maps_tolerate_infinite_noise():
    r = rates("4.1", (math.inf, 1.0, 2.0, 2.0), 1.0, 1.0)
    assert r[1] == 0.0  # the unreachable user simply gets zero
    assert r[0] > 0.0


@pytest.mark.parametrize("scheme_id", SCHEME_IDS)
def test_scheme_maps_match_on_floats_and_arrays(scheme_id, bitwise):
    rng = np.random.default_rng(6)
    n = 80
    powers = [np.exp(rng.uniform(math.log(1e-6), math.log(1e6), n)) for _ in range(4)]
    for p in powers:
        p[rng.random(n) < 0.2] = 0.0
    for sbar in (
        CASE1_NOISES,
        CASE2_NOISES,
        CASE3_NOISES,
        (math.inf, 1.0, 2.0, 2.0),
        (3.0, 1.0, math.inf, math.inf),
    ):
        assert_elementwise_parity(lambda *p: scheme_map(scheme_id, p, sbar), powers, bitwise)
    used = {"4.1": 2, "4.3": 2, "4.4": 3, "4.2": 4}[scheme_id]
    alloc = DownlinkPowerAlloc(*(float(p[3]) if k < used else 0.0 for k, p in enumerate(powers)),
                               scheme_id)
    assert type(scheme_rates(alloc, CASE2_NOISES)) is RateTuple


def _draw_scheme_inputs(rng, chain, n):
    """``n`` (powers, noises) draws over 1e+-4: every other one with its
    noises in the case order ``chain``, the rest drawn freely, and some with
    an empty layer, a power tie, a noise tie or a +inf noise."""
    draws = []
    for k in range(n):
        powers = [float(x) for x in 10.0 ** rng.uniform(-4, 4, 4)]
        noises = [float(x) for x in 10.0 ** rng.uniform(-4, 4, 4)]
        if k % 2:
            for user, value in zip(chain, sorted(noises, reverse=True)):
                noises[user - 1] = value
        if rng.random() < 0.25:
            powers[rng.integers(4)] = 0.0
        if rng.random() < 0.15:
            powers[rng.integers(4)] = powers[rng.integers(4)]
        if rng.random() < 0.15:
            noises[rng.integers(4)] = noises[rng.integers(4)]
        if rng.random() < 0.1:
            noises[rng.integers(4)] = math.inf
        draws.append((powers, noises))
    return draws


@pytest.mark.parametrize("scheme_id", SCHEME_IDS)
def test_scheme_map_is_bit_identical_to_the_hand_written_formulas(scheme_id):
    # the map read off the plan against the formulas it replaced, by
    # float.hex, on floats and on arrays that broadcast; a NaN power in one
    # decode of a capped pair pins the order in which the pair is capped
    case = next(case for case, schemes in CASE_SCHEMES.items() if scheme_id in schemes)
    (chain,) = _NOISE_ORDERS[case.value]
    rng = np.random.default_rng(19)
    draws = _draw_scheme_inputs(rng, chain, 600)
    draws += [([2.0, 1.0, math.nan, 0.5], list(CASE2_NOISES)),
              ([2.0, 1.0, math.nan, 0.5], list(CASE3_NOISES))]

    def hexes(rates):
        return [[float.hex(x) for x in np.ravel(r).tolist()] for r in rates]

    for powers, noises in draws:
        assert all(type(r) is float for r in scheme_map(scheme_id, powers, noises))
        want = hexes(oracles.reference_scheme_map(scheme_id, powers, noises))
        assert hexes(scheme_map(scheme_id, powers, noises)) == want, (powers, noises)
    columns = np.array([powers for powers, _ in draws]).T
    grid = np.meshgrid(*[np.array([0.0, 0.3, 1.0, 7.0])] * 4, indexing="ij", sparse=True)
    for _, noises in draws[:40]:
        for powers in (list(columns), grid):
            want = oracles.reference_scheme_map(scheme_id, powers, noises)
            got = scheme_map(scheme_id, powers, noises)
            assert [np.shape(r) for r in got] == [np.shape(r) for r in want]
            assert hexes(got) == hexes(want), noises


# ---------------------------------------------------------------------------
# power-allocation record
# ---------------------------------------------------------------------------


def test_alloc_zeroes_unused_layers_by_scheme():
    # every scheme: all of its layers take power, any layer above them none
    for scheme_id, layers in (("4.1", 2), ("4.2", 4), ("4.3", 2), ("4.4", 3)):
        assert SCHEME_LAYERS[scheme_id] == layers
        used = [1.0, 2.0, 3.0, 4.0][:layers] + [0.0] * (4 - layers)
        assert DownlinkPowerAlloc(*used, scheme_id).total == sum(used)
        for k in range(layers, 4):
            above = list(used)
            above[k] = 0.5
            with pytest.raises(ValidationError, match=f"uses {layers} layers"):
                DownlinkPowerAlloc(*above, scheme_id)


def test_alloc_clamps_float_dust_and_rejects_real_negatives():
    a = DownlinkPowerAlloc(-1e-13, 1.0, 0.0, 0.0, "4.1")
    assert a.pR1 == 0.0
    assert a.total == 1.0
    with pytest.raises(ValidationError):
        DownlinkPowerAlloc(-1e-6, 1.0, 0.0, 0.0, "4.1")
    with pytest.raises(ValidationError):
        DownlinkPowerAlloc(1.0, 1.0, 0.0, 0.0, "9.9")


def test_scheme_rates_dispatches_on_scheme_id():
    # same noises, each scheme written out by hand: the dispatch must pick
    # the map the scheme id names
    s = CASE2_NOISES  # (3, 1, 4, 2)
    assert tuple(scheme_rates(DownlinkPowerAlloc(1.0, 2.0, 0, 0, "4.1"), s)) == pytest.approx(
        (HL(3.0), HL(1 + 2.0 / 3.0), HL(1 + 1.0 / 4.0), HL(1 + 1.0 / 6.0)), abs=1e-15
    )
    assert tuple(
        scheme_rates(DownlinkPowerAlloc(1.0, 2.0, 0.5, 0.25, "4.2"), s)
    ) == pytest.approx(
        (
            HL(1.25) + HL(1 + 2.0 / 2.75),
            HL(1 + 2.0 / 3.75),
            HL(1 + 1.0 / 5.75) + HL(1 + 0.5 / 2.25),
            min(HL(1 + 1.0 / 6.25), HL(1 + 1.0 / 5.75)),
        ),
        abs=1e-15,
    )
    assert tuple(scheme_rates(DownlinkPowerAlloc(1.0, 2.0, 0, 0, "4.3"), s)) == pytest.approx(
        (HL(3.0), HL(1 + 2.0 / 4.0), HL(1 + 1.0 / 4.0), HL(1 + 1.0 / 6.0)), abs=1e-15
    )
    assert tuple(
        scheme_rates(DownlinkPowerAlloc(1.0, 2.0, 0.5, 0, "4.4"), s)
    ) == pytest.approx(
        (
            HL(1.5) + HL(1 + 1.0 / 6.5),
            min(HL(1 + 1.0 / 5.0), HL(1 + 1.0 / 6.5)),
            HL(1 + 2.0 / 2.5),
            HL(1 + 2.0 / 4.5),
        ),
        abs=1e-15,
    )


# ---------------------------------------------------------------------------
# vertices
# ---------------------------------------------------------------------------


def test_case1_vertex_formulas():
    terms = capacity_terms(case_params(CASE1_NOISES, PR=6.0))
    d1, d2, d3, d4 = terms.D
    vs = {v.label: tuple(v.rates) for v in downlink_vertices(CaseLabel.I, terms)}
    assert set(vs) == {"D1.1", "D1.2", "D1.3"}
    assert vs["D1.1"] == pytest.approx((d2, d1, 0.0, 0.0), abs=1e-12)
    assert vs["D1.2"] == pytest.approx((d2 - d4, d1 - d4, d4, d3), abs=1e-12)
    assert vs["D1.3"] == pytest.approx((d2 - d3, d1 - d3, d3, d3), abs=1e-12)


def test_case2_vertex_formulas():
    terms = capacity_terms(case_params(CASE2_NOISES, PR=6.0))
    d1, d2, d3, d4 = terms.D
    vs = {v.label: tuple(v.rates) for v in downlink_vertices("II", terms)}
    assert vs["D2.3"] == pytest.approx((d2 - d4 + d1, d1, d4 - d1, 0.0), abs=1e-12)
    assert vs["D2.5"] == pytest.approx(
        (d2 - d4 + d1 - d3, d1 - d3, d4 - d1 + d3, d3), abs=1e-12
    )


def test_case3_vertex_formulas():
    terms = capacity_terms(case_params(CASE3_NOISES, PR=6.0))
    d1, d2, d3, d4 = terms.D
    vs = {v.label: tuple(v.rates) for v in downlink_vertices(CaseLabel.III, terms)}
    assert vs["D3.4"] == pytest.approx((d2 - d4 + d1, d1, d4 - d1, d3 - d1), abs=1e-12)
    assert vs["D3.5"] == pytest.approx((d2 - d3 + d1, d1, d3 - d1, d3 - d1), abs=1e-12)


def test_symmetric_noise_collapses_second_vertex():
    terms = capacity_terms(case_params((1.0, 1.0, 1.0, 1.0), PR=3.0))
    d = terms.D[0]
    vs = {v.label: tuple(v.rates) for v in downlink_vertices(CaseLabel.I, terms)}
    assert vs["D1.2"] == pytest.approx((0.0, 0.0, d, d), abs=1e-12)


def test_vertices_reject_terms_violating_the_case_order():
    terms = capacity_terms(case_params(CASE3_NOISES, PR=6.0))  # sbar1 largest
    with pytest.raises(InternalConsistencyError, match=r"^D1\.2 component = -0\.3"):
        downlink_vertices(CaseLabel.I, terms)


def test_vertex_labels_come_in_printed_order():
    for sbar, case, labels in [
        (CASE1_NOISES, CaseLabel.I, ["D1.1", "D1.2", "D1.3"]),
        (CASE2_NOISES, CaseLabel.II, ["D2.1", "D2.2", "D2.3", "D2.4", "D2.5"]),
        (CASE3_NOISES, CaseLabel.III, ["D3.1", "D3.2", "D3.3", "D3.4", "D3.5"]),
    ]:
        terms = capacity_terms(case_params(sbar, PR=2.0))
        assert [v.label for v in downlink_vertices(case, terms)] == labels


def test_vertices_match_polytope_corners_on_random_channels():
    rng = np.random.default_rng(90125)
    for trial in range(200):
        params = canonicalize(random_channel(rng)).params
        terms = capacity_terms(params)
        case = classify_case(terms.sigma_bar2)
        labeled = [tuple(v.rates) for v in downlink_vertices(case, terms)]
        corners = [
            tuple(v)
            for v in maximal_vertices(
                enumerate_vertices(downlink_polytope(case, terms))
            )
        ]
        assert oracles.same_point_sets(labeled, corners, tol=1e-8), (
            f"trial {trial} ({case}): printed vertices differ from polytope corners"
        )


def test_case_of_label():
    assert case_of_label("D1.2") is CaseLabel.I
    assert case_of_label("D2.5") is CaseLabel.II
    assert case_of_label("D3.1") is CaseLabel.III
    with pytest.raises(ValidationError):
        case_of_label("D4.1")
    with pytest.raises(ValidationError, match="unknown downlink vertex label"):
        case_of_label(["D1.1"])
    with pytest.raises(ValidationError, match="unknown downlink vertex label"):
        alloc_for_vertex(CaseLabel.I, ["D1.1"], case_params(CASE1_NOISES))


# ---------------------------------------------------------------------------
# fourth-layer power window
# ---------------------------------------------------------------------------


def test_window_midpoint_with_negative_lower_end():
    assert pr4_interval(-1.0, 4.0, 10.0) == 2.0


def test_window_respects_sum_and_extra_caps():
    assert pr4_interval(0.0, 10.0, 6.0) == 3.0
    assert pr4_interval(0.0, 10.0, 10.0, extra_caps=(5.0,)) == 2.5


def test_window_collapsed_to_a_point():
    assert pr4_interval(3.0, 3.0, 10.0) == 3.0


def test_window_empty_raises():
    with pytest.raises(InternalConsistencyError, match="empty fourth-layer"):
        pr4_interval(5.0, 2.0, 10.0)


def test_window_tolerates_tol_level_inversion():
    out = pr4_interval(2.0 + 5e-10, 2.0, 10.0)
    assert out == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize(
    "args, kwargs, name",
    [
        ((float("nan"), 1.0, 1.0), {}, "pmin is NaN"),
        (("a", 1.0, 1.0), {}, "pmin must be a real number"),
        ((0.0, 1.0, 1.0), {"extra_caps": ("x",)}, r"extra_caps\[1\] must be a real number"),
        ((0.0, 1.0, 1.0), {"extra_caps": 5.0}, "extra_caps must be a sequence"),
    ],
    ids=["nan", "string", "cap", "caps"],
)
def test_window_rejects_malformed_numbers_by_name(args, kwargs, name):
    with pytest.raises(ValidationError, match=name):
        pr4_interval(*args, **kwargs)


# ---------------------------------------------------------------------------
# per-vertex recipes
# ---------------------------------------------------------------------------


def test_first_vertex_puts_everything_in_the_bottom_layer():
    params = case_params(CASE1_NOISES, PR=5.0)
    alloc, tag = alloc_for_vertex(CaseLabel.I, "D1.1", params)
    assert (alloc.pR1, alloc.pR2) == (0.0, 5.0)
    assert alloc.scheme_id == "4.1"
    assert tag == "always"


def test_low_budget_branch_of_d12():
    params = case_params(CASE1_NOISES, PR=2.0)  # PR < sbar4 = 3
    alloc, tag = alloc_for_vertex(CaseLabel.I, "D1.2", params)
    assert (alloc.pR1, alloc.pR2) == (0.0, 2.0)
    assert tag == "PR<sbar4"
    high, tag_hi = alloc_for_vertex(CaseLabel.I, "D1.2", case_params(CASE1_NOISES, PR=5.0))
    assert (high.pR1, high.pR2) == (2.0, 3.0)
    assert tag_hi == "PR>=sbar4"


def test_d24_closed_form_branch():
    sbar = (3.0, 1.0, 9.0, 2.0)  # case II, sbar3 >= 2*sbar1
    params = case_params(sbar, PR=12.0)
    alloc, tag = alloc_for_vertex(CaseLabel.II, "D2.4", params)
    assert tag == "PR>=sbar3,sbar3>=2sbar1"
    assert alloc.scheme_id == "4.2"
    assert alloc.pR1 == pytest.approx(3.0, abs=1e-12)         # PR - sbar3
    assert alloc.pR4 == pytest.approx(3.25, abs=1e-12)        # s1(s3+2s1-s4)/(s3+s1)
    assert alloc.pR3 == pytest.approx(1.75, abs=1e-12)        # layer sum 5 minus pR4
    assert alloc.pR2 == pytest.approx(4.0, abs=1e-12)         # s3 minus layer sum
    assert alloc.total == pytest.approx(12.0, abs=1e-12)


def test_d25_top_budget_branch():
    sbar = (1.0, 0.5, 4.0, 0.75)  # sbar3 >= 3*sbar1
    params = case_params(sbar, PR=8.0)  # PR >= sbar3
    alloc, tag = alloc_for_vertex(CaseLabel.II, "D2.5", params)
    assert tag == "sbar3>=3sbar1,PR>=sbar3"
    assert alloc.scheme_id == "4.2"
    assert alloc.pR1 == pytest.approx(8.0 - 4.0, abs=1e-12)
    assert alloc.total <= 8.0 + 1e-9


def test_d25_low_noise_spread_uses_alternate_two_layer_scheme():
    sbar = (3.0, 1.0, 4.0, 2.0)  # sbar3 < 2*sbar1
    alloc, tag = alloc_for_vertex(CaseLabel.II, "D2.5", case_params(sbar, PR=5.0))
    assert tag == "sbar3<2sbar1,PR>=sbar4"
    assert alloc.scheme_id == "4.3"
    assert (alloc.pR1, alloc.pR2) == (3.0, 2.0)
    low, tag_lo = alloc_for_vertex(CaseLabel.II, "D2.5", case_params(sbar, PR=1.5))
    assert tag_lo == "sbar3<2sbar1,PR<sbar4"
    assert (low.pR1, low.pR2) == (0.0, 1.5)


def test_d34_and_d35_low_budget_closed_forms():
    sbar = (8.0, 1.0, 4.0, 2.0)
    params = case_params(sbar, PR=2.0)  # PR < sbar1
    a4, t4 = alloc_for_vertex(CaseLabel.III, "D3.4", params)
    assert t4 == "PR<sbar1"
    assert a4.pR3 == pytest.approx(2.0 * (2.0 - 1.0) / (2.0 + 2.0), abs=1e-12)
    assert a4.pR2 == pytest.approx(2.0 - a4.pR3, abs=1e-12)
    a5, t5 = alloc_for_vertex(CaseLabel.III, "D3.5", params)
    assert t5 == "PR<sbar1"
    assert a5.pR3 == pytest.approx(2.0 * (4.0 - 1.0) / (2.0 + 4.0), abs=1e-12)
    assert a5.pR2 == pytest.approx(2.0 - a5.pR3, abs=1e-12)


def test_recipes_reject_label_case_mismatch():
    params = case_params(CASE1_NOISES, PR=2.0)
    with pytest.raises(ValidationError, match="does not belong"):
        alloc_for_vertex(CaseLabel.I, "D2.1", params)


def test_recipes_reject_channels_outside_the_case():
    params = case_params(CASE3_NOISES, PR=2.0)
    with pytest.raises(ValidationError, match="do not match"):
        alloc_for_vertex(CaseLabel.I, "D1.1", params)


@pytest.mark.parametrize(
    "entry",
    [
        lambda case: downlink_polytope(case, capacity_terms(case_params(CASE1_NOISES))),
        lambda case: downlink_vertices(case, capacity_terms(case_params(CASE1_NOISES))),
        lambda case: alloc_for_vertex(case, "D1.1", case_params(CASE1_NOISES)),
        lambda case: message_plan(case, "4.1"),
    ],
    ids=["downlink_polytope", "downlink_vertices", "alloc_for_vertex", "message_plan"],
)
def test_unknown_case_is_a_validation_error(entry):
    with pytest.raises(ValidationError, match="case must be one of I/II/III, got 'IV'"):
        entry("IV")
    entry("I")  # a case's value string stands for its CaseLabel


def test_recipes_spend_within_budget_for_every_vertex():
    rng = np.random.default_rng(8086)
    for _ in range(200):
        params = canonicalize(random_channel(rng)).params
        terms = capacity_terms(params)
        case = classify_case(terms.sigma_bar2)
        for vertex in downlink_vertices(case, terms):
            alloc, tag = alloc_for_vertex(case, vertex.label, params)
            assert alloc.total <= params.PR + 1e-9
            assert min(alloc.pR1, alloc.pR2, alloc.pR3, alloc.pR4) >= 0.0
            assert alloc.scheme_id in CASE_SCHEMES[case]
            assert tag in SUBCASE_TAGS[vertex.label]


#: every vertex's recipe branches in order, as (tag, scheme)
BRANCHES = {
    "D1.1": (("always", "4.1"),),
    "D1.2": (("PR>=sbar4", "4.1"), ("PR<sbar4", "4.1")),
    "D1.3": (("PR>=sbar3", "4.1"), ("PR<sbar3", "4.1")),
    "D2.1": (("PR>=sbar1", "4.2"), ("PR<sbar1", "4.2")),
    "D2.2": (("PR>=sbar4", "4.3"), ("PR<sbar4", "4.3")),
    "D2.3": (("PR>=sbar1", "4.2"), ("sbar4<=PR<sbar1", "4.2"), ("PR<sbar4", "4.2")),
    "D2.4": (
        ("PR<sbar4", "4.2"),
        ("sbar4<=PR<sbar3,sbar4>=2sbar2", "4.2"),
        ("sbar4<=PR<sbar3,sbar4<2sbar2", "4.2"),
        ("PR>=sbar3,sbar3>=2sbar1", "4.2"),
        ("PR>=sbar3,sbar3<2sbar1", "4.2"),
    ),
    "D2.5": (
        ("sbar3>=3sbar1,PR>=sbar3", "4.2"),
        ("sbar3>=3sbar1,thr<PR<sbar3", "4.2"),
        ("sbar3>=3sbar1,PR<=thr", "4.2"),
        ("2sbar1<=sbar3<3sbar1,PR>=thr", "4.2"),
        ("2sbar1<=sbar3<3sbar1,sbar3<PR<thr", "4.2"),
        ("2sbar1<=sbar3<3sbar1,PR<=sbar3", "4.2"),
        ("sbar3<2sbar1,PR>=sbar4", "4.3"),
        ("sbar3<2sbar1,PR<sbar4", "4.3"),
    ),
    "D3.1": (("PR>=sbar1", "4.4"), ("PR<sbar1", "4.4")),
    "D3.2": (("PR>=sbar4", "4.4"), ("PR<sbar4", "4.4")),
    "D3.3": (("PR>=sbar3", "4.4"), ("PR<sbar3", "4.4")),
    "D3.4": (("PR>=sbar1", "4.4"), ("PR<sbar1", "4.4")),
    "D3.5": (("PR>=sbar1", "4.4"), ("PR<sbar1", "4.4")),
}


def test_derived_tags_and_case_schemes_keep_their_spelling_and_order():
    tags = [(label, tuple(tag for tag, _ in branches)) for label, branches in BRANCHES.items()]
    assert list(SUBCASE_TAGS.items()) == tags
    assert list(CASE_SCHEMES.items()) == [
        (CaseLabel.I, ("4.1",)),
        (CaseLabel.II, ("4.2", "4.3")),
        (CaseLabel.III, ("4.4",)),
    ]


def test_every_targeted_branch_allocates_its_scheme():
    fired = set()
    for params in targeted_channels():
        terms = capacity_terms(params)
        case = classify_case(terms.sigma_bar2)
        for vertex in downlink_vertices(case, terms):
            alloc, tag = alloc_for_vertex(case, vertex.label, params)
            assert (tag, alloc.scheme_id) in BRANCHES[vertex.label], (vertex.label, tag)
            fired.add((vertex.label, tag, alloc.scheme_id))
    assert fired == {(label, *b) for label, branches in BRANCHES.items() for b in branches}


# ---------------------------------------------------------------------------
# targeted windows: every fourth-layer recipe branch, many predicate draws
# ---------------------------------------------------------------------------


def sorted_case2_noises(rng) -> tuple:
    a, b, c, d = np.sort(rng.uniform(0.2, 8.0, size=4))[::-1]
    return float(b), float(d), float(a), float(c)  # s3 >= s1 >= s4 >= s2


def d25_family_noises(rng, ratio_lo, ratio_hi):
    """Case-II noises with sbar3/sbar1 inside [ratio_lo, ratio_hi]."""
    s1 = float(rng.uniform(0.3, 4.0))
    s3 = s1 * float(rng.uniform(ratio_lo, ratio_hi))
    s4 = float(rng.uniform(0.1, 1.0)) * s1
    s2 = float(rng.uniform(0.05, 1.0)) * s4
    return s1, s2, s3, s4


def threshold_of(s1, s3) -> float:
    d = 1.0 - 2.0 * s1 / s3
    return math.inf if d <= 0.0 else s1 / d


@pytest.mark.parametrize(
    "branch",
    [
        "sbar3>=3sbar1,PR>=sbar3",
        "sbar3>=3sbar1,thr<PR<sbar3",
        "sbar3>=3sbar1,PR<=thr",
        "2sbar1<=sbar3<3sbar1,PR>=thr",
        "2sbar1<=sbar3<3sbar1,sbar3<PR<thr",
        "2sbar1<=sbar3<3sbar1,PR<=sbar3",
    ],
)
def test_d25_window_branches_fire_and_stay_feasible(branch):
    rng = np.random.default_rng(abs(hash(branch)) % 2**32)
    hits = 0
    for _ in range(500):
        if branch.startswith("sbar3>=3sbar1"):
            s1, s2, s3, s4 = d25_family_noises(rng, 3.0, 12.0)
        else:
            s1, s2, s3, s4 = d25_family_noises(rng, 2.0, 3.0)
        thr = threshold_of(s1, s3)
        if branch.endswith("PR>=sbar3"):
            PR = s3 * float(rng.uniform(1.0, 4.0))
        elif branch.endswith("thr<PR<sbar3"):
            if not thr < s3:
                continue
            PR = thr + (s3 - thr) * float(rng.uniform(0.01, 0.99))
        elif branch.endswith("PR<=thr") and branch.startswith("sbar3>=3sbar1"):
            PR = min(thr, s3) * float(rng.uniform(0.05, 1.0))
        elif branch.endswith("PR>=thr"):
            if math.isinf(thr):
                continue
            PR = thr * float(rng.uniform(1.0, 2.0))
        elif branch.endswith("sbar3<PR<thr"):
            if not s3 < thr:
                continue
            hi = min(thr, 10.0 * s3)
            PR = s3 + (hi - s3) * float(rng.uniform(0.01, 0.99))
        else:  # 2sbar1<=sbar3<3sbar1, PR<=sbar3
            PR = s3 * float(rng.uniform(0.05, 1.0))
        params = case_params((s1, s2, s3, s4), PR=PR)
        alloc, tag = alloc_for_vertex(CaseLabel.II, "D2.5", params)
        if tag != branch:
            continue  # boundary draw fell into the neighboring branch
        hits += 1
        assert alloc.total <= PR + 1e-9
    assert hits > 300, f"predicate construction barely hits branch {branch}: {hits}"


def test_d23_window_nonempty_when_budget_clears_sbar1():
    rng = np.random.default_rng(40404)
    for _ in range(500):
        s1, s2, s3, s4 = sorted_case2_noises(rng)
        PR = s1 * float(rng.uniform(1.0, 5.0))
        alloc, tag = alloc_for_vertex(
            CaseLabel.II, "D2.3", case_params((s1, s2, s3, s4), PR=PR)
        )
        assert tag == "PR>=sbar1"
        assert alloc.total <= PR + 1e-9


# ---------------------------------------------------------------------------
# message plans
# ---------------------------------------------------------------------------


def test_plan_codeword_counts_per_scheme():
    assert len(message_plan(CaseLabel.I, "4.1").codewords) == 2
    assert len(message_plan(CaseLabel.II, "4.2").codewords) == 4
    assert len(message_plan(CaseLabel.II, "4.3").codewords) == 2
    assert len(message_plan(CaseLabel.III, "4.4").codewords) == 3


def test_plans_reject_scheme_case_mismatch():
    with pytest.raises(ValidationError):
        message_plan(CaseLabel.I, "4.2")
    with pytest.raises(ValidationError):
        message_plan(CaseLabel.III, "4.1")
    with pytest.raises(ValidationError):
        message_plan(CaseLabel.II, "4.9")


def test_plans_cover_every_source_message_exactly_once():
    for case, schemes in CASE_SCHEMES.items():
        for scheme in schemes:
            plan = message_plan(case, scheme)
            carried = sorted(m for cw in plan.codewords for m in cw.messages)
            assert len(set(carried)) == len(carried)
            bases = {m.split(".")[0] for m in carried}
            assert bases == {"mA", "mB", "m11", "m31"}


def test_plan_scripts_reach_the_required_messages():
    required = (("mA",), ("mA", "m11"), ("mB",), ("mB", "m31"))
    for case, schemes in CASE_SCHEMES.items():
        for scheme in schemes:
            plan = message_plan(case, scheme)
            by_name = {cw.name: cw for cw in plan.codewords}
            for user, script in enumerate(plan.scripts):
                decoded = set()
                for step in script:
                    if step.action in (
                        "decode-treating-rest-as-noise",
                        "decode-with-self-message",
                    ):
                        decoded |= set(by_name[step.codeword].messages)
                for need in required[user]:
                    assert (
                        need in decoded
                        or {f"{need}.0", f"{need}.1"} <= decoded
                    ), f"{case} {scheme}: user {user + 1} misses {need}"


@pytest.mark.parametrize(
    "case, scheme", [(case, scheme) for case, schemes in CASE_SCHEMES.items() for scheme in schemes]
)
def test_message_plan_derives_the_scheme_map_in_its_case_order(case, scheme):
    # the rates read off the plan (`oracles.plan_rates`) equal the rate map
    # wherever the case's noise order holds, and only there: outside it the
    # map has dropped decodes that only that order rules out of the minimum
    rng = np.random.default_rng(2017)
    plan = message_plan(case, scheme)
    (chain,) = _NOISE_ORDERS[case.value]  # users, largest effective noise first
    differ = 0
    with mp.workdps(40):
        for _ in range(250):
            powers = [float(x) for x in 10.0 ** rng.uniform(-3, 3, 4)]
            if rng.random() < 0.2:
                powers[rng.integers(4)] = 0.0  # an empty layer
            noises = 10.0 ** rng.uniform(-3, 3, 4)
            ordered = [0.0] * 4
            for user, value in zip(chain, sorted(noises, reverse=True)):
                ordered[user - 1] = float(value)
            if rng.random() < 0.1:
                ordered[chain[0] - 1] = math.inf  # a user the relay cannot reach
            if rng.random() < 0.1:
                ordered[chain[2] - 1] = ordered[chain[1] - 1]  # a tie
            want = scheme_map(scheme, powers, ordered)
            got = oracles.plan_rates(plan, powers, ordered)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12, (powers, ordered)
            drawn = [float(x) for x in noises]  # in the case's order only by chance
            got = oracles.plan_rates(plan, powers, drawn)
            want = scheme_map(scheme, powers, drawn)
            differ += max(abs(g - w) for g, w in zip(got, want)) > 1e-12
    assert differ > 0, f"{case.value} {scheme}: the map holds outside its case's order"


def test_the_plan_drives_the_rate_map(monkeypatch):
    # in a variant of plan "4.2", user 3 decodes xR3 instead of skipping it:
    # it reads xR1 with xR3 still in the way, then peels xR1 to reach xR3.
    # R4's least decode is then user 3's under every other layer
    plan = message_plan(CaseLabel.II, "4.2")
    peel = (DecodeStep(DECODE_SELF, "xR1"), DecodeStep(SIC_REMOVE, "xR1"),
            DecodeStep(DECODE_PLAIN, "xR3"))
    variant = dataclasses.replace(plan, scripts=(*plan.scripts[:2], peel, plan.scripts[3]))
    # (layer, user, first layer in the way, the others), 0-based
    assert downlink._compile(plan)[3] == (((0, 0, 1, (2, 3)), (0, 2, 1, (3,))),)
    assert downlink._compile(variant)[3] == (((0, 2, 1, (2, 3)),),)
    assert downlink._compile(variant)[:3] == downlink._compile(plan)[:3]

    powers, noises = (2.0, 1.0, 0.5, 0.25), CASE2_NOISES
    r4 = scheme_map("4.2", powers, noises)[3]
    assert r4 == min(HL(1 + 2.0 / (1.0 + 0.25 + 4.0)), HL(1 + 2.0 / (1.75 + 3.0)))
    monkeypatch.setitem(downlink._PROGRAMS, "4.2", downlink._compile(variant))
    assert scheme_map("4.2", powers, noises)[3] == HL(1 + 2.0 / (1.75 + 4.0)) != r4


def test_plan_validation_rejects_premature_sic():
    cw = (
        RelayCodeword("xR1", "RR1", ("mB", "m31")),
        RelayCodeword("xR2", "RR2", ("mA", "m11")),
    )
    bad_script = (DecodeStep("SIC-remove", "xR1"),)
    good = (DecodeStep("decode-with-self-message", "xR1"),)
    open2 = (
        DecodeStep("decode-treating-rest-as-noise", "xR1"),
        DecodeStep("SIC-remove", "xR1"),
        DecodeStep("decode-with-self-message", "xR2"),
    )
    with pytest.raises(ValidationError, match="without decoding"):
        MessagePlan(
            case=CaseLabel.I,
            scheme_id="4.1",
            codewords=cw,
            scripts=(bad_script, open2, good, good),
            rate_relations=(),
        )


def test_plan_validation_rejects_uncovered_messages():
    cw = (RelayCodeword("xR1", "RR1", ("mB", "m31")),)  # mA / m11 never carried
    script = (DecodeStep("decode-with-self-message", "xR1"),)
    with pytest.raises(ValidationError, match="not covered"):
        MessagePlan(
            case=CaseLabel.I,
            scheme_id="4.1",
            codewords=cw,
            scripts=(script, script, script, script),
            rate_relations=(),
        )


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certificate_symmetric_noise_boundary():
    certs = downlink_certificate(case_params((1.0, 1.0, 1.0, 1.0), PR=2.0))
    assert [c.vertex_label for c in certs] == ["D1.1", "D1.2", "D1.3"]
    for c in certs:
        assert c.link == "downlink"
        assert c.passed
        assert c.subcase in SUBCASE_TAGS[c.vertex_label]


def test_certificate_zero_budget_has_zero_slack():
    certs = downlink_certificate(case_params(CASE2_NOISES, PR=0.0))
    for c in certs:
        assert c.passed
        assert tuple(c.target) == (0.0, 0.0, 0.0, 0.0)
        assert c.slack == (0.0, 0.0, 0.0, 0.0)


def test_certificates_pass_on_random_canonical_channels():
    rng = np.random.default_rng(60601)
    pair_rows = {
        (1, 3): (1.0, 0.0, 1.0, 0.0),
        (1, 4): (1.0, 0.0, 0.0, 1.0),
        (2, 3): (0.0, 1.0, 1.0, 0.0),
        (2, 4): (0.0, 1.0, 0.0, 1.0),
    }
    for _ in range(100):
        params = canonicalize(random_channel(rng)).params
        terms = capacity_terms(params)
        case = classify_case(terms.sigma_bar2)
        region = downlink_polytope(case, terms)
        D = terms.D
        outer_downlink_rows = HalfspaceSystem(
            [
                (pair_rows[(1, 3)], max(D[1], D[3])),
                (pair_rows[(1, 4)], max(D[1], D[2])),
                (pair_rows[(2, 3)], max(D[0], D[3])),
                (pair_rows[(2, 4)], max(D[0], D[2])),
                ((1.0, 0.0, 0.0, 0.0), D[1]),
                ((0.0, 1.0, 0.0, 0.0), D[0]),
                ((0.0, 0.0, 1.0, 0.0), D[3]),
                ((0.0, 0.0, 0.0, 1.0), D[2]),
            ]
        )
        for c in downlink_certificate(params):
            assert c.passed
            assert max(c.slack) <= 0.5 + 1e-7
            assert contains(region, tuple(c.achieved))
            assert contains(outer_downlink_rows, tuple(c.achieved))
