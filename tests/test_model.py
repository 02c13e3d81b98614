import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from relaygap.bounds import outer_bound
from relaygap.certifier import random_channel, verify_theorem1
from relaygap.downlink import DownlinkPowerAlloc, classify_case
from relaygap.model import (
    PAIR_KEYS,
    CapacityTerms,
    GapCertificate,
    InternalConsistencyError,
    RateTuple,
    SystemParams,
    ValidationError,
    capacity_terms,
    gaussian_layer,
    geq,
    half_log2_rate,
    lattice_layer,
    nonneg,
    slack_of,
)
from relaygap.polytope import contains, in_downward_hull
from relaygap.uplink import (
    UplinkPowerAlloc,
    decoding_order,
    gaussian_rate,
    lattice_rate,
    uplink_achievable,
)

from conftest import assert_elementwise_parity, unit_gain

finite_gain = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
finite_power = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
finite_noise = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)

four = lambda s: st.tuples(s, s, s, s)  # noqa: E731


def system_strategy():
    return st.builds(
        SystemParams,
        h=four(finite_gain),
        g=four(finite_gain),
        P=four(finite_power),
        sigma2=four(finite_noise),
        sigmaR2=finite_noise,
        PR=finite_power,
    )


# ---------------------------------------------------------------------------
# numeric spot checks against an arbitrary-precision reference
# ---------------------------------------------------------------------------


def test_individual_uplink_term_matches_high_precision_value():
    params = SystemParams(
        h=(2.0, 1.0, 1.0, 1.0),
        g=(1.0, 1.0, 1.0, 1.0),
        P=(1.0, 1.0, 1.0, 1.0),
        sigma2=(1.0, 1.0, 1.0, 1.0),
        sigmaR2=1.0,
        PR=1.0,
    )
    terms = capacity_terms(params)
    with mp.workdps(40):
        ref = float(mp.log(mpf(5), 2) / 2)
    assert terms.C[0] == pytest.approx(ref, abs=1e-12)
    assert terms.C[0] == pytest.approx(1.160964, abs=5e-7)


def test_unit_channel_terms(unit_params):
    terms = capacity_terms(unit_params)
    assert terms.C == pytest.approx((0.5, 0.5, 0.5, 0.5), abs=1e-15)
    assert terms.D == pytest.approx((0.5, 0.5, 0.5, 0.5), abs=1e-15)
    for key in PAIR_KEYS:
        assert terms.pair(*key) == pytest.approx(0.5 * math.log2(3.0), abs=1e-15)
    assert terms.sigma_bar2 == (1.0, 1.0, 1.0, 1.0)


def test_pair_keys_cover_the_four_cross_pairs():
    assert PAIR_KEYS == ((1, 3), (1, 4), (2, 3), (2, 4))
    terms = capacity_terms(unit_gain())
    assert set(terms.Cpair) == set(PAIR_KEYS)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(params=system_strategy(), c=st.floats(min_value=0.05, max_value=20.0))
def test_uplink_terms_invariant_under_gain_noise_rescale(params, c):
    scaled = SystemParams(
        h=tuple(c * hi for hi in params.h),
        g=params.g,
        P=params.P,
        sigma2=params.sigma2,
        sigmaR2=c * c * params.sigmaR2,
        PR=params.PR,
    )
    t0, t1 = capacity_terms(params), capacity_terms(scaled)
    for a, b in zip(t0.C, t1.C):
        assert b == pytest.approx(a, rel=1e-12, abs=1e-12)
    for key in PAIR_KEYS:
        assert t1.pair(*key) == pytest.approx(t0.pair(*key), rel=1e-12, abs=1e-12)
    # the downlink leg never sees the uplink rescale
    assert t1.D == t0.D
    assert t1.sigma_bar2 == t0.sigma_bar2


@settings(max_examples=200, deadline=None)
@given(params=system_strategy(), extra=st.floats(min_value=0.0, max_value=10.0))
def test_terms_monotone_in_power(params, extra):
    import dataclasses

    more_p1 = dataclasses.replace(
        params, P=(params.P[0] + extra, *params.P[1:])
    )
    more_pr = dataclasses.replace(params, PR=params.PR + extra)
    t0 = capacity_terms(params)
    assert capacity_terms(more_p1).C[0] >= t0.C[0]
    for i in range(4):
        assert capacity_terms(more_pr).D[i] >= t0.D[i]


@settings(max_examples=200, deadline=None)
@given(params=system_strategy())
def test_pair_term_dominates_both_singles(params):
    terms = capacity_terms(params)
    for (i, j) in PAIR_KEYS:
        assert terms.pair(i, j) >= terms.C[i - 1] - 1e-12
        assert terms.pair(i, j) >= terms.C[j - 1] - 1e-12


#: magnitudes 10**e for e in [-9, 9]
wide = st.floats(min_value=-9.0, max_value=9.0).map(lambda e: 10.0 ** e)

#: ((edit, field), user i): a tie copies user i's entry onto its in-pair
#: partner; a zero or an infinite noise replaces user i's entry
channel_edit = st.tuples(
    st.sampled_from((
        ("tie", "h"), ("tie", "g"), ("tie", "P"), ("tie", "sigma2"),
        ("zero", "h"), ("zero", "g"), ("zero", "P"), ("zero", "PR"),
        ("inf", "sigma2"),
    )),
    st.integers(min_value=0, max_value=3),
)


@st.composite
def wide_channel(draw):
    fields = {name: [draw(wide) for _ in range(4)] for name in ("h", "g", "P", "sigma2")}
    PR = draw(wide)
    for (edit, name), i in draw(st.lists(channel_edit, max_size=4)):
        if name == "PR":
            PR = 0.0
        elif edit == "tie":
            fields[name][i ^ 1] = fields[name][i]
        else:
            fields[name][i] = 0.0 if edit == "zero" else math.inf
    return SystemParams(sigmaR2=draw(wide), PR=PR, **fields)


@settings(max_examples=200, deadline=None)
@given(params=wide_channel())
def test_theorem_certifies_wide_range_channels_with_ties_and_zeros(params):
    # no tolerance disagreement between modules may turn a valid channel into
    # an exception, and the half-bit guarantee holds at every magnitude
    assert verify_theorem1(params).passed


def test_geq_is_relative_above_one_and_absolute_below():
    assert geq(1e8 - 0.05, 1e8)          # 5e-10 relative
    assert not geq(1e8 - 0.5, 1e8)       # 5e-9 relative
    assert geq(0.5 - 5e-10, 0.5)
    assert not geq(0.5 - 5e-9, 0.5)
    assert geq(math.inf, math.inf)
    assert not geq(1e300, math.inf)
    assert geq(math.inf, 1.0)
    assert not geq(float("nan"), 1.0)
    assert not geq(1.0, float("nan"))


def test_nonneg_clamps_dust_relative_to_the_operand_scale():
    assert nonneg(2.5, "x") == 2.5
    assert nonneg(-5e-10, "x") == 0.0
    assert nonneg(-0.5, "x", scale=1e9) == 0.0
    with pytest.raises(InternalConsistencyError, match="x = -5e-09"):
        nonneg(-5e-9, "x")
    # a (template, *args) name is formatted only when raising
    assert nonneg(1.0, ("{}.split[{}]", "U3", 2)) == 1.0
    with pytest.raises(InternalConsistencyError, match=r"^U3\.split\[2\] = -5e-09 "):
        nonneg(-5e-9, ("{}.split[{}]", "U3", 2))
    with pytest.raises(InternalConsistencyError):
        nonneg(-5.0, "x", scale=1e9)
    with pytest.raises(InternalConsistencyError):
        nonneg(float("nan"), "x")


def test_zero_downlink_gain_gives_infinite_effective_noise():
    params = unit_gain()
    import dataclasses

    dead = dataclasses.replace(params, g=(1.0, 0.0, 1.0, 1.0))
    terms = capacity_terms(dead)
    assert terms.sigma_bar2[1] == math.inf
    assert terms.D[1] == 0.0


def test_infinite_receiver_noise_is_admitted():
    params = unit_gain(sigma2=(1.0, math.inf, 1.0, 1.0))
    terms = capacity_terms(params)
    assert terms.D[1] == 0.0
    assert terms.sigma_bar2[1] == math.inf


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "field,value",
    [
        ("h", (1.0, float("nan"), 1.0, 1.0)),
        ("h", (1.0, math.inf, 1.0, 1.0)),
        ("g", (math.inf, 1.0, 1.0, 1.0)),
        ("P", (-0.5, 1.0, 1.0, 1.0)),
        ("P", (math.inf, 1.0, 1.0, 1.0)),
        ("sigma2", (0.0, 1.0, 1.0, 1.0)),
        ("sigma2", (-1.0, 1.0, 1.0, 1.0)),
        ("sigma2", (float("nan"), 1.0, 1.0, 1.0)),
        # squares and received powers must stay floats as well
        ("h", (1e200, 1.0, 1.0, 1.0)),
        ("g", (1e-200, 1.0, 1.0, 1.0)),
        ("g", (1e200, 1.0, 1.0, 1.0)),
    ],
)
def test_rejects_bad_vector_entries(field, value):
    kwargs = dict(
        h=(1.0, 1.0, 1.0, 1.0),
        g=(1.0, 1.0, 1.0, 1.0),
        P=(1.0, 1.0, 1.0, 1.0),
        sigma2=(1.0, 1.0, 1.0, 1.0),
        sigmaR2=1.0,
        PR=1.0,
    )
    kwargs[field] = value
    with pytest.raises(ValidationError):
        SystemParams(**kwargs)


def test_errors_name_entries_one_based():
    ones = (1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValidationError, match=r"h\[3\] is NaN"):
        SystemParams(h=(1.0, 1.0, math.nan, 1.0), g=ones, P=ones, sigma2=ones, sigmaR2=1.0, PR=1.0)
    with pytest.raises(ValidationError, match=r"g\[4\] must be finite"):
        SystemParams(h=ones, g=(1.0, 1.0, 1.0, math.inf), P=ones, sigma2=ones, sigmaR2=1.0, PR=1.0)
    with pytest.raises(ValidationError, match=r"P\[3\] must be >= 0"):
        unit_gain(P=(1.0, 1.0, -1.0, 1.0))
    with pytest.raises(ValidationError, match=r"sigma2\[2\] must be > 0"):
        unit_gain(sigma2=(1.0, 0.0, 1.0, 1.0))
    with pytest.raises(ValidationError, match=r"rates\[1\] is NaN"):
        RateTuple((math.nan, 1.0, 1.0, 1.0))
    with pytest.raises(ValidationError, match=r"sigma_bar2\[1\] is NaN"):
        classify_case((math.nan, 1.0, 1.0, 1.0))
    big = (1.0, 1e200, 1.0, 1.0)
    with pytest.raises(ValidationError, match=r"h\[2\]\*h\[2\]\*P\[2\] overflows"):
        SystemParams(h=big, g=ones, P=ones, sigma2=ones, sigmaR2=1.0, PR=1.0)
    with pytest.raises(ValidationError, match=r"h\[2\]\*h\[2\]\*P\[2\] overflows"):
        SystemParams(h=big, g=ones, P=(1.0, 0.0, 1.0, 1.0), sigma2=ones, sigmaR2=1.0, PR=1.0)
    with pytest.raises(ValidationError, match=r"g\[3\] squared leaves float range"):
        SystemParams(h=ones, g=(1.0, 1.0, 1e-200, 1.0), P=ones, sigma2=ones, sigmaR2=1.0, PR=1.0)
    with pytest.raises(ValidationError, match=r"sigma2\[1\]/\(g\[1\]\*g\[1\]\) underflows"):
        SystemParams(h=ones, g=(1e100, 1.0, 1.0, 1.0), P=ones, sigma2=(1e-300, 1.0, 1.0, 1.0),
                     sigmaR2=1.0, PR=1.0)
    # the sentinels stay admissible: g = 0, and sigma2 = +inf beside any gain
    SystemParams(h=ones, g=(0.0, 1e-150, 1.0, 1.0), P=ones, sigma2=(1.0, math.inf, 1.0, 1.0),
                 sigmaR2=1.0, PR=1.0)


_ALLOC = UplinkPowerAlloc(1.0, 1.0, 1.0, 1.0)
_ONES = (1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: SystemParams(_ONES, _ONES, _ONES, _ONES, None, 1.0), "sigmaR2"),
        (lambda: SystemParams(_ONES, _ONES, _ONES, _ONES, [1.0], 1.0), "sigmaR2"),
        (lambda: SystemParams(_ONES, _ONES, _ONES, _ONES, "x", 1.0), "sigmaR2"),
        (lambda: SystemParams(_ONES, _ONES, _ONES, _ONES, 1.0, 10**400), "PR"),
        (lambda: UplinkPowerAlloc(None, 1, 1, 1), "p10"),
        (lambda: gaussian_rate("x", 0, 1), "p"),
        (lambda: lattice_rate(1, 0, None), "sigma2"),
        (lambda: uplink_achievable(_ALLOC, decoding_order("U1"), None), "sigmaR2"),
        (lambda: DownlinkPowerAlloc(None, 0, 0, 0, "4.1"), "pR1"),
        (lambda: DownlinkPowerAlloc("x", 0, 0, 0, "4.1"), "pR1"),
        (lambda: contains(outer_bound(capacity_terms(unit_gain())), "abcd"), r"point\[1\]"),
        (lambda: in_downward_hull([[1, 2, 3, 4], [1, 2]], [0, 0, 0, 0]), r"points\[2\]"),
        (lambda: in_downward_hull(5, [1, 1, 1, 1]), "points"),
        (lambda: SystemParams(5, _ONES, _ONES, _ONES, 1.0, 1.0), "h"),
        (lambda: random_channel(0, gain_range=5), "gain_range"),
    ],
    ids=[
        "sigmaR2-None", "sigmaR2-list", "sigmaR2-str", "PR-huge-int", "UplinkPowerAlloc",
        "gaussian_rate", "lattice_rate", "uplink_achievable", "DownlinkPowerAlloc-None",
        "DownlinkPowerAlloc-str", "contains", "in_downward_hull", "in_downward_hull-int",
        "as_float4-int", "check_range-int",
    ],
)
def test_malformed_numbers_are_validation_errors_naming_the_argument(call, named):
    # a non-number, an int past float range or a list where a number belongs
    # is a ValidationError that names the argument, never a bare TypeError,
    # ValueError or OverflowError
    with pytest.raises(ValidationError, match=rf"^{named} "):
        call()


@pytest.mark.parametrize("sigmaR2", [0.0, -1.0, math.inf, float("nan")])
def test_rejects_bad_relay_noise(sigmaR2):
    with pytest.raises(ValidationError):
        unit_gain(sigmaR2=sigmaR2)


@pytest.mark.parametrize("PR", [-1.0, math.inf, float("nan")])
def test_rejects_bad_relay_power(PR):
    with pytest.raises(ValidationError):
        unit_gain(PR=PR)


@pytest.mark.parametrize("bad", [(1.0, 1.0, 1.0), (1.0,) * 5, ("x", 1.0, 1.0, 1.0)])
def test_rejects_malformed_vectors(bad):
    with pytest.raises(ValidationError):
        SystemParams(
            h=bad,
            g=(1.0, 1.0, 1.0, 1.0),
            P=(1.0, 1.0, 1.0, 1.0),
            sigma2=(1.0, 1.0, 1.0, 1.0),
            sigmaR2=1.0,
            PR=1.0,
        )


def test_zero_power_user_is_fine():
    terms = capacity_terms(unit_gain(P=(0.0, 1.0, 1.0, 1.0)))
    assert terms.C[0] == 0.0


# ---------------------------------------------------------------------------
# rate tuples and certificates
# ---------------------------------------------------------------------------


def test_rate_tuple_clamps_negatives_to_zero():
    r = RateTuple((-1e-15, -2.0, 0.5, 1.25))
    assert r.rates == (0.0, 0.0, 0.5, 1.25)
    assert isinstance(r, tuple) and r == (0.0, 0.0, 0.5, 1.25)
    assert list(r) == [0.0, 0.0, 0.5, 1.25]
    assert r[3] == 1.25
    assert len(r) == 4


def test_rate_tuple_rejects_wrong_arity_and_nan():
    with pytest.raises(ValidationError):
        RateTuple((1.0, 2.0, 3.0))
    with pytest.raises(ValidationError):
        RateTuple((1.0, float("nan"), 3.0, 4.0))


def test_slack_of_is_componentwise_difference():
    t = RateTuple((1.0, 2.0, 3.0, 4.0))
    a = RateTuple((0.5, 2.0, 2.5, 4.5))
    assert slack_of(t, a) == (0.5, 0.0, 0.5, -0.5)


def test_certificate_rejects_unknown_link():
    r = RateTuple((0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValidationError):
        GapCertificate(
            link="sideways",
            vertex_label="X",
            target=r,
            achieved=r,
            slack=(0.0, 0.0, 0.0, 0.0),
            passed=True,
        )


def test_certificate_accepts_known_links():
    r = RateTuple((0.0, 0.0, 0.0, 0.0))
    for link in ("uplink", "downlink", "combined"):
        cert = GapCertificate(
            link=link,
            vertex_label="X",
            target=r,
            achieved=r,
            slack=(0.0, 0.0, 0.0, 0.0),
            passed=True,
        )
        assert cert.link == link
    assert cert.subcase == ""


def test_capacity_terms_is_a_frozen_record(unit_params):
    terms = capacity_terms(unit_params)
    assert isinstance(terms, CapacityTerms)
    with pytest.raises(Exception):
        terms.C = (0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# the one rate primitive: floats and arrays take the same formulas
# ---------------------------------------------------------------------------


def test_rate_primitive_and_kernels_match_on_floats_and_arrays(bitwise):
    rng = np.random.default_rng(4)
    x = np.concatenate(
        [np.exp(rng.uniform(math.log(0.25), math.log(1e9), 300)), [0.5, 1.0, 1.5, 2.0, 1e300]]
    )
    y = rng.permutation(x)
    assert_elementwise_parity(half_log2_rate, (x,), bitwise)
    assert_elementwise_parity(lambda v: half_log2_rate(v, floor=0.0), (x,), bitwise)

    def capped(v, w):
        return half_log2_rate(v, cap=half_log2_rate(w))

    assert_elementwise_parity(capped, (x, y), bitwise)

    n = 200
    p = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), n))
    interference = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), n))
    interference[:20] = 0.0
    noise = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), n))
    noise[20:40] = math.inf  # an unreachable receiver: zero rate
    # the lattice clip exactly at 0.5 + SNR = 1, and below it
    interference[40:45], noise[40:45], p[40:45] = 1.0, 3.0, 2.0
    p[45:50] = 0.0
    assert (lattice_layer(p, interference, noise)[40:50] == 0.0).all()
    assert (gaussian_layer(p, interference, noise)[20:40] == 0.0).all()
    assert_elementwise_parity(gaussian_layer, (p, interference, noise), bitwise)
    assert_elementwise_parity(lattice_layer, (p, interference, noise), bitwise)
    assert_elementwise_parity(
        lambda a, b, c: gaussian_layer(a, b, c, cap=gaussian_layer(a, 0.0, c)),
        (p, interference, noise),
        bitwise,
    )
