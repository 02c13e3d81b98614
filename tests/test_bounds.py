import dataclasses
import math

import numpy as np
import pytest

import oracles
from relaygap import downlink
from relaygap.bounds import (
    _DOWNLINK_ROWS,
    downlink_polytope,
    link_certificates,
    outer_bound,
    uplink_polytope,
)
from relaygap.certifier import random_channel, targeted_channels
from relaygap.downlink import CaseLabel, classify_case, downlink_certificate
from relaygap.model import (
    GAP_TOL,
    HALF_BIT,
    PAIR_KEYS,
    RateTuple,
    SystemParams,
    ValidationError,
    capacity_terms,
)
from relaygap.polytope import HalfspaceSystem, contains, enumerate_vertices
from relaygap.uplink import uplink_certificate

from conftest import canonical_frames, channel_sets, unit_gain


def permute_users(params: SystemParams, perm) -> SystemParams:
    """Relabel users so new user i is old user perm[i] (0-based)."""
    pick = lambda t: tuple(t[perm[i]] for i in range(4))  # noqa: E731
    return SystemParams(
        h=pick(params.h),
        g=pick(params.g),
        P=pick(params.P),
        sigma2=pick(params.sigma2),
        sigmaR2=params.sigmaR2,
        PR=params.PR,
    )


def order_for_downlink(params: SystemParams) -> SystemParams:
    """Pure relabeling into the canonical effective-noise partial order.

    Swaps within each pair so sbar1 >= sbar2 and sbar3 >= sbar4, then swaps
    the pairs so sbar4 >= sbar2.  No parameter is degraded, so the relabeled
    channel is the same physical system.
    """
    sb = capacity_terms(params).sigma_bar2
    p = [0, 1, 2, 3]
    if sb[p[0]] < sb[p[1]]:
        p[0], p[1] = p[1], p[0]
    if sb[p[2]] < sb[p[3]]:
        p[2], p[3] = p[3], p[2]
    if sb[p[3]] < sb[p[1]]:
        p = [p[2], p[3], p[0], p[1]]
    return permute_users(params, p)


# ---------------------------------------------------------------------------
# row layout
# ---------------------------------------------------------------------------


def reference_params() -> SystemParams:
    return SystemParams(
        h=(1.0, 2.0, 1.0, 1.0),
        g=(1.0, 1.0, 2.0, 1.0),
        P=(1.0, 1.0, 1.0, 1.0),
        sigma2=(1.0, 1.0, 1.0, 1.0),
        sigmaR2=1.0,
        PR=1.0,
    )


def test_outer_bound_rows_by_hand():
    terms = capacity_terms(reference_params())
    sys_ = outer_bound(terms)
    assert sys_.n_user_rows == 8

    half_log3 = 0.5 * math.log2(3.0)
    half_log5 = 0.5 * math.log2(5.0)
    want = [
        ((1, 0, 1, 0), 0.5),        # relay-to-user ceiling binds
        ((1, 0, 0, 1), half_log3),  # uplink sum binds
        ((0, 1, 1, 0), 0.5),
        ((0, 1, 0, 1), half_log5),  # downlink max(D1, D3) = D3 binds
        ((1, 0, 0, 0), 0.5),
        ((0, 1, 0, 0), 0.5),
        ((0, 0, 1, 0), 0.5),
        ((0, 0, 0, 1), 0.5),
    ]
    for (a, b), (wa, wb) in zip(sys_.rows[:8], want):
        assert a == tuple(float(v) for v in wa)
        assert b == pytest.approx(wb, abs=1e-12)


def test_uplink_polytope_rows_by_hand():
    terms = capacity_terms(reference_params())
    sys_ = uplink_polytope(terms)
    half_log3 = 0.5 * math.log2(3.0)
    half_log6 = 0.5 * math.log2(6.0)
    half_log5 = 0.5 * math.log2(5.0)
    rhs = [b for _, b in sys_.rows[:8]]
    assert rhs == pytest.approx(
        [half_log3, half_log3, half_log6, half_log6, 0.5, half_log5, 0.5, 0.5],
        abs=1e-12,
    )


def test_unit_channel_outer_bound(unit_params):
    sys_ = outer_bound(capacity_terms(unit_params))
    rhs = [b for _, b in sys_.rows[:8]]
    # every pair row collapses to the common downlink value, every single to
    # the common uplink value
    assert rhs == pytest.approx([0.5] * 8, abs=1e-12)
    assert contains(sys_, (0.25, 0.25, 0.25, 0.25))
    assert not contains(sys_, (0.5, 0.25, 0.25, 0.25))


# ---------------------------------------------------------------------------
# case classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sbar,case",
    [
        ((2.0, 1.0, 4.0, 3.0), CaseLabel.I),
        ((3.0, 1.0, 4.0, 2.0), CaseLabel.II),
        ((4.0, 1.0, 3.0, 2.0), CaseLabel.III),
    ],
)
def test_classify_case_reference_orderings(sbar, case):
    assert classify_case(sbar) is case


def test_classify_case_ties_resolve_to_lower_case():
    assert classify_case((2.0, 1.0, 4.0, 2.0)) is CaseLabel.I    # s4 == s1
    assert classify_case((3.0, 1.0, 3.0, 2.0)) is CaseLabel.II   # s3 == s1, s4 < s1
    assert classify_case((1.0, 1.0, 1.0, 1.0)) is CaseLabel.I


def test_classify_case_requires_canonical_partial_order():
    with pytest.raises(ValidationError, match="canonicalize"):
        classify_case((1.0, 2.0, 4.0, 3.0))  # sbar1 < sbar2
    with pytest.raises(ValidationError, match="canonicalize"):
        classify_case((2.0, 1.0, 3.0, 4.0))  # sbar3 < sbar4
    with pytest.raises(ValidationError, match="canonicalize"):
        classify_case((4.0, 3.0, 2.0, 1.0))  # sbar4 < sbar2


def test_classify_case_rejects_malformed_noises():
    with pytest.raises(ValidationError):
        classify_case((1.0, 2.0, 3.0))
    with pytest.raises(ValidationError):
        classify_case((0.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValidationError):
        classify_case((float("nan"), 1.0, 1.0, 1.0))


def test_classify_case_admits_infinite_noise():
    assert classify_case((math.inf, 1.0, math.inf, math.inf)) is CaseLabel.I
    assert classify_case((math.inf, 1.0, math.inf, 2.0)) is CaseLabel.II
    assert classify_case((math.inf, 1.0, 3.0, 2.0)) is CaseLabel.III


# ---------------------------------------------------------------------------
# downlink polytope construction
# ---------------------------------------------------------------------------


def test_downlink_polytope_accepts_enum_and_string():
    params = unit_gain(sigma2=(2.0, 1.0, 4.0, 3.0), PR=1.0)
    terms = capacity_terms(params)
    a = downlink_polytope(CaseLabel.I, terms)
    b = downlink_polytope("I", terms)
    assert a.rows == b.rows


def test_downlink_polytope_rejects_mismatched_case():
    params = unit_gain(sigma2=(4.0, 1.0, 3.0, 2.0))  # case III layout
    terms = capacity_terms(params)
    with pytest.raises(ValidationError, match="do not match case I"):
        downlink_polytope(CaseLabel.I, terms)
    with pytest.raises(ValidationError, match="do not match case II"):
        downlink_polytope("II", terms)
    downlink_polytope("III", terms)  # the matching one builds fine


def test_downlink_polytope_rejects_unknown_case():
    terms = capacity_terms(unit_gain())
    with pytest.raises(ValidationError, match="I/II/III"):
        downlink_polytope("IV", terms)


def test_downlink_row_counts_per_case():
    for sigma2, case, n in [
        ((2.0, 1.0, 4.0, 3.0), "I", 6),
        ((3.0, 1.0, 4.0, 2.0), "II", 5),
        ((4.0, 1.0, 3.0, 2.0), "III", 5),
    ]:
        terms = capacity_terms(unit_gain(sigma2=sigma2))
        assert downlink_polytope(case, terms).n_user_rows == n


# ---------------------------------------------------------------------------
# containment invariants
# ---------------------------------------------------------------------------


def test_outer_bound_sits_inside_both_link_regions():
    rng = np.random.default_rng(424242)
    for _ in range(200):
        params = random_channel(rng)
        ordered = order_for_downlink(params)
        terms = capacity_terms(ordered)
        outer = outer_bound(terms)
        up = uplink_polytope(terms)
        down = downlink_polytope(classify_case(terms.sigma_bar2), terms)
        for v in enumerate_vertices(outer).vertices:
            assert contains(up, tuple(v))
            assert contains(down, tuple(v))


def test_case_polytope_equals_generic_downlink_restriction():
    """Each case's trimmed row list describes exactly the generic region.

    The generic region bounds every cross-pair sum by the better of the two
    interested receivers and every single rate by its partner's downlink
    term; within each case ordering, the trimmed per-case rows carve out the
    same set.
    """
    rng = np.random.default_rng(77)
    pair_rows = {
        (1, 3): (1.0, 0.0, 1.0, 0.0),
        (1, 4): (1.0, 0.0, 0.0, 1.0),
        (2, 3): (0.0, 1.0, 1.0, 0.0),
        (2, 4): (0.0, 1.0, 0.0, 1.0),
    }
    for trial in range(200):
        params = order_for_downlink(random_channel(rng))
        terms = capacity_terms(params)
        D = terms.D
        generic_rows = [
            (pair_rows[(1, 3)], max(D[1], D[3])),
            (pair_rows[(1, 4)], max(D[1], D[2])),
            (pair_rows[(2, 3)], max(D[0], D[3])),
            (pair_rows[(2, 4)], max(D[0], D[2])),
            ((1.0, 0.0, 0.0, 0.0), D[1]),
            ((0.0, 1.0, 0.0, 0.0), D[0]),
            ((0.0, 0.0, 1.0, 0.0), D[3]),
            ((0.0, 0.0, 0.0, 1.0), D[2]),
        ]
        from relaygap.polytope import HalfspaceSystem

        generic = enumerate_vertices(HalfspaceSystem(generic_rows))
        case = classify_case(terms.sigma_bar2)
        trimmed = enumerate_vertices(downlink_polytope(case, terms))
        assert oracles.same_point_sets(
            [tuple(v) for v in generic.vertices],
            [tuple(v) for v in trimmed.vertices],
            tol=1e-9,
        ), f"case {case.value} mismatch on trial {trial}"


def test_outer_bound_never_exceeds_uplink_row_for_row():
    rng = np.random.default_rng(5150)
    for _ in range(100):
        terms = capacity_terms(random_channel(rng))
        outer = outer_bound(terms)
        up = uplink_polytope(terms)
        for (a_o, b_o), (a_u, b_u) in zip(outer.rows[:8], up.rows[:8]):
            assert a_o == a_u
            assert b_o <= b_u + 1e-12


# ---------------------------------------------------------------------------
# compiled regions
# ---------------------------------------------------------------------------

#: the cross-pair sum rows (in `PAIR_KEYS` order), then the single-rate rows
PAIR_AND_SINGLE_ROWS = [
    (1.0, 0.0, 1.0, 0.0),
    (1.0, 0.0, 0.0, 1.0),
    (0.0, 1.0, 1.0, 0.0),
    (0.0, 1.0, 0.0, 1.0),
    (1.0, 0.0, 0.0, 0.0),
    (0.0, 1.0, 0.0, 0.0),
    (0.0, 0.0, 1.0, 0.0),
    (0.0, 0.0, 0.0, 1.0),
]


def _public_regions(terms, case):
    """outer, uplink and downlink regions built row by row through the public
    HalfspaceSystem constructor."""
    D, C, Cp = terms.D, terms.C, terms.Cpair
    served = (D[1], D[0], D[3], D[2])
    outer = [min(Cp[(i, j)], max(served[i - 1], served[j - 1])) for i, j in PAIR_KEYS]
    outer += [min(c, d) for c, d in zip(C, served)]
    uplink = [Cp[key] for key in PAIR_KEYS] + list(C)
    down_rows = [(PAIR_AND_SINGLE_ROWS[r], D[u - 1]) for r, u in _DOWNLINK_ROWS[case.value]]
    return (
        HalfspaceSystem(zip(PAIR_AND_SINGLE_ROWS, outer)),
        HalfspaceSystem(zip(PAIR_AND_SINGLE_ROWS, uplink)),
        HalfspaceSystem(down_rows),
    )


def test_package_regions_equal_their_public_construction():
    cases = set()
    for params in channel_sets(20)["seed1729"] + targeted_channels():
        for frame in canonical_frames(params):
            terms = capacity_terms(frame)
            case = classify_case(terms.sigma_bar2)
            cases.add(case)
            package = (outer_bound(terms), uplink_polytope(terms), downlink_polytope(case, terms))
            for got, want in zip(package, _public_regions(terms, case)):
                assert got == want and hash(got) == hash(want)
                assert got.n_user_rows == want.n_user_rows
                for g, w in zip(got.arrays(), want.arrays()):
                    assert g.tobytes() == w.tobytes() and not g.flags.writeable
            # outer and uplink regions share one compiled pattern
            assert package[0].arrays()[0] is package[1].arrays()[0]
    assert cases == set(CaseLabel)


def test_package_region_rejects_a_non_finite_right_hand_side():
    terms = capacity_terms(unit_gain())
    with pytest.raises(ValidationError, match=r"rows\[6\]\.b must be finite"):
        uplink_polytope(dataclasses.replace(terms, C=(0.5, math.inf, 0.5, 0.5)))
    with pytest.raises(ValidationError, match=r"rows\[1\]\.b is NaN"):
        downlink_polytope("I", dataclasses.replace(terms, D=(0.5, math.nan, 0.5, 0.5)))


# ---------------------------------------------------------------------------
# per-link certificates
# ---------------------------------------------------------------------------


def test_link_certificates_test_each_point_against_the_region_within_tol():
    box = HalfspaceSystem(zip(PAIR_AND_SINGLE_ROWS[4:], [1.0] * 4))
    target = RateTuple((1.0, 1.0, 1.0, 1.0))
    entries = [
        ("corner", target, RateTuple((1.0, 1.0, 1.0, 1.0)), "a"),
        ("inside tol", target, RateTuple((1.0 + 5e-10, 1.0, 1.0, 1.0)), "b"),
        ("outside", target, RateTuple((1.0, 1.0, 1.0 + 2e-9, 1.0)), "c"),
        ("short", target, RateTuple((0.4, 1.0, 1.0, 1.0)), "d"),
    ]
    certs = link_certificates("uplink", box, entries)
    assert [c.vertex_label for c in certs] == [label for label, *_ in entries]
    assert [c.subcase for c in certs] == ["a", "b", "c", "d"]
    assert [c.passed for c in certs] == [True, True, False, False]
    for c, (_, _, achieved, _) in zip(certs, entries):
        assert c.link == "uplink" and c.achieved is achieved
        assert c.slack == tuple(t - a for t, a in zip(target, achieved))


@pytest.mark.parametrize("name", ["seed1729", "wide_seed7", "targeted"])
def test_link_certificates_keep_the_per_point_pass_rule(name):
    for params in channel_sets()[name]:
        for frame in canonical_frames(params):
            terms = capacity_terms(frame)
            case = classify_case(terms.sigma_bar2)
            for certs, region in (
                (uplink_certificate(frame), uplink_polytope(terms)),
                (downlink_certificate(frame), downlink_polytope(case, terms)),
            ):
                for c in certs:
                    want = max(c.slack) <= HALF_BIT + GAP_TOL and contains(region, c.achieved)
                    assert type(c.passed) is bool and c.passed == want


def test_certificate_fails_an_achieved_tuple_outside_its_region(monkeypatch):
    params = targeted_channels()[0]
    real = downlink.scheme_map
    planted = []

    def first_one_beyond_every_row(scheme_id, p, sigma_bar2):
        rates = real(scheme_id, p, sigma_bar2)
        if not planted:
            planted.append(rates)
            return tuple(r + 10.0 for r in rates)
        return rates

    monkeypatch.setattr(downlink, "scheme_map", first_one_beyond_every_row)
    first, *rest = downlink_certificate(params)
    terms = capacity_terms(params)
    region = downlink_polytope(classify_case(terms.sigma_bar2), terms)
    assert max(first.slack) <= HALF_BIT and not contains(region, first.achieved)
    assert first.passed is False
    assert rest and all(c.passed for c in rest)
