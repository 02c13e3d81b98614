import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from relaygap.bounds import downlink_polytope, outer_bound, uplink_polytope
from relaygap.certifier import random_channel
from relaygap.downlink import classify_case
from relaygap.model import (
    DEDUP_TOL,
    InternalConsistencyError,
    RateTuple,
    ValidationError,
    capacity_terms,
)
from relaygap.polytope import (
    HalfspaceSystem,
    RowPattern,
    VertexSet,
    contains,
    enumerate_vertices,
    in_downward_hull,
    maximal_vertices,
)

from conftest import canonical_frames, channel_sets


def unit_box() -> HalfspaceSystem:
    rows = []
    for i in range(4):
        a = [0.0] * 4
        a[i] = 1.0
        rows.append((tuple(a), 1.0))
    return HalfspaceSystem(rows)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_nonnegativity_rows_are_appended():
    sys_ = unit_box()
    assert sys_.n_user_rows == 4
    assert len(sys_.rows) == 8
    assert sys_.rows[4:] == (
        ((-1.0, 0.0, 0.0, 0.0), 0.0),
        ((0.0, -1.0, 0.0, 0.0), 0.0),
        ((0.0, 0.0, -1.0, 0.0), 0.0),
        ((0.0, 0.0, 0.0, -1.0), 0.0),
    )


def test_arrays_are_built_once_and_read_only():
    sys_ = unit_box()
    A, b = sys_.arrays()
    assert sys_.arrays()[0] is A and sys_.arrays()[1] is b
    assert A.shape == (8, 4) and b.shape == (8,)
    for arr in (A, b):
        with pytest.raises(ValueError):
            arr[0] = 5.0
    assert sys_.rows[0] == ((1.0, 0.0, 0.0, 0.0), 1.0)
    assert sys_ == unit_box() and hash(sys_) == hash(unit_box())
    assert sys_ != HalfspaceSystem([((1.0, 1.0, 1.0, 1.0), 1.0)])


def test_unbounded_coordinate_is_rejected():
    rows = [((1.0, 0.0, 0.0, 0.0), 1.0), ((0.0, 1.0, 1.0, 0.0), 2.0)]
    with pytest.raises(ValidationError, match="unbounded in coordinate R4"):
        HalfspaceSystem(rows)
    with pytest.raises(ValidationError, match="unbounded in coordinate R4"):
        RowPattern(a for a, _ in rows)


def test_mixed_sign_row_does_not_certify_boundedness():
    # R1 - R2 <= 1 has a positive R1 coefficient but is not all-nonnegative
    rows = [
        ((1.0, -1.0, 0.0, 0.0), 1.0),
        ((0.0, 1.0, 0.0, 0.0), 1.0),
        ((0.0, 0.0, 1.0, 0.0), 1.0),
        ((0.0, 0.0, 0.0, 1.0), 1.0),
    ]
    with pytest.raises(ValidationError, match="unbounded in coordinate R1"):
        HalfspaceSystem(rows)


@pytest.mark.parametrize(
    "rows",
    [
        [((1.0, 0.0, 0.0), 1.0)],
        [((1.0, float("nan"), 1.0, 1.0), 1.0)],
        [((1.0, float("inf"), 1.0, 1.0), 1.0)],
        [((1.0, 1.0, 1.0, 1.0), float("nan"))],
        ["not a row"],
        [((1.0, 1.0, 1.0, 1.0), 10**400)],
    ],
)
def test_malformed_rows_are_rejected(rows):
    with pytest.raises(ValidationError):
        HalfspaceSystem(rows)


def test_infeasible_system_raises_internal_error():
    rows = [
        ((1.0, 1.0, 1.0, 1.0), 2.0),
        ((1.0, 0.0, 0.0, 0.0), -1.0),  # forces R1 <= -1, impossible with R1 >= 0
    ]
    with pytest.raises(InternalConsistencyError):
        enumerate_vertices(HalfspaceSystem(rows))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_unit_box_has_sixteen_corner_vertices():
    vs = enumerate_vertices(unit_box())
    got = sorted(tuple(v) for v in vs.vertices)
    want = sorted(itertools.product((0.0, 1.0), repeat=4))
    assert got == pytest.approx(want, abs=1e-12)
    assert len(maximal_vertices(vs)) == 1
    assert tuple(maximal_vertices(vs)[0]) == (1.0, 1.0, 1.0, 1.0)


def test_tight_sets_index_rows_satisfied_with_equality():
    sys_ = unit_box()
    vs = enumerate_vertices(sys_)
    A, b = sys_.arrays()
    for v, tight in zip(vs.vertices, vs.tight_sets):
        assert len(tight) >= 4
        x = np.array(list(v))
        resid = np.abs(A @ x - b)
        assert (resid[list(tight)] <= 1e-9).all()
        loose = [i for i in range(len(sys_.rows)) if i not in tight]
        assert (resid[loose] > 1e-9).all()


def test_vertices_are_lexicographically_sorted():
    vs = enumerate_vertices(unit_box())
    pts = [tuple(v) for v in vs.vertices]
    assert pts == sorted(pts)


def test_simplex_region_enumeration():
    rows = [((1.0, 1.0, 1.0, 1.0), 1.0)]
    vs = enumerate_vertices(HalfspaceSystem(rows))
    got = sorted(tuple(v) for v in vs.vertices)
    want = [(0.0, 0.0, 0.0, 0.0)] + [
        tuple(1.0 if j == i else 0.0 for j in range(4)) for i in range(4)
    ]
    assert got == pytest.approx(sorted(want), abs=1e-12)
    assert len(maximal_vertices(vs)) == 4


def test_enumeration_matches_exact_rational_oracle_on_random_systems():
    rng = np.random.default_rng(20240817)
    for trial in range(100):
        n_rows = int(rng.integers(8, 13))
        rows = oracles.random_dyadic_system(rng, n_rows)
        vs = enumerate_vertices(HalfspaceSystem(rows))
        exact = oracles.exact_vertices(rows)
        assert oracles.same_point_sets(
            [tuple(v) for v in vs.vertices], exact, tol=1e-9
        ), f"vertex mismatch on trial {trial}"


def test_maximal_filter_matches_exact_oracle_on_random_systems():
    rng = np.random.default_rng(11235)
    for _ in range(40):
        rows = oracles.random_dyadic_system(rng, int(rng.integers(8, 13)))
        vs = enumerate_vertices(HalfspaceSystem(rows))
        exact_max = oracles.exact_maximal(oracles.exact_vertices(rows))
        assert oracles.same_point_sets(
            [tuple(v) for v in maximal_vertices(vs)], exact_max, tol=1e-9
        )


def test_duplicate_defining_rows_do_not_duplicate_vertices():
    rows = [((1.0, 1.0, 1.0, 1.0), 1.0)] * 3
    vs = enumerate_vertices(HalfspaceSystem(rows))
    assert len(vs) == 5


def _package_regions(params):
    """The outer region of a channel and its uplink and downlink regions in
    every canonical frame."""
    yield outer_bound(capacity_terms(params))
    for frame in canonical_frames(params):
        terms = capacity_terms(frame)
        yield uplink_polytope(terms)
        yield downlink_polytope(classify_case(terms.sigma_bar2), terms)


def _hex_vertices(vs: VertexSet):
    return [(tuple(float(x).hex() for x in v), t) for v, t in zip(vs.vertices, vs.tight_sets)]


def _systems(name):
    if name == "dyadic":
        rng = np.random.default_rng(31337)
        return [
            HalfspaceSystem(oracles.random_dyadic_system(rng, int(rng.integers(4, 13))))
            for _ in range(60)
        ]
    return [region for params in channel_sets()[name] for region in _package_regions(params)]


@pytest.mark.parametrize("name", ["seed1729", "wide_seed7", "targeted", "dyadic"])
def test_compiled_enumeration_is_bit_identical_to_the_per_call_reference(name):
    # the compiled pattern solves the same sub-matrices against the same
    # right-hand sides as the per-call enumeration, so every float matches
    for system in _systems(name):
        got = enumerate_vertices(system)
        want = oracles.reference_enumerate_vertices(system)
        assert _hex_vertices(got) == _hex_vertices(want)


def test_regions_of_one_pattern_enumerate_their_own_vertices():
    pattern = RowPattern(a for a, _ in unit_box().rows[:4])
    small, large = pattern.region([1.0] * 4), pattern.region([2.0, 3.0, 0.5, 1.0])
    assert small.arrays()[0] is large.arrays()[0]  # one compiled A
    for region, sides in ((small, (1.0,) * 4), (large, (2.0, 3.0, 0.5, 1.0))):
        got = sorted(tuple(v) for v in enumerate_vertices(region).vertices)
        assert got == sorted(itertools.product(*[(0.0, s) for s in sides]))
        assert region == HalfspaceSystem(zip(pattern.coeffs[:4], sides))


def test_region_right_hand_sides_are_validated_by_name():
    pattern = RowPattern(a for a, _ in unit_box().rows[:4])
    with pytest.raises(ValidationError, match=r"rows\[3\]\.b must be finite"):
        pattern.region([1.0, 1.0, float("inf"), 1.0])
    with pytest.raises(ValidationError, match=r"rows\[1\]\.b is NaN"):
        pattern.region([float("nan"), 1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# maximal_vertices on hand-built sets
# ---------------------------------------------------------------------------


def test_maximal_vertices_accepts_hand_built_sets():
    vs = VertexSet(
        vertices=(
            RateTuple((1.0, 0.0, 0.0, 0.0)),
            RateTuple((1.0, 1.0, 0.0, 0.0)),
            RateTuple((0.0, 0.0, 1.0, 0.0)),
            RateTuple((0.0, 0.0, 0.0, 0.0)),
        ),
        tight_sets=((), (), (), ()),
    )
    keep = {tuple(v) for v in maximal_vertices(vs)}
    assert keep == {(1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)}


def test_maximal_vertices_keeps_near_duplicates_together():
    # two points within DEDUP_TOL of each other: neither strictly dominates
    vs = VertexSet(
        vertices=(
            RateTuple((1.0, 1.0, 1.0, 1.0)),
            RateTuple((1.0, 1.0, 1.0, 1.0 + 5e-10)),
        ),
        tight_sets=((), ()),
    )
    assert len(maximal_vertices(vs)) == 2


@pytest.mark.parametrize("draw", [77, 92, 175])
def test_maximal_vertices_drop_corners_dominated_within_dedup_tol(draw):
    # wide-range channels where a corner's dominator sits within DEDUP_TOL
    # below it in some coordinate (or was merged into such a representative)
    rng = np.random.default_rng(7)
    box = (1e-6, 1e6)
    for _ in range(draw + 1):
        params = random_channel(rng, box, box, box)
    vs = enumerate_vertices(outer_bound(capacity_terms(params)))
    pts = np.array([list(v) for v in vs.vertices])
    for v in maximal_vertices(vs):
        v = np.array(list(v))
        dominators = (pts >= v - DEDUP_TOL).all(axis=1) & ((pts - v) > DEDUP_TOL).any(axis=1)
        assert not dominators.any(), f"maximal corner {tuple(v)} is dominated"


# ---------------------------------------------------------------------------
# contains
# ---------------------------------------------------------------------------


def test_contains_checks_every_row():
    sys_ = unit_box()
    assert contains(sys_, (0.5, 0.5, 0.5, 0.5))
    assert contains(sys_, (1.0, 1.0, 1.0, 1.0))
    assert contains(sys_, (1.0 + 5e-10, 0.0, 0.0, 0.0))  # inside TIGHT_TOL
    assert not contains(sys_, (1.1, 0.0, 0.0, 0.0))
    assert not contains(sys_, (-0.1, 0.0, 0.0, 0.0))


def test_contains_rejects_malformed_points():
    with pytest.raises(ValidationError):
        contains(unit_box(), (1.0, 2.0, 3.0))


# ---------------------------------------------------------------------------
# downward-hull membership
# ---------------------------------------------------------------------------


def test_points_lie_in_their_own_downward_hull():
    pts = [(1.0, 0.5, 0.0, 0.25), (0.2, 0.9, 0.3, 0.0)]
    for p in pts:
        assert in_downward_hull(pts, p)
        shrunk = tuple(0.5 * c for c in p)
        assert in_downward_hull(pts, shrunk)


def test_target_above_hull_is_rejected():
    pts = [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)]
    # any convex combination has coordinates summing to 1
    assert in_downward_hull(pts, (0.5, 0.5, 0.0, 0.0))
    assert not in_downward_hull(pts, (0.6, 0.6, 0.0, 0.0))
    assert not in_downward_hull(pts, (0.0, 0.0, 0.1, 0.0))


def test_negative_target_coordinates_are_clamped():
    pts = [(0.5, 0.5, 0.5, 0.5)]
    assert in_downward_hull(pts, (-1.0, 0.5, -2.0, 0.5))
    # only finite negatives are clamped: NaN and infinities are errors
    for points, target in (
        (pts, (np.nan, 0.0, 0.0, 0.0)),
        ([(np.nan, 0.5, 0.5, 0.5)], (0.1, 0.1, 0.1, 0.1)),
        ([(np.inf, 0.0, 0.0, 0.0)], (1.0, 0.0, 0.0, 0.0)),
    ):
        with pytest.raises(ValidationError, match="must be finite"):
            in_downward_hull(points, target)


def test_empty_point_set_contains_nothing():
    assert not in_downward_hull([], (0.0, 0.0, 0.0, 0.0))


def test_hull_membership_requires_convex_weights_not_scaling():
    # (0.9, 0.9, 0, 0) needs total weight > 1 on (1,1,0,0)
    pts = [(1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 1.0)]
    assert in_downward_hull(pts, (0.9, 0.9, 0.0, 0.0))
    assert not in_downward_hull(pts, (0.9, 0.9, 0.2, 0.2))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: a pivot just above the LP's pivot tolerance leaves the basis "
    "primal-infeasible while the artificial cost reads 0; the fix removes this mark",
)
@pytest.mark.parametrize("target", [(0.0, 2.0, 0.00390625, 0.0), (0.0, 2.0, 1.0, 0.0)])
def test_a_target_past_every_points_second_coordinate_is_outside_the_hull(target):
    # no point's second coordinate exceeds 1, so no convex combination reaches 2
    pts = [(0.0, 0.0, 1.0, 1.0), (1.0, 0.0, 0.0, 1e-11), (0.0, 1.0, 1.0, 1e-15)]
    assert in_downward_hull(pts, target) is False


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3, defect 1 (false 'in'), as drawn by the grid-search Hypothesis test "
    "below; the fix removes this mark",
)
def test_a_target_past_every_points_first_coordinate_is_outside_the_hull():
    # no point's first coordinate exceeds 0.5, so no convex combination reaches 1
    pts = [(0.5, 0.0, 0.8621842091279206, 0.0), (0.0, 1.0, 0.93359375, 0.0),
           (0.0, 1.192092896e-07, 0.0, 0.005859375)]
    assert in_downward_hull(pts, (1.0, 0.0, 0.0, 0.0)) is False


point4 = st.tuples(*[st.floats(min_value=0.0, max_value=2.0) for _ in range(4)])


@settings(max_examples=150, deadline=None)
@given(
    pts=st.lists(point4, min_size=1, max_size=3),
    target=point4,
)
def test_hull_membership_agrees_with_dense_grid_search(pts, target):
    lp = in_downward_hull(pts, target)
    grid = oracles.grid_in_downward_hull(pts, target, step=1e-3)
    if lp != grid:
        # the two can only disagree within discretization distance of the
        # hull boundary; a target nudged firmly inside must satisfy both
        # (grid resolution error is < 5e-3 for points bounded by 2)
        nudged = np.asarray(target) - 5e-3
        assert in_downward_hull(pts, nudged)
        assert oracles.grid_in_downward_hull(pts, nudged, step=1e-3)


def test_hull_membership_on_boundary_mixture():
    pts = [(1.0, 0.0, 0.5, 0.5), (0.0, 1.0, 0.5, 0.5), (0.5, 0.5, 0.0, 1.0)]
    target = (0.5, 0.5, 0.5, 0.5)  # exact midpoint of the first two
    assert in_downward_hull(pts, target)
    assert oracles.grid_in_downward_hull(pts, target, step=1e-3)
