"""Geometry of rate regions: halfspace systems, vertices, hull membership.

Every region handled here lives in the nonnegative orthant of R^4 and is an
intersection of halfspaces a . R <= b: a row pattern compiled once
(`RowPattern`) plus a right-hand side b.  The package's regions have at
most 8 rows besides the four nonnegativity rows, so vertex enumeration is
exhaustive over 4-row subsets: the pattern keeps its nonsingular subsets and
their matrices, and a region solves them all in one batch with its own b.
No pivoting heuristics, fully deterministic output.
"""

from __future__ import annotations

from itertools import chain, combinations
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .model import (
    DEDUP_TOL,
    TIGHT_TOL,
    InternalConsistencyError,
    RateTuple,
    ValidationError,
    _as_float4,
    _finite,
)

Row = Tuple[Tuple[float, float, float, float], float]

# relative determinant cutoff below which a 4-row subset is treated as singular
_SINGULAR_REL_TOL = 1e-12
# reduced-cost / pivot threshold inside the simplex
_PIVOT_TOL = 1e-11
_MAX_SIMPLEX_ITERS = 10_000
#: the rows -R_i <= 0 every system ends with
_NONNEG_ROWS = (0.0 - np.eye(4)).tolist()


class RowPattern:
    """Coefficient rows compiled once for every region that shares them.

    ``A`` holds the rows, read-only, with the four nonnegativity rows
    -R_i <= 0 appended; ``subsets`` and ``sub_A`` are its nonsingular 4-row
    subsets and their matrices.  An unbounded pattern is rejected: each R_i
    must appear with a positive coefficient in at least one all-nonnegative
    row, which with R >= 0 certifies a finite upper bound.
    """

    def __init__(self, coeffs: Iterable[Sequence[float]]) -> None:
        A = np.array(list(coeffs) + _NONNEG_ROWS, dtype=float)
        bounded = ((A > 0.0) & (A >= 0.0).all(axis=1, keepdims=True)).any(axis=0)
        if not bounded.all():
            raise ValidationError(
                f"system is unbounded in coordinate R{int(bounded.argmin()) + 1}: no "
                f"all-nonnegative row has a positive coefficient there"
            )
        combos = np.fromiter(chain.from_iterable(combinations(range(len(A)), 4)), np.intp)
        combos = combos.reshape(-1, 4)
        # singular relative to the product of the subset's row inf-norms
        scale = np.maximum(np.abs(A).max(axis=1)[combos].prod(axis=1), 1.0)
        self.subsets = combos[np.abs(np.linalg.det(A[combos])) > _SINGULAR_REL_TOL * scale]
        self.sub_A = A[self.subsets]
        self.coeffs = tuple(map(tuple, A.tolist()))
        A.flags.writeable = False
        self.A = A

    def region(self, rhs: Iterable[float]) -> "HalfspaceSystem":
        """The system of these rows with user right-hand sides ``rhs``."""
        system = object.__new__(HalfspaceSystem)
        system._bind(self, rhs)
        return system


@dataclass(frozen=True)
class HalfspaceSystem:
    """An intersection of halfspaces a . R <= b in R^4, R >= 0 implied.

    The four nonnegativity rows -R_i <= 0 are appended automatically and are
    part of the indexed row list (user rows first).  Construction validates
    the rows and compiles them once (`RowPattern`).  The rows are stored
    once as the read-only arrays `arrays` returns; ``rows`` is read off them.
    """

    rows: Tuple[Row, ...]
    n_user_rows: int

    def __init__(self, rows: Iterable[Sequence[float]]) -> None:
        coeffs, rhs = [], []
        for k, entry in enumerate(rows, 1):
            try:
                a, b = entry
            except (TypeError, ValueError):
                msg = f"rows[{k}] must be ((a1,a2,a3,a4), b), got {entry!r}"
                raise ValidationError(msg) from None
            coeffs.append(_as_float4(a, ("rows[{}].a", k), _finite))
            rhs.append(b)
        self._bind(RowPattern(coeffs), rhs)

    def _bind(self, pattern: RowPattern, rhs: Iterable[float]) -> None:
        rhs = [_finite(b, ("rows[{}].b", k)) for k, b in enumerate(rhs, 1)]
        b = np.array(rhs + [0.0] * 4)
        b.flags.writeable = False
        object.__setattr__(self, "_pattern", pattern)
        object.__setattr__(self, "_arrays", (pattern.A, b))
        object.__setattr__(self, "rows", tuple(zip(pattern.coeffs, b.tolist())))
        object.__setattr__(self, "n_user_rows", len(rhs))

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The read-only ``(A, b)`` of every row, nonnegativity rows last."""
        return self._arrays


@dataclass(frozen=True)
class VertexSet:
    """Vertices of a HalfspaceSystem plus their active-row index sets.

    Vertices are sorted lexicographically; ``tight_sets[k]`` lists the rows
    (indices into the system's full row list) satisfied with equality at
    vertex k.  Every vertex has at least 4 active rows.
    """

    vertices: Tuple[RateTuple, ...]
    tight_sets: Tuple[Tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.vertices)


def enumerate_vertices(system: HalfspaceSystem) -> VertexSet:
    """Enumerate all vertices of the polytope by exhausting 4-row subsets.

    Each nonsingular 4x4 subsystem of the system's compiled rows is solved,
    all in one batch; a solution is kept when it satisfies every row within
    TIGHT_TOL.  Duplicates (L-infinity distance <= DEDUP_TOL) collapse to
    their lexicographically smallest representative.
    """
    A, b = system.arrays()
    pattern = system._pattern
    sols = np.linalg.solve(pattern.sub_A, b[pattern.subsets][..., None])[..., 0]  # (K, 4)
    cands = sols[satisfies(system, sols)]
    if cands.size == 0:
        raise InternalConsistencyError("polytope has no vertices (empty system?)")

    order = np.lexsort((cands[:, 3], cands[:, 2], cands[:, 1], cands[:, 0]))
    cands = cands[order]

    # greedy dedup in lexicographic order: a candidate is kept unless it lies
    # within DEDUP_TOL of one already kept.  The pairwise L-infinity test is
    # built one coordinate at a time, so no (K, K, 4) temporary is allocated.
    close = np.ones((len(cands), len(cands)), dtype=bool)
    for col in cands.T:
        close &= np.abs(col[:, None] - col[None, :]) <= DEDUP_TOL
    uncovered = np.ones(len(cands), dtype=bool)
    keep: List[int] = []
    while uncovered.any():
        keep.append(int(uncovered.argmax()))
        uncovered &= ~close[keep[-1]]
    kept = cands[keep]

    tight = np.abs(A @ kept.T - b[:, None]).T <= TIGHT_TOL  # (V, m)
    tight_sets = tuple(tuple(np.flatnonzero(row).tolist()) for row in tight)
    for x, active in zip(kept, tight_sets):
        if len(active) < 4:
            raise InternalConsistencyError(f"vertex {tuple(x)} has only {len(active)} active rows")
    return VertexSet(vertices=tuple(RateTuple(tuple(x)) for x in kept), tight_sets=tight_sets)


def maximal_vertices(vs: VertexSet) -> List[RateTuple]:
    """Filter a vertex set down to its componentwise-maximal elements.

    A vertex v is dropped when some other vertex w dominates it: w >= v in
    every coordinate within DEDUP_TOL and w exceeds v by more than DEDUP_TOL
    in at least one.  That is the radius at which `enumerate_vertices`
    already treats two points as one, so a corner whose dominator was merged
    into a near-duplicate representative is still dropped.
    """
    pts = np.array([list(v) for v in vs.vertices], dtype=float).reshape(-1, 4)
    w, v = pts[:, None, :], pts[None, :, :]
    dominates = (w >= v - DEDUP_TOL).all(axis=2) & ((w - v) > DEDUP_TOL).any(axis=2)
    dominated = dominates.any(axis=0)
    return [x for x, d in zip(vs.vertices, dominated) if not d]


def satisfies(system: HalfspaceSystem, points: np.ndarray) -> np.ndarray:
    """The one membership rule: which of the ``(k, 4)`` points satisfy every
    row a . R <= b of the system within TIGHT_TOL."""
    A, b = system.arrays()
    return (A @ points.T <= b[:, None] + TIGHT_TOL).all(axis=0)


def contains(system: HalfspaceSystem, point: Sequence[float]) -> bool:
    """True when the point satisfies every row of the system (`satisfies`)."""
    return bool(satisfies(system, np.array([_as_float4(point, "point")]))[0])


# ---------------------------------------------------------------------------
# Downward-hull membership via a phase-1 simplex with Bland's rule.
#
# target is in the downward hull of {p_1..p_n} iff there is lambda >= 0 with
# sum lambda = 1 and sum lambda_j p_j >= target componentwise.  That is a pure
# feasibility question; we solve it as phase 1 of the simplex method with
# Bland's anti-cycling pivot rule so the run is deterministic and finite.
# ---------------------------------------------------------------------------


def in_downward_hull(points: Sequence[Sequence[float]], target: Sequence[float]) -> bool:
    """Decide whether target is dominated by a convex combination of points.

    The rule: accept when some convex combination falls short of the
    target's positive part by at most TIGHT_TOL summed over the four
    coordinates (the phase-1 LP's minimum artificial cost).
    """
    try:
        rows = [_as_float4(p, ("points[{}]", k), _finite) for k, p in enumerate(points, 1)]
    except TypeError:  # from `points` itself: a point's own check names that point
        raise ValidationError(f"points must be a sequence of rate tuples, got {points!r}") from None
    pts = np.array(rows, dtype=float).reshape(-1, 4)
    t = np.array(_as_float4(target, "target", _finite))
    t = np.where(t > 0.0, t, 0.0)
    n = len(pts)
    if n == 0:
        return False

    # variables: lambda_1..lambda_n, surplus s_1..s_4  (all >= 0)
    #   sum_j lambda_j p_j[i] - s_i = t_i      (i = 1..4)
    #   sum_j lambda_j              = 1
    A = np.block([[pts.T, -np.eye(4)], [np.ones((1, n)), np.zeros((1, 4))]])
    return _phase1_feasible(A, np.append(t, 1.0))


def _phase1_feasible(A: np.ndarray, b: np.ndarray) -> bool:
    """Phase-1 simplex: is {x >= 0 : A x = b} nonempty within TIGHT_TOL?  b must be >= 0."""
    m, n = A.shape
    if (b < 0).any():
        raise InternalConsistencyError("phase-1 right-hand side must be nonnegative")

    # tableau [original vars | artificials | b], artificial basis to start
    tab = np.hstack([A, np.eye(m), b[:, None]])
    basis = np.arange(n, n + m)
    cost = np.concatenate([np.zeros(n), np.ones(m)])

    for _ in range(_MAX_SIMPLEX_ITERS):
        reduced = cost - cost[basis] @ tab[:, :-1]
        negative = np.flatnonzero(reduced < -_PIVOT_TOL)
        if negative.size == 0:
            break
        entering = negative[0]  # Bland: lowest index with negative reduced cost

        ratios = np.full(m, np.inf)
        col = tab[:, entering]
        positive = col > _PIVOT_TOL
        ratios[positive] = tab[positive, -1] / col[positive]
        best = ratios.min()
        if not np.isfinite(best):
            # phase-1 objective is bounded below by 0, so an unbounded ray
            # here means numerical trouble, not a real certificate
            raise InternalConsistencyError("phase-1 simplex met an unbounded column")
        # Bland: among tied rows pick the one with the smallest basis variable
        tied = np.flatnonzero(positive & (ratios <= best + 1e-15))
        leaving = tied[np.argmin(basis[tied])]

        # eliminate the entering column from every row, then restore the pivot row
        row = tab[leaving] / tab[leaving, entering]
        tab -= np.outer(tab[:, entering], row)
        tab[leaving] = row
        basis[leaving] = entering
    else:
        raise InternalConsistencyError("phase-1 simplex exceeded iteration cap")

    return float(cost[basis] @ tab[:, -1]) <= TIGHT_TOL
