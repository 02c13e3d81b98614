"""Geometry of rate regions: halfspace systems, vertices, hull membership.

Every region handled here lives in the nonnegative orthant of R^4 and is an
intersection of halfspaces a . R <= b.  The dimension is tiny and the row
counts are bounded (at most ~14 rows in practice), so vertex enumeration is
done exhaustively over all 4-row subsets — no pivoting heuristics, fully
deterministic output.
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


@dataclass(frozen=True)
class HalfspaceSystem:
    """An intersection of halfspaces a . R <= b in R^4, R >= 0 implied.

    The four nonnegativity rows -R_i <= 0 are appended automatically and are
    part of the indexed row list (user rows first).  Construction validates
    that the system is bounded above in every coordinate: each R_i must
    appear with a positive coefficient in at least one all-nonnegative row,
    which together with R >= 0 certifies a finite upper bound.  The rows are
    stored once as the read-only arrays `arrays` returns; ``rows`` is read
    off them.
    """

    rows: Tuple[Row, ...]
    n_user_rows: int

    def __init__(self, rows: Iterable[Sequence[float]]) -> None:
        coeffs: List[Sequence[float]] = []
        rhs: List[float] = []
        for k, entry in enumerate(rows, 1):
            try:
                a, b = entry
            except (TypeError, ValueError):
                msg = f"rows[{k}] must be ((a1,a2,a3,a4), b), got {entry!r}"
                raise ValidationError(msg) from None
            coeffs.append(_as_float4(a, ("rows[{}].a", k), _finite))
            rhs.append(_finite(b, ("rows[{}].b", k)))

        A = np.array(coeffs + _NONNEG_ROWS, dtype=float)
        b = np.array(rhs + [0.0] * 4)
        bounded = ((A > 0.0) & (A >= 0.0).all(axis=1, keepdims=True)).any(axis=0)
        if not bounded.all():
            raise ValidationError(
                f"system is unbounded in coordinate R{int(bounded.argmin()) + 1}: no "
                f"all-nonnegative row has a positive coefficient there"
            )

        A.flags.writeable = b.flags.writeable = False
        object.__setattr__(self, "_arrays", (A, b))
        object.__setattr__(self, "rows", tuple(zip(map(tuple, A.tolist()), b.tolist())))
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

    Each nonsingular 4x4 subsystem is solved; the solution is kept when it
    satisfies every row within TIGHT_TOL.  Duplicates (L-infinity distance
    <= DEDUP_TOL) collapse to their lexicographically smallest representative.
    """
    A, b = system.arrays()
    m = len(b)

    combos = np.fromiter(chain.from_iterable(combinations(range(m), 4)), np.intp).reshape(-1, 4)
    sub_A = A[combos]  # (K, 4, 4)
    sub_b = b[combos]  # (K, 4)

    dets = np.linalg.det(sub_A)
    # relative to the product of the subset's row inf-norms
    scale = np.maximum(np.abs(A).max(axis=1)[combos].prod(axis=1), 1.0)
    nonsingular = np.abs(dets) > _SINGULAR_REL_TOL * scale

    sols = np.linalg.solve(sub_A[nonsingular], sub_b[nonsingular][..., None])[..., 0]  # (K', 4)
    feas = (A @ sols.T <= b[:, None] + TIGHT_TOL).all(axis=0)
    cands = sols[feas]
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


def contains(system: HalfspaceSystem, point: Sequence[float], tol: float = TIGHT_TOL) -> bool:
    """True when the point satisfies every row of the system within tol."""
    A, b = system.arrays()
    return bool((A @ np.array(_as_float4(point, "point")) <= b + tol).all())


# ---------------------------------------------------------------------------
# Downward-hull membership via a phase-1 simplex with Bland's rule.
#
# target is in the downward hull of {p_1..p_n} iff there is lambda >= 0 with
# sum lambda = 1 and sum lambda_j p_j >= target componentwise.  That is a pure
# feasibility question; we solve it as phase 1 of the simplex method with
# Bland's anti-cycling pivot rule so the run is deterministic and finite.
# ---------------------------------------------------------------------------


def in_downward_hull(
    points: Sequence[Sequence[float]],
    target: Sequence[float],
    tol: float = TIGHT_TOL,
) -> bool:
    """Decide whether target is dominated by a convex combination of points."""
    rows = [_as_float4(p, ("points[{}]", k), _finite) for k, p in enumerate(points, 1)]
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
    return _phase1_feasible(A, np.append(t, 1.0), tol)


def _phase1_feasible(A: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Phase-1 simplex: is {x >= 0 : A x = b} nonempty?  b must be >= 0."""
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

    return float(cost[basis] @ tab[:, -1]) <= tol
