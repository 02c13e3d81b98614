"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive and self-contained: exact integer /
rational arithmetic or 40-digit mpmath instead of floating point, dense grids
instead of linear programs.  Slow, but with nothing to argue about.
"""

from fractions import Fraction
from itertools import chain, combinations, permutations
from typing import Dict, List, Sequence, Tuple

import numpy as np
from mpmath import mp, mpf

from relaygap.certifier import BruteForceReport, OracleRow
from relaygap.downlink import (
    CASE_SCHEMES,
    SCHEME_LAYERS,
    SIC_REMOVE,
    SKIP_KNOWN,
    _recipe,
    alloc_for_vertex,
    classify_case,
    downlink_certificate,
    downlink_vertices,
    message_plan,
    scheme_map,
)
from relaygap.effective import canonicalize
from relaygap.model import (
    DEDUP_TOL,
    SINGULAR_REL_TOL,
    TIGHT_TOL,
    InternalConsistencyError,
    RateTuple,
    capacity_terms,
    gaussian_layer,
    lattice_layer,
    received_powers,
)
from relaygap.polytope import VertexSet
from relaygap.uplink import (
    Step,
    decoding_order,
    uplink_certificate,
    uplink_power_alloc,
    uplink_vertices,
)

Point = Tuple[float, float, float, float]

# ---------------------------------------------------------------------------
# exact vertex enumeration
#
# Two interchangeable backends solve every 4-row subsystem by Cramer's rule:
#
# * an int64 path for systems whose entries are all multiples of 1/16 in
#   [-16, 16].  Determinants of 4x4 matrices with entries bounded by 256 stay
#   below 2^63 with orders of magnitude to spare, so plain numpy integer
#   arithmetic is exact;
# * a Fraction path for arbitrary float entries (Fraction(float) is exact).
# ---------------------------------------------------------------------------

_SCALE = 16


def _with_nonneg(rows) -> List[Tuple[Tuple[float, ...], float]]:
    out = [(tuple(float(c) for c in a), float(b)) for a, b in rows]
    for i in range(4):
        a = [0.0] * 4
        a[i] = -1.0
        out.append((tuple(a), 0.0))
    return out


def _is_dyadic16(rows) -> bool:
    for a, b in rows:
        for v in (*a, b):
            if not (abs(v) <= _SCALE and v * _SCALE == round(v * _SCALE)):
                return False
    return True


def _det3int(m: np.ndarray) -> np.ndarray:
    return (
        m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
        - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
        + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
    )


def _det4int(m: np.ndarray) -> np.ndarray:
    total = np.zeros(m.shape[:-2], dtype=np.int64)
    rest = m[..., 1:, :]
    for j in range(4):
        cols = [c for c in range(4) if c != j]
        term = m[..., 0, j] * _det3int(rest[..., cols])
        total = total + (term if j % 2 == 0 else -term)
    return total


def _exact_vertices_int(rows) -> List[Tuple[Fraction, ...]]:
    A = np.array([[round(c * _SCALE) for c in a] for a, _ in rows], dtype=np.int64)
    b = np.array([round(bb * _SCALE) for _, bb in rows], dtype=np.int64)
    m = len(rows)

    combos = np.array(list(combinations(range(m), 4)), dtype=int)
    subA = A[combos]  # (K, 4, 4)
    subB = b[combos]  # (K, 4)

    D = _det4int(subA)
    keep = D != 0
    subA, subB, D = subA[keep], subB[keep], D[keep]

    # Cramer numerators: replace one column at a time by the rhs
    N = np.empty((len(D), 4), dtype=np.int64)
    for k in range(4):
        Mk = subA.copy()
        Mk[:, :, k] = subB
        N[:, k] = _det4int(Mk)

    # normalize the common denominator positive, then test a.x <= b exactly
    # via a.N <= b*D (all integer)
    sign = np.where(D > 0, 1, -1).astype(np.int64)
    N = N * sign[:, None]
    Dp = D * sign
    feas = (N @ A.T <= b[None, :] * Dp[:, None]).all(axis=1)

    seen = set()
    for num, den in zip(N[feas], Dp[feas]):
        seen.add(tuple(Fraction(int(nk), int(den)) for nk in num))
    return sorted(seen)


def _solve4_fraction(rows):
    """Exact Gaussian elimination on a 4x4 system; None when singular."""
    M = [[Fraction(c) for c in a] + [Fraction(b)] for a, b in rows]
    for col in range(4):
        piv = next((r for r in range(col, 4) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = M[col][col]
        M[col] = [v / inv for v in M[col]]
        for r in range(4):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[col])]
    return tuple(M[r][4] for r in range(4))


def _exact_vertices_fraction(rows) -> List[Tuple[Fraction, ...]]:
    frac_rows = [
        (tuple(Fraction(c) for c in a), Fraction(b)) for a, b in rows
    ]
    seen = set()
    for subset in combinations(range(len(frac_rows)), 4):
        sol = _solve4_fraction([rows[i] for i in subset])
        if sol is None:
            continue
        if all(
            sum(ak * xk for ak, xk in zip(a, sol)) <= b for a, b in frac_rows
        ):
            seen.add(sol)
    return sorted(seen)


def exact_vertices(user_rows) -> List[Tuple[Fraction, ...]]:
    """All vertices of {a.x <= b} intersected with the nonnegative orthant.

    ``user_rows`` is a sequence of ((a1, a2, a3, a4), b); the four rows
    -x_i <= 0 are appended automatically, mirroring the package convention.
    Returns exact rational points, sorted.
    """
    rows = _with_nonneg(user_rows)
    if _is_dyadic16(rows):
        return _exact_vertices_int(rows)
    return _exact_vertices_fraction(rows)


def exact_maximal(vertices: Sequence[Tuple[Fraction, ...]]) -> List[Tuple[Fraction, ...]]:
    """Componentwise-maximal elements under exact comparison."""
    out = []
    for v in vertices:
        dominated = any(
            w != v and all(wk >= vk for wk, vk in zip(w, v)) for w in vertices
        )
        if not dominated:
            out.append(v)
    return out


def same_point_sets(first, second, tol: float) -> bool:
    """True when the two collections cover each other within L-infinity tol."""
    A = [tuple(float(c) for c in p) for p in first]
    B = [tuple(float(c) for c in p) for p in second]

    def covered(p, pool):
        return any(max(abs(pc - qc) for pc, qc in zip(p, q)) <= tol for q in pool)

    return all(covered(a, B) for a in A) and all(covered(b, A) for b in B)


# ---------------------------------------------------------------------------
# dense grid downward-hull membership (1 to 3 points)
# ---------------------------------------------------------------------------


def grid_in_downward_hull(points, target, step: float = 1e-3, tol: float = 1e-9) -> bool:
    """Brute-force the convex weights over a dense grid of spacing ``step``."""
    pts = np.asarray(points, dtype=float)
    t = np.maximum(0.0, np.asarray(target, dtype=float))
    lam = np.arange(0.0, 1.0 + step / 2, step)
    if len(pts) == 1:
        return bool((pts[0] >= t - tol).all())
    if len(pts) == 2:
        combo = lam[:, None] * pts[0] + (1.0 - lam)[:, None] * pts[1]
        return bool((combo >= t - tol).all(axis=1).any())
    if len(pts) == 3:
        l1, l2 = np.meshgrid(lam, lam, indexing="ij")
        keep = l1 + l2 <= 1.0 + 1e-12
        l1, l2 = l1[keep], l2[keep]
        combo = (
            l1[:, None] * pts[0]
            + l2[:, None] * pts[1]
            + (1.0 - l1 - l2)[:, None] * pts[2]
        )
        return bool((combo >= t - tol).all(axis=1).any())
    raise ValueError("grid oracle supports 1 to 3 points")


# ---------------------------------------------------------------------------
# random test systems
# ---------------------------------------------------------------------------


def random_dyadic_system(rng: np.random.Generator, n_rows: int):
    """Random bounded halfspace rows with entries on the 1/16 grid.

    Coefficients lie in [0, 4] (about a third forced to exact zero so rows
    touch few coordinates), right-hand sides in [0.5, 4].  Every coordinate
    is guaranteed a positive coefficient somewhere, keeping the system
    bounded.  Entries are exactly representable, so the int64 oracle path
    applies.
    """
    while True:
        A = rng.integers(1, 65, size=(n_rows, 4))
        A[rng.random(size=A.shape) < 0.35] = 0
        if (A.max(axis=0) > 0).all():
            break
    b = rng.integers(8, 65, size=n_rows)
    return [
        (tuple(int(v) / _SCALE for v in row), int(rhs) / _SCALE)
        for row, rhs in zip(A, b)
    ]


# ---------------------------------------------------------------------------
# designated constructions re-evaluated in high precision
#
# The package's rate maps are written once and shared by the certificates
# and the grid oracle, so agreement between those two says nothing about the
# formulas themselves.  This reference takes only the synthesized transceiver
# parameters from the package (decoding orders and power allocations) and
# recomputes every achieved rate from the coding schemes' definitions (the
# uplink SIC pass, the downlink message plans) in 40-digit arithmetic,
# without calling any package rate function.
# ---------------------------------------------------------------------------


def _mp_layer(p, interference, noise):
    """Gaussian codeword / broadcast layer: 1/2 log2(1 + p/(I + N))."""
    return mp.log(1 + mpf(p) / (mpf(interference) + mpf(noise)), 2) / 2


def _mp_lattice(p, interference, noise):
    """Nested-lattice codeword: 1/2 [log2(1/2 + p/(I + N))]+."""
    return max(mpf(0), mp.log(mpf(1) / 2 + mpf(p) / (mpf(interference) + mpf(noise)), 2) / 2)


def _mp_uplink(alloc, order, sigmaR2):
    """User rates after one SIC pass; a pending lattice pair counts twice."""
    power = {"G1": alloc.p11, "G3": alloc.p31, "LA": alloc.p10, "LB": alloc.p30}
    weight = {"G1": mpf(alloc.p11), "G3": mpf(alloc.p31),
              "LA": 2 * mpf(alloc.p10), "LB": 2 * mpf(alloc.p30)}
    rate = {}
    for k, step in enumerate(s.value for s in order):
        pending = sum((weight[s.value] for s in order[k + 1:]), mpf(0))
        fn = _mp_layer if step in ("G1", "G3") else _mp_lattice
        rate[step] = fn(power[step], pending, sigmaR2)
    return (rate["LA"] + rate["G1"], rate["LA"], rate["LB"] + rate["G3"], rate["LB"])


#: each user's pair lattice message and private remainder (trailing users own none)
_LATTICE = ("mA", "mA", "mB", "mB")
_PRIVATE = ("m11", None, "m31", None)


def plan_rates(plan, powers, sbar):
    """User rates read off a message plan, in 40-digit arithmetic.

    ``powers`` are the layer powers (pR1, ..) of the plan's codewords xR1, ..
    and ``sbar`` the four effective noises.  Each decode step of a user's
    script runs at `_mp_layer` of its codeword's power under the power of
    every other codeword that user has neither SIC-removed nor skipped yet.
    A trailing user's rate is the least rate over all decodes of the codeword
    carrying its pair's lattice message; a leader's rate sums, over the
    codewords carrying its lattice message or part of its private remainder,
    the least rate over the other users' decodes of each.
    """
    power = {cw.name: mpf(p) for cw, p in zip(plan.codewords, powers)}
    decodes = {name: [] for name in power}  # codeword -> [(user, rate)]
    for user, (script, noise) in enumerate(zip(plan.scripts, sbar)):
        gone = set()
        for step in script:
            if step.action in (SIC_REMOVE, SKIP_KNOWN):
                gone.add(step.codeword)
                continue
            rest = [p for name, p in power.items() if name not in gone and name != step.codeword]
            rate = _mp_layer(power[step.codeword], sum(rest, mpf(0)), noise)
            decodes[step.codeword].append((user, rate))
    rates = []
    for user, (lattice, private) in enumerate(zip(_LATTICE, _PRIVATE)):
        ride = [cw.name for cw in plan.codewords
                if any(m.split(".")[0] in (lattice, private) for m in cw.messages)]
        if private is None:
            rates.append(min(rate for _, rate in decodes[ride[0]]))
        else:
            rates.append(sum(min(rate for u, rate in decodes[name] if u != user) for name in ride))
    return tuple(rates)


def designated_slacks(params) -> Dict[str, float]:
    """Max-component slack of every link vertex's designated construction.

    The channel is canonicalized first, as `brute_force_gap` does, so the
    labels match its rows.  Targets are the package's closed-form vertices;
    achieved rates come from `_mp_uplink` and, over the schemes' message plans,
    `plan_rates`, at the package's decoding orders and power allocations.
    """
    p = canonicalize(params).params
    terms = capacity_terms(p)
    case = classify_case(terms.sigma_bar2)
    out: Dict[str, float] = {}
    with mp.workdps(40):
        alloc = uplink_power_alloc(p)
        for vertex in uplink_vertices(terms):
            achieved = _mp_uplink(alloc, decoding_order(vertex.label), p.sigmaR2)
            out[vertex.label] = float(max(mpf(t) - a for t, a in zip(vertex.rates, achieved)))
        for vertex in downlink_vertices(case, terms):
            dn_alloc, _ = alloc_for_vertex(case, vertex.label, p)
            powers = (dn_alloc.pR1, dn_alloc.pR2, dn_alloc.pR3, dn_alloc.pR4)
            achieved = plan_rates(message_plan(case, dn_alloc.scheme_id), powers, terms.sigma_bar2)
            out[vertex.label] = float(max(mpf(t) - a for t, a in zip(vertex.rates, achieved)))
    return out


# ---------------------------------------------------------------------------
# hand-written broadcast rate maps
#
# `downlink.scheme_map` reads each scheme's rates off its message plan; these
# are the per-scheme formulas it replaced, each least decode already picked
# in the scheme's case order.  They run on the package's `gaussian_layer`, so
# the two must agree bit for bit, on every noise, not only within a tolerance.
# ---------------------------------------------------------------------------


def reference_scheme_map(scheme_id, p, sigma_bar2):
    """`downlink.scheme_map` written out by hand, elementwise over floats or
    numpy arrays."""
    s1, s2, s3, s4 = sigma_bar2
    pR1, pR2, pR3, pR4 = p
    layer = gaussian_layer
    if scheme_id == "4.1":
        return (layer(pR2, 0.0, s2), layer(pR2, 0.0, s1), layer(pR1, pR2, s4), layer(pR1, pR2, s3))
    if scheme_id == "4.2":
        return (
            layer(pR4, 0.0, s2) + layer(pR2, pR3 + pR4, s4),
            layer(pR2, pR3 + pR4, s1),
            layer(pR1, pR2 + pR3 + pR4, s1) + layer(pR3, pR4, s4),
            layer(pR1, pR2 + pR4, s3, cap=layer(pR1, pR2 + pR3 + pR4, s1)),
        )
    if scheme_id == "4.3":
        return (layer(pR2, 0.0, s2), layer(pR2, pR1, s1), layer(pR1, pR2, s4), layer(pR1, pR2, s3))
    return (
        layer(pR3, 0.0, s2) + layer(pR1, pR2 + pR3, s3),
        layer(pR1, pR2, s1, cap=layer(pR1, pR2 + pR3, s3)),
        layer(pR2, pR3, s4),
        layer(pR2, pR3, s3),
    )


# ---------------------------------------------------------------------------
# per-order SIC chain
#
# `uplink.sic_rates` computes each distinct layer once across the orders of
# one call; this is the loop it replaced, every layer of every order formed
# afresh.  It runs on the package's layer kernels, so the two must agree bit
# for bit.
# ---------------------------------------------------------------------------


def reference_sic_rates(p10, p11, p30, p31, orders, sigmaR2):
    """`uplink.sic_rates` one order at a time: yields (r10, r11, r30, r31)."""
    power = {Step.G1: p11, Step.G3: p31, Step.LA: p10, Step.LB: p30}
    weight = {Step.G1: p11, Step.G3: p31, Step.LA: 2.0 * p10, Step.LB: 2.0 * p30}
    for order in orders:
        rates = {}
        for k, step in enumerate(order):
            interference = sum(weight[s] for s in order[k + 1 :])
            layer = gaussian_layer if step in (Step.G1, Step.G3) else lattice_layer
            rates[step] = layer(power[step], interference, sigmaR2)
        yield rates[Step.LA], rates[Step.G1], rates[Step.LB], rates[Step.G3]


# ---------------------------------------------------------------------------
# flattened-grid oracle
#
# `certifier.brute_force_gap` evaluates each rate on the product-grid axes it
# depends on, forms the rates block by block with the SIC layers the decoding
# orders share computed once, folds every order of a block in turn, skips the
# blocks a bound rules out, and folds the closed-form seeds in as one-point
# grids; this is the oracle it replaced: every power spread over the whole
# flattened meshgrid, the seeds appended as extra columns, each order's SIC
# chain run on its own (`reference_sic_rates`), and one (4, N) temporary and
# one argmin per vertex, order after order.
# ---------------------------------------------------------------------------


def reference_keep_best(best, vertices, rows) -> None:
    """Fold four (N,) per-user rate rows into ``best``: per vertex label, the
    lowest max-component slack seen so far and the rate tuple attaining it
    (the first minimising column; a later call wins only when strictly lower)."""
    R = np.stack(rows)
    for vertex in vertices:
        V = np.array(list(vertex.rates), dtype=float)
        slack = (V[:, None] - R).max(axis=0)
        idx = int(slack.argmin())
        value = float(slack[idx])
        if vertex.label not in best or value < best[vertex.label][0]:
            best[vertex.label] = (value, RateTuple(tuple(float(c) for c in R[:, idx])))


def _reference_uplink(params, terms, n):
    q = received_powers(params)
    t = np.linspace(0.0, 1.0, n)
    u, v, w, x = (a.ravel() for a in np.meshgrid(t, t, t, t, indexing="ij"))
    p10 = u * min(q[0], q[1])
    p11 = v * np.maximum(0.0, q[0] - p10)
    p30 = w * min(q[2], q[3])
    p31 = x * np.maximum(0.0, q[2] - p30)

    seed = uplink_power_alloc(params)
    p10 = np.append(p10, seed.p10)
    p11 = np.append(p11, seed.p11)
    p30 = np.append(p30, seed.p30)
    p31 = np.append(p31, seed.p31)

    vertices = uplink_vertices(terms)
    best = {}
    orders = permutations((Step.G1, Step.G3, Step.LA, Step.LB))
    for r10, r11, r30, r31 in reference_sic_rates(p10, p11, p30, p31, orders, params.sigmaR2):
        reference_keep_best(best, vertices, (r10 + r11, r10, r30 + r31, r30))
    return best


def _reference_downlink(params, terms, n):
    case = classify_case(terms.sigma_bar2)
    vertices = downlink_vertices(case, terms)
    t = np.linspace(0.0, 1.0, n)
    grids = {}
    for scheme in CASE_SCHEMES[case]:
        fractions = np.meshgrid(*[t] * SCHEME_LAYERS[scheme], indexing="ij")
        pools = []
        rem = params.PR
        for f in fractions:
            pools.append(f.ravel() * rem)
            rem = rem - pools[-1]
        pools += [np.zeros_like(pools[0])] * (4 - len(pools))
        grids[scheme] = pools

    for vertex in vertices:
        alloc, _ = _recipe(vertex.label, params.PR, terms.sigma_bar2)
        pools = grids[alloc.scheme_id]
        for i, val in enumerate((alloc.pR1, alloc.pR2, alloc.pR3, alloc.pR4)):
            pools[i] = np.append(pools[i], val)

    best = {}
    for scheme, pools in grids.items():
        reference_keep_best(best, vertices, scheme_map(scheme, pools, terms.sigma_bar2))
    return best


def reference_brute_force_gap(params, grid_steps: int) -> BruteForceReport:
    """`certifier.brute_force_gap` over flattened grids with appended seeds."""
    p = canonicalize(params).params
    terms = capacity_terms(p)
    recipe = {
        cert.vertex_label: max(cert.slack)
        for cert in (*uplink_certificate(p), *downlink_certificate(p))
    }
    rows = []
    for link, free in (
        ("uplink", _reference_uplink(p, terms, grid_steps)),
        ("downlink", _reference_downlink(p, terms, grid_steps)),
    ):
        for label in sorted(free):
            free_value, achieved = free[label]
            rows.append(OracleRow(link, label, recipe[label], free_value, achieved))
    return BruteForceReport(grid_steps=grid_steps, rows=tuple(rows))


# ---------------------------------------------------------------------------
# per-call vertex enumeration
#
# `polytope.enumerate_vertices` solves the nonsingular 4-row subsets its
# system's row pattern compiled once; this is the per-call enumeration it
# replaced, which builds every subset, tests each determinant and solves the
# nonsingular ones on every call.
# ---------------------------------------------------------------------------

def reference_enumerate_vertices(system) -> VertexSet:
    """All vertices of a HalfspaceSystem from its ``arrays()`` alone: every
    nonsingular 4x4 subsystem solved, kept when it satisfies every row within
    TIGHT_TOL, duplicates (L-infinity <= DEDUP_TOL) collapsed greedily in
    lexicographic order."""
    A, b = system.arrays()
    m = len(b)

    combos = np.fromiter(chain.from_iterable(combinations(range(m), 4)), np.intp).reshape(-1, 4)
    sub_A = A[combos]  # (K, 4, 4)
    sub_b = b[combos]  # (K, 4)

    dets = np.linalg.det(sub_A)
    # relative to the product of the subset's row inf-norms
    scale = np.maximum(np.abs(A).max(axis=1)[combos].prod(axis=1), 1.0)
    nonsingular = np.abs(dets) > SINGULAR_REL_TOL * scale

    sols = np.linalg.solve(sub_A[nonsingular], sub_b[nonsingular][..., None])[..., 0]  # (K', 4)
    feas = (A @ sols.T <= b[:, None] + TIGHT_TOL).all(axis=0)
    cands = sols[feas]
    if cands.size == 0:
        raise InternalConsistencyError("polytope has no vertices (empty system?)")

    order = np.lexsort((cands[:, 3], cands[:, 2], cands[:, 1], cands[:, 0]))
    cands = cands[order]

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
