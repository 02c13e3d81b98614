"""End-to-end gap certification: per-link recipes, hull checks, and oracles.

The headline guarantee this module certifies is geometric: every maximal
vertex ``V`` of the capacity outer bound, pushed in by half a bit per user
(``T = (V - 1/2)^+``), must be dominated by a convex combination of the rate
tuples the transceiver recipes actually achieve — separately for the uplink
set and for the downlink set, since the exchange runs both hops.  Checking
domination by convex combinations (downward hulls) instead of re-deriving
joint vertices keeps each check a small linear feasibility problem.

Three layers of machinery live here:

* `verify_theorem1` — the full per-channel certificate: read every in-pair
  leader choice's canonical frame off the channel's one set of capacity
  terms (`effective.frame`), run the uplink and downlink syntheses on each,
  pool their achieved points (mapped back to original user numbering), and
  test every outer vertex's pushed-in target against both pools.
* `monte_carlo` / `random_channel` / `targeted_channels` — a seeded,
  reproducible channel ensemble driver with subcase-coverage accounting, plus
  hand-picked channels that force every closed-form recipe branch to fire.
* `brute_force_gap` — a grid-search oracle.  Per vertex it reports the
  closed-form slack and the free grid optimum over all 24 relay decoding
  orders (uplink) or every admissible broadcast scheme (downlink), evaluated
  on product power grids by the same elementwise rate kernels the
  certificates use (`uplink.sic_rates`, `downlink.scheme_map`), each rate
  only on the grid axes its powers depend on, block by block, with the SIC
  layers the 24 orders share formed once per block.  The free
  optimum can sit well below the closed form — the designated constructions
  trade per-vertex optimality for uniform half-bit guarantees — but seeding
  the recipe point guarantees it never sits above.  The independent
  re-evaluation of each designated construction lives with the test suite's
  high-precision references, not here.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .bounds import outer_bound
from .downlink import (
    CASE_SCHEMES,
    SCHEME_LAYERS,
    _recipe,
    certify_downlink,
    classify_case,
    downlink_vertices,
    scheme_map,
)
from .effective import frame
from .model import (
    HALF_BIT,
    TIGHT_TOL,
    CapacityTerms,
    GapCertificate,
    InternalConsistencyError,
    RateTuple,
    SystemParams,
    ValidationError,
    _finite,
    _integer,
    capacity_terms,
    received_powers,
    slack_of,
)
from .polytope import enumerate_vertices, in_downward_hull, maximal_vertices
from .uplink import Step, certify_uplink, power_alloc, sic_rates, uplink_vertices, user_rates

#: the four in-pair leader choices a full certification sweeps
ORDERINGS: Tuple[Tuple[int, int], ...] = ((1, 3), (1, 4), (2, 3), (2, 4))


# ---------------------------------------------------------------------------
# Theorem-level verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderingReport:
    """Per-link certificates for one choice of in-pair rate leaders."""

    rate_order: Tuple[int, int]
    perm: Tuple[int, int, int, int]
    uplink: Tuple[GapCertificate, ...]
    downlink: Tuple[GapCertificate, ...]


@dataclass(frozen=True)
class Theorem1Report:
    """Everything `verify_theorem1` established about one channel.

    ``combined`` holds one certificate per maximal outer-bound vertex V: its
    target is V itself, its achieved point is the largest scaled copy of
    ``T = (V - 1/2)^+`` lying in both links' achieved downward hulls, and it
    passes iff T itself does (slack then at most half a bit per user).
    ``terms`` is the one `capacity_terms` result every frame was read off.
    """

    orderings: Tuple[OrderingReport, ...]
    combined: Tuple[GapCertificate, ...]
    passed: bool
    terms: CapacityTerms


def _in_hull(points: np.ndarray, target: np.ndarray) -> bool:
    """`in_downward_hull`, with a fast path for a single dominating point.

    The fast path accepts when some point falls short of the target by at
    most TIGHT_TOL summed over the coordinates: the phase-1 LP's own
    objective at that point's vertex, so it accepts only what the LP accepts.
    """
    if np.maximum(target - points, 0.0).sum(axis=1).min() <= TIGHT_TOL:
        return True
    return in_downward_hull(points, target)


def _best_scale(up: np.ndarray, dn: np.ndarray, target: np.ndarray) -> Tuple[float, bool, bool]:
    """Largest beta in [0,1] with beta*target inside both downward hulls.

    Returns (beta, in_uplink_hull, in_downlink_hull) where the membership
    flags are for the unscaled target.  Downward hulls are downward closed,
    so the predicate is monotone in beta and bisection converges.
    """
    in_up = _in_hull(up, target)
    in_dn = _in_hull(dn, target)
    if in_up and in_dn:
        return 1.0, in_up, in_dn

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _in_hull(up, mid * target) and _in_hull(dn, mid * target):
            lo = mid
        else:
            hi = mid
    return lo, in_up, in_dn


def verify_theorem1(params: SystemParams) -> Theorem1Report:
    """Certify the half-bit gap for one channel, end to end.

    Runs the uplink and downlink syntheses under all four in-pair leader
    choices, maps every achieved rate tuple back to the original user
    numbering, and then tests each maximal vertex V of the capacity outer
    bound: the pushed-in target (V - 1/2)^+ must lie in the downward convex
    hull of the achieved uplink points and, separately, of the achieved
    downlink points.  Vertex achievability within half a bit on each link
    extends to the whole region by convexity, so these finitely many checks
    certify the full claim.  The outer bound and every frame share the
    channel's one `capacity_terms` call; no parameter record is built.
    """
    terms, q = capacity_terms(params), received_powers(params)
    ordering_reports: List[OrderingReport] = []
    up_points: List[np.ndarray] = []
    dn_points: List[np.ndarray] = []
    for order in ORDERINGS:
        perm, fterms, fq = frame(terms, q, order)
        ucerts = tuple(certify_uplink(fterms, fq, params.sigmaR2))
        dcerts = tuple(certify_downlink(fterms, params.PR))
        ordering_reports.append(
            OrderingReport(rate_order=order, perm=perm, uplink=ucerts, downlink=dcerts)
        )
        # column u of the original frame is the effective slot holding user u+1
        back = np.argsort(perm)
        up_points.append(np.array([c.achieved.rates for c in ucerts])[:, back])
        dn_points.append(np.array([c.achieved.rates for c in dcerts])[:, back])

    up = np.vstack(up_points)
    dn = np.vstack(dn_points)

    outer = outer_bound(terms)
    combined: List[GapCertificate] = []
    for k, vertex in enumerate(maximal_vertices(enumerate_vertices(outer))):
        target = np.maximum(0.0, np.array(vertex.rates) - HALF_BIT)
        beta, in_up, in_dn = _best_scale(up, dn, target)
        achieved = RateTuple(tuple(beta * target))
        membership = (
            f"uplink_hull={'in' if in_up else 'out'},"
            f"downlink_hull={'in' if in_dn else 'out'}"
        )
        slack = slack_of(vertex, achieved)
        combined.append(GapCertificate(
            "combined", f"O{k + 1}", vertex, achieved, slack, in_up and in_dn, membership
        ))

    links = [c for rep in ordering_reports for c in (*rep.uplink, *rep.downlink)]
    return Theorem1Report(
        orderings=tuple(ordering_reports),
        combined=tuple(combined),
        passed=all(c.passed for c in (*links, *combined)),
        terms=terms,
    )


# ---------------------------------------------------------------------------
# seeded channel ensembles
# ---------------------------------------------------------------------------


def _check_range(name: str, rng: Sequence[float]) -> Tuple[float, float]:
    try:
        lo, hi = rng
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a (lo, hi) pair, got {rng!r}") from None
    lo, hi = _finite(lo, name, 1), _finite(hi, name, 2)
    if lo <= 0.0:
        raise ValidationError(f"{name} lower bound must be > 0, got {lo}")
    if hi < lo:
        raise ValidationError(f"{name} upper bound must be >= lower, got ({lo}, {hi})")
    return lo, hi


@dataclass(frozen=True)
class MonteCarloConfig:
    """Shape of a seeded random-channel ensemble (log-uniform draws)."""

    trials: int
    seed: int
    gain_range: Tuple[float, float] = (0.1, 10.0)
    power_range: Tuple[float, float] = (0.1, 10.0)
    noise_range: Tuple[float, float] = (0.1, 10.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", _integer(self.trials, "trials", 1))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))
        for name in ("gain_range", "power_range", "noise_range"):
            object.__setattr__(self, name, _check_range(name, getattr(self, name)))


def random_channel(
    seed: Union[int, np.random.Generator],
    gain_range: Sequence[float] = (0.1, 10.0),
    power_range: Sequence[float] = (0.1, 10.0),
    noise_range: Sequence[float] = (0.1, 10.0),
) -> SystemParams:
    """Draw one channel, every magnitude log-uniform within its range.

    ``seed`` may be an integer (fresh generator, reproducible) or an existing
    numpy Generator (stream continues).  Draw order is fixed: h, g, P,
    sigma2, sigmaR2, PR.
    """
    gain_range = _check_range("gain_range", gain_range)
    power_range = _check_range("power_range", power_range)
    noise_range = _check_range("noise_range", noise_range)
    if not isinstance(seed, np.random.Generator):  # numpy seeds from integers >= 0 only
        seed = _integer(seed, "seed", 0, " or a numpy Generator")
    rng = np.random.default_rng(seed)  # a Generator comes back unaltered

    def draw(bounds: Tuple[float, float], n: int) -> Tuple[float, ...]:
        lo, hi = bounds
        return tuple(float(v) for v in np.exp(rng.uniform(math.log(lo), math.log(hi), n)))

    h, g, P, sigma2 = (draw(r, 4) for r in (gain_range, gain_range, power_range, noise_range))
    sigmaR2, PR = draw(noise_range, 1)[0], draw(power_range, 1)[0]
    return SystemParams(h=h, g=g, P=P, sigma2=sigma2, sigmaR2=sigmaR2, PR=PR)


@dataclass(frozen=True)
class WorstCase:
    """The largest slack component seen across an ensemble, with its channel."""

    link: str
    vertex_label: str
    slack: float
    channel: SystemParams


@dataclass(frozen=True)
class MonteCarloReport:
    config: MonteCarloConfig
    trials: int
    failures: int
    passed: bool
    max_slack: Dict[str, float]
    worst: WorstCase
    subcase_counts: Dict[str, int]


def _certificates_of(report: Theorem1Report):
    """Every certificate of a report with the rate order it was made under
    (None for the combined ones): orderings in turn, uplink before downlink,
    then the combined certificates."""
    for rep in report.orderings:
        for cert in (*rep.uplink, *rep.downlink):
            yield rep.rate_order, cert
    for cert in report.combined:
        yield None, cert


def monte_carlo(config: MonteCarloConfig) -> MonteCarloReport:
    """Run `verify_theorem1` over a seeded ensemble and aggregate.

    The aggregate is a pure function of the config: a shared generator seeded
    once drives all draws, maxima and counters are order-independent, and the
    worst case keeps the first channel attaining the maximum slack.
    """
    rng = np.random.default_rng(config.seed)
    failures = 0
    max_slack = {"uplink": -math.inf, "downlink": -math.inf, "combined": -math.inf}
    worst: Optional[WorstCase] = None
    coverage: Counter = Counter()

    for _ in range(config.trials):
        params = random_channel(
            rng, config.gain_range, config.power_range, config.noise_range
        )
        report = verify_theorem1(params)
        if not report.passed:
            failures += 1
        for _, cert in _certificates_of(report):
            top = max(cert.slack)
            if top > max_slack[cert.link]:
                max_slack[cert.link] = top
            if worst is None or top > worst.slack:
                worst = WorstCase(cert.link, cert.vertex_label, top, params)
            if cert.link == "downlink":
                coverage[f"{cert.vertex_label}:{cert.subcase}"] += 1

    assert worst is not None  # trials >= 1 and every report carries certificates
    return MonteCarloReport(
        config=config,
        trials=config.trials,
        failures=failures,
        passed=failures == 0,
        max_slack=max_slack,
        worst=worst,
        subcase_counts=dict(sorted(coverage.items())),
    )


def _mk_targeted(sbar: Tuple[float, float, float, float], PR: float) -> SystemParams:
    # with unit gains the per-user noises ARE the effective noises, and
    # P = (4,2,4,2) keeps the uplink ordering canonical, so canonicalize()
    # is the identity on these channels
    ones = (1.0, 1.0, 1.0, 1.0)
    return SystemParams(h=ones, g=ones, P=(4.0, 2.0, 4.0, 2.0), sigma2=sbar, sigmaR2=1.0, PR=PR)


def targeted_channels() -> List[SystemParams]:
    """Hand-picked canonical channels that jointly fire every recipe branch.

    Random log-uniform ensembles rarely hit the narrow predicate slivers
    (e.g. a power budget wedged between two noise thresholds), so coverage
    tests extend the ensemble with these.
    """
    picks: List[Tuple[Tuple[float, float, float, float], float]] = [
        # noise layout sbar3 >= sbar4 >= sbar1 >= sbar2
        ((2.0, 1.0, 9.0, 6.0), 10.0),
        ((2.0, 1.0, 9.0, 6.0), 3.0),
        # layout sbar3 >= sbar1 >= sbar4 >= sbar2, 2*sbar1 <= sbar3 < 3*sbar1
        ((4.0, 1.0, 9.0, 2.0), 40.0),
        ((4.0, 1.0, 9.0, 2.0), 10.0),
        ((4.0, 1.0, 9.0, 2.0), 5.0),
        ((4.0, 1.0, 9.0, 2.0), 3.0),
        ((4.0, 1.0, 9.0, 2.0), 1.0),
        # same layout but sbar4 < 2*sbar2
        ((4.0, 1.5, 9.0, 2.0), 5.0),
        # same layout, sbar3 >= 3*sbar1
        ((3.0, 1.0, 12.0, 2.0), 15.0),
        ((3.0, 1.0, 12.0, 2.0), 8.0),
        ((3.0, 1.0, 12.0, 2.0), 4.0),
        # same layout, sbar3 < 2*sbar1
        ((5.0, 1.0, 8.0, 2.0), 9.0),
        ((5.0, 1.0, 8.0, 2.0), 6.0),
        ((5.0, 1.0, 8.0, 2.0), 1.0),
        # layout sbar1 >= sbar3 >= sbar4 >= sbar2
        ((9.0, 1.0, 6.0, 2.0), 12.0),
        ((9.0, 1.0, 6.0, 2.0), 1.5),
    ]
    return [_mk_targeted(sbar, PR) for sbar, PR in picks]


# ---------------------------------------------------------------------------
# independent grid-search oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleRow:
    """Grid optimum versus closed-form slack for one link vertex.

    ``recipe_slack`` is the closed-form certificate slack.  ``free_slack`` is
    the grid optimum over every decoding order (uplink) or every scheme the
    case admits (downlink) with powers swept over the full feasible set, and
    ``oracle_achieved`` the rate tuple attaining it.  The designated
    construction is deliberately suboptimal for some vertices, so
    ``free_slack`` may sit well below ``recipe_slack`` but never above it (the
    recipe point is seeded into the grid).
    """

    link: str
    vertex_label: str
    recipe_slack: float
    free_slack: float
    oracle_achieved: RateTuple


@dataclass(frozen=True)
class BruteForceReport:
    """`brute_force_gap`'s result: one `OracleRow` per canonical-frame link
    vertex, uplink rows first, each link's rows sorted by label."""

    grid_steps: int
    rows: Tuple[OracleRow, ...]


#: points per block of a grid's first axis: 3 of a 21-step grid's 21 values
#: (27,783 points, about 220 KB per rate row), so a block's rows stay in cache
BLOCK_POINTS = 1 << 15


def _keep_best(
    best: Dict[str, Tuple[float, RateTuple]], vertices: Sequence, sources: Sequence[str], grids: Sequence
) -> None:
    """Fold several sources' product grids into ``best``: per vertex label,
    the lowest max-component slack seen so far and its rate tuple.

    ``grids`` are ``(rates, powers)`` pairs: ``powers`` are arrays of the
    grid's rank that broadcast to its shape, and ``rates`` maps them
    elementwise to one tuple of four per-user rate rows per source, in the
    order of the names ``sources``.  Rates are formed one block of the first
    grid axis at a time, every source of a block in turn.  Ties go to the
    least (source, grid, flat index), and an incumbent already in ``best``
    wins every tie: the result of folding each source's grids in turn, a
    later point winning only when strictly lower.  A source searches a block
    for a vertex only if its bound could win on that key: the least
    ``max_c fl(V_c - M_c)`` over the cells of the last two axes (``M_c`` row
    c's maximum in a cell), or, if larger, the same over the cells of the
    other axes.  Float subtraction is monotone, so the bound is at most every
    slack in the block, and each slack is the same subtraction and exact max
    as on the flattened grid.  A NaN rate raises naming its source.
    """
    V = np.array([vertex.rates for vertex in vertices], dtype=float)
    value = np.array([best.get(vertex.label, (math.inf,))[0] for vertex in vertices])
    shapes = [np.broadcast_shapes(*(np.shape(p) for p in powers)) for _, powers in grids]
    size = max(math.prod(shape) for shape in shapes)
    # the tie key as one number, (source * len(grids) + grid) * size + flat index
    rank = np.array([-1 if vertex.label in best else np.iinfo(np.int64).max for vertex in vertices])
    won: Dict[int, Tuple[float, ...]] = {}
    for g, ((rates, powers), shape) in enumerate(zip(grids, shapes)):
        targets = [V[:, c].reshape(-1, *[1] * len(shape)) for c in range(4)]
        axes = tuple(range(len(shape)))
        cell = math.prod(shape[1:])
        step = max(1, BLOCK_POINTS // cell)
        for lo in range(0, shape[0], step):
            block = (min(step, shape[0] - lo), *shape[1:])
            block_rates = rates(*(p[lo : lo + step] if p.shape[0] > 1 else p for p in powers))
            for s, rows in enumerate(block_rates):
                first = (s * len(grids) + g) * size + lo * cell
                ties = first < rank  # the vertices this block's points win ties against
                bound = np.full(len(V), -math.inf)
                for half in (axes[:-2], axes[-2:]):
                    if not ((bound < value) | (ties & (bound == value))).any():
                        break
                    gaps = [t - row.max(half, keepdims=True) for t, row in zip(targets, rows)]
                    bound = np.maximum(bound, functools.reduce(np.maximum, gaps).reshape(len(V), -1).min(1))
                if np.isnan(bound).any():
                    raise InternalConsistencyError(f"NaN rate on the oracle grid of {sources[s]}")
                for k in np.flatnonzero((bound < value) | (ties & (bound == value))).tolist():
                    slack = functools.reduce(np.maximum, [t[k] - row for t, row in zip(targets, rows)])
                    slack = np.broadcast_to(slack, block)
                    at = int(slack.argmin())
                    if slack.flat[at] < value[k] or (slack.flat[at] == value[k] and first + at < rank[k]):
                        value[k], rank[k] = slack.flat[at], first + at
                        won[k] = tuple(float(np.broadcast_to(row, block).flat[at]) for row in rows)
    for k, achieved in won.items():
        best[vertices[k].label] = (float(value[k]), RateTuple(achieved))


#: the relay's 24 decoding orders, in the order the uplink oracle breaks ties
_ALL_ORDERS = tuple(itertools.permutations(Step))
_ORDER_NAMES = tuple("decoding order " + ",".join(step.name for step in order) for order in _ALL_ORDERS)


def _uplink_oracle(terms: CapacityTerms, q, sigmaR2: float, n: int) -> Dict[str, Tuple[float, RateTuple]]:
    """Best grid slack per uplink vertex over all 24 relay decoding orders.

    The grid spans the full feasible power set: the per-codeword lattice power
    of each pair is capped by the trailing user's received budget, and the
    leader splits its own budget between the lattice and private codewords.
    Each power lives on the grid axes it depends on (p10 on u, p11 on u, v,
    p30 on w, p31 on w, x).  The 24 orders are one fold's sources, whose
    rates one `sic_rates` call forms per block, sharing the layers the orders
    have in common.  The closed-form allocation is a one-point grid after
    the power grid, so the oracle never loses to it, and ties go to the
    first order, then the grid before the seed, then the first point.
    """
    t = np.linspace(0.0, 1.0, n)
    u, v, w, x = np.meshgrid(t, t, t, t, indexing="ij", sparse=True)
    p10 = u * min(q[0], q[1])
    p11 = v * np.maximum(0.0, q[0] - p10)
    p30 = w * min(q[2], q[3])
    p31 = x * np.maximum(0.0, q[2] - p30)
    seed = power_alloc(q)
    point = [np.array([s]) for s in (seed.p10, seed.p11, seed.p30, seed.p31)]

    def rates(*powers):
        return (user_rates(*split) for split in sic_rates(*powers, _ALL_ORDERS, sigmaR2))

    best: Dict[str, Tuple[float, RateTuple]] = {}
    _keep_best(best, uplink_vertices(terms), _ORDER_NAMES, [(rates, (p10, p11, p30, p31)), (rates, point)])
    return best


def _downlink_oracle(terms: CapacityTerms, PR: float, n: int) -> Dict[str, Tuple[float, RateTuple]]:
    """Best grid slack per downlink vertex over every scheme the case admits:
    layer k of the scheme takes grid fraction k of the budget the layers
    before it left (so it lives on grid axes 0..k), and each vertex's recipe
    is a one-point grid after its scheme's, in the same fold call."""
    case = classify_case(terms.sigma_bar2)
    vertices = downlink_vertices(case, terms)
    seeds = [_recipe(vertex.label, PR, terms.sigma_bar2)[0] for vertex in vertices]
    t = np.linspace(0.0, 1.0, n)
    best: Dict[str, Tuple[float, RateTuple]] = {}
    for scheme in CASE_SCHEMES[case]:
        def rates(*powers):
            return (scheme_map(scheme, powers, terms.sigma_bar2),)

        def grid_rates(*fractions):
            pools, rem = [], PR
            for f in fractions:
                pools.append(f * rem)
                rem = rem - pools[-1]
            return rates(*pools)

        grids = [(grid_rates, np.meshgrid(*[t] * SCHEME_LAYERS[scheme], indexing="ij", sparse=True))]
        for alloc in seeds:
            if alloc.scheme_id == scheme:
                grids.append((rates, [np.array([p]) for p in (alloc.pR1, alloc.pR2, alloc.pR3, alloc.pR4)]))
        _keep_best(best, vertices, [f"scheme {scheme}"], grids)
    return best


def brute_force_gap(params: SystemParams, grid_steps: int = 21) -> BruteForceReport:
    """Grid-search both links and report per-vertex slack comparisons.

    The channel's canonical frame for leaders 1 and 3 is searched
    (`effective.frame`); all labels refer to it.  Each row carries the
    closed-form recipe slack and the free grid optimum over all 24 relay
    decoding orders or all admissible schemes (``free_slack``).  The grids run through the same rate kernels
    (`uplink.sic_rates`, `downlink.scheme_map`) as the certificates, and the
    closed-form allocations are seeded into them, so ``free_slack`` cannot
    sit above ``recipe_slack`` by more than float dust.  Rates are formed block
    by block, all 24 orders of a block from one `sic_rates` call that forms
    each SIC layer the orders share once, and each vertex skips the blocks
    that cannot beat its best so far (`_keep_best`).  Ties go to the first
    order or scheme, then the grid before its seeds, then the first point in
    C order, so the report is that of folding each whole grid in turn.
    """
    grid_steps = _integer(grid_steps, "grid_steps", 2)

    _, terms, q = frame(capacity_terms(params), received_powers(params))
    sigmaR2, PR = params.sigmaR2, params.PR
    recipe = {
        cert.vertex_label: max(cert.slack)
        for cert in (*certify_uplink(terms, q, sigmaR2), *certify_downlink(terms, PR))
    }

    rows: List[OracleRow] = []
    for link, free in (
        ("uplink", _uplink_oracle(terms, q, sigmaR2, grid_steps)),
        ("downlink", _downlink_oracle(terms, PR, grid_steps)),
    ):
        for label in sorted(free):
            free_value, achieved = free[label]
            rows.append(OracleRow(link, label, recipe[label], free_value, achieved))
    return BruteForceReport(grid_steps=grid_steps, rows=tuple(rows))
