import collections
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import relaygap.certifier as certifier
from relaygap.bounds import outer_bound
from relaygap.certifier import (
    ORDERINGS,
    MonteCarloConfig,
    brute_force_gap,
    monte_carlo,
    random_channel,
    targeted_channels,
    verify_theorem1,
)
from relaygap.downlink import (
    SUBCASE_TAGS,
    classify_case,
    downlink_certificate,
    downlink_vertices,
)
from relaygap.effective import canonicalize
from relaygap.model import (
    InternalConsistencyError,
    RateTuple,
    SystemParams,
    ValidationError,
    capacity_terms,
)
from relaygap.polytope import enumerate_vertices, in_downward_hull, maximal_vertices
from relaygap.uplink import uplink_vertices

import oracles
from conftest import unit_gain

ALL_SUBCASES = {
    f"{label}:{tag}" for label, tags in SUBCASE_TAGS.items() for tag in tags
}


def strong_channel() -> SystemParams:
    """High-SNR channel whose pushed-in targets are far from the origin."""
    return SystemParams(
        h=(3.0, 3.0, 3.0, 3.0),
        g=(3.0, 3.0, 3.0, 3.0),
        P=(4.0, 2.0, 4.0, 2.0),
        sigma2=(1.0, 1.0, 1.0, 1.0),
        sigmaR2=1.0,
        PR=10.0,
    )


# ---------------------------------------------------------------------------
# full-channel verification
# ---------------------------------------------------------------------------


def test_orderings_constant():
    assert ORDERINGS == ((1, 3), (1, 4), (2, 3), (2, 4))
    assert len(ALL_SUBCASES) == 35


def test_report_structure_on_unit_channel(unit_params):
    report = verify_theorem1(unit_params)
    assert report.passed
    assert tuple(rep.rate_order for rep in report.orderings) == ORDERINGS
    for rep in report.orderings:
        # the unit channel is fully symmetric: no pair swap, leaders go to
        # slots 1 and 3 of the effective numbering
        assert sorted(rep.perm) == [1, 2, 3, 4]
        assert rep.perm[0] == rep.rate_order[0]
        assert rep.perm[2] == rep.rate_order[1]
        assert [c.vertex_label for c in rep.uplink] == ["U1", "U2", "U3", "U4", "U5", "U6"]
        assert [c.vertex_label for c in rep.downlink] == ["D1.1", "D1.2", "D1.3"]
        for c in (*rep.uplink, *rep.downlink):
            assert c.passed


def test_combined_certificates_use_pushed_in_targets():
    report = verify_theorem1(strong_channel())
    assert report.passed
    outer = outer_bound(capacity_terms(strong_channel()))
    n_vertices = len(maximal_vertices(enumerate_vertices(outer)))
    assert [c.vertex_label for c in report.combined] == [
        f"O{k + 1}" for k in range(n_vertices)
    ]
    for c in report.combined:
        assert c.link == "combined"
        assert c.subcase == "uplink_hull=in,downlink_hull=in"
        want = np.maximum(0.0, np.array(list(c.target)) - 0.5)
        assert np.allclose(np.array(list(c.achieved)), want, atol=1e-12)
        assert max(c.slack) <= 0.5 + 1e-9


def test_passed_flag_aggregates_every_certificate():
    rng = np.random.default_rng(1123)
    for _ in range(20):
        report = verify_theorem1(random_channel(rng))
        every = [
            c.passed
            for rep in report.orderings
            for c in (*rep.uplink, *rep.downlink)
        ] + [c.passed for c in report.combined]
        assert report.passed == all(every)
        assert report.passed  # the half-bit guarantee itself


def test_failing_combined_corner_reports_its_largest_scale_in_both_hulls(monkeypatch):
    # halving every achieved downlink tuple pulls some pushed-in targets out
    # of the downlink hull, so the bisection for the largest scale runs
    real = certifier.downlink_certificate

    def halved(params):
        return [
            dataclasses.replace(c, achieved=RateTuple([0.5 * r for r in c.achieved]))
            for c in real(params)
        ]

    monkeypatch.setattr(certifier, "downlink_certificate", halved)
    report = verify_theorem1(strong_channel())
    assert not report.passed

    def pool(link):
        # achieved points of every ordering, columns in original user order
        return np.vstack([
            np.array([c.achieved.rates for c in getattr(rep, link)])[:, np.argsort(rep.perm)]
            for rep in report.orderings
        ])

    up, dn = pool("uplink"), pool("downlink")
    failing = [c for c in report.combined if not c.passed]
    assert failing
    for c in failing:
        assert c.subcase == "uplink_hull=in,downlink_hull=out"
        target = np.maximum(0.0, np.array(c.target.rates) - 0.5)
        k = int(target.argmax())
        beta = c.achieved[k] / target[k]
        assert 0.0 <= beta < 1.0
        # membership as the certificate judges it (fast path, then the LP)
        point = np.array(c.achieved.rates)
        assert certifier._in_hull(up, point) and certifier._in_hull(dn, point)
        assert in_downward_hull(up, point) and in_downward_hull(dn, point)
        assert not certifier._in_hull(dn, (beta + 1e-6) * target)
        assert not in_downward_hull(dn, (beta + 1e-6) * target)


def test_verification_is_deterministic():
    params = random_channel(314)
    assert verify_theorem1(params) == verify_theorem1(params)


def in_units(params: SystemParams, a: float, b: float) -> SystemParams:
    """The same channel in other units: uplink amplitudes times a, downlink times b."""
    return dataclasses.replace(
        params,
        h=tuple(h * a for h in params.h),
        sigmaR2=params.sigmaR2 * a * a,
        g=tuple(g * b for g in params.g),
        sigma2=tuple(s * b * b for s in params.sigma2),
    )


def close(x, y) -> bool:
    """The float rule of tests/output_diff.py: within 1e-14 * max(1, |x|)."""
    return all(abs(u - v) <= 1e-14 * max(1.0, abs(u)) for u, v in zip(x, y))


def test_certification_does_not_depend_on_units():
    # every SNR is unit-free, so rescaling amplitudes and noises together
    # must leave the certificate alone up to float rounding
    rng = np.random.default_rng(99)
    for draw in range(200):
        params = random_channel(rng)
        a, b = 10.0 ** rng.uniform(-150.0, 150.0, 2)
        base, moved = verify_theorem1(params), verify_theorem1(in_units(params, a, b))
        assert moved.passed == base.passed, draw
        for rep, other in zip(base.orderings, moved.orderings):
            assert (rep.rate_order, rep.perm) == (other.rate_order, other.perm), draw
            certs, others = rep.uplink + rep.downlink, other.uplink + other.downlink
            assert len(certs) == len(others), draw
            for c, d in zip(certs, others):
                assert (c.link, c.vertex_label, c.subcase, c.passed) == (
                    d.link, d.vertex_label, d.subcase, d.passed
                ), draw
                assert close(c.target, d.target) and close(c.achieved, d.achieved), draw
        # combined labels come from a lexicographic sort that rounding can
        # permute, so the combined certificates compare as sets
        flags = collections.Counter((c.subcase, c.passed) for c in base.combined)
        assert flags == collections.Counter((c.subcase, c.passed) for c in moved.combined), draw
        points = [[tuple(c.target) + tuple(c.achieved) for c in r.combined] for r in (base, moved)]
        assert oracles.same_point_sets(*points, tol=1e-13), draw


# ---------------------------------------------------------------------------
# random ensembles
# ---------------------------------------------------------------------------


def test_random_channel_reproducible_from_int_seed():
    assert random_channel(7) == random_channel(7)
    rng = np.random.default_rng(7)
    first = random_channel(rng)
    second = random_channel(rng)
    assert first == random_channel(7)  # same stream position
    assert second != first


def test_random_channel_respects_ranges():
    params = random_channel(
        11, gain_range=(2.0, 3.0), power_range=(0.5, 0.6), noise_range=(7.0, 8.0)
    )
    for v in (*params.h, *params.g):
        assert 2.0 <= v <= 3.0
    for v in (*params.P, params.PR):
        assert 0.5 <= v <= 0.6
    for v in (*params.sigma2, params.sigmaR2):
        assert 7.0 <= v <= 8.0


def test_random_channel_rejects_bad_ranges():
    with pytest.raises(ValidationError):
        random_channel(1, gain_range=(0.0, 1.0))
    with pytest.raises(ValidationError):
        random_channel(1, power_range=(5.0, 1.0))
    with pytest.raises(ValidationError):
        random_channel(1, noise_range=(1.0, math.inf))
    with pytest.raises(ValidationError, match=r"gain_range\[2\] is too large"):
        random_channel(1, gain_range=(1, 10**400))
    with pytest.raises(ValidationError):
        random_channel(-1)
    with pytest.raises(ValidationError, match="integer or a numpy Generator"):
        random_channel(1.5)
    with pytest.raises(ValidationError, match="integer or a numpy Generator"):
        random_channel("x")


def test_log_uniform_median_sits_at_the_geometric_mean():
    # 12500 channels x 8 gain draws = 1e5 samples from log-uniform(0.1, 10);
    # the median of that law is the geometric mean of the endpoints, i.e. 1
    rng = np.random.default_rng(424)
    samples = np.empty(100_000)
    k = 0
    for _ in range(12_500):
        ch = random_channel(rng)
        samples[k : k + 8] = (*ch.h, *ch.g)
        k += 8
    median = float(np.median(samples))
    assert abs(median - 1.0) <= 0.05


def test_config_validation():
    MonteCarloConfig(trials=1, seed=0)
    # numpy integers are integers, as `random_channel` takes them; stored as int
    config = MonteCarloConfig(trials=np.int64(2), seed=np.int64(3))
    assert (config.trials, config.seed) == (2, 3)
    assert type(config.trials) is int and type(config.seed) is int
    assert MonteCarloConfig(trials=1, seed=np.int64(3)).seed == 3
    with pytest.raises(ValidationError, match="seed must be an integer"):
        MonteCarloConfig(trials=1, seed=np.random.default_rng(3))
    with pytest.raises(ValidationError):
        MonteCarloConfig(trials=0, seed=0)
    with pytest.raises(ValidationError):
        MonteCarloConfig(trials=True, seed=0)
    with pytest.raises(ValidationError):
        MonteCarloConfig(trials="10", seed=0)
    with pytest.raises(ValidationError):
        MonteCarloConfig(trials=1, seed=True)
    with pytest.raises(ValidationError):
        MonteCarloConfig(trials=1, seed=1.5)
    with pytest.raises(ValidationError):
        MonteCarloConfig(trials=1, seed=-1)
    with pytest.raises(ValidationError):
        MonteCarloConfig(trials=1, seed=0, gain_range=(0.0, 1.0))
    with pytest.raises(ValidationError):
        MonteCarloConfig(trials=1, seed=0, power_range=(5.0, 1.0))
    with pytest.raises(ValidationError):
        MonteCarloConfig(trials=1, seed=0, noise_range=(1.0, math.nan))


def test_monte_carlo_is_a_pure_function_of_its_config():
    config = MonteCarloConfig(trials=25, seed=1234)
    first = monte_carlo(config)
    second = monte_carlo(config)
    assert first == second
    assert first.passed and first.failures == 0
    assert first.trials == 25


def test_monte_carlo_aggregates_are_consistent():
    report = monte_carlo(MonteCarloConfig(trials=30, seed=555))
    assert set(report.max_slack) == {"uplink", "downlink", "combined"}
    assert report.worst.slack == max(report.max_slack.values())
    assert report.worst.link in report.max_slack
    for key, count in report.subcase_counts.items():
        assert key in ALL_SUBCASES
        assert count > 0
    # 30 trials x 4 orderings, 3-5 downlink vertices each
    total = sum(report.subcase_counts.values())
    assert 30 * 4 * 3 <= total <= 30 * 4 * 5


def test_targeted_channels_fire_every_recipe_branch():
    picks = targeted_channels()
    assert len(picks) == 16
    seen = set()
    for ch in picks:
        eff = canonicalize(ch)
        assert eff.perm == (1, 2, 3, 4)  # already canonical by construction
        for cert in downlink_certificate(ch):
            assert cert.passed
            seen.add(f"{cert.vertex_label}:{cert.subcase}")
    assert seen == ALL_SUBCASES


# ---------------------------------------------------------------------------
# grid-search oracle
# ---------------------------------------------------------------------------


def test_oracle_rejects_bad_grids():
    params = unit_gain()
    report = brute_force_gap(params, grid_steps=np.int64(3))
    assert report == brute_force_gap(params, grid_steps=3)
    assert type(report.grid_steps) is int
    with pytest.raises(ValidationError):
        brute_force_gap(params, grid_steps=1)
    with pytest.raises(ValidationError):
        brute_force_gap(params, grid_steps=True)
    with pytest.raises(ValidationError):
        brute_force_gap(params, grid_steps=2.5)


def test_oracle_row_layout(unit_params):
    report = brute_force_gap(unit_params, grid_steps=5)
    assert report.grid_steps == 5
    links = [row.link for row in report.rows]
    assert links == ["uplink"] * 6 + ["downlink"] * 3
    assert [r.vertex_label for r in report.rows[:6]] == sorted(
        ["U1", "U2", "U3", "U4", "U5", "U6"]
    )
    assert [r.vertex_label for r in report.rows[6:]] == ["D1.1", "D1.2", "D1.3"]


def test_oracle_canonicalizes_before_searching():
    params = SystemParams(
        h=(1.0, 2.0, 1.0, 1.5),
        g=(0.5, 1.0, 2.0, 1.0),
        P=(1.0, 3.0, 2.0, 2.0),
        sigma2=(2.0, 1.0, 1.0, 3.0),
        sigmaR2=1.0,
        PR=4.0,
    )
    direct = brute_force_gap(params, grid_steps=4)
    pre = brute_force_gap(canonicalize(params).params, grid_steps=4)
    assert direct == pre


def test_oracle_slacks_never_beat_the_recipe_and_never_lose_to_it():
    rng = np.random.default_rng(20112)
    for _ in range(6):
        params = canonicalize(random_channel(rng)).params
        terms = capacity_terms(params)
        case = classify_case(terms.sigma_bar2)
        up_v = {v.label: v.rates for v in uplink_vertices(terms)}
        dn_v = {v.label: v.rates for v in downlink_vertices(case, terms)}
        designated = oracles.designated_slacks(params)
        report = brute_force_gap(params, grid_steps=7)
        for row in report.rows:
            # seeded grids: the free optimum is at least as good as the recipe
            assert row.free_slack <= row.recipe_slack + 1e-7
            # independent re-evaluation of the designated construction agrees
            assert designated[row.vertex_label] <= row.recipe_slack + 1e-7
            assert row.recipe_slack <= designated[row.vertex_label] + 1e-7
            # the free optimum still certifies the half-bit gap
            assert row.free_slack <= 0.5 + 1e-7
            # reported achieved point reproduces the reported slack
            vertex = (up_v if row.link == "uplink" else dn_v)[row.vertex_label]
            gap = max(t - a for t, a in zip(vertex, row.oracle_achieved))
            assert gap == pytest.approx(row.free_slack, abs=1e-9)


Vertex = collections.namedtuple("Vertex", "label rates")


def _whole_grid_fold(best, vertices, rows):
    shape = np.broadcast_shapes(*(row.shape for row in rows))
    flat = tuple(np.broadcast_to(row, shape).ravel() for row in rows)
    oracles.reference_keep_best(best, vertices, flat)


def _one_source(*rows):
    return (rows,)


def _hexed(best):
    return {label: (value.hex(), [c.hex() for c in achieved]) for label, (value, achieved) in best.items()}


def _fold_both(grids, vertices, block_points):
    """Run `certifier._keep_best` over a sequence of product grids of rate
    rows (each row its own power, so the fold forms the rows block by block)
    with ``block_points`` per block, and the whole-grid reference over the
    same rows broadcast and flattened; return both results as float.hex
    strings.  The fold runs one call per grid and once more with every grid
    in one call, and the two must agree."""
    blocked, joint, whole = {}, {}, {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certifier, "BLOCK_POINTS", block_points)
        for rows in grids:
            certifier._keep_best(blocked, vertices, ["test grid"], [(_one_source, rows)])
            _whole_grid_fold(whole, vertices, rows)
        certifier._keep_best(joint, vertices, ["test grid"], [(_one_source, rows) for rows in grids])
    assert _hexed(joint) == _hexed(blocked)
    return _hexed(blocked), _hexed(whole)


#: a 4-axis product grid of 4 slabs of 5 * 6 * 7 = 210 points each
GRID = (4, 5, 6, 7)
SLAB = 5 * 6 * 7
#: a full row, two that skip grid axes, and one constant along the first axis
ROW_SHAPES = (GRID, (4, 5, 1, 1), (1, 1, 6, 1), (1, 5, 6, 7))
#: blocks of one slab, of two, of three and a ragged last one, and the
#: package's own size, under which a grid this small is one block
BLOCKINGS = (SLAB, 2 * SLAB, 3 * SLAB, certifier.BLOCK_POINTS)


def test_blocked_fold_matches_the_whole_grid_fold():
    rng = np.random.default_rng(4)
    # quarter-integer rates: exact slacks, with ties everywhere
    coarse = [Vertex(f"C{k}", tuple(rng.integers(0, 12, 4) / 4)) for k in range(5)]
    # and one vertex per row whose slack only that row sets
    coarse += [Vertex(f"E{c}", tuple(3.0 * np.eye(4)[c])) for c in range(4)]
    # one, two or no full-size rows per block, in any position
    for shapes in (ROW_SHAPES, ROW_SHAPES[::-1], (GRID, (1, 1, 6, 1), GRID, (4, 5, 1, 1)),
                   ((4, 5, 1, 1), (1, 1, 6, 1), (4, 1, 1, 7), (1, 5, 6, 1))):
        rows = tuple(rng.integers(0, 8, shape) / 4 for shape in shapes)
        for block_points in BLOCKINGS:
            fast, slow = _fold_both([rows], coarse, block_points)
            assert fast == slow
    # grids of one, two and three axes, in blocks of one first-axis value or
    # whole: a one-point grid is a seed, and on two axes every bound is the
    # exact slack
    for shapes in ([(1,)] * 4, ((5, 6), (5, 1), (1, 6), (1, 1)),
                   ((3, 5, 6), (3, 1, 6), (1, 5, 1), (3, 5, 6))):
        rows = tuple(rng.integers(0, 8, row_shape) / 4 for row_shape in shapes)
        for block_points in (1, certifier.BLOCK_POINTS):
            fast, slow = _fold_both([rows], coarse, block_points)
            assert fast == slow


def _planted_grid():
    """Rates below 1 (slack >= 2 elsewhere) with planted ties at slack 0.5
    for three vertices, each reading one row: across the boundary of slabs 1
    and 2 (full row), inside a row that skips the last two axes, and inside
    a row constant along the first axis.  Returns the rows, the vertices and
    each vertex's first minimiser in C order.

    In blocks of one slab each tie is met again in a later block whose bound
    for that vertex equals its incumbent exactly: slab 2 for "B" (the tie
    straddles the block boundary) and "R", every slab after 0 for "S".  In
    slab 1, "R" must search (its incumbent is still >= 2) while "S" may skip.
    """
    rng = np.random.default_rng(5)
    rows = [rng.uniform(0.0, 1.0, shape) for shape in ROW_SHAPES]
    rows[0].flat[2 * SLAB - 1] = rows[0].flat[2 * SLAB] = 2.5
    rows[1][1, 4] = rows[1][2, 0] = 2.5
    rows[3][0, 2, 5, 6] = rows[3][0, 3, 0, 0] = 2.5
    vertices = [
        Vertex("B", (3.0, 0.0, 0.0, 0.0)),
        Vertex("R", (0.0, 3.0, 0.0, 0.0)),
        Vertex("S", (0.0, 0.0, 0.0, 3.0)),
    ]
    first = {"B": np.unravel_index(2 * SLAB - 1, GRID), "R": (1, 4, 0, 0), "S": (0, 2, 5, 6)}
    return tuple(rows), vertices, first


def _tuple_at(rows, at):
    shape = np.broadcast_shapes(*(row.shape for row in rows))
    return [float(np.broadcast_to(row, shape)[at]).hex() for row in rows]


def test_slab_fold_keeps_the_first_minimiser_across_slabs_and_inside_reduced_rows():
    rows, vertices, first = _planted_grid()
    # the later tie's block holds the same maximum of the vertex's row as the
    # first tie's, so its bound is the incumbent exactly
    assert rows[0][2].max() == rows[0][1].max() == rows[1][2].max() == rows[3].max() == 2.5
    for block_points in BLOCKINGS:
        fast, slow = _fold_both([rows], vertices, block_points)
        assert fast == slow
        for label, at in first.items():
            assert fast[label] == (0.5.hex(), _tuple_at(rows, at)), (label, block_points)


def test_a_seed_call_replaces_the_grid_best_only_when_strictly_lower():
    rows, vertices, first = _planted_grid()
    tie = (np.array([2.5]), np.array([0.25]), np.array([0.5]), np.array([0.75]))
    lower = (np.array([2.625]), *tie[1:])
    grid = _tuple_at(rows, first["B"])
    for grids, value, winner in (
        ([rows, tie], 0.5, grid),
        ([rows, tie, lower], 0.375, [float(r[0]).hex() for r in lower]),
    ):
        for block_points in BLOCKINGS:
            fast, slow = _fold_both(grids, vertices, block_points)
            assert fast == slow
            assert fast["B"] == (value.hex(), winner)


def _fold_sources(sources, vertices, block_points, incumbent=()):
    """Fold ``sources[s][g]``, source s's rate rows on grid g, in one
    `certifier._keep_best` call with ``block_points`` per block, and by
    sequential whole-grid reference calls, source by source and each
    source's grids in turn, both starting from ``incumbent``; return both
    results as float.hex strings."""
    fast, slow = dict(incumbent), dict(incumbent)

    def rates(*powers):
        return [powers[4 * s : 4 * s + 4] for s in range(len(sources))]

    grids = [(rates, [row for rows in per_grid for row in rows]) for per_grid in zip(*sources)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certifier, "BLOCK_POINTS", block_points)
        certifier._keep_best(fast, vertices, [f"source {s}" for s in range(len(sources))], grids)
    for per_source in sources:
        for rows in per_source:
            _whole_grid_fold(slow, vertices, rows)
    return _hexed(fast), _hexed(slow)


def test_the_fold_breaks_ties_by_source_then_grid_then_point():
    rows, vertices, first = _planted_grid()
    rng = np.random.default_rng(6)
    quiet = tuple(rng.uniform(0.0, 1.0, shape) for shape in ROW_SHAPES)
    # "B" reads row 0 alone: `early` ties source 0's row in slab 0, before
    # source 0's first tie (the end of slab 1), and carries other rates, so in
    # blocks of one slab source 0 meets a bound equal to `early`'s incumbent
    # and must search that block to win
    early = (rows[0].copy(), *quiet[1:])
    early[0].flat[0] = 2.5
    grid_b = _tuple_at(rows, first["B"])
    for block_points in BLOCKINGS:
        for sources, winner in (([[rows], [rows]], grid_b), ([[rows], [early]], grid_b),
                                ([[early], [rows]], _tuple_at(early, (0, 0, 0, 0)))):
            fast, slow = _fold_sources(sources, vertices, block_points)
            assert fast == slow
            assert fast["B"] == (0.5.hex(), winner), block_points

    # source 0's seed point ties source 1's grid optimum: the seed comes
    # first, although the fold meets every source's grid before any seed
    seed = (np.array([2.5]), np.array([0.25]), np.array([0.5]), np.array([0.75]))
    worse = (np.array([2.0]), *seed[1:])
    for block_points in BLOCKINGS:
        fast, slow = _fold_sources([[quiet, seed], [rows, worse]], vertices, block_points)
        assert fast == slow
        assert fast["B"] == (0.5.hex(), [float(r[0]).hex() for r in seed])

    # an incumbent from an earlier call wins every tie
    held = {"B": (0.5, RateTuple((2.5, 1.0, 1.0, 1.0)))}
    for block_points in BLOCKINGS:
        fast, slow = _fold_sources([[rows], [early]], vertices, block_points, held)
        assert fast == slow
        assert fast["B"] == (0.5.hex(), [c.hex() for c in (2.5, 1.0, 1.0, 1.0)])
        assert fast["R"] == (0.5.hex(), _tuple_at(rows, first["R"]))


def test_a_nan_rate_raises_naming_its_grid(monkeypatch):
    # the block maxima carry a NaN into the bound, where the fold stops
    rows, vertices, _ = _planted_grid()
    rows = [row.copy() for row in rows]
    rows[2][0, 0, 3, 0] = np.nan
    with np.errstate(all="ignore"), pytest.raises(InternalConsistencyError, match="test grid"):
        certifier._keep_best({}, vertices, ["test grid"], [(_one_source, rows)])
    # with two sources, the NaN names the one it came from
    with np.errstate(all="ignore"), pytest.raises(InternalConsistencyError, match="source 1"):
        certifier._keep_best({}, vertices, ["source 0", "source 1"],
                             [(lambda *r: (r[:4], r[4:]), [*_planted_grid()[0], *rows])])

    sic_rates, scheme_map = certifier.sic_rates, certifier.scheme_map

    def poisoned_sic(*args):
        for r10, r11, r30, r31 in sic_rates(*args):
            yield r10, r11 * np.nan, r30, r31

    def poisoned_map(*args):
        r1, *rest = scheme_map(*args)
        return (r1 * np.nan, *rest)

    for name, poisoned, message in (("sic_rates", poisoned_sic, "decoding order G1,G3,LA,LB"),
                                    ("scheme_map", poisoned_map, "scheme 4.1")):
        with monkeypatch.context() as patch:
            patch.setattr(certifier, name, poisoned)
            with np.errstate(all="ignore"), pytest.raises(InternalConsistencyError, match=message):
                brute_force_gap(unit_gain(), grid_steps=3)


@pytest.mark.parametrize("params", [unit_gain(), targeted_channels()[2]], ids=["case_I", "case_II"])
def test_one_oracle_call_peaks_under_five_mib(params):
    # case II admits the four-layer scheme "4.2", the largest downlink grid
    brute_force_gap(params, grid_steps=21)
    tracemalloc.start()
    try:
        brute_force_gap(params, grid_steps=21)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20, f"{peak / 2**20:.2f} MiB"


def _wide(seed, count):
    rng = np.random.default_rng(seed)
    return [random_channel(rng, *[(1e-6, 1e6)] * 3) for _ in range(count)]


def _default(seed, count):
    rng = np.random.default_rng(seed)
    return [random_channel(rng) for _ in range(count)]


#: (channels, grid steps) sets; "coarse" runs 2-, 3- and 5-step grids, on
#: which the seeded recipe point often ties or beats the whole grid
ORACLE_SETS = {
    "seed90210": lambda: [(p, 21) for p in _default(90210, 25)],
    "targeted": lambda: [(p, steps) for steps in (9, 21) for p in targeted_channels()],
    "unit": lambda: [(unit_gain(), 21)],
    "wide7": lambda: [(p, 21) for p in _wide(7, 25)],
    "coarse": lambda: [
        (p, steps)
        for steps in (2, 3, 5)
        for p in (*_default(5, 60), *targeted_channels(), *_wide(8, 60))
    ],
}


@pytest.mark.parametrize("name", sorted(ORACLE_SETS))
def test_oracle_report_is_bit_identical_to_the_whole_grid_fold(name):
    def dump(report):
        return [
            (row.link, row.vertex_label, row.recipe_slack.hex(), row.free_slack.hex(),
             [c.hex() for c in row.oracle_achieved])
            for row in report.rows
        ]

    ties = 0
    for params, steps in ORACLE_SETS[name]():
        fast = brute_force_gap(params, grid_steps=steps)
        assert dump(fast) == dump(oracles.reference_brute_force_gap(params, steps))
        ties += sum(row.free_slack == row.recipe_slack for row in fast.rows)
    if name == "coarse":
        assert ties > 1000
