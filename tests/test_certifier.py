import dataclasses
import math

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
from relaygap.model import RateTuple, SystemParams, ValidationError, capacity_terms
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
        assert not certifier._in_hull(dn, (beta + 1e-6) * target)
        assert not in_downward_hull(dn, (beta + 1e-6) * target)


def test_verification_is_deterministic():
    params = random_channel(314)
    assert verify_theorem1(params) == verify_theorem1(params)


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
