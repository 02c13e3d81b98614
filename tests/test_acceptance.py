"""Acceptance gate: every stated criterion, at its stated tolerance and budget.

Each test here is one numbered criterion.  They intentionally re-derive what
they check through public API calls only, so a regression anywhere in the
pipeline (model -> bounds -> synthesis -> certification -> CLI) trips at
least one criterion.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from relaygap.bounds import downlink_polytope, outer_bound, uplink_polytope
from relaygap.certifier import (
    random_channel,
    targeted_channels,
    brute_force_gap,
    verify_theorem1,
)
from relaygap.cli import main
from relaygap.downlink import (
    SUBCASE_TAGS,
    CaseLabel,
    alloc_for_vertex,
    classify_case,
    downlink_certificate,
    downlink_vertices,
)
from relaygap.effective import canonicalize
from relaygap.model import capacity_terms
from relaygap.polytope import contains, enumerate_vertices, maximal_vertices
from relaygap.uplink import (
    gaussian_rate,
    lattice_rate,
    uplink_certificate,
    uplink_vertices,
)

import oracles
from test_downlink import case_params, d25_family_noises, threshold_of
from test_effective import SLOT_LEAD_ROWS, lead_rows_for, restricted_maximal

ENSEMBLE_SEED = 1729
ALL_SUBCASES = {
    f"{label}:{tag}" for label, tags in SUBCASE_TAGS.items() for tag in tags
}
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def ensemble():
    """The shared 1000-channel seeded log-uniform ensemble (criteria 1-3)."""
    rng = np.random.default_rng(ENSEMBLE_SEED)
    return [random_channel(rng) for _ in range(1000)]


def test_criterion_01_uplink_half_bit_gap(ensemble):
    start = time.perf_counter()
    for ch in ensemble:
        eff = canonicalize(ch)
        certs = uplink_certificate(eff.params)
        assert [c.vertex_label for c in certs] == ["U1", "U2", "U3", "U4", "U5", "U6"]
        for cert in certs:
            for t, a in zip(cert.target, cert.achieved):
                assert a >= t - 0.5 - 1e-7
    assert time.perf_counter() - start < 5.0


def test_criterion_02_downlink_half_bit_gap_with_full_subcase_coverage(ensemble):
    start = time.perf_counter()
    coverage = set()
    for ch in list(ensemble) + targeted_channels():
        eff = canonicalize(ch)
        for cert in downlink_certificate(eff.params):
            assert cert.passed, (
                f"downlink vertex {cert.vertex_label} ({cert.subcase}) failed"
            )
            coverage.add(f"{cert.vertex_label}:{cert.subcase}")
    assert coverage == ALL_SUBCASES
    assert time.perf_counter() - start < 30.0


def test_criterion_03_combined_theorem(ensemble):
    start = time.perf_counter()
    for ch in ensemble:
        report = verify_theorem1(ch)
        assert report.passed
        for cert in report.combined:
            assert cert.passed
            assert cert.subcase == "uplink_hull=in,downlink_hull=in"
    assert time.perf_counter() - start < 60.0


def test_criterion_04_vertex_lists_match_polytope_corners():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        eff = canonicalize(random_channel(rng))
        terms = capacity_terms(eff.params)

        labeled_up = [tuple(v.rates) for v in uplink_vertices(terms)]
        corner_up = [
            tuple(v)
            for v in maximal_vertices(enumerate_vertices(uplink_polytope(terms)))
        ]
        assert oracles.same_point_sets(labeled_up, corner_up, tol=1e-8), (
            f"trial {trial}: uplink vertex lists differ"
        )

        case = classify_case(terms.sigma_bar2)
        labeled_dn = [tuple(v.rates) for v in downlink_vertices(case, terms)]
        corner_dn = [
            tuple(v)
            for v in maximal_vertices(
                enumerate_vertices(downlink_polytope(case, terms))
            )
        ]
        assert oracles.same_point_sets(labeled_dn, corner_dn, tol=1e-8), (
            f"trial {trial} ({case}): downlink vertex lists differ"
        )


def test_criterion_05_reduction_preserves_the_restricted_outer_bound():
    rng = np.random.default_rng(31415)
    for trial in range(200):
        params = random_channel(rng)
        eff = canonicalize(params, rate_order=(1, 3))

        orig_sys = outer_bound(capacity_terms(params))
        orig_pts = restricted_maximal(
            orig_sys.rows[: orig_sys.n_user_rows], lead_rows_for((1, 3))
        )
        eff_sys = outer_bound(capacity_terms(eff.params))
        eff_pts = [
            tuple(eff.to_original(v))
            for v in restricted_maximal(
                eff_sys.rows[: eff_sys.n_user_rows], SLOT_LEAD_ROWS
            )
        ]
        assert oracles.same_point_sets(orig_pts, eff_pts, tol=1e-9), (
            f"trial {trial}: restricted outer bounds differ"
        )


def test_criterion_06_every_achieved_tuple_lies_in_its_link_polytope(ensemble):
    for ch in ensemble[:200]:
        report = verify_theorem1(ch)
        for rep in report.orderings:
            eff = canonicalize(ch, rate_order=rep.rate_order)
            terms = capacity_terms(eff.params)
            up_region = uplink_polytope(terms)
            dn_region = downlink_polytope(classify_case(terms.sigma_bar2), terms)
            for cert in rep.uplink:
                assert contains(up_region, tuple(cert.achieved))
            for cert in rep.downlink:
                assert contains(dn_region, tuple(cert.achieved))
        outer = outer_bound(capacity_terms(ch))
        for cert in report.combined:
            assert contains(outer, tuple(cert.achieved))


def _d23_draw(rng):
    a, b, c, d = np.sort(rng.uniform(0.2, 8.0, size=4))[::-1]
    s1, s2, s3, s4 = float(b), float(d), float(a), float(c)
    PR = s1 * float(rng.uniform(1.0, 5.0))
    return (s1, s2, s3, s4), PR


def _d25_draw(rng, branch):
    if branch.startswith("sbar3>=3sbar1"):
        s1, s2, s3, s4 = d25_family_noises(rng, 3.0, 12.0)
    else:
        s1, s2, s3, s4 = d25_family_noises(rng, 2.0, 3.0)
    thr = threshold_of(s1, s3)
    if branch.endswith("PR>=sbar3"):
        PR = s3 * float(rng.uniform(1.0, 4.0))
    elif branch.endswith("thr<PR<sbar3"):
        if not thr < s3:
            return None
        PR = thr + (s3 - thr) * float(rng.uniform(0.01, 0.99))
    elif branch.endswith("PR<=thr") and branch.startswith("sbar3>=3sbar1"):
        PR = min(thr, s3) * float(rng.uniform(0.05, 1.0))
    elif branch.endswith("PR>=thr"):
        if math.isinf(thr):
            return None
        PR = thr * float(rng.uniform(1.0, 2.0))
    elif branch.endswith("sbar3<PR<thr"):
        if not s3 < thr:
            return None
        hi = min(thr, 10.0 * s3)
        PR = s3 + (hi - s3) * float(rng.uniform(0.01, 0.99))
    else:  # 2sbar1<=sbar3<3sbar1, PR<=sbar3
        PR = s3 * float(rng.uniform(0.05, 1.0))
    return (s1, s2, s3, s4), PR


def _d25_quadratic(PR, s1, s2, s3, s4):
    a = 2.0 * s1 - s4
    b = 4.0 * s1 * s1 - 2.0 * s1 * s3 + s1 * s4 - s2 * s4
    c = 4.0 * s1 * s1 * s4 - 2.0 * s1 * s3 * s4 - s1 * s2 * s4
    f = (a * PR + b) * PR + c
    scale = max(1.0, abs(a) * PR * PR, abs(b) * PR, abs(c))
    return f, scale


@pytest.mark.parametrize(
    "label, branch",
    [
        ("D2.3", "PR>=sbar1"),
        ("D2.5", "sbar3>=3sbar1,PR>=sbar3"),
        ("D2.5", "sbar3>=3sbar1,thr<PR<sbar3"),
        ("D2.5", "sbar3>=3sbar1,PR<=thr"),
        ("D2.5", "2sbar1<=sbar3<3sbar1,PR>=thr"),
        ("D2.5", "2sbar1<=sbar3<3sbar1,sbar3<PR<thr"),
        ("D2.5", "2sbar1<=sbar3<3sbar1,PR<=sbar3"),
    ],
)
def test_criterion_07_power_windows_stay_feasible(label, branch):
    rng = np.random.default_rng(abs(hash(("criterion7", label, branch))) % 2**32)
    hits = 0
    while hits < 10_000:
        drawn = _d23_draw(rng) if label == "D2.3" else _d25_draw(rng, branch)
        if drawn is None:
            continue
        sbar, PR = drawn
        params = case_params(sbar, PR=PR)
        # a raise here would mean an empty fourth-layer window
        alloc, tag = alloc_for_vertex(CaseLabel.II, label, params)
        if tag != branch:
            continue  # boundary draw fell into a neighboring branch
        hits += 1
        assert alloc.total <= PR + 1e-9
        if branch == "2sbar1<=sbar3<3sbar1,sbar3<PR<thr":
            # every draw here has PR > sbar3^2; the feasibility quadratic
            # must be nonnegative there
            f, scale = _d25_quadratic(PR, *sbar)
            assert f >= -1e-9 * scale


def test_criterion_08_lattice_rate_stays_within_half_bit_of_gaussian():
    powers = np.linspace(0.0, 20.0, 100)
    interferences = np.linspace(0.0, 20.0, 100)
    for sigma2 in (0.5, 1.0, 4.0):
        for p in powers:
            for intf in interferences:
                g = gaussian_rate(float(p), float(intf), sigma2)
                l = lattice_rate(float(p), float(intf), sigma2)
                assert l >= g - 0.5 - 1e-12


def test_criterion_09_oracle_agrees_with_the_closed_forms():
    start = time.perf_counter()
    rng = np.random.default_rng(90210)
    for _ in range(50):
        params = random_channel(rng)
        designated = oracles.designated_slacks(params)
        report = brute_force_gap(params, grid_steps=21)
        for row in report.rows:
            reference = designated[row.vertex_label]
            assert max(reference, row.free_slack) <= row.recipe_slack + 1e-7
            assert row.recipe_slack <= reference + 0.05
    assert time.perf_counter() - start < 120.0


@pytest.mark.parametrize(
    "golden_name, argv",
    [
        ("certify_unit.json", ("certify", str(GOLDEN / "unit_channel.json"))),
        (
            "certify_unit.csv",
            ("certify", str(GOLDEN / "unit_channel.json"), "--format", "csv"),
        ),
        (
            "certify_mixed.csv",
            ("certify", str(GOLDEN / "mixed_channel.json"), "--format", "csv"),
        ),
        ("certify_random.json", ("certify", "--random", "5", "42")),
        (
            "sweep_pr_unit.csv",
            ("sweep", str(GOLDEN / "unit_channel.json"), "--param", "PR",
             "--from", "0", "--to", "4", "--steps", "5"),
        ),
    ],
)
def test_criterion_10_reports_are_deterministic_and_match_goldens(
    capsys, golden_name, argv
):
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first == (GOLDEN / golden_name).read_text()


def test_criterion_11_wide_dynamic_range_certifies_without_exceptions():
    # every magnitude log-uniform over 1e-6..1e6: no channel may be rejected
    # as non-canonical or fault internally, and every certificate must pass
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    box = (1e-6, 1e6)
    for trial in range(1000):
        report = verify_theorem1(random_channel(rng, box, box, box))
        assert report.passed, f"trial {trial}: a certificate failed"
    assert time.perf_counter() - start < 60.0
