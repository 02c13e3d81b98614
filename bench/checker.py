"""Checks of the program's outputs, computed apart from the program.

Nothing here imports ``relaygap``.  From the channel alone the checker
recomputes the single-hop terms C_i, D_i and C_ij, reduces the channel to its
canonical form, enumerates the maximal vertices of the genie-aided outer
bound, and decides downward-hull membership with its own linear program
(scipy's HiGHS, after a single-point dominance test).  It then checks
properties the half-bit method must have; none of them compares against a
stored copy of earlier output.

Tolerances.  Rates grow with the channel's dynamic range (tens of bits at
1e+-6), so every comparison of a rate against a capacity or against another
rate allows ``REL_TOL * max(1, |magnitude|)``.  Slacks stay within a bit at
any magnitude, so the half-bit bound allows the absolute ``GAP_TOL``.  Report
numbers carry 12 significant digits; ``MATCH_TOL`` (relative) decides when
two printed numbers are the same number.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

import workloads as wl

HALF_BIT = 0.5
GAP_TOL = 1e-7
REL_TOL = 1e-9
MATCH_TOL = 1e-11
#: a maximal vertex and a reported combined target are the same corner
CORNER_TOL = 1e-7
#: the free grid optimum may undercut zero by float dust only
FREE_SLACK_FLOOR = -1e-9

ORDERINGS = ((1, 3), (1, 4), (2, 3), (2, 4))
CROSS_PAIRS = ((1, 3), (1, 4), (2, 3), (2, 4))
PARTNER = {1: 2, 2: 1, 3: 4, 4: 3}
CHANNEL_KEYS = ("h", "g", "P", "sigma2", "sigmaR2", "PR")

#: every downlink recipe branch: vertex label -> branch tags (the method's subcases)
SUBCASES: Dict[str, Tuple[str, ...]] = {
    "D1.1": ("always",),
    "D1.2": ("PR>=sbar4", "PR<sbar4"),
    "D1.3": ("PR>=sbar3", "PR<sbar3"),
    "D2.1": ("PR>=sbar1", "PR<sbar1"),
    "D2.2": ("PR>=sbar4", "PR<sbar4"),
    "D2.3": ("PR>=sbar1", "sbar4<=PR<sbar1", "PR<sbar4"),
    "D2.4": (
        "PR<sbar4",
        "sbar4<=PR<sbar3,sbar4>=2sbar2",
        "sbar4<=PR<sbar3,sbar4<2sbar2",
        "PR>=sbar3,sbar3>=2sbar1",
        "PR>=sbar3,sbar3<2sbar1",
    ),
    "D2.5": (
        "sbar3>=3sbar1,PR>=sbar3",
        "sbar3>=3sbar1,thr<PR<sbar3",
        "sbar3>=3sbar1,PR<=thr",
        "2sbar1<=sbar3<3sbar1,PR>=thr",
        "2sbar1<=sbar3<3sbar1,sbar3<PR<thr",
        "2sbar1<=sbar3<3sbar1,PR<=sbar3",
        "sbar3<2sbar1,PR>=sbar4",
        "sbar3<2sbar1,PR<sbar4",
    ),
    "D3.1": ("PR>=sbar1", "PR<sbar1"),
    "D3.2": ("PR>=sbar4", "PR<sbar4"),
    "D3.3": ("PR>=sbar3", "PR<sbar3"),
    "D3.4": ("PR>=sbar1", "PR<sbar1"),
    "D3.5": ("PR>=sbar1", "PR<sbar1"),
}


def _tol(*magnitudes: float) -> float:
    return REL_TOL * max([1.0] + [abs(m) for m in magnitudes])


def _same_number(a: float, b: float) -> bool:
    return abs(a - b) <= MATCH_TOL * max(abs(a), abs(b))


def same_channel(a: dict, b: dict) -> bool:
    """Equal up to the 12 significant digits a report prints."""
    for key in CHANNEL_KEYS:
        xs = a[key] if isinstance(a[key], list) else [a[key]]
        ys = b[key] if isinstance(b[key], list) else [b[key]]
        if len(xs) != len(ys) or not all(_same_number(float(x), float(y))
                                         for x, y in zip(xs, ys)):
            return False
    return True


# ---------------------------------------------------------------------------
# the channel's own quantities
# ---------------------------------------------------------------------------


def capacity(ch: dict) -> Tuple[np.ndarray, np.ndarray, Dict[Tuple[int, int], float]]:
    """C_i = 1/2 log2(1 + h_i^2 P_i / sigmaR2), D_i = 1/2 log2(1 + g_i^2 PR / sigma2_i),
    C_ij = 1/2 log2(1 + (h_i^2 P_i + h_j^2 P_j) / sigmaR2) for the cross pairs."""
    h, g, P, s2 = (np.asarray(ch[k], dtype=float) for k in ("h", "g", "P", "sigma2"))
    received = h * h * P / float(ch["sigmaR2"])
    C = 0.5 * np.log2(1.0 + received)
    D = 0.5 * np.log2(1.0 + g * g * float(ch["PR"]) / s2)
    Cp = {(i, j): 0.5 * math.log2(1.0 + received[i - 1] + received[j - 1])
          for i, j in CROSS_PAIRS}
    return C, D, Cp


def canonical(ch: dict, leaders: Tuple[int, int] = (1, 3)) -> dict:
    """The degraded canonical channel for one choice of in-pair rate leaders.

    Leaders go to slots 1 and 3; the trailing uplink gain shrinks until the
    leader's received power is not below the trailer's; the leader's noise
    grows until its downlink quality is not above the trailer's; the pairs
    swap when slot 4's effective noise is below slot 2's.
    """
    h, g, P, s2 = (list(map(float, ch[k])) for k in ("h", "g", "P", "sigma2"))
    vectors = (h, g, P, s2)
    if leaders[0] == 2:
        for v in vectors:
            v[0], v[1] = v[1], v[0]
    if leaders[1] == 4:
        for v in vectors:
            v[2], v[3] = v[3], v[2]
    for lead, trail in ((0, 1), (2, 3)):
        if h[lead] ** 2 * P[lead] < h[trail] ** 2 * P[trail]:
            h[trail] = abs(h[lead]) * math.sqrt(P[lead] / P[trail])
        if g[trail] ** 2 / s2[trail] < g[lead] ** 2 / s2[lead]:
            s2[lead] = g[lead] ** 2 * s2[trail] / g[trail] ** 2 if g[trail] else math.inf

    def sbar(i: int) -> float:
        return s2[i] / g[i] ** 2 if g[i] else math.inf

    if sbar(3) < sbar(1):
        h, g, P, s2 = (v[2:] + v[:2] for v in (h, g, P, s2))
    return {"h": h, "g": g, "P": P, "sigma2": s2,
            "sigmaR2": float(ch["sigmaR2"]), "PR": float(ch["PR"])}


def _unit(*users: int) -> List[float]:
    return [1.0 if u in users else 0.0 for u in (1, 2, 3, 4)]


def outer_rows(C, D, Cp) -> Tuple[np.ndarray, np.ndarray]:
    """Cut-set outer bound: a cross-pair sum is limited by the relay's joint
    uplink term and by the better of the two receivers; a single rate by the
    sender's uplink and its partner's downlink.  Nonnegativity rows last."""
    rows = [(_unit(i, j), min(Cp[(i, j)], max(D[PARTNER[i] - 1], D[PARTNER[j] - 1])))
            for i, j in CROSS_PAIRS]
    rows += [(_unit(i), min(C[i - 1], D[PARTNER[i] - 1])) for i in (1, 2, 3, 4)]
    rows += [([-x for x in _unit(i)], 0.0) for i in (1, 2, 3, 4)]
    return np.array([a for a, _ in rows]), np.array([b for _, b in rows])


def maximal_vertices(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise-maximal vertices of {R : A R <= b} by brute force.

    Every 4-row subset with a nonzero determinant (the rows are 0/+-1, so a
    nonzero determinant is at least 1 in size) is solved; feasible solutions
    are deduplicated and dominated ones dropped.
    """
    combos = np.array(list(itertools.combinations(range(len(b)), 4)))
    sub_A = A[combos]
    regular = np.abs(np.linalg.det(sub_A)) > 0.5
    sols = np.linalg.solve(sub_A[regular], b[combos][regular][..., None])[..., 0]
    tol = _tol(*b)
    sols = sols[(A @ sols.T <= b[:, None] + tol).all(axis=0)]
    points: List[np.ndarray] = []
    for x in sols[np.lexsort(sols.T[::-1])]:
        if not any(np.abs(x - p).max() <= tol for p in points):
            points.append(x)
    return np.array([v for v in points
                     if not any((w >= v - tol).all() and (w > v + tol).any() for w in points)])


def in_downward_hull(points: np.ndarray, target: np.ndarray) -> bool:
    """Is ``target`` dominated by a convex combination of ``points``?"""
    need = target - REL_TOL * np.maximum(1.0, np.abs(target))
    if (points >= need).all(axis=1).any():
        return True
    from scipy.optimize import linprog

    n = len(points)
    res = linprog(np.zeros(n), A_ub=-points.T, b_ub=-need, A_eq=np.ones((1, n)),
                  b_eq=[1.0], bounds=(0.0, None), method="highs")
    return res.status == 0


# ---------------------------------------------------------------------------
# report checks; each returns a list of error strings (empty when it holds)
# ---------------------------------------------------------------------------


def _to_original(rates: Sequence[float], perm: Sequence[int]) -> np.ndarray:
    out = np.zeros(4)
    for slot, user in enumerate(perm):
        out[user - 1] = float(rates[slot])
    return out


def _check_cert(cert: dict, link: str, where: str) -> List[str]:
    errors = []
    target, achieved, slack = (np.asarray(cert[k], dtype=float)
                               for k in ("target", "achieved", "slack"))
    if cert["link"] != link:
        errors.append(f"{where}: link is {cert['link']!r}, expected {link!r}")
    if cert["pass"] is not True:
        errors.append(f"{where}: certificate does not pass")
    for k in range(4):
        if abs(slack[k] - (target[k] - achieved[k])) > _tol(target[k], achieved[k]):
            errors.append(f"{where}: slack[{k}]={slack[k]} != target - achieved = "
                          f"{target[k] - achieved[k]}")
        if achieved[k] < -_tol(achieved[k]):
            errors.append(f"{where}: achieved[{k}]={achieved[k]} < 0")
    if slack.max() > HALF_BIT + GAP_TOL:
        errors.append(f"{where}: slack {slack.max()} exceeds half a bit")
    return errors


def _capacity_errors(R: np.ndarray, rows: Iterable[Tuple[Sequence[int], float]],
                     where: str) -> List[str]:
    errors = []
    for users, bound in rows:
        total = sum(R[u - 1] for u in users)
        if total > bound + _tol(bound):
            errors.append(f"{where}: rate sum of users {tuple(users)} = {total} exceeds "
                          f"capacity {bound}")
    return errors


def _uplink_rows(C, Cp):
    return [((i,), C[i - 1]) for i in (1, 2, 3, 4)] + [((i, j), Cp[(i, j)])
                                                      for i, j in CROSS_PAIRS]


def _downlink_rows(D):
    # a cross-pair sum reaches two receivers; the better one bounds it
    return [((i,), D[PARTNER[i] - 1]) for i in (1, 2, 3, 4)] + [
        ((i, j), max(D[PARTNER[i] - 1], D[PARTNER[j] - 1])) for i, j in CROSS_PAIRS]


def check_certify_report(channel: dict, report: dict) -> List[str]:
    """A single-channel ``certify`` JSON report against its channel."""
    errors: List[str] = []
    if not same_channel(report["channel"], channel):
        errors.append("report channel differs from the input channel")
    C, D, Cp = capacity(channel)
    orderings = report["orderings"]
    if sorted(tuple(o["rateOrder"]) for o in orderings) != sorted(ORDERINGS):
        errors.append(f"rate orderings are {[o['rateOrder'] for o in orderings]}")
    up_points, dn_points = [], []
    for o in orderings:
        perm, lead = list(o["perm"]), list(o["rateOrder"])
        tag = f"ordering {lead}"
        if (sorted(perm) != [1, 2, 3, 4] or {perm[0], perm[2]} != set(lead)
                or {perm[0], perm[1]} not in ({1, 2}, {3, 4})):
            errors.append(f"{tag}: perm {perm} does not keep pairs or leaders")
            continue
        if not o["uplink"] or not o["downlink"]:
            errors.append(f"{tag}: missing per-link certificates")
        for cert in o["uplink"]:
            where = f"{tag} uplink {cert['label']}"
            errors += _check_cert(cert, "uplink", where)
            R = _to_original(cert["achieved"], perm)
            errors += _capacity_errors(R, _uplink_rows(C, Cp), where)
            up_points.append(R)
        for cert in o["downlink"]:
            where = f"{tag} downlink {cert['label']}"
            errors += _check_cert(cert, "downlink", where)
            R = _to_original(cert["achieved"], perm)
            errors += _capacity_errors(R, _downlink_rows(D), where)
            dn_points.append(R)
    if not up_points or not dn_points:
        return errors + ["report has no achieved points"]

    up, dn = np.array(up_points), np.array(dn_points)
    A, b = outer_rows(C, D, Cp)
    corners = maximal_vertices(A, b)
    combined = report["combined"]
    targets = np.array([c["target"] for c in combined], dtype=float).reshape(-1, 4)

    def near(a: np.ndarray, b: np.ndarray) -> bool:
        return bool((np.abs(a - b) <= CORNER_TOL * np.maximum(1.0, np.abs(b))).all())

    for V in corners:
        T = np.maximum(0.0, V - HALF_BIT)
        where = f"outer corner {V.tolist()}"
        matches = [c for c, t in zip(combined, targets) if near(t, V)]
        if not matches:
            errors.append(f"{where}: no combined certificate")
        for cert in matches:
            if not near(np.asarray(cert["achieved"], dtype=float), T):
                errors.append(f"{where}: combined achieved {cert['achieved']} != (V - 1/2)+")
        if not in_downward_hull(up, T):
            errors.append(f"{where}: (V - 1/2)+ is outside the uplink points' downward hull")
        if not in_downward_hull(dn, T):
            errors.append(f"{where}: (V - 1/2)+ is outside the downlink points' downward hull")
    # near-duplicate corners may add combined certificates; each must still
    # certify a point of the outer region
    for cert, t in zip(combined, targets):
        if not (A @ t <= b + REL_TOL * np.maximum(1.0, np.abs(b))).all():
            errors.append(f"combined {cert['label']}: target {t.tolist()} is outside the "
                          f"outer bound")
        errors += _check_cert(cert, "combined", f"combined {cert['label']}")
    if report["pass"] is not True:
        errors.append("report does not pass")
    return errors


def check_ensemble_report(trials: int, program_seed: int, report: dict) -> List[str]:
    """A ``certify --random TRIALS SEED`` report against the channels of SEED."""
    errors: List[str] = []
    cfg = report["config"]
    box = list(wl.DEFAULT_BOX)
    if (cfg["trials"], cfg["seed"]) != (trials, program_seed) or any(
            cfg[k] != box for k in ("gainRange", "powerRange", "noiseRange")):
        errors.append(f"config {cfg} is not the requested ensemble")
    if report["trials"] != trials or report["failures"] != 0 or report["pass"] is not True:
        errors.append(f"trials={report['trials']} failures={report['failures']} "
                      f"pass={report['pass']}")
    max_slack = report["maxSlack"]
    for link, value in max_slack.items():
        if value > HALF_BIT + GAP_TOL:
            errors.append(f"maxSlack.{link}={value} exceeds half a bit")
    worst = report["worst"]
    if worst["link"] not in max_slack or not _same_number(worst["slack"],
                                                          max(max_slack.values())):
        errors.append(f"worst slack {worst['slack']} ({worst['link']}) is not the largest "
                      f"of maxSlack {max_slack}")
    if not any(same_channel(worst["channel"], ch)
               for ch in wl.ensemble_channels(program_seed, trials)):
        errors.append("worst.channel is not one of the ensemble's channels")

    per_label: Dict[str, int] = {}
    for key, count in report["subcaseCounts"].items():
        label, _, tag = key.partition(":")
        if tag not in SUBCASES.get(label, ()):
            errors.append(f"subcaseCounts has unknown branch {key!r}")
        elif not isinstance(count, int) or count < 1:
            errors.append(f"subcaseCounts[{key!r}] = {count!r}")
        else:
            per_label[label] = per_label.get(label, 0) + count
    # every (channel, ordering) certifies each vertex of its case exactly once
    per_case = []
    for case in "123":
        counts = {per_label.get(label, 0) for label in SUBCASES if label[1] == case}
        if len(counts) != 1:
            errors.append(f"case {case} vertices counted unevenly: {per_label}")
        per_case.append(max(counts))
    if sum(per_case) != 4 * trials:
        errors.append(f"{sum(per_case)} (channel, ordering) cases, expected {4 * trials}")
    total = sum(per_label.values())
    if not 12 * trials <= total <= 20 * trials:
        errors.append(f"{total} downlink certificates for {trials} channels")
    return errors


def check_oracle_rows(channel: dict, rows: List[dict]) -> List[str]:
    """``brute_force_gap`` rows against the channel's canonical form."""
    errors: List[str] = []
    C, D, Cp = capacity(canonical(channel))
    links = [row["link"] for row in rows]
    if links.count("uplink") != 6 or links.count("downlink") not in (3, 5):
        errors.append(f"oracle rows per link: {links}")
    for row in rows:
        where = f"oracle {row['link']} {row['label']}"
        free, recipe = row["free_slack"], row["recipe_slack"]
        if free > recipe + GAP_TOL:
            errors.append(f"{where}: free_slack {free} > recipe_slack {recipe}")
        if recipe > HALF_BIT + GAP_TOL:
            errors.append(f"{where}: recipe_slack {recipe} exceeds half a bit")
        if free < FREE_SLACK_FLOOR:
            errors.append(f"{where}: free_slack {free} < 0")
        R = np.asarray(row["oracle_achieved"], dtype=float)
        capacity_rows = _uplink_rows(C, Cp) if row["link"] == "uplink" else _downlink_rows(D)
        errors += _capacity_errors(R, capacity_rows, where)
    return errors


# ---------------------------------------------------------------------------
# a run's output file
# ---------------------------------------------------------------------------


def _known_rejection(record: dict) -> bool:
    lines = record["stderr"].splitlines()
    return (record["code"] == 2 and len(lines) == 1
            and lines[0].startswith(wl.KNOWN_REJECTIONS))


def check_record(workload: str, record: dict, channels: List[dict]) -> List[str]:
    """Errors of one output record; a known certify_wide rejection has none.

    ``channels`` are the workload's input channels by index (unused by
    ``ensemble``, whose channels the checker draws from each call's seed).
    """
    if workload == "certify_wide" and _known_rejection(record):
        return []
    if record["code"] != 0:
        return [f"exit {record['code']}: {record.get('stderr', '').strip()[-500:]}"]
    if workload == "ensemble":
        return check_ensemble_report(record["trials"], record["seed"],
                                     json.loads(record["stdout"]))
    channel = channels[record["index"]]
    if workload == "certify_wide":
        return check_certify_report(channel, json.loads(record["stdout"]))
    return check_oracle_rows(channel, record["rows"])


def check_outputs(workload: str, seed: int, path) -> Tuple[int, List[str]]:
    """Check every distinct record of an output file; returns (records, errors)."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    channels: List[dict] = []
    if workload == "certify_wide":
        channels = wl.wide_pool()
    elif workload == "oracle" and records:
        count = 1 + max(r["index"] for r in records)
        channels = list(itertools.islice(wl.oracle_channels(seed), count))
    errors = []
    for record in records:
        try:
            found = check_record(workload, record, channels)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            found = [f"malformed output ({type(exc).__name__}: {exc})"]
        errors += [f"{workload} {_op_name(record)}: {e}" for e in found]
    return len(records), errors


def _op_name(record: dict) -> str:
    if "seed" in record:
        return f"certify --random {record['trials']} {record['seed']}"
    return f"channel {record['index']}"
