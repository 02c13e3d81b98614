"""Self-test of the output checker: real outputs pass, corrupted ones fail.

    python3 bench/selftest.py

Makes real outputs with the program (wide-range ``certify`` reports, one
``certify --random`` report and one ``brute_force_gap`` report), checks that
the checker accepts them, then corrupts copies one way each and checks that
the checker rejects every copy with the complaint that corruption should
raise.  Exit code 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import relaygap  # noqa: E402
from relaygap import cli  # noqa: E402

import checker  # noqa: E402
import workloads as wl  # noqa: E402


def _certify(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _lone_corner(report):
    """Index and (V - 1/2)+ of a combined certificate whose pushed-in corner
    no other corner's pushed-in corner dominates."""
    targets = [np.maximum(0.0, np.asarray(c["target"]) - 0.5) for c in report["combined"]]
    for k, T in enumerate(targets):
        others = [t for j, t in enumerate(targets) if j != k]
        if T.max() > 0 and not any((t >= T).all() for t in others):
            return k, T
    return None


def _find_channel(data_dir):
    """First wide-pool channel that certifies with a lone corner whose uplink
    hull membership rests on points that can be removed."""
    for index, channel in enumerate(wl.wide_pool()):
        path = data_dir / "selftest-channel.json"
        path.write_text(json.dumps(channel), encoding="utf-8")
        code, stdout = _certify(["certify", str(path)])
        if code != 0:
            continue
        report = json.loads(stdout)
        lone = _lone_corner(report)
        if lone is None:
            continue
        k, T = lone
        points = [checker._to_original(c["achieved"], o["perm"])
                  for o in report["orderings"] for c in o["uplink"]]
        keep = [p for p in points if not (p >= T - 1e-9).all()]
        if keep and not checker.in_downward_hull(np.array(keep), T):
            return index, channel, report, k, T
    raise SystemExit("no wide-pool channel fits the self-test")


def corruptions(channel, report, k, T, ensemble, oracle_rows):
    """(name, expected complaint, check of the corrupted copy)."""
    C, _, _ = checker.capacity(channel)

    def over_capacity():
        bad = copy.deepcopy(report)
        o = bad["orderings"][0]
        cert, slot = o["uplink"][0], 0
        user = o["perm"][slot]
        cert["achieved"][slot] = C[user - 1] * (1 + 1e-6) + 1e-6
        cert["slack"][slot] = cert["target"][slot] - cert["achieved"][slot]
        return checker.check_certify_report(channel, bad)

    def slack_above_half():
        bad = copy.deepcopy(report)
        cert = bad["orderings"][1]["downlink"][0]
        cert["slack"][0] = 0.5 + 1e-5
        cert["target"][0] = cert["achieved"][0] + cert["slack"][0]
        return checker.check_certify_report(channel, bad)

    def dropped_combined():
        bad = copy.deepcopy(report)
        del bad["combined"][k]
        return checker.check_certify_report(channel, bad)

    def dropped_hull_points():
        bad = copy.deepcopy(report)
        for o in bad["orderings"]:
            o["uplink"] = [c for c in o["uplink"]
                           if not (checker._to_original(c["achieved"], o["perm"])
                                   >= T - 1e-9).all()]
        return checker.check_certify_report(channel, bad)

    def wrong_worst_channel():
        bad = copy.deepcopy(ensemble["report"])
        bad["worst"]["channel"]["PR"] *= 1.001
        return checker.check_ensemble_report(ensemble["trials"], ensemble["seed"], bad)

    def oracle_free_above_recipe():
        bad = copy.deepcopy(oracle_rows["rows"])
        bad[0]["free_slack"] = bad[0]["recipe_slack"] + 1e-5
        return checker.check_oracle_rows(oracle_rows["channel"], bad)

    return [
        ("achieved rate nudged above capacity", "exceeds capacity", over_capacity),
        ("slack above half a bit", "exceeds half a bit", slack_above_half),
        ("combined certificate dropped", "no combined certificate", dropped_combined),
        ("uplink points of a lone corner dropped", "outside the uplink points",
         dropped_hull_points),
        ("wrong worst.channel", "worst.channel", wrong_worst_channel),
        ("oracle free slack above recipe slack", "free_slack", oracle_free_above_recipe),
    ]


def main() -> int:
    data_dir = HERE.parent / ".bench_run"
    data_dir.mkdir(exist_ok=True)
    index, channel, report, k, T = _find_channel(data_dir)
    seed = wl.ensemble_seed(0, 0)
    code, stdout = _certify(["certify", "--random", str(wl.ENSEMBLE_TRIALS), str(seed)])
    ensemble = {"trials": wl.ENSEMBLE_TRIALS, "seed": seed, "report": json.loads(stdout)}
    oracle_channel = next(wl.oracle_channels(0))
    bf = relaygap.brute_force_gap(relaygap.SystemParams(**oracle_channel),
                                  grid_steps=wl.ORACLE_GRID_STEPS)
    oracle_rows = {"channel": oracle_channel, "rows": [
        {"link": r.link, "label": r.vertex_label, "recipe_slack": r.recipe_slack,
         "free_slack": r.free_slack, "oracle_achieved": list(r.oracle_achieved)}
        for r in bf.rows]}

    ok = True
    pristine = {
        f"certify report of wide-pool channel {index}":
            checker.check_certify_report(channel, report),
        f"certify --random {wl.ENSEMBLE_TRIALS} {seed}":
            ["exit code %d" % code] if code else
            checker.check_ensemble_report(ensemble["trials"], seed, ensemble["report"]),
        "brute_force_gap report": checker.check_oracle_rows(oracle_channel,
                                                            oracle_rows["rows"]),
    }
    for name, errors in pristine.items():
        print(f"{'accepted' if not errors else 'REJECTED'}: real {name}")
        for e in errors:
            print(f"    {e}")
        ok &= not errors
    for name, expected, run in corruptions(channel, report, k, T, ensemble, oracle_rows):
        errors = run()
        complaint = next((e for e in errors if expected in e), None)
        print(f"{'rejected' if complaint else 'NOT REJECTED'}: {name}"
              + (f" ({complaint or errors[0]})" if errors else ""))
        ok &= complaint is not None
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
