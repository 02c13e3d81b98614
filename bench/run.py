"""Run one relaygap benchmark workload, check its outputs, print its metrics.

    python3 bench/run.py --workload ensemble|certify_wide|oracle \
        --seed N --seconds S --trace 0|1

Run from the root of a relaygap checkout; the program is imported from its
``src`` directory.  The workload runs in a separate process (``worker.py``)
that does nothing else, so its peak RSS is the workload's own.  Set-up time
is the median over ``SETUP_RUNS`` fresh processes.  After the worker has
ended, every output it produced is checked by ``checker.py``, which shares
no code with the program.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (from a traced run) with
``--trace 1``.  Exit code 0 when every output checks out, 1 when one does
not, 2 when the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import workloads as wl  # noqa: E402

#: fresh processes whose set-up time is measured, the timed worker included
SETUP_RUNS = 5
#: a run must end within 180 s; leave room for the set-up probes and the check
WORKER_TIMEOUT_S = 140.0


def _worker(argv, timeout):
    # a fixed hash seed takes one source of process-to-process variance away
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], env=env,
                          capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(summary, setup_s):
    per_channel_ms = [1e3 * s for s in summary["per_channel_s"]]
    # rounds repeat the same kind of work, so their median throughput sets
    # aside a round that a burst of load from outside happened to slow
    rounds = [(done, wall) for done, wall in summary["rounds"] if done]
    values = {
        "setup_s": ("s", statistics.median(setup_s)),
        "channels_per_s": ("channels/s", statistics.median(d / w for d, w in rounds)),
        "certify_p50_ms": ("ms", statistics.median(per_channel_ms)),
        "certify_p90_ms": ("ms", statistics.quantiles(per_channel_ms, n=10,
                                                      method="inclusive")[8]),
        "oracle_s_per_channel": ("s", statistics.median(w / d for d, w in rounds)),
        "peak_rss_mb": ("MB", summary["peak_rss_mb"]),
    }
    return {name: {"value": value, "unit": unit} for name, (unit, value) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "relaygap" / "__init__.py").is_file():
        print(f"error: no relaygap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    started = time.monotonic()
    data_dir = ROOT / ".bench_run"
    data_dir.mkdir(exist_ok=True)
    outputs = data_dir / f"outputs-{args.workload}-{os.getpid()}.jsonl"
    spans = data_dir / f"spans-{args.workload}.jsonl"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--data-dir", str(data_dir)]

    def probes(count):
        return [_worker(common + ["--setup-only"], 60)["setup_s"] for _ in range(count)]

    try:
        # untraced runs probe set-up before and after the timed worker, so the
        # median spans the whole run rather than one moment of machine load
        probes_before = 0 if args.trace else (SETUP_RUNS - 1) // 2
        setup_s = probes(probes_before)
        remaining = WORKER_TIMEOUT_S - (time.monotonic() - started)
        summary = _worker(common + ["--trace", str(args.trace), "--outputs", str(outputs),
                                    "--spans", str(spans)], remaining)
        setup_s += [summary["setup_s"]] + probes(0 if args.trace
                                                 else SETUP_RUNS - 1 - probes_before)
        records, errors = checker.check_outputs(args.workload, args.seed, outputs)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        outputs.unlink(missing_ok=True)

    if summary["completed"] == 0:
        errors.append("no operation completed")
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    attempted = summary["attempted"]
    failed = attempted - summary["completed"]
    print(f"{args.workload}: {summary['calls']} calls in {len(summary['rounds'])} rounds "
          f"({records} distinct outputs checked, {len(errors)} errors), "
          f"{attempted} channels attempted, {failed} rejected, "
          f"{len(summary['per_channel_s'])} latency samples, loop {summary['wall_s']:.2f} s "
          f"({summary['completed'] / summary['wall_s']:.2f} channels/s), "
          f"set-up samples {[round(s, 4) for s in setup_s]}", file=sys.stderr)

    if errors:
        metrics = {}
    elif args.trace:
        metrics = summary["per_layer"]
    else:
        metrics = _end_to_end(summary, setup_s)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
