"""One benchmark workload in its own process: set-up, then a timed closed loop.

Started by ``bench/run.py``; not meant to be run by hand.  The process does
nothing but the workload, so its peak RSS is the workload's.  One client in
one thread calls the program's public entry points back to back (the next
call starts when the previous one returns) until ``--seconds`` have passed,
always finishing the round it is in.  Every raw output goes, untimed, to the
``--outputs`` file as one JSON line per call, except that a line identical to
one already written (the same channel with the same outcome in a later round)
is written once; the checker in ``run.py`` reads the file after this process
has ended.  The last stdout line is a JSON summary.

``--setup-only`` stops after the set-up (import plus input generation) and
reports how long it took.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import relaygap  # noqa: E402
from relaygap import cli  # noqa: E402

import workloads as wl  # noqa: E402


def _call_cli(argv):
    """Run ``relaygap`` in-process; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a traceback is an output the checker must see
            code = "traceback"
            traceback.print_exc(file=err)
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


class Ensemble:
    """Repeated ``certify --random TRIALS SEED`` calls, one seed per call."""

    def __init__(self, seed, data_dir):
        self.seed = seed

    def rounds(self):
        for first in itertools.count(0, wl.ENSEMBLE_CALLS_PER_ROUND):
            yield range(first, first + wl.ENSEMBLE_CALLS_PER_ROUND)

    def invoke(self, call):
        program_seed = wl.ensemble_seed(self.seed, call)
        code, stdout, stderr, seconds = _call_cli(
            ["certify", "--random", str(wl.ENSEMBLE_TRIALS), str(program_seed)])
        record = {"call": call, "seed": program_seed, "trials": wl.ENSEMBLE_TRIALS,
                  "code": code, "stdout": stdout, "stderr": stderr}
        return record, wl.ENSEMBLE_TRIALS, code == 0, seconds


class CertifyWide:
    """One ``certify CHANNEL.json`` call per pool channel, whole pool per round."""

    def __init__(self, seed, data_dir):
        self.seed = seed
        self.paths = []
        wide_dir = data_dir / "wide"
        wide_dir.mkdir(parents=True, exist_ok=True)
        for index, channel in enumerate(wl.wide_pool()):
            path = wide_dir / f"channel-{index:03d}.json"
            path.write_text(json.dumps(channel), encoding="utf-8")
            self.paths.append(str(path))

    def rounds(self):
        return wl.wide_round_orders(self.seed)

    def invoke(self, index):
        code, stdout, stderr, seconds = _call_cli(["certify", self.paths[index]])
        record = {"index": index, "code": code, "stdout": stdout, "stderr": stderr}
        return record, 1, code == 0, seconds


class Oracle:
    """``brute_force_gap(params, grid_steps=21)`` over a seeded channel stream."""

    def __init__(self, seed, data_dir):
        self.stream = wl.oracle_channels(seed)

    def rounds(self):
        channels = enumerate(self.stream)
        while True:
            yield [next(channels) for _ in range(wl.ORACLE_CALLS_PER_ROUND)]

    def invoke(self, op):
        index, channel = op
        params = relaygap.SystemParams(**channel)
        start = time.perf_counter()
        try:
            report = relaygap.brute_force_gap(params, grid_steps=wl.ORACLE_GRID_STEPS)
        except Exception:
            seconds = time.perf_counter() - start
            return {"index": index, "code": "traceback",
                    "stderr": traceback.format_exc()}, 1, False, seconds
        seconds = time.perf_counter() - start
        rows = [{"link": row.link, "label": row.vertex_label,
                 "recipe_slack": float(row.recipe_slack), "free_slack": float(row.free_slack),
                 "oracle_achieved": [float(v) for v in row.oracle_achieved]}
                for row in report.rows]
        return {"index": index, "code": 0, "grid_steps": report.grid_steps,
                "rows": rows}, 1, True, seconds


RUNNERS = {"ensemble": Ensemble, "certify_wide": CertifyWide, "oracle": Oracle}


def closed_loop(runner, seconds, sink, tracer=None):
    """Call the program back to back for ``seconds``, in whole rounds."""
    per_channel_s = []
    rounds = []  # (channels completed, wall seconds) per round
    attempted = completed = 0
    op = 0
    written = set()
    start = time.perf_counter()
    for ops in runner.rounds():
        round_start, round_completed = time.perf_counter(), 0
        for item in ops:
            if tracer is not None:
                tracer.op = op
            record, channels, ok, elapsed = runner.invoke(item)
            attempted += channels
            if ok:
                round_completed += channels
                per_channel_s.append(elapsed / channels)
            line = json.dumps(record)
            digest = hashlib.blake2b(line.encode(), digest_size=16).digest()
            if digest not in written:  # a repeat would be checked in vain
                written.add(digest)
                sink.write(line + "\n")
            op += 1
        now = time.perf_counter()
        completed += round_completed
        rounds.append((round_completed, now - round_start))
        if now - start >= seconds:
            break
    return {"attempted": attempted, "completed": completed, "calls": op,
            "wall_s": time.perf_counter() - start, "rounds": rounds,
            "per_channel_s": per_channel_s}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-dir", type=Path, required=True)
    parser.add_argument("--outputs", type=Path)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(relaygap.__file__).resolve().parents:
        print(f"error: relaygap was imported from {relaygap.__file__}, not {src}",
              file=sys.stderr)
        return 2

    runner = RUNNERS[args.workload](args.seed, args.data_dir)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        missing = tracer.install()
        if missing:
            print(f"note: not traced (not found): {', '.join(missing)}", file=sys.stderr)

    with open(args.outputs, "w", encoding="utf-8") as sink:
        summary = closed_loop(runner, args.seconds, sink, tracer)
    summary["setup_s"] = setup_s
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        summary["per_layer"] = tracer.per_layer(summary["attempted"])
        if args.spans:
            tracer.write(str(args.spans))
    sys.stdout.flush()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
