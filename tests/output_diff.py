"""Compare the program's outputs between two source trees under the float rule.

Usage, from the root of a checkout::

    python tests/output_diff.py BASE_ROOT [HEAD_ROOT]   # HEAD_ROOT defaults to .
    python tests/output_diff.py --dump ROOT > outputs.txt

Each root is a checkout whose ``src/`` holds ``relaygap``.  The dump runs in a
subprocess per root and covers 766 channels: seed 11 x150 in the default box,
seed 7 x300 at 1e+-6, ``targeted_channels()`` and seed 5 x300 at 1e+-3.  Per
channel it writes, one line each with its floats as ``float.hex``:

* every per-ordering and combined certificate of ``verify_theorem1``;
* the capacity terms and every outer, uplink and downlink vertex with its
  tight set and maximal flag, the link vertices in all four canonical frames;
* every ``brute_force_gap(grid_steps=5)`` row.

It also writes every ``brute_force_gap(grid_steps=21)`` row of the first 20
seed-90210 default-box channels, the grid size at which the oracle's fold
splits the first grid axis into blocks.

Then it runs the command line in-process through ``cli.main`` and writes each
command's exit code and the SHA-256 of its stdout: ``terms``, ``vertices
--link outer|uplink|downlink``, ``certify`` and ``certify --format csv`` on the
seed-7 and targeted channels, written to files in a temporary directory;
``certify --random 20 S`` for S = 0..9; and ``sweep --param PR|sigmaR2`` on the
two golden channel files.

A line is ``text|floats``.  The rule: the two dumps have the same lines, in
order, with identical text (labels, cases, subcases, tight sets, pass flags,
perms, exit codes and stdout digests), and every float within
1e-14 * max(1, |x|).  Exit code 0 when the rule holds, 1 when it breaks.  This
file is not collected by pytest.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REL_TOL = 1e-14
GOLDEN = Path(__file__).resolve().parent / "golden"

#: (seed, draws, box) for the random part of the channel set
SETS = ((11, 150, (0.1, 10.0)), (7, 300, (1e-6, 1e6)), (5, 300, (1e-3, 1e3)))


def channels():
    import numpy as np
    from relaygap import random_channel, targeted_channels

    for seed, draws, box in SETS:
        rng = np.random.default_rng(seed)
        for k in range(draws):
            yield f"s{seed}.{k}", random_channel(rng, box, box, box)
    for k, params in enumerate(targeted_channels()):
        yield f"t.{k}", params


def dump(out) -> None:
    import numpy as np
    from relaygap import (
        brute_force_gap,
        canonicalize,
        capacity_terms,
        classify_case,
        downlink_polytope,
        enumerate_vertices,
        maximal_vertices,
        outer_bound,
        random_channel,
        uplink_polytope,
        verify_theorem1,
    )
    from relaygap.certifier import ORDERINGS

    def line(text, *groups):
        out.write(text + "|" + " ".join(float(x).hex() for g in groups for x in g) + "\n")

    def vertices(cid, system):
        # keyed and ordered by tight set: the lexicographic vertex order is
        # permuted by rounding wherever two vertices share leading coordinates
        vset = enumerate_vertices(system)
        maximal = maximal_vertices(vset)
        for tight, v in sorted(zip(vset.tight_sets, vset.vertices)):
            line(f"{cid} tight={','.join(map(str, tight))} maximal={v in maximal}", v)

    def terms(cid, t):
        line(f"{cid} terms", t.C, t.D, [t.Cpair[key] for key in sorted(t.Cpair)], t.sigma_bar2)

    for cid, params in channels():
        report = verify_theorem1(params)
        line(f"{cid} theorem pass={report.passed}")
        for rep in report.orderings:
            tag = "{}-{}".format(*rep.rate_order)
            line(f"{cid} ordering {tag} perm={','.join(map(str, rep.perm))}")
        certs = [("{}-{}".format(*r.rate_order), c) for r in report.orderings for c in r.uplink + r.downlink]
        for tag, c in certs + [("", c) for c in report.combined]:
            line(
                f"{cid} cert {tag} {c.link} {c.vertex_label} {c.subcase} pass={c.passed}",
                c.target,
                c.achieved,
                c.slack,
            )
        terms(f"{cid} outer", capacity_terms(params))
        vertices(f"{cid} outer", outer_bound(capacity_terms(params)))
        for order in ORDERINGS:
            eff = canonicalize(params, rate_order=order)
            tag = f"{cid} frame {order[0]}-{order[1]}"
            t = capacity_terms(eff.params)
            case = classify_case(t.sigma_bar2)
            line(f"{tag} perm={','.join(map(str, eff.perm))} swapped={eff.pair_swapped} case={case.value}")
            terms(tag, t)
            vertices(f"{tag} uplink", uplink_polytope(t))
            vertices(f"{tag} downlink", downlink_polytope(case, t))
        for row in brute_force_gap(params, grid_steps=5).rows:
            line(
                f"{cid} oracle {row.link} {row.vertex_label}",
                (row.recipe_slack, row.free_slack),
                row.oracle_achieved,
            )
    rng = np.random.default_rng(90210)
    for k in range(20):
        for row in brute_force_gap(random_channel(rng), grid_steps=21).rows:
            line(
                f"s90210.{k} oracle21 {row.link} {row.vertex_label}",
                (row.recipe_slack, row.free_slack),
                row.oracle_achieved,
            )
    from relaygap.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        for argv, shown in commands(Path(tmp)):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
            line(f"cli {' '.join(shown)} exit={code} stdout={digest}")


def commands(tmp: Path):
    """The CLI set as (argv, argv as the dump shows it, without file paths)."""
    per_channel = (
        ("terms",),
        ("vertices", "--link", "outer"),
        ("vertices", "--link", "uplink"),
        ("vertices", "--link", "downlink"),
        ("certify",),
        ("certify", "--format", "csv"),
    )
    for cid, params in channels():
        if cid.startswith(("s7.", "t.")):
            path = tmp / f"{cid}.json"
            path.write_text(json.dumps(dataclasses.asdict(params)))  # floats round-trip
            for cmd, *opts in per_channel:
                yield [cmd, str(path), *opts], [cmd, cid, *opts]
    for seed in range(10):
        argv = ["certify", "--random", "20", str(seed)]
        yield argv, argv
    for name in ("unit_channel.json", "mixed_channel.json"):
        for param, start in (("PR", "0"), ("sigmaR2", "0.25")):
            opts = ["--param", param, "--from", start, "--to", "4", "--steps", "9"]
            yield ["sweep", str(GOLDEN / name), *opts], ["sweep", name, *opts]


def run_dump(root: Path) -> list:
    done = subprocess.run(
        [sys.executable, __file__, "--dump", str(root)],
        capture_output=True,
        text=True,
        check=False,
    )
    if done.returncode != 0:
        sys.exit(f"dump of {root} failed:\n{done.stderr}")
    return done.stdout.splitlines()


def within_rule(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(1.0, abs(a))


def compare(base: list, head: list) -> int:
    breaks, moved, worst = [], 0, 0.0
    if len(base) != len(head):
        breaks.append(f"{len(base)} lines in the base dump, {len(head)} in the head dump")
    for old, new in zip(base, head):
        old_text, old_nums = old.split("|")
        new_text, new_nums = new.split("|")
        a = [float.fromhex(x) for x in old_nums.split()]
        b = [float.fromhex(x) for x in new_nums.split()]
        if old_text != new_text or len(a) != len(b):
            breaks.append(f"text: {old_text!r} -> {new_text!r}")
            continue
        if a == b:
            continue
        moved += 1
        for x, y in zip(a, b):
            if x != y:
                worst = max(worst, abs(x - y) / max(1.0, abs(x)))
        if not all(within_rule(x, y) for x, y in zip(a, b)):
            breaks.append(f"floats: {old} -> {new}")
    print(f"{len(base)} lines; {moved} with moved floats, largest move {worst:.2g} * max(1, |x|)")
    for text in breaks[:20]:
        print("BREAK", text)
    print(f"{len(breaks)} lines break the rule" if breaks else "the rule holds")
    return 1 if breaks else 0


def main(argv: list) -> int:
    if len(argv) == 2 and argv[0] == "--dump":
        src = Path(argv[1]).resolve() / "src"
        sys.path.insert(0, str(src))
        import relaygap

        if src not in Path(relaygap.__file__).resolve().parents:
            sys.exit(f"relaygap was imported from {relaygap.__file__}, not from {src}")
        dump(sys.stdout)
        return 0
    if len(argv) not in (1, 2) or argv[0].startswith("-"):
        sys.exit(__doc__)
    roots = [Path(argv[0]).resolve(), Path(argv[1] if len(argv) == 2 else ".").resolve()]
    return compare(*(run_dump(root) for root in roots))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
