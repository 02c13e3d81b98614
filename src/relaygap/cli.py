"""Command-line front end: channel files in, JSON/CSV reports out.

Four subcommands cover the workflow:

* ``terms``     — single-hop capacity quantities of a channel,
* ``vertices``  — corner points of the outer / uplink / downlink regions,
* ``certify``   — per-vertex half-bit gap certificates (file or ensemble),
* ``sweep``     — plot-ready CSV of certificates along a parameter sweep.

Numbers are printed with 12 significant digits everywhere, infinities as the
string ``"inf"``; CSV uses '.' decimals, ',' separators, and a mandatory
header row.  Exit codes: 0 success / all certificates pass, 1 a certificate
failed, 2 bad input (the message names the offending field), 3 an internal
consistency fault (a closed form broke one of its own guarantees), 141 the
reader closed standard output (128 + SIGPIPE, as ``relaygap ... | head`` ends).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

from .bounds import downlink_polytope, outer_bound, uplink_polytope
from .certifier import (
    MonteCarloConfig,
    MonteCarloReport,
    Theorem1Report,
    _certificates_of,
    monte_carlo,
    verify_theorem1,
)
from .downlink import classify_case
from .effective import frame
from .model import (
    CapacityTerms,
    InternalConsistencyError,
    SystemParams,
    ValidationError,
    _real,
    capacity_terms,
    received_powers,
)
from .polytope import HalfspaceSystem, enumerate_vertices, maximal_vertices

#: the channel-file schema is SystemParams' own: its fields in declaration
#: order, each mapped to whether it is one number (else an array of four)
_CHANNEL_FIELDS = {f.name: f.type in (float, "float") for f in dataclasses.fields(SystemParams)}


# ---------------------------------------------------------------------------
# number / JSON / CSV rendering
# ---------------------------------------------------------------------------


def _jnum(x: float) -> str:
    """A report number as JSON: 12 significant digits, infinities as the
    strings "inf" / "-inf", NaN an internal fault (CSV drops the quotes)."""
    x = float(x)
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        raise InternalConsistencyError("NaN leaked into a report")
    return format(x, ".12g")


def _jnum4(v) -> str:
    """`_jnum` of each of four numbers, ", "-joined; one format if their sum is finite."""
    if math.isfinite(v[0] + v[1] + v[2] + v[3]):
        return "%.12g, %.12g, %.12g, %.12g" % tuple(v)
    return ", ".join(map(_jnum, v))


def _csv4(*vectors) -> List[str]:
    """CSV cells of 4-vectors: `_jnum4`'s numbers, unquoted."""
    return ", ".join(map(_jnum4, vectors)).replace('"', "").split(", ")


#: the json module's own string encoder (what json.dumps calls for a str)
_jstr = json.encoder.encode_basestring_ascii


def _json_list(items: List[str], pad: str) -> str:
    """`_render`'s multiline list at ``pad``, of items rendered one level in."""
    return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"


def _render(node, pad: str = "") -> str:
    """Deterministic pretty JSON: dicts multiline, lists inline unless they
    hold a dict or a list; floats through `_jnum`."""
    if isinstance(node, float):
        return _jnum(node)
    if isinstance(node, str):
        return _jstr(node)
    if isinstance(node, bool):
        return "true" if node else "false"
    if isinstance(node, int):
        return int.__repr__(node)
    inner = pad + "  "
    if isinstance(node, dict):
        parts = [f"{inner}{_jstr(k)}: {_render(v, inner)}" for k, v in node.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}" if parts else "{}"
    if isinstance(node, (list, tuple)):
        if not any(isinstance(v, (dict, list, tuple)) for v in node):  # [] too
            return "[" + ", ".join(_render(v) for v in node) + "]"
        return _json_list([inner + _render(v, inner) for v in node], pad)
    raise InternalConsistencyError(f"cannot render {type(node).__name__} into a report")


# ---------------------------------------------------------------------------
# channel file parsing
# ---------------------------------------------------------------------------


class _Number(str):
    """A JSON number literal, or one of the NaN / Infinity constants json.loads
    admits, kept as its text until `_coerce_number` knows its field."""

    __repr__ = str.__str__  # an error message quotes it as the file wrote it


def _coerce_number(value, field: str) -> float:
    """The one number rule of a channel file: a number must be finite, and the
    string "inf" is the only way to write +inf (the unreachable-user noise)."""
    if isinstance(value, bool):
        raise ValidationError(f"field {field!r} must be a number, got a boolean")
    if value == "inf":
        return math.inf
    if not isinstance(value, (_Number, int, float)):
        raise ValidationError(f'field {field!r} must be a number or "inf", got {value!r}')
    x = _real(value, f"field {field!r}")  # text rounds as the int or float it spells would
    if math.isinf(x):
        raise ValidationError(f"field {field!r} is too large for a float; numbers must be finite")
    return x


def parse_channel(obj) -> SystemParams:
    """Turn a decoded channel-file JSON object into validated SystemParams."""
    if not isinstance(obj, dict):
        raise ValidationError("channel file must contain a JSON object")
    for key in _CHANNEL_FIELDS:
        if key not in obj:
            raise ValidationError(f"channel file is missing field {key!r}")
    unknown = sorted(set(obj) - _CHANNEL_FIELDS.keys())
    if unknown:
        raise ValidationError(f"channel file has unknown field {unknown[0]!r}")
    values = {}
    for key, scalar in _CHANNEL_FIELDS.items():
        raw = obj[key]
        if scalar:
            values[key] = _coerce_number(raw, key)
        elif isinstance(raw, list) and len(raw) == 4:
            values[key] = tuple(_coerce_number(v, f"{key}[{i}]") for i, v in enumerate(raw, 1))
        else:
            raise ValidationError(f"field {key!r} must be an array of exactly 4 numbers")
    return SystemParams(**values)


def _load_channel(path: str) -> SystemParams:
    # JSON text is UTF-8 (RFC 8259); nesting past the recursion limit is no channel
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        obj = json.loads(
            text, parse_float=_Number, parse_constant=_Number,
            # an integer has no signed zero: "-0" reads as 0, as int() reads it
            parse_int=lambda s: _Number("0" if s == "-0" else s),
        )
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"channel file is not valid JSON: {exc}") from exc
    except OSError as exc:  # an unreadable file is bad input, in the OS's words
        raise ValidationError(str(exc)) from exc
    return parse_channel(obj)


# ---------------------------------------------------------------------------
# report documents
# ---------------------------------------------------------------------------


def _channel_doc(p: SystemParams) -> dict:
    return {key: getattr(p, key) for key in _CHANNEL_FIELDS}


def _terms_doc(terms: CapacityTerms) -> dict:
    return {
        "C": list(terms.C),
        "D": list(terms.D),
        "Cpair": {f"{i}{j}": terms.Cpair[(i, j)] for (i, j) in sorted(terms.Cpair)},
        "sigmaBar2": list(terms.sigma_bar2),
    }


def _certs_json(certs, pad: str) -> str:
    """Certificates as `_render` writes their list at ``pad``: one f-string per
    certificate, its seven keys in order, each 4-vector through `_jnum4`."""
    i, k = pad + "  ", pad + "    "
    return _json_list([
        f'{i}{{\n{k}"link": {_jstr(c.link)},\n{k}"label": {_jstr(c.vertex_label)},\n'
        f'{k}"subcase": {_jstr(c.subcase)},\n{k}"target": [{_jnum4(c.target)}],\n'
        f'{k}"achieved": [{_jnum4(c.achieved)}],\n{k}"slack": [{_jnum4(c.slack)}],\n'
        f'{k}"pass": {"true" if c.passed else "false"}\n{i}}}'
        for c in certs
    ], pad)


def _theorem_json(params: SystemParams, report: Theorem1Report) -> str:
    """The ``certify CHANNEL`` report by its fixed shape; `_render` writes the channel."""
    orderings = [
        '    {\n      "rateOrder": [%d, %d],\n      "perm": [%d, %d, %d, %d],\n'
        % (*rep.rate_order, *rep.perm)
        + f'      "uplink": {_certs_json(rep.uplink, "      ")},\n'
        f'      "downlink": {_certs_json(rep.downlink, "      ")}\n    }}'
        for rep in report.orderings
    ]
    return (
        f'{{\n  "channel": {_render(_channel_doc(params), "  ")},\n'
        f'  "orderings": {_json_list(orderings, "  ")},\n'
        f'  "combined": {_certs_json(report.combined, "  ")},\n'
        f'  "pass": {"true" if report.passed else "false"}\n}}'
    )


def _mc_doc(report: MonteCarloReport) -> dict:
    cfg = report.config
    return {
        "config": {
            "trials": cfg.trials,
            "seed": cfg.seed,
            "gainRange": list(cfg.gain_range),
            "powerRange": list(cfg.power_range),
            "noiseRange": list(cfg.noise_range),
        },
        "trials": report.trials,
        "failures": report.failures,
        "pass": report.passed,
        "maxSlack": dict(report.max_slack),
        "worst": {
            "link": report.worst.link,
            "label": report.worst.vertex_label,
            "slack": report.worst.slack,
            "channel": _channel_doc(report.worst.channel),
        },
        "subcaseCounts": dict(report.subcase_counts),
    }


def _vertices_doc(system: HalfspaceSystem) -> List[dict]:
    vset = enumerate_vertices(system)
    maximal = maximal_vertices(vset)
    return [
        {"rates": list(vertex), "tight": list(tight), "maximal": vertex in maximal}
        for vertex, tight in zip(vset.vertices, vset.tight_sets)
    ]


_CERT_HEADER = (
    ["ordering", "link", "label", "subcase"]
    + [f"target{i}" for i in range(1, 5)]
    + [f"achieved{i}" for i in range(1, 5)]
    + [f"slack{i}" for i in range(1, 5)]
    + ["pass"]
)


def _cert_csv_rows(report: Theorem1Report, mids: Sequence[str] = ()) -> List[List[str]]:
    """One CSV row per certificate: its ordering tag ("" for the combined
    ones), link, label and subcase, then ``mids``, then the numbers."""
    return [
        [
            f"{order[0]}-{order[1]}" if order else "",
            cert.link,
            cert.vertex_label,
            cert.subcase,
            *mids,
            *_csv4(cert.target, cert.achieved, cert.slack),
            "true" if cert.passed else "false",
        ]
        for order, cert in _certificates_of(report)
    ]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_terms(args: argparse.Namespace) -> int:
    params = _load_channel(args.channel)
    print(_render(_terms_doc(capacity_terms(params))))
    return 0


def cmd_vertices(args: argparse.Namespace) -> int:
    params = _load_channel(args.channel)
    terms = capacity_terms(params)
    doc: dict
    if args.link == "outer":
        system = outer_bound(terms)
        doc = {"link": "outer"}
    else:
        perm, terms, _ = frame(terms, received_powers(params))
        if args.link == "uplink":
            system = uplink_polytope(terms)
            doc = {"link": "uplink", "rateOrder": [1, 3], "perm": list(perm)}
        else:
            case = classify_case(terms.sigma_bar2)
            system = downlink_polytope(case, terms)
            doc = {
                "link": "downlink",
                "rateOrder": [1, 3],
                "perm": list(perm),
                "case": case.value,
            }
    doc["vertices"] = _vertices_doc(system)
    print(_render(doc))
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    if (args.channel is None) == (args.random is None):
        raise ValidationError("certify needs a channel file or --random TRIALS SEED (not both)")

    if args.random is not None:
        if args.format == "csv":
            raise ValidationError("--format csv is only available for channel-file certification")
        trials, seed = args.random
        report = monte_carlo(MonteCarloConfig(trials=trials, seed=seed))
        print(_render(_mc_doc(report)))
        return 0 if report.passed else 1

    params = _load_channel(args.channel)
    report = verify_theorem1(params)
    if args.format == "json":
        print(_theorem_json(params, report))
    else:
        rows = _cert_csv_rows(report)  # all rows first: a NaN exits 3 before any output
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(_CERT_HEADER)
        writer.writerows(rows)
    return 0 if report.passed else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    params = _load_channel(args.channel)
    if args.steps < 1:
        raise ValidationError(f"--steps must be >= 1, got {args.steps}")
    for flag, bound in (("--from", args.start), ("--to", args.stop)):
        if not math.isfinite(bound):
            raise ValidationError(f"{flag} must be finite, got {bound}")
    if not math.isfinite(args.stop - args.start):
        raise ValidationError("--to - --from must be finite (the sweep's span overflows)")
    if args.steps == 1:
        values = [float(args.start)]
    else:
        values = [float(v) for v in np.linspace(args.start, args.stop, args.steps)]

    writer = csv.writer(sys.stdout, lineterminator="\n")
    header = (
        ["param", "value"]
        + _CERT_HEADER[:4]
        + [f"C{i}" for i in range(1, 5)]
        + [f"D{i}" for i in range(1, 5)]
        + _CERT_HEADER[4:]
    )
    writer.writerow(header)
    for value in values:
        swept = dataclasses.replace(params, **{args.param: value})
        terms = capacity_terms(swept)
        report = verify_theorem1(swept)
        prefix = [args.param, _jnum(value)]  # a sweep value is finite
        mids = _csv4(terms.C, terms.D)
        writer.writerows(prefix + row for row in _cert_csv_rows(report, mids))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser untouched, so one tree serves every call
    parser = argparse.ArgumentParser(
        prog="relaygap",
        description=(
            "Capacity outer bounds, transceiver synthesis, and half-bit gap "
            "certification for the Gaussian two-pair two-way relay channel."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("terms", help="print single-hop capacity terms")
    t.add_argument("channel", help="channel JSON file path, or - for stdin")
    t.set_defaults(func=cmd_terms)

    v = sub.add_parser("vertices", help="print region vertices with tight rows")
    v.add_argument("channel", help="channel JSON file path, or - for stdin")
    v.add_argument(
        "--link",
        choices=("outer", "uplink", "downlink"),
        required=True,
        help="which region to enumerate (per-link regions use the canonical frame)",
    )
    v.set_defaults(func=cmd_vertices)

    c = sub.add_parser("certify", help="run half-bit gap certificates")
    c.add_argument("channel", nargs="?", help="channel JSON file path, or - for stdin")
    c.add_argument(
        "--random",
        nargs=2,
        type=int,
        metavar=("TRIALS", "SEED"),
        help="certify a seeded random ensemble instead of a channel file",
    )
    c.add_argument("--format", choices=("json", "csv"), default="json")
    c.set_defaults(func=cmd_certify)

    s = sub.add_parser("sweep", help="CSV of certificates along a parameter sweep")
    s.add_argument("channel", help="channel JSON file path, or - for stdin")
    s.add_argument("--param", choices=("PR", "sigmaR2"), required=True)
    s.add_argument("--from", dest="start", type=float, required=True)
    s.add_argument("--to", dest="stop", type=float, required=True)
    s.add_argument("--steps", type=int, required=True)
    s.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away: end quietly, as SIGPIPE would, with what is still
        # buffered sent to devnull so that the flush at shutdown cannot fail again
        with contextlib.suppress(OSError):  # an in-memory stdout has no descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"error: internal consistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
