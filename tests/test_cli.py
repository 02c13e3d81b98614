import contextlib
import csv
import dataclasses
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relaygap.certifier as certifier
import relaygap.cli as cli
from relaygap.certifier import random_channel, targeted_channels, verify_theorem1
from relaygap.cli import _csv4, _jnum, _jnum4, _render, main, parse_channel
from relaygap.model import (
    InternalConsistencyError,
    ValidationError,
    capacity_terms,
)

GOLDEN = Path(__file__).parent / "golden"
UNIT_CHANNEL = GOLDEN / "unit_channel.json"
MIXED_CHANNEL = GOLDEN / "mixed_channel.json"
#: user 3 hears nothing: g[3] = 0 and sigma2[3] = "inf", the unreachable sentinel
UNREACHABLE_CHANNEL = GOLDEN / "unreachable_channel.json"


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# rendering primitives
# ---------------------------------------------------------------------------


def test_number_rendering():
    assert _jnum(0.5) == "0.5"
    assert _jnum(1.0) == "1"
    assert _jnum(math.inf) == '"inf"'
    assert _jnum(-math.inf) == '"-inf"'
    assert _jnum(0.7924812503605781) == "0.792481250361"
    with pytest.raises(InternalConsistencyError):
        _jnum(math.nan)


#: report numbers at the edges of `_jnum`'s rule: a signed zero, the least
#: subnormal, a number `%.12g` writes with an exponent, both infinities, and a
#: finite pair whose sum overflows
EDGE_NUMBERS = (-0.0, 5e-324, 1e21, math.inf, -math.inf, 1e308, 1e308)


def test_batched_number_rule_agrees_with_jnum():
    vectors = [EDGE_NUMBERS[i:i + 4] for i in range(len(EDGE_NUMBERS) - 3)]
    vectors += [(-0.0, 5e-324, 1e21, 0.5), (1e308, 1e308, 0.0, 0.0), (1.0, 0.1, 1 / 3, 7e-7)]
    for v in vectors:
        assert _jnum4(v) == ", ".join(_jnum(x) for x in v)
        assert _csv4(v, v[::-1]) == [_jnum(x).strip('"') for x in (*v, *v[::-1])]
    for bad in ((math.nan, 0.0, 0.0, 0.0), (math.inf, -math.inf, 0.0, math.nan)):
        with pytest.raises(InternalConsistencyError, match="NaN"):
            _jnum4(bad)


def test_render_shapes():
    assert _render({"x": [1.5, 2.0], "y": {}}) == '{\n  "x": [1.5, 2],\n  "y": {}\n}'
    assert _render([]) == "[]"
    assert _render([{"a": True}]) == '[\n  {\n    "a": true\n  }\n]'
    with pytest.raises(InternalConsistencyError):
        _render(object())


# ---------------------------------------------------------------------------
# channel files
# ---------------------------------------------------------------------------


def channel_obj():
    return {
        "h": [1, 1, 1, 1],
        "g": [1, 1, 1, 1],
        "P": [1, 1, 1, 1],
        "sigma2": [1, 1, 1, 1],
        "sigmaR2": 1,
        "PR": 1,
    }


def test_parse_channel_accepts_inf_noise_strings():
    obj = channel_obj()
    obj["sigma2"] = [1, 1, "inf", 2]
    params = parse_channel(obj)
    assert math.isinf(params.sigma2[2])
    assert params.h == (1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda o: o.pop("PR"), "missing field 'PR'"),
        (lambda o: o.pop("sigma2"), "missing field 'sigma2'"),
        (lambda o: o.update(extra=1), "unknown field 'extra'"),
        (lambda o: o.update(h=[1, 1, 1]), "exactly 4"),
        (lambda o: o.update(g=[1, 1, True, 1]), "boolean"),
        (lambda o: o.update(P=[1, 1, "big", 1]), "must be a number"),
        (lambda o: o.update(PR=True), "boolean"),
        (lambda o: o.update(P=[1, 1, -1, 1]), r"P\[3\] must be >= 0"),
        (lambda o: o.update(sigma2=[1, 1, math.inf, 1]), r"'sigma2\[3\]' is too large"),
        (lambda o: o.update(P=[1, 1, 10**400, 1]), r"'P\[3\]' is too large"),
        (lambda o: o.update(h=[1e200, 1, 1, 1]), r"h\[1\]\*h\[1\]\*P\[1\] overflows"),
        (lambda o: o.update(g=[1e-200, 1, 1, 1]), r"g\[1\] squared leaves float range"),
    ],
)
def test_parse_channel_rejections(mutate, message):
    obj = channel_obj()
    mutate(obj)
    with pytest.raises(ValidationError, match=message):
        parse_channel(obj)


def test_parse_channel_rejects_non_object():
    with pytest.raises(ValidationError, match="JSON object"):
        parse_channel([1, 2, 3])


def test_stdin_channel(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(channel_obj())))
    code, out, err = run_main(capsys, "terms", "-")
    assert code == 0
    assert json.loads(out)["C"] == [0.5, 0.5, 0.5, 0.5]


# ---------------------------------------------------------------------------
# exit codes and error reporting
# ---------------------------------------------------------------------------


def test_missing_file_is_a_clean_error(capsys):
    code, out, err = run_main(capsys, "terms", str(GOLDEN / "no_such_channel.json"))
    assert code == 2
    assert err.startswith("error: [Errno 2] No such file or directory: ")
    assert out == ""


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_ends_quietly_with_the_sigpipe_code(capsys):
    # 141 = 128 + SIGPIPE; 2 would say the channel was rejected
    for argv in (("terms", str(UNIT_CHANNEL)), ("certify", str(UNIT_CHANNEL), "--format", "csv")):
        with contextlib.redirect_stdout(_ClosedPipe()):
            code = main(list(argv))
        assert code == 141
        assert capsys.readouterr().err == ""


def test_closed_pipe_ends_quietly_with_the_sigpipe_code():
    argv = ["sweep", str(UNIT_CHANNEL), "--param", "PR", "--from", "0", "--to", "4",
            "--steps", "300"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "relaygap", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.readline().startswith(b"param,value,")
    proc.stdout.close()  # as `| head -1` does, long before the sweep is written
    assert proc.wait(timeout=60) == 141
    with proc.stderr:
        assert proc.stderr.read() == b""


def test_invalid_json_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # a syntax error, bytes that are not UTF-8, nesting past the recursion limit
    for content in (b"{not json", b"\xff\xfe{}", b"[" * 200_000):
        bad.write_bytes(content)
        code, out, err = run_main(capsys, "terms", str(bad))
        assert code == 2
        assert "not valid JSON" in err
    # integers past float range, and past Python's int-digit limit, are valid
    # JSON but no channel: the error names the field
    for digits in (401, 5001):
        obj = channel_obj()
        obj["P"][2] = "BIG"
        bad.write_text(json.dumps(obj).replace('"BIG"', "9" * digits))
        code, out, err = run_main(capsys, "terms", str(bad))
        assert code == 2
        assert "'P[3]'" in err and "too large" in err
        assert out == ""
    # numbers must be finite: "inf" is the only way to write the +inf sentinel
    for literal, words in (("1e400", "too large"), ("-1e400", "too large"),
                           ("Infinity", "too large"), ("NaN", "NaN")):
        for key, slot in (("sigma2", 2), ("h", 1)):
            obj = channel_obj()
            obj[key][slot] = "BIG"
            bad.write_text(json.dumps(obj).replace('"BIG"', literal))
            code, out, err = run_main(capsys, "terms", str(bad))
            assert code == 2
            assert f"'{key}[{slot + 1}]'" in err and words in err
            assert out == ""


def test_an_integer_minus_zero_reads_as_zero_and_a_float_one_keeps_its_sign(tmp_path, capsys):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(channel_obj()).replace('"P": [1, 1, 1, 1]', '"P": [1, -0, 1, -0.0]'))
    code, out, _ = run_main(capsys, "certify", str(path))
    assert code == 0
    assert '\n    "P": [1, 0, 1, -0],\n' in out


@pytest.mark.parametrize("nested, quoted", [("[1]", "[1.0]"), ("[1e5]", "[100000.0]"),
                                            ("[-0, 2.5]", "[0.0, 2.5]")])
def test_a_number_inside_a_non_number_is_quoted_as_its_float(tmp_path, capsys, nested, quoted):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(channel_obj()).replace('"h": [1, 1, 1, 1]', f'"h": [{nested}, 1, 1, 1]'))
    code, out, err = run_main(capsys, "terms", str(path))
    assert (code, out) == (2, "")
    assert "field 'h[1]' must be a number or \"inf\", got " + quoted in err


def test_missing_field_names_the_field(tmp_path, capsys):
    obj = channel_obj()
    del obj["PR"]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(obj))
    code, out, err = run_main(capsys, "certify", str(partial))
    assert code == 2
    assert "'PR'" in err


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(g=[1e154, 1, 1, 1], PR=1e10), "downlink SNR g[1]*g[1]*PR/sigma2[1] overflows a float"),
        (dict(h=[1e150, 1, 1, 1], sigmaR2=1e-10), "uplink SNR h[1]*h[1]*P[1]/sigmaR2 overflows a float"),
        (
            dict(h=[1e154, 1, 1e154, 1], P=[0.9, 1, 0.9, 1]),
            "uplink SNR (h[1]*h[1]*P[1]+h[3]*h[3]*P[3])/sigmaR2 overflows a float",
        ),
    ],
)
def test_an_overflowing_snr_names_the_channel_quantity(tmp_path, capsys, change, message):
    obj = channel_obj()
    obj.update(change)
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(obj))
    for command in ("terms", "certify"):
        code, out, err = run_main(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert message in err


def test_channel_in_tiny_downlink_units_certifies(tmp_path, capsys):
    # effective noises 1 and 0.75 written in units near the float floor:
    # canonicalizing copies (g, sigma2) pairs, so no noise underflows to 0
    obj = dict(h=[1, 1, 1, 1], P=[1, 1, 1, 1], sigmaR2=1, PR=1)
    obj.update(g=[1e-100, 2e-100, 1e-100, 2e-100], sigma2=[1e-200, 3e-200, 1e-200, 3e-200])
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_main(capsys, "certify", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["pass"] is True


def test_certify_requires_exactly_one_source(capsys):
    code, _, err = run_main(capsys, "certify", str(UNIT_CHANNEL), "--random", "2", "1")
    assert code == 2 and "not both" in err
    code, _, err = run_main(capsys, "certify")
    assert code == 2


def test_random_mode_rejects_a_negative_seed(capsys):
    code, _, err = run_main(capsys, "certify", "--random", "2", "-1")
    assert code == 2
    assert "seed" in err


def test_random_mode_has_no_csv(capsys):
    code, _, err = run_main(capsys, "certify", "--random", "2", "1", "--format", "csv")
    assert code == 2
    assert "csv" in err


def test_sweep_rejects_nonpositive_steps(capsys):
    code, _, err = run_main(
        capsys,
        "sweep", str(UNIT_CHANNEL), "--param", "PR", "--from", "1", "--to", "2",
        "--steps", "0",
    )
    assert code == 2
    assert "--steps" in err


def test_sweep_rejects_non_finite_bounds(capsys):
    for start, stop, flag in (("1", "1e400", "--to"), ("-1e400", "2", "--from"),
                              ("nan", "2", "--from"), ("1e308", "-1e308", "--to - --from")):
        code, out, err = run_main(
            capsys,
            "sweep", str(UNIT_CHANNEL), "--param", "PR", f"--from={start}",
            f"--to={stop}", "--steps", "3",
        )
        assert code == 2
        assert out == ""
        assert f"{flag} must be finite" in err


def test_argparse_rejects_unknown_choices():
    with pytest.raises(SystemExit) as exc:
        main(["vertices", str(UNIT_CHANNEL), "--link", "sideways"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(UNIT_CHANNEL), "--param", "h", "--from", "1", "--to", "2",
              "--steps", "2"])
    assert exc.value.code == 2


def test_failed_certificate_exits_one(monkeypatch, capsys):
    real = cli.verify_theorem1

    def pessimist(params):
        return dataclasses.replace(real(params), passed=False)

    monkeypatch.setattr(cli, "verify_theorem1", pessimist)
    code, out, _ = run_main(capsys, "certify", str(UNIT_CHANNEL))
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_an_ensemble_with_one_failing_draw_fails(monkeypatch, capsys):
    real, calls = certifier.verify_theorem1, []

    def second_draw_fails(params):
        calls.append(params)
        return dataclasses.replace(real(params), passed=len(calls) != 2)

    monkeypatch.setattr(certifier, "verify_theorem1", second_draw_fails)
    report = certifier.monte_carlo(certifier.MonteCarloConfig(trials=3, seed=42))
    assert (report.failures, report.passed) == (1, False)
    calls.clear()
    code, out, _ = run_main(capsys, "certify", "--random", "3", "42")
    assert code == 1
    assert '"failures": 1,' in out


def test_internal_fault_exits_three(monkeypatch, capsys):
    def broken(params):
        raise InternalConsistencyError("empty fourth-layer power window")

    monkeypatch.setattr(cli, "verify_theorem1", broken)
    code, out, err = run_main(capsys, "certify", str(UNIT_CHANNEL))
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "error: internal consistency: empty fourth-layer power window"
    ]


def run_with_a_nan_slack(monkeypatch, capsys, *argv):
    real = cli.verify_theorem1

    # the last certificate is the bad one: nothing may be printed before the
    # whole report is written
    def leaky(params):
        report = real(params)
        bad = dataclasses.replace(report.combined[-1], slack=(math.nan, 0.0, 0.0, 0.0))
        return dataclasses.replace(report, combined=(*report.combined[:-1], bad))

    monkeypatch.setattr(cli, "verify_theorem1", leaky)
    return run_main(capsys, "certify", str(UNIT_CHANNEL), *argv)


def test_nan_in_a_csv_report_exits_three(monkeypatch, capsys):
    code, out, err = run_with_a_nan_slack(monkeypatch, capsys, "--format", "csv")
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["error: internal consistency: NaN leaked into a report"]


def test_nan_in_a_json_report_exits_three(monkeypatch, capsys):
    code, out, err = run_with_a_nan_slack(monkeypatch, capsys)
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["error: internal consistency: NaN leaked into a report"]


# ---------------------------------------------------------------------------
# document structure
# ---------------------------------------------------------------------------


def test_terms_document_matches_library_values(capsys):
    code, out, _ = run_main(capsys, "terms", str(MIXED_CHANNEL))
    assert code == 0
    doc = json.loads(out)
    params = parse_channel(json.loads(MIXED_CHANNEL.read_text()))
    terms = capacity_terms(params)
    # printed values carry 12 significant digits
    assert doc["C"] == pytest.approx(list(terms.C), rel=1e-11)
    assert doc["D"] == pytest.approx(list(terms.D), rel=1e-11)
    assert set(doc["Cpair"]) == {"13", "14", "23", "24"}
    assert doc["Cpair"]["13"] == pytest.approx(terms.Cpair[(1, 3)], rel=1e-11)
    assert doc["sigmaBar2"] == pytest.approx(list(terms.sigma_bar2), rel=1e-11)


def test_vertices_documents(capsys):
    code, out, _ = run_main(capsys, "vertices", str(UNIT_CHANNEL), "--link", "outer")
    assert code == 0
    doc = json.loads(out)
    assert doc["link"] == "outer"
    assert doc["vertices"], "outer region must have at least one vertex"
    for v in doc["vertices"]:
        assert len(v["rates"]) == 4
        assert v["tight"] == sorted(v["tight"])
        assert isinstance(v["maximal"], bool)
    assert any(v["maximal"] for v in doc["vertices"])

    code, out, _ = run_main(capsys, "vertices", str(MIXED_CHANNEL), "--link", "downlink")
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] in ("I", "II", "III")
    assert doc["rateOrder"] == [1, 3]
    assert sorted(doc["perm"]) == [1, 2, 3, 4]

    code, out, _ = run_main(capsys, "vertices", str(MIXED_CHANNEL), "--link", "uplink")
    assert code == 0
    doc = json.loads(out)
    assert doc["link"] == "uplink"
    assert doc["rateOrder"] == [1, 3]
    assert sorted(doc["perm"]) == [1, 2, 3, 4]
    assert all(len(v["rates"]) == 4 and len(v["tight"]) >= 4 for v in doc["vertices"])
    assert any(v["maximal"] for v in doc["vertices"])


def test_certify_json_document(capsys, tmp_path):
    # draw 140 of seed 7 over 1e+-3 has two effective noises 2 ULP apart,
    # which once made the case check reject the case classify_case picked
    box = (1e-3, 1e3)
    rng = np.random.default_rng(7)
    near_tie = [random_channel(rng, box, box, box) for _ in range(141)][140]
    near_tie_path = tmp_path / "near_tie.json"
    near_tie_path.write_text(json.dumps(dataclasses.asdict(near_tie)))

    for path in (UNIT_CHANNEL, near_tie_path):
        params = parse_channel(json.loads(path.read_text()))
        code, out, _ = run_main(capsys, "certify", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["channel"]["PR"] == pytest.approx(params.PR, rel=1e-11)
        assert [o["rateOrder"] for o in doc["orderings"]] == [
            [1, 3], [1, 4], [2, 3], [2, 4],
        ]
        for ordering in doc["orderings"]:
            assert len(ordering["uplink"]) == 6
            for cert in (*ordering["uplink"], *ordering["downlink"]):
                assert cert["pass"] is True
                assert len(cert["slack"]) == 4
        for cert in doc["combined"]:
            assert cert["link"] == "combined"
            assert cert["subcase"] == "uplink_hull=in,downlink_hull=in"


def test_certify_csv_layout(capsys):
    code, out, _ = run_main(
        capsys, "certify", str(MIXED_CHANNEL), "--format", "csv"
    )
    assert code == 0
    parsed = list(csv.reader(io.StringIO(out)))
    header, rows = parsed[0], parsed[1:]
    assert header == (
        ["ordering", "link", "label", "subcase"]
        + [f"target{i}" for i in range(1, 5)]
        + [f"achieved{i}" for i in range(1, 5)]
        + [f"slack{i}" for i in range(1, 5)]
        + ["pass"]
    )
    link_tags = {(r[0], r[1]) for r in rows}
    for tag in ("1-3", "1-4", "2-3", "2-4"):
        assert (tag, "uplink") in link_tags
        assert (tag, "downlink") in link_tags
    assert all(r[0] == "" for r in rows if r[1] == "combined")
    assert all(r[-1] == "true" for r in rows)


def test_sweep_csv_layout(capsys):
    code, out, _ = run_main(
        capsys,
        "sweep", str(UNIT_CHANNEL), "--param", "PR", "--from", "0", "--to", "4",
        "--steps", "5",
    )
    assert code == 0
    parsed = list(csv.reader(io.StringIO(out)))
    header, rows = parsed[0], parsed[1:]
    assert header[:6] == ["param", "value", "ordering", "link", "label", "subcase"]
    assert header[6:14] == [f"C{i}" for i in range(1, 5)] + [f"D{i}" for i in range(1, 5)]
    assert header[-1] == "pass"
    assert {r[0] for r in rows} == {"PR"}
    values = sorted({float(r[1]) for r in rows})
    assert values == [0.0, 1.0, 2.0, 3.0, 4.0]
    # zero relay budget delivers nothing; D grows with the budget
    by_value = {v: [r for r in rows if float(r[1]) == v] for v in values}
    assert all(r[10] == "0" for r in by_value[0.0])  # D1 column
    d1 = [float(by_value[v][0][10]) for v in values]
    assert d1 == sorted(d1)
    assert all(r[-1] == "true" for r in rows)


def test_sweep_computes_each_points_terms_once(monkeypatch, capsys):
    # the C and D columns are the terms the point's report was read off
    calls = []
    real = capacity_terms

    def counted(params):
        calls.append(params)
        return real(params)

    for name, module in list(sys.modules.items()):
        if name.startswith("relaygap") and getattr(module, "capacity_terms", None) is real:
            monkeypatch.setattr(module, "capacity_terms", counted)
    code, _, _ = run_main(capsys, "sweep", str(UNIT_CHANNEL), "--param", "PR", "--from", "0",
                          "--to", "4", "--steps", "5")
    assert code == 0
    assert [p.PR for p in calls] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_single_step_sweep_uses_the_start_value(capsys):
    code, out, _ = run_main(
        capsys,
        "sweep", str(UNIT_CHANNEL), "--param", "sigmaR2", "--from", "2", "--to", "9",
        "--steps", "1",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert {r[1] for r in rows} == {"2"}
    assert {r[0] for r in rows} == {"sigmaR2"}


# ---------------------------------------------------------------------------
# determinism and goldens
# ---------------------------------------------------------------------------


def test_certify_output_is_byte_stable(capsys):
    _, first, _ = run_main(capsys, "certify", str(UNIT_CHANNEL))
    _, second, _ = run_main(capsys, "certify", str(UNIT_CHANNEL))
    assert first == second


def test_sweep_output_is_byte_stable(capsys):
    argv = (
        "sweep", str(UNIT_CHANNEL), "--param", "PR", "--from", "0", "--to", "4",
        "--steps", "5",
    )
    _, first, _ = run_main(capsys, *argv)
    _, second, _ = run_main(capsys, *argv)
    assert first == second


@pytest.mark.parametrize(
    "golden_name, argv",
    [
        ("terms_unit.json", ("terms", str(UNIT_CHANNEL))),
        ("vertices_outer_unit.json", ("vertices", str(UNIT_CHANNEL), "--link", "outer")),
        ("certify_unit.json", ("certify", str(UNIT_CHANNEL))),
        ("certify_unit.csv", ("certify", str(UNIT_CHANNEL), "--format", "csv")),
        ("certify_mixed.csv", ("certify", str(MIXED_CHANNEL), "--format", "csv")),
        ("certify_random.json", ("certify", "--random", "5", "42")),
        (
            "sweep_pr_unit.csv",
            ("sweep", str(UNIT_CHANNEL), "--param", "PR", "--from", "0", "--to", "4",
             "--steps", "5"),
        ),
    ],
)
def test_output_matches_golden(capsys, golden_name, argv):
    code, out, _ = run_main(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden_name).read_text()


# ---------------------------------------------------------------------------
# the certify writer against the generic renderer
# ---------------------------------------------------------------------------


def reference_cert_doc(cert) -> dict:
    return {
        "link": cert.link,
        "label": cert.vertex_label,
        "subcase": cert.subcase,
        "target": list(cert.target),
        "achieved": list(cert.achieved),
        "slack": list(cert.slack),
        "pass": cert.passed,
    }


def reference_doc(params, report) -> dict:
    """The ``certify CHANNEL`` report as a document for `_render`; the CLI's
    fixed-shape writer must print exactly what `_render` makes of it."""
    return {
        "channel": {f.name: getattr(params, f.name) for f in dataclasses.fields(params)},
        "orderings": [
            {
                "rateOrder": list(rep.rate_order),
                "perm": list(rep.perm),
                "uplink": [reference_cert_doc(c) for c in rep.uplink],
                "downlink": [reference_cert_doc(c) for c in rep.downlink],
            }
            for rep in report.orderings
        ],
        "combined": [reference_cert_doc(c) for c in report.combined],
        "pass": report.passed,
    }


def reference_csv(report) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(cli._CERT_HEADER)
    for order, cert in cli._certificates_of(report):
        numbers = (*cert.target, *cert.achieved, *cert.slack)
        writer.writerow([
            f"{order[0]}-{order[1]}" if order else "", cert.link, cert.vertex_label,
            cert.subcase, *(_jnum(v).strip('"') for v in numbers),
            "true" if cert.passed else "false",
        ])
    return out.getvalue()


def test_certify_writer_matches_the_generic_renderer(capsys, tmp_path):
    box = (1e-6, 1e6)
    rng = np.random.default_rng(7)
    channels = [*targeted_channels(), *(random_channel(rng, box, box, box) for _ in range(40))]
    paths = [UNIT_CHANNEL, MIXED_CHANNEL, UNREACHABLE_CHANNEL]
    for k, params in enumerate(channels):
        paths.append(tmp_path / f"channel{k}.json")
        paths[-1].write_text(json.dumps(dataclasses.asdict(params)).replace("Infinity", '"inf"'))
    for path in paths:
        params = parse_channel(json.loads(path.read_text()))
        code, out, _ = run_main(capsys, "certify", str(path))
        assert code == 0, path.name
        assert out == _render(reference_doc(params, verify_theorem1(params))) + "\n", path.name


def test_certify_writer_matches_the_generic_renderer_on_edge_numbers(monkeypatch, capsys):
    real = cli.verify_theorem1

    def planting(params):
        report = real(params)
        first = report.orderings[0]
        odd = dataclasses.replace(
            first.downlink[0],
            target=(*EDGE_NUMBERS[:3], 0.5),  # finite: one format call
            achieved=(*EDGE_NUMBERS[3:5], 0.0, 1.0),  # infinities: one by one
            slack=(*EDGE_NUMBERS[5:], -0.0, 5e-324),  # finite, but the sum overflows
        )
        first = dataclasses.replace(first, downlink=(odd, *first.downlink[1:]))
        return dataclasses.replace(
            report,
            orderings=(first, *report.orderings[1:]),
            combined=(*report.combined, dataclasses.replace(odd, link="combined")),
        )

    monkeypatch.setattr(cli, "verify_theorem1", planting)
    params = parse_channel(json.loads(MIXED_CHANNEL.read_text()))
    report = planting(params)
    _, out, _ = run_main(capsys, "certify", str(MIXED_CHANNEL))
    assert out == _render(reference_doc(params, report)) + "\n"
    assert '"achieved": ["inf", "-inf", 0, 1]' in out
    assert '"slack": [1e+308, 1e+308, -0, 4.94065645841e-324]' in out
    _, out, _ = run_main(capsys, "certify", str(MIXED_CHANNEL), "--format", "csv")
    assert out == reference_csv(report)
    assert ",-0,4.94065645841e-324,1e+21,0.5,inf,-inf,0,1,1e+308,1e+308,-0," in out


def test_module_entry_point_matches_in_process_output(capsys):
    _, expected, _ = run_main(capsys, "certify", str(UNIT_CHANNEL))
    proc = subprocess.run(
        [sys.executable, "-m", "relaygap", "certify", str(UNIT_CHANNEL)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout == expected
