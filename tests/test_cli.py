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

import relaygap.cli as cli
from relaygap.certifier import random_channel
from relaygap.cli import _jnum, _render, main, parse_channel
from relaygap.model import (
    InternalConsistencyError,
    ValidationError,
    capacity_terms,
)

GOLDEN = Path(__file__).parent / "golden"
UNIT_CHANNEL = GOLDEN / "unit_channel.json"
MIXED_CHANNEL = GOLDEN / "mixed_channel.json"


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


def test_nan_in_a_csv_report_exits_three(monkeypatch, capsys):
    real = cli.verify_theorem1

    def leaky(params):
        report = real(params)
        bad = dataclasses.replace(report.combined[0], slack=(math.nan, 0.0, 0.0, 0.0))
        return dataclasses.replace(report, combined=(bad, *report.combined[1:]))

    monkeypatch.setattr(cli, "verify_theorem1", leaky)
    code, out, err = run_main(capsys, "certify", str(UNIT_CHANNEL), "--format", "csv")
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
