"""Command-line interface behavior."""

import io
import json
import sys

import pytest

from qecbound.cli import load_model, main

from conftest import REPETITION_PROGRAM

ILL_DEFINED = "R 0\nH 0\nM a <- 0\nOBSERVABLE a\n"


@pytest.fixture
def program_file(tmp_path):
    p = tmp_path / "rep.qec"
    p.write_text(REPETITION_PROGRAM)
    return str(p)


def test_compile_to_stdout(program_file, capsys):
    assert main(["compile", program_file]) == 0
    out = capsys.readouterr().out
    assert "dem 2 1" in out
    assert "error(0.01) D0 L0" in out


def test_compile_to_file(program_file, tmp_path):
    dem = tmp_path / "out.dem"
    assert main(["compile", program_file, "-o", str(dem)]) == 0
    assert "error(0.01)" in dem.read_text()


def test_compile_symbolic(tmp_path, capsys):
    p = tmp_path / "sym.qec"
    p.write_text("R 0\nXERR(x0) 0\nM a <- 0\nDETECTOR a\nOBSERVABLE a\n")
    assert main(["compile", str(p)]) == 0
    assert "error(x0)" in capsys.readouterr().out


def test_check_well_defined(program_file, capsys):
    assert main(["check", program_file]) == 0
    assert "well-defined" in capsys.readouterr().out


def test_check_ill_defined(tmp_path, capsys):
    p = tmp_path / "bad.qec"
    p.write_text(ILL_DEFINED)
    assert main(["check", str(p)]) == 2
    out = capsys.readouterr().out
    assert "BAD" in out


def test_parse_error_reported(tmp_path, capsys):
    p = tmp_path / "broken.qec"
    p.write_text("FROB 0\n")
    assert main(["compile", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("dem 2 1\nerror(0.1) D0 L0\nerror(0.2) D0 D7\n",
     "line 3: target D7 exceeds header dimensions"),
    ("# rates\nerror(1.5) D0\n", "line 2: probability 1.5 outside [0, 1]"),
    ("error(x0/0) D0\n", "line 1: invalid probability 'x0/0'"),
])
def test_malformed_dem_reports_its_own_error(tmp_path, capsys, text, message):
    """A file whose first statement is `dem` or `error(...)` is read as a
    DEM only, so its parse error is reported, not the program parser's."""
    p = tmp_path / "broken.dem"
    p.write_text(text)
    assert main(["accuracy", str(p)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_load_model_accepts_dem_and_program(program_file, tmp_path):
    model = load_model(program_file)
    assert model.n_channels == 3
    dem = tmp_path / "m.dem"
    dem.write_text("dem 2 1\nerror(0.01) D0 L0\nerror(0.01) D0 D1\nerror(0.01) D1\n")
    model2 = load_model(str(dem))
    assert model2 == model


def test_accuracy_run_with_trace(program_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    rc = main(["accuracy", program_file, "--decoder", "ml", "--trace", str(trace_path)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "exhausted" in err
    lines = trace_path.read_text().strip().splitlines()
    header = json.loads(lines[0])["header"]
    assert header["n_channels"] == 3
    final = json.loads(lines[-1])["final"]
    assert abs(final["lower"] - 2.98e-4) < 1e-12
    assert abs(final["upper"] - 2.98e-4) < 1e-12


def test_accuracy_greedy_and_flags(program_file, capsys):
    rc = main([
        "accuracy", program_file, "--decoder", "greedy",
        "--strategy", "local-flip", "--max-shots", "4", "--seed", "5",
    ])
    assert rc == 0
    assert "interrupted" in capsys.readouterr().err


def test_robustness_box_scale(program_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    rc = main([
        "robustness", program_file, "--box-scale", "0.9,1.1",
        "--trace", str(trace_path),
    ])
    assert rc == 0
    final = json.loads(trace_path.read_text().strip().splitlines()[-1])["final"]
    expect = 3 * 0.011**2 * 0.989 + 0.011**3
    assert abs(final["lower"] - expect) < 1e-12
    assert abs(final["upper"] - expect) < 1e-12


def test_robustness_box_file(program_file, tmp_path):
    box = tmp_path / "box.txt"
    box.write_text("0.009 0.011\n0.009 0.011\n0.009 0.011\n")
    trace_path = tmp_path / "trace.jsonl"
    rc = main(["robustness", program_file, "--box-file", str(box), "--trace", str(trace_path)])
    assert rc == 0
    final = json.loads(trace_path.read_text().strip().splitlines()[-1])["final"]
    assert abs(final["lower"] - (3 * 0.011**2 * 0.989 + 0.011**3)) < 1e-12


def test_robustness_requires_box(program_file):
    with pytest.raises(SystemExit):
        main(["robustness", program_file])


def test_robustness_box_file_row_mismatch(program_file, tmp_path):
    box = tmp_path / "box.txt"
    box.write_text("0.009 0.011\n")
    with pytest.raises(SystemExit):
        main(["robustness", program_file, "--box-file", str(box)])


@pytest.mark.parametrize("text", ["0.009\n", "0.009 0.011 0.5\n", "0.009 high\n"])
def test_robustness_box_file_row_needs_two_numbers(program_file, tmp_path, text):
    box = tmp_path / "box.txt"
    box.write_text("# lo hi\n0.009 0.011\n" + text + "0.009 0.011\n")
    with pytest.raises(SystemExit, match="line 3"):
        main(["robustness", program_file, "--box-file", str(box)])


@pytest.mark.parametrize("scale", ["0.9", "0.9,1.1,1.2", "a,b"])
def test_robustness_box_scale_needs_two_numbers(program_file, scale):
    with pytest.raises(SystemExit, match="--box-scale"):
        main(["robustness", program_file, "--box-scale", scale])


@pytest.mark.parametrize("scale", ["nan,1.1", "0.9,nan", "nan,nan", "0.9,inf"])
def test_robustness_nan_box_scale_is_an_error(tmp_path, scale, capsys):
    # channel 0 has rate 0, so the scale inf gives it the end 0 * inf = NaN
    dem = tmp_path / "zero.dem"
    dem.write_text("dem 2 1\nerror(0) D0 L0\nerror(0.01) D0 D1\nerror(0.01) D1\n")
    assert main(["robustness", str(dem), "--decoder", "greedy", "--box-scale", scale]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "box scale" in err
    assert "Traceback" not in err


def test_negative_max_shots_is_an_error(program_file, capsys):
    assert main(["accuracy", program_file, "--max-shots", "-1"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "max_shots" in err
    assert "Traceback" not in err


def test_negative_sample_count_is_an_error(program_file, capsys):
    assert main(["accuracy", program_file, "--samples", "-1"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "sample_count" in err
    assert "Traceback" not in err


def test_nan_time_limit_is_an_error(program_file, capsys):
    assert main(["accuracy", program_file, "--time-limit", "nan"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "time_limit" in err
    assert "Traceback" not in err


def _usage_error(argv, capsys) -> str:
    """argparse's exit 2 on `argv`, before any run: its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no trace
    return captured.err


# There is one visit order: `split` and its distance ansatz are no longer
# options, so argparse rejects either flag before any run.
def test_negative_distance_is_an_error(program_file, capsys):
    err = _usage_error(["accuracy", program_file, "--strategy", "split", "--distance", "-5"],
                       capsys)
    assert "argument --strategy: invalid choice: 'split'" in err


def test_distance_without_split_is_an_error(program_file, capsys):
    err = _usage_error(["accuracy", program_file, "--decoder", "greedy", "--strategy",
                        "hamming", "--distance", "3"], capsys)
    assert "unrecognized arguments: --distance 3" in err


def test_serve_ml_dimension_mismatch_is_an_error(program_file, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("INIT 7 1\n"))
    assert main(["serve-ml", program_file]) == 1
    captured = capsys.readouterr()
    assert "error: dimension mismatch" in captured.err
    assert captured.out == ""  # no READY


def test_failed_exec_handshake_is_an_error(program_file, tmp_path, capsys):
    stub = tmp_path / "stub.py"
    stub.write_text("import sys\nsys.stdin.readline()\nprint('NOPE', flush=True)\n")
    assert main(["accuracy", program_file, "--decoder", f"exec:{sys.executable} {stub}"]) == 1
    err = capsys.readouterr().err
    assert "error: expected READY" in err


def test_unknown_decoder_rejected(program_file):
    with pytest.raises(SystemExit):
        main(["accuracy", program_file, "--decoder", "wizard"])


def test_missing_model_file_is_an_error(tmp_path, capsys):
    assert main(["accuracy", str(tmp_path / "nope.dem")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nope.dem" in err
    assert "Traceback" not in err


def test_missing_box_file_is_an_error(program_file, tmp_path, capsys):
    assert main(["robustness", program_file, "--box-file", str(tmp_path / "nope")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nope" in err


def test_bad_trace_path_fails_before_the_run(program_file, tmp_path, monkeypatch, capsys):
    """The trace file is opened before the decoder is built, so a bad path
    costs no run."""
    import qecbound.cli as cli

    calls = []
    monkeypatch.setattr(cli, "_build_decoder", lambda *a: calls.append("build"))
    monkeypatch.setattr(cli, "run_accuracy", lambda *a: calls.append("run"))
    trace = tmp_path / "missing" / "x.jsonl"
    assert main(["accuracy", program_file, "--trace", str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "x.jsonl" in err
    assert calls == []
