import math

import numpy as np
import pytest

from qreality.cli import EXIT_CROSS_CHECK, main
from qreality.statefile import save_state
from qreality.states import werner

LN2 = math.log(2.0)

FAST_FLAGS = ["--grid-theta", "7", "--grid-phi", "6", "--refine-starts", "2"]


def _records(text):
    out = []
    for line in text.strip().splitlines():
        fields = {}
        key = None
        for piece in line.split(" "):
            if "=" in piece and not piece.startswith('"'):
                key, _, value = piece.partition("=")
                fields[key] = value
            else:
                fields[key] += " " + piece
        out.append(fields)
    return out


def test_measure_singlet_nonlocality(capsys):
    assert main(["measure", "singlet", "zbasis@0", "zbasis@1", "--format", "records"]) == 0
    records = _records(capsys.readouterr().out)
    by_name = {r["name"]: r for r in records}
    assert abs(float(by_name["nonlocality"]["value"]) - LN2) <= 1e-9
    assert float(by_name["nonlocality"]["residual.form_gap"]) <= 1e-9
    assert abs(float(by_name["concurrence"]["value"]) - 1.0) <= 1e-9
    assert abs(float(by_name["mutual_information"]["value"]) - 2 * LN2) <= 1e-9


def test_measure_werner_zero_irreality(capsys):
    assert main(["measure", "werner:f=0", "zbasis@0", "--format", "records"]) == 0
    records = _records(capsys.readouterr().out)
    value = next(float(r["value"]) for r in records if r["name"] == "irreality")
    assert abs(value) <= 1e-10


def test_measure_slit_global_irreality(capsys):
    assert main(["measure", "slit:x=0.5", "zbasis@0", "--format", "records"]) == 0
    records = _records(capsys.readouterr().out)
    value = next(float(r["value"]) for r in records if r["name"] == "irreality")
    assert abs(value - LN2) <= 1e-9


def test_measure_formats_run(capsys, tmp_path):
    for fmt in ("human", "records", "csv"):
        assert main(["measure", "werner:f=0.5", "zbasis@0", "--format", fmt]) == 0
        assert capsys.readouterr().out
    out = tmp_path / "report.txt"
    assert main(["measure", "singlet", "zbasis@0", "--output", str(out)]) == 0
    assert out.read_text()


def test_measure_file_state(tmp_path, capsys):
    path = tmp_path / "rho.json"
    save_state(werner(0.5), path)
    assert main(["measure", f"file:{path}", "zbasis@0", "--format", "records"]) == 0
    records = _records(capsys.readouterr().out)
    expected = -3 * 0.125 * math.log(0.125) - 0.625 * math.log(0.625)
    value = next(float(r["value"]) for r in records if r["name"] == "entropy")
    assert abs(value - expected) <= 1e-10


def test_measure_exit_codes(capsys, tmp_path):
    assert main(["measure", "nope", "zbasis@0"]) == 2
    assert "error" in capsys.readouterr().err

    assert main(["measure", "werner:f=2", "zbasis@0"]) == 3
    assert "werner-fidelity-range" in capsys.readouterr().err

    assert main(["measure", "alpha:a=2", "zbasis@0"]) == 3
    assert "positive-semidefinite" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text('{"dims": [2], "matrix": [[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.2, 0.0]]]}')
    assert main(["measure", f"file:{bad}", "zbasis@0"]) == 3
    assert "positive-semidefinite" in capsys.readouterr().err

    assert main(["measure", "singlet", "zbasis@0", "xbasis@0"]) == 2
    capsys.readouterr()
    assert main(["measure", "singlet", "fourier:d=3@0"]) == 2
    capsys.readouterr()
    assert main(["measure", "singlet", "zbasis@0", "zbasis@1", "xbasis@1"]) == 2
    capsys.readouterr()


def test_measure_non_finite_file_state(tmp_path, capsys):
    nan_state = tmp_path / "nan.json"
    nan_state.write_text(
        '{"dims": [2], "matrix": [[[0.5, 0.0], [NaN, 0.0]], [[NaN, 0.0], [0.5, 0.0]]]}')
    assert main(["measure", f"file:{nan_state}", "zbasis@0"]) == 3
    assert "finite-entries" in capsys.readouterr().err


def test_cross_check_failure_exits_five(monkeypatch, capsys):
    from qreality import measures

    # Every cross-asserted form now "disagrees", so the real check raises.
    monkeypatch.setattr(measures, "FORM_AGREEMENT_TOL", -1.0)
    assert main(["measure", "werner:f=0.5", "zbasis@0"]) == EXIT_CROSS_CHECK == 5
    err = capsys.readouterr().err
    assert err.startswith("cross-check failed: ")
    assert "mutual-information forms disagree" in err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_sweep_csv_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", "--family", "werner", "--points", "3", *FAST_FLAGS]
    assert main([*args, "--output", str(out1)]) == 0
    assert main([*args, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "param,n_min,d12,concurrence,n_zz,argmin_params"
    params = [float(line.split(",")[0]) for line in lines[1:]]
    assert params == [0.0, 0.5, 1.0]
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(0.0, abs=1e-6)
    last = lines[-1].split(",")
    assert float(last[3]) == pytest.approx(1.0, abs=1e-9)  # concurrence at f=1


def test_sweep_plot_script(tmp_path):
    csv = tmp_path / "w.csv"
    script = tmp_path / "w.gp"
    assert main(["sweep", "--family", "werner", "--points", "2", *FAST_FLAGS,
                 "--output", str(csv), "--plot-script", str(script)]) == 0
    text = script.read_text()
    assert str(csv) in text
    assert "lines lw 3 lc rgb 'black'" in text
    assert text.count("title") == 3


def test_sweep_io_error(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "x.csv"
    assert main(["sweep", "--family", "werner", "--points", "2", *FAST_FLAGS,
                 "--output", str(missing)]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_sweep_requires_output():
    assert main(["sweep", "--family", "werner", "--points", "2", *FAST_FLAGS]) == 2


def test_slit_curve(tmp_path):
    out = tmp_path / "slit.csv"
    assert main(["slit", "--points", "5", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,local_irreality,global_irreality,entanglement"
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    assert rows[0][1] == pytest.approx(0.0, abs=1e-12)
    assert rows[-1][1] == pytest.approx(LN2, abs=1e-10)
    assert rows[-1][3] == pytest.approx(0.0, abs=1e-9)
    locals_ = [r[1] for r in rows]
    assert all(b > a for a, b in zip(locals_, locals_[1:]))
    for r in rows:
        assert r[2] == pytest.approx(LN2, abs=1e-10)


def test_verify_command(capsys, tmp_path):
    assert main(["verify", "singlet"]) == 0
    assert "suite singlet: 9 cases, 0 failures" in capsys.readouterr().out

    assert main(["verify", "decomposition", "--count", "10", "--seed", "3"]) == 0
    capsys.readouterr()

    assert main(["verify", "unknown-suite"]) == 2
    assert "unknown suite" in capsys.readouterr().err

    out = tmp_path / "verify.txt"
    assert main(["verify", "slit", "--output", str(out)]) == 0
    assert "slit" in out.read_text()


def test_verify_reports_failures(monkeypatch, capsys):
    from qreality import verify as verify_mod
    from qreality.verify import VerifySuiteResult

    def stub(seed, count, cfg):
        return VerifySuiteResult(suite="stub", cases=1,
                                 failures=[("broken case", 2.0, 1e-9)])

    monkeypatch.setitem(verify_mod.SUITES, "stub", (stub, 1))
    assert main(["verify", "stub"]) == 1
    out = capsys.readouterr().out
    assert "1 failures" in out
    assert "broken case" in out
