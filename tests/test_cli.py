import csv
import io
import json
import math
import re

import numpy as np
import pytest

from qreality.cli import EXIT_CROSS_CHECK, main
from qreality.statefile import save_state
from qreality.states import werner
from qreality.sweep import SweepSpec, slit_rows

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


def test_measure_csv_escapes_quotes_in_a_state_spec(tmp_path, capsys):
    path = tmp_path / 'a"b.json'
    save_state(werner(0.5), path)
    spec = f"file:{path}"
    assert main(["measure", spec, "zbasis@0", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["name", "value", "inputs", "residuals"]
    by_name = {row[0]: row for row in rows[1:]}
    assert by_name["entropy"][2] == spec
    assert by_name["irreality_correlated"][2] == f"{spec}; zbasis@0"
    assert all(len(row) == 4 for row in rows)


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
    assert main(["measure", "werner:f=0.5", "bloch:theta=1,phi=0,theta=2@0"]) == 2
    assert ("basis spec 'bloch:theta=1,phi=0,theta=2' repeats the key 'theta'"
            in capsys.readouterr().err)


def test_measure_reads_spec_keys_alike(capsys):
    # Whitespace around a key is ignored in state, Bloch and Fourier specs,
    # and a repeated Fourier key exits 2 naming it, as a Bloch one does.
    assert main(["measure", "werner: f=0.5", "fourier: d=2@0", "bloch: theta=1, phi=0@1"]) == 0
    capsys.readouterr()
    assert main(["measure", "werner:f=0.5", "fourier:d=2,d=3@0"]) == 2
    assert "basis spec 'fourier:d=2,d=3' repeats the key 'd'" in capsys.readouterr().err


def test_measure_names_a_repeated_state_key(capsys):
    assert main(["measure", "werner:f=0.5,f=0.6", "zbasis@0"]) == 2
    assert "state spec 'werner:f=0.5,f=0.6' repeats the key 'f'" in capsys.readouterr().err


@pytest.mark.parametrize("state, basis", [
    ("werner : f=0.5", "zbasis@0"),
    ("werner:f=0.5", "bloch : theta=1,phi=0@0"),
    ("werner:f=0.5", "fourier :d=2@0"),
    (" alpha\t: a=0.7", "zbasis@1"),
])
def test_measure_ignores_whitespace_around_a_spec_head(state, basis, capsys):
    assert main(["measure", state, basis]) == 0
    captured = capsys.readouterr()
    assert "unrecognized" not in captured.err
    assert captured.out


@pytest.mark.parametrize("angle", ["nan", "inf"])
def test_measure_non_finite_bloch_angle_exits_two(angle, capsys):
    spec = f"bloch:theta={angle},phi=0"
    assert main(["measure", "werner:f=0.5", f"{spec}@0"]) == 2
    err = capsys.readouterr().err
    assert f"basis spec '{spec}' has a non-finite angle" in err


def test_measure_rejects_a_fourier_dimension_before_building_it(monkeypatch, capsys):
    from qreality import observables

    def no_build(dim):
        raise AssertionError(f"fourier basis of dimension {dim} built")

    monkeypatch.setattr(observables, "fourier_basis", no_build)
    assert main(["measure", "werner:f=0.5", "fourier:d=100000@0"]) == 2
    assert "has dimension 100000, subsystem has 2" in capsys.readouterr().err


@pytest.mark.parametrize("matrix", ["[]", "[[[1.0, 0.0]]]"])
def test_measure_huge_dims_state_file_exits_two(matrix, tmp_path, capsys):
    # 2**32 * 2**32 is 2**64: a fixed-width product wraps to 0.
    path = tmp_path / "huge.json"
    path.write_text(f'{{"dims": [4294967296, 4294967296], "matrix": {matrix}}}')
    assert main(["measure", f"file:{path}", "zbasis@0"]) == 2
    err = capsys.readouterr().err
    assert "'matrix' must be a list of 18446744073709551616 rows" in err


def test_measure_non_finite_file_state(tmp_path, capsys):
    nan_state = tmp_path / "nan.json"
    nan_state.write_text(
        '{"dims": [2], "matrix": [[[0.5, 0.0], [NaN, 0.0]], [[NaN, 0.0], [0.5, 0.0]]]}')
    assert main(["measure", f"file:{nan_state}", "zbasis@0"]) == 3
    assert "finite-entries" in capsys.readouterr().err


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("sign", ["", "-"])
def test_measure_file_state_with_an_integer_beyond_the_float_range_exits_three(
        part, sign, tmp_path, capsys):
    huge = sign + "1" + "0" * 400
    entry = f"[{huge}, 0.0]" if part == "re" else f"[0.5, {huge}]"
    path = tmp_path / "huge_entry.json"
    path.write_text(
        f'{{"dims": [2], "matrix": [[{entry}, [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}}')
    assert main(["measure", f"file:{path}", "zbasis@0"]) == 3
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


def test_sweep_over_the_pair_grid_budget_exits_two(tmp_path, capsys, monkeypatch):
    from qreality import optimize

    # FAST_FLAGS give 7 x 6 = 42 axes per side, 1764 pair cells.
    monkeypatch.setattr(optimize, "MAX_PAIR_GRID_CELLS", 1000)
    out = tmp_path / "w.csv"
    assert main(["sweep", "--family", "werner", "--points", "2", *FAST_FLAGS,
                 "--output", str(out)]) == 2
    assert "1764 cells exceeds the budget of 1000" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("family", ["werner", "alpha"])
@pytest.mark.parametrize("bound", [["--start", "nan"], ["--stop", "inf"], ["--start=-inf"],
                                   ["--start", "-inf"]])
def test_sweep_non_finite_range_exits_two(family, bound, tmp_path, capsys):
    # "-inf" as its own token starts with '-' and is not a plain negative
    # decimal, which argparse would take for an option; it must reach the
    # range check.
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", family, "--points", "2", *FAST_FLAGS, *bound,
                 "--output", str(out)]) == 2
    assert "start and stop must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_and_slit_points_must_be_integers_of_at_least_two():
    # A float, bool or string is no point count; it is rejected before any
    # state is built.
    for points in (2.5, True, "3"):
        with pytest.raises(ValueError, match=rf"points must be an integer, got {points!r}"):
            SweepSpec("werner", points=points)
        with pytest.raises(ValueError, match=rf"points must be an integer, got {points!r}"):
            slit_rows(points)
    for points in (1, 0, np.int64(1)):
        with pytest.raises(ValueError, match="points must be at least 2"):
            SweepSpec("werner", points=points)
        with pytest.raises(ValueError, match="points must be at least 2"):
            slit_rows(points)
    assert len(slit_rows(np.int64(2))) == 2


def test_sweep_range_must_be_real_numbers():
    # "0" raised TypeError from math.isfinite, and True ran as 1.0.  numpy
    # floats and plain ints are bounds.
    for field in ("start", "stop"):
        for bad in ("0", True, np.True_, None, 1j):
            with pytest.raises(ValueError, match=rf"{field} must be a real number, got"):
                SweepSpec("werner", **{field: bad})
    spec = SweepSpec("werner", start=np.float64(0.25), stop=np.float32(0.5))
    assert (spec.start, spec.stop) == (0.25, 0.5)
    assert SweepSpec("werner", start=0, stop=1).stop == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--family", "werner", "--output", "x.csv", "--seed", "1"],
    ["sweep", "--family", "werner", "--output", "x.csv", "--format", "csv"],
    ["slit", "--output", "x.csv", "--seed", "1"],
    ["verify", "singlet", "--format", "records"],
    ["measure", "singlet", "zbasis@0", "--seed", "1"],
    # The gradient tolerance is the constant optimize.REFINE_TOLERANCE.
    ["sweep", "--family", "werner", "--output", "x.csv", "--refine-tol", "1e-7"],
])
def test_flags_a_command_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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

    def stub(result, rng, count, cfg):
        result.case()
        result.check("broken case", 2.0, 1e-9)

    monkeypatch.setitem(verify_mod.SUITES, "stub", (stub, 1))
    assert main(["verify", "stub"]) == 1
    out = capsys.readouterr().out
    assert "1 failures" in out
    assert "broken case" in out


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_count_below_one_exits_two(count, capsys):
    for suite in ("dephasing", "all"):
        assert main(["verify", suite, "--count", count]) == 2
        captured = capsys.readouterr()
        assert f"got {count}" in captured.err
        assert "0 failures" not in captured.out


def test_verify_oracle_over_the_side_grid_budget_exits_two(capsys, monkeypatch):
    from qreality import optimize

    # FAST_FLAGS give 7 x 6 = 42 points per side.
    monkeypatch.setattr(optimize, "MAX_SIDE_GRID_POINTS", 41)
    assert main(["verify", "oracle", *FAST_FLAGS]) == 2
    assert "42 points exceeds the budget of 41" in capsys.readouterr().err


# Values a fuzzed field takes: non-finite, out of range, of the wrong type,
# or fine.  In a state file they are JSON; NaN and Infinity are the literals
# Python's json reads and writes.
_FUZZ_TOKENS = ["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400", "1e-400",
                "true", "false", "null", "", "0", "-0", "1", "2", "-1", "0.5", "2.5",
                "1,2", "[1]", "0x10", "9" * 400]
_FUZZ_JSON = [math.nan, math.inf, -math.inf, "1e400", 10**400, True, False, None,
              "1", [1], [], {}, 0.5, 2, -2, 2.7, 1e-320]
_NON_FINITE_OUTPUT = re.compile(r"(?i)\b(nan|inf|infinity)\b")


def _fuzz_argv(rng, tmp_path, k):
    # One mutated measure call: a state spec (or a mutated state file), one
    # or two basis specs and a format.
    token = _FUZZ_TOKENS[rng.integers(len(_FUZZ_TOKENS))]
    states = [f"werner:f={token}", f"alpha:a={token}", f"slit:x={token}",
              f"werner:f=0.5,f={token}", "singlet", "werner:f=0.3"]
    bases = [f"bloch:theta={token},phi=0@1", f"bloch:theta=1,phi={token}@0",
             f"fourier:d={token}@0", f"zbasis@{token}", "xbasis@1", "zbasis@0"]
    if k % 2:
        state = states[rng.integers(len(states))]
    else:
        state = f"file:{_fuzz_state_file(rng, tmp_path / f'state{k}.json')}"
    picked = [bases[i] for i in rng.choice(len(bases), size=1 + k % 3 // 2, replace=False)]
    return ["measure", state, *picked, "--format", ("human", "records", "csv")[k % 3]]


def _fuzz_state_file(rng, path):
    # werner(0.4) as a state file with one field mutated.
    matrix = [[[float(z.real), float(z.imag)] for z in row] for row in werner(0.4).mat]
    doc = {"dims": [2, 2], "matrix": matrix}
    value = _FUZZ_JSON[rng.integers(len(_FUZZ_JSON))]
    i, j, part = (int(x) for x in rng.integers(4, size=3))
    kind = rng.integers(6)
    if kind == 0:  # bad dims
        doc["dims"] = [[2, value], [value, 2], value, [4], [2, 2, 1], [2.7, 2.2]][i + part % 3]
    elif kind <= 2:  # one number of an entry
        matrix[i][j][part % 2] = value
    elif kind == 3:  # a whole entry
        matrix[i][j] = value
    elif kind == 4:  # ragged rows: one entry short, or one row too many
        if part % 2:
            del matrix[i][j]
        else:
            matrix.append(matrix[i])
    else:  # the document's shape
        doc = [value, {"dims": [2, 2]}, {"matrix": matrix}, [doc]][i]
    # "1e400" stands for the JSON literal, which json.dumps cannot write.
    path.write_text(json.dumps(doc).replace('"1e400"', "1e400"))
    return path


def test_boundary_fuzz_maps_bad_input_to_documented_exits(tmp_path, capsys):
    # Fixed-seed mutations of measure arguments and state files: every call
    # exits 0, 2 or 3, with no traceback and no non-finite number printed.
    rng = np.random.default_rng(20260)
    exits = []
    for k in range(240):
        argv = _fuzz_argv(rng, tmp_path, k)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argument list
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        assert not _NON_FINITE_OUTPUT.search(out), (argv, out)
        exits.append(code)
    assert {0, 2, 3} <= set(exits)
