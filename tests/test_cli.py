"""Command-line interface: exit codes, flags, output destinations."""

import json

import pytest

from seriesdyn.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, main
from seriesdyn.modelfile import MAX_ORDER, MAX_SAMPLES, load_model
from seriesdyn.report import cmd_radius, cmd_solve, cmd_table1

LOGISTIC_DOC = {"model": "logistic", "params": {"b": 1.0, "a": -3.0},
                "x0": [1.0], "order": 4, "grid": {"end": 1.0, "count": 11}}


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_table1_to_stdout(capsys):
    assert main(["table1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == cmd_table1()
    assert out.splitlines()[0].startswith("t")


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    assert main(["table1", "--output", str(target)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8") == cmd_table1()


def test_full_precision_flag(capsys):
    assert main(["table1", "--full-precision"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == cmd_table1(full_precision=True)
    assert out != cmd_table1()


def test_solve_matches_library_call(tmp_path, capsys):
    path = write_model(tmp_path, LOGISTIC_DOC)
    assert main(["solve", path]) == EXIT_OK
    assert capsys.readouterr().out == cmd_solve(load_model(path))


def test_solve_tolerance_overrides_change_digits(tmp_path, capsys):
    path = write_model(tmp_path, LOGISTIC_DOC)
    main(["solve", path])
    tight = capsys.readouterr().out
    main(["solve", path, "--rel-tol", "1e-4", "--abs-tol", "1e-6"])
    loose = capsys.readouterr().out
    assert tight != loose
    assert tight.splitlines()[0] == loose.splitlines()[0]


def test_invalid_tolerance_is_input_error(tmp_path, capsys):
    path = write_model(tmp_path, LOGISTIC_DOC)
    assert main(["solve", path, "--rel-tol=-1e-6"]) == EXIT_INPUT
    assert "error" in capsys.readouterr().err


def test_missing_model_file_is_input_error(capsys):
    assert main(["solve", "/does/not/exist.json"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "seriesdyn: error:" in err


def test_malformed_model_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"model": "logistic",', encoding="utf-8")
    assert main(["solve", str(path)]) == EXIT_INPUT
    assert "line 1" in capsys.readouterr().err


def test_semantic_model_error_is_input_error(tmp_path, capsys):
    path = write_model(tmp_path, {"model": "logistic", "x0": [1.0]})
    assert main(["solve", path]) == EXIT_INPUT
    assert "params" in capsys.readouterr().err


def test_radius_order_too_small_is_input_error(tmp_path, capsys):
    path = write_model(tmp_path, LOGISTIC_DOC)  # order 4
    assert main(["radius", path]) == EXIT_INPUT
    assert "order" in capsys.readouterr().err


def test_blowup_is_numerical_failure(tmp_path, capsys):
    doc = {"model": "spiral", "params": {"a": 0.5}, "x0": [2.0, 2.0],
           "grid": {"end": 0.2, "count": 5}}
    path = write_model(tmp_path, doc)
    assert main(["solve", path]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure" in err and "blew-up" in err


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info2:
        main([])
    assert info2.value.code == 2


def test_phase2d_order_flags(capsys):
    code = main(["phase2d", "-k", "3", "-k", "7",
                 "--samples", "13", "--t-end", "50"])
    assert code == EXIT_OK
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "t,x_num,y_num,x_s3,y_s3,x_s7,y_s7,crossover"


def test_spiral_flags(capsys):
    assert main(["spiral", "-k", "3", "--samples", "5",
                 "--t-end", "1.0"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,x_num,y_num,x_exact,y_exact,x_series,y_series"
    assert len(lines) == 6


def test_fixed_points_cli(tmp_path, capsys):
    doc = {"model": "two-species",
           "params": {"b1": 0.1, "b2": 0.08, "a11": -0.0014, "a12": -0.0012,
                      "a21": -0.0009, "a22": -0.001},
           "x0": [4.0, 10.0]}
    path = write_model(tmp_path, doc)
    assert main(["fixed-points", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "fixed points found: 4"


def test_radius_cli_matches_library(tmp_path, capsys):
    doc = {"model": "logistic", "params": {"b": 1.0, "a": -3.0},
           "x0": [0.1], "order": 30}
    path = write_model(tmp_path, doc)
    assert main(["radius", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == cmd_radius(load_model(path))
    assert "3.25384665670e+00" in out


def test_radius_cli_order_override(tmp_path, capsys):
    path = write_model(tmp_path, LOGISTIC_DOC)
    assert main(["radius", path, "-k", "12"]) == EXIT_OK
    assert "order K=12" in capsys.readouterr().out


@pytest.mark.parametrize("field", ['"x0": [NaN]',
                                   '"x0": [1.0], "grid": {"end": NaN}'])
def test_non_finite_model_value_is_input_error(tmp_path, capsys, field):
    path = tmp_path / "nan.json"
    path.write_text('{"model": "logistic", "params": {"b": 1.0, "a": -3.0}, '
                    + field + '}', encoding="utf-8")
    assert main(["solve", str(path)]) == EXIT_INPUT
    assert "finite" in capsys.readouterr().err


def test_non_finite_tolerance_override_is_input_error(tmp_path, capsys):
    path = write_model(tmp_path, LOGISTIC_DOC)
    assert main(["solve", path, "--abs-tol", "inf"]) == EXIT_INPUT
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["phase2d", "-k", "4", "-k", str(MAX_ORDER + 1)],
    ["spiral", "--order", str(MAX_ORDER + 1)],
    ["radius", "model.json", "-k", str(MAX_ORDER + 1)],
    ["phase2d", "--samples", str(MAX_SAMPLES + 1)],
    ["spiral", "--samples", str(10**30)],
], ids=["phase2d-order", "spiral-order", "radius-order", "phase2d-samples",
        "spiral-samples"])
def test_work_caps_on_flags_are_input_errors(capsys, argv):
    # argparse rejects the value before any command runs
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_INPUT
    assert "must be <=" in capsys.readouterr().err
