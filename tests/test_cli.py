"""Command-line interface: exit codes, flags, output destinations."""

import dataclasses
import json
import math
import warnings

import pytest

from seriesdyn.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, main
from seriesdyn.integrate import IntegrationConfig
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


def test_solve_file_rel_tol_and_flag_abs_tol_combine(tmp_path, capsys):
    path = write_model(tmp_path, dict(LOGISTIC_DOC, tolerances={"rel": 1e-4}))
    assert main(["solve", path, "--abs-tol", "1e-3"]) == EXIT_OK
    mf = load_model(path)
    want = cmd_solve(dataclasses.replace(
        mf, cfg=IntegrationConfig(rel_tol=1e-4, abs_tol=1e-3)))
    assert capsys.readouterr().out == want
    # neither setting alone gives that output
    for cfg in (mf.cfg, IntegrationConfig(abs_tol=1e-3)):
        assert cmd_solve(dataclasses.replace(mf, cfg=cfg)) != want


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


@pytest.mark.parametrize("command", ["phase2d", "spiral"])
def test_order_zero_is_input_error(capsys, command):
    assert main([command, "-k", "0"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "order" in captured.err


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


def test_radius_cli_overflowed_tail_collapses(tmp_path, capsys):
    doc = {"model": "spiral", "params": {"a": -0.5}, "x0": [2.0, 2.0]}
    path = write_model(tmp_path, doc)
    assert main(["radius", path, "--order", "700"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "variable x: ratio 0.00000000000e+00  root 0.00000000000e+00" in out
    assert "relative disagreement x: ratio 1  root 1" in out


@pytest.mark.parametrize("command", ["radius", "solve", "fixed-points"])
@pytest.mark.parametrize("params, x0", [({"b": 1.0, "a": -1e-200}, 1e-200),
                                        ({"b": 1.0, "a": -3.0}, 1e-320)],
                         ids=["a-x0-underflows", "b-over-a-x0-overflows"])
def test_logistic_beyond_the_float_range_of_q_exits_zero(tmp_path, capsys, command,
                                                         params, x0):
    path = write_model(tmp_path, {"model": "logistic", "params": params, "x0": [x0]})
    assert main([command, path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "nan" not in out


def test_radius_cli_order_override(tmp_path, capsys):
    path = write_model(tmp_path, LOGISTIC_DOC)
    assert main(["radius", path, "-k", "12"]) == EXIT_OK
    assert "order K=12" in capsys.readouterr().out


def test_huge_exponent_is_bounded_work(tmp_path, capsys):
    # a power costs about 2 log2(e) products, so x^(10^9) compiles at once
    doc = {"model": "terms", "terms": [[{"exponents": [10 ** 9], "coeff": -1.0}]],
           "x0": [0.5]}
    path = write_model(tmp_path, doc)
    assert main(["solve", path]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    column = lines[0].split(",").index("x_num")
    assert all(math.isfinite(float(line.split(",")[column])) for line in lines[1:])
    assert main(["radius", path]) == EXIT_OK


@pytest.mark.parametrize("exponent, command, code", [
    (2 ** 1000, "solve", EXIT_OK), (2 ** 1000, "radius", EXIT_OK),
    (2 ** 1000, "fixed-points", EXIT_OK), (10 ** 400, "solve", EXIT_OK),
    (10 ** 400, "radius", EXIT_OK), (10 ** 400, "fixed-points", EXIT_INPUT),
], ids=["2^1000-solve", "2^1000-radius", "2^1000-fixed-points", "10^400-solve",
        "10^400-radius", "10^400-fixed-points"])
def test_exponent_beyond_the_recursion_limit_or_float_range(tmp_path, capsys, exponent,
                                                            command, code):
    # 2^1000 is 1000 halvings deep; the derivative of x^(10^400), which
    # fixed-points needs for its Jacobian, has a coefficient beyond the
    # float range and is bad input
    doc = {"model": "terms", "terms": [[{"exponents": [exponent], "coeff": -1.0}]],
           "x0": [0.5]}
    assert main([command, write_model(tmp_path, doc)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == EXIT_INPUT:
        assert "beyond the float range" in err


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


def test_tolerance_below_the_floor_is_input_error(tmp_path, capsys):
    # it used to warn from the starting step and spin for the whole budget
    path = write_model(tmp_path, dict(LOGISTIC_DOC,
                                      tolerances={"rel": 1e-300, "abs": 1e-300}))
    assert main(["solve", path]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rel_tol must be at least 2.220446049250313e-14" in captured.err
    assert "(key 'tolerances')" in captured.err
    assert "Warning" not in captured.err
    assert main(["solve", write_model(tmp_path, LOGISTIC_DOC),
                 "--rel-tol", "1e-300"]) == EXIT_INPUT
    assert "rel_tol must be at least" in capsys.readouterr().err


def csv_columns(out):
    """{header: column values} of a CSV output, '#' footer lines dropped."""
    rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
    return dict(zip(rows[0], zip(*rows[1:])))


@pytest.mark.parametrize("argv, series", [
    (["spiral", "--samples", "21"], ["x_series", "y_series", "x_exact", "y_exact"]),
    (["phase2d", "--t-end", "30", "--samples", "11"], ["x_s4", "y_s4", "x_s10", "y_s10"]),
], ids=["spiral", "phase2d"])
def test_tolerance_flags_reach_the_integrator(capsys, argv, series):
    assert main(argv) == EXIT_OK
    default = csv_columns(capsys.readouterr().out)
    assert main(argv + ["--rel-tol", "1e-3", "--abs-tol", "1e-3"]) == EXIT_OK
    loose = csv_columns(capsys.readouterr().out)
    assert loose.keys() == default.keys()
    for name in ["x_num", "y_num"]:
        assert loose[name][0] == default[name][0]  # the initial state
        assert loose[name] != default[name]
    for name in ["t"] + series:
        assert loose[name] == default[name]


@pytest.mark.parametrize("command", ["spiral", "phase2d"])
@pytest.mark.parametrize("flags", [["--rel-tol", "nan"], ["--abs-tol", "inf"],
                                   ["--rel-tol", "0"], ["--abs-tol=-1e-6"]],
                         ids=["rel-nan", "abs-inf", "rel-zero", "abs-negative"])
def test_invalid_tolerance_flags_are_input_errors(capsys, command, flags):
    assert main([command] + flags) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tolerances must be positive and finite" in captured.err


@pytest.mark.parametrize("command", ["phase2d", "spiral"])
@pytest.mark.parametrize("t_end", ["inf", "-inf", "nan", "0", "-1"])
def test_non_finite_or_non_positive_t_end_is_input_error(capsys, command, t_end):
    # checked before the time grid is built, where np.linspace(0, inf, n)
    # would warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, f"--t-end={t_end}"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "t_end must be positive and finite" in captured.err


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
