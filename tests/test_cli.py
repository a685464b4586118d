"""Command-line interface: exit codes, flags, output destinations."""

import dataclasses
import importlib
import json
import math
import re
import time
import types
import warnings
from pathlib import Path

import pytest

import seriesdyn
from seriesdyn.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, main
from seriesdyn.model import IntegrationConfig
from seriesdyn.modelfile import MAX_ORDER, MAX_SAMPLES, load_model
from seriesdyn.report import cmd_radius, cmd_solve, cmd_table1

GOLDEN = Path(__file__).parent / "golden"
LOGISTIC_DOC = {"model": "logistic", "params": {"b": 1.0, "a": -3.0},
                "x0": [1.0], "order": 4, "grid": {"end": 1.0, "count": 11}}


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def within(seconds, argv):
    """``main(argv)``'s exit code, once it has returned within ``seconds``
    of wall time."""
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < seconds
    return code


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
    assert main(["radius", str(GOLDEN / "spiral.json"), "-k", "3"]) == EXIT_INPUT
    assert "order" in capsys.readouterr().err


def test_blowup_is_numerical_failure(tmp_path, capsys):
    doc = {"model": "spiral", "params": {"a": 0.5}, "x0": [2.0, 2.0],
           "grid": {"end": 0.2, "count": 5}}
    path = write_model(tmp_path, doc)
    assert main(["solve", path]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure" in err and "blew-up" in err
    assert "(step_underflow) at t = 0.125 (before requested end 0.2)" in err


def test_failure_on_the_last_step_is_not_before_the_end(capsys):
    # the state norm crosses 1e8 on the step that reaches t = 300: the
    # message names the stop reason and does not say "before"
    argv = ["phase2d", "--rel-tol", "0.5", "--abs-tol", "1e300", "--samples", "3"]
    assert main(argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure" in err and "blew-up" in err
    assert "blowup_norm" in err and "before" not in err


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info2:
        main([])
    assert info2.value.code == 2


TOLS, SAMPLING = ["--rel-tol", "--abs-tol"], ["--order", "-k", "--t-end", "--samples"]
# each command (None: the root) and what its help lists
HELP = {None: ["table1", "phase2d", "spiral", "radius", "solve", "fixed-points"],
        "table1": ["--full-precision", "--output"],
        "phase2d": SAMPLING + TOLS + ["--output"],
        "spiral": SAMPLING + TOLS + ["--output"],
        "radius": ["model_file", "--order", "-k", "--output"],
        "solve": ["model_file"] + TOLS + ["--output"],
        "fixed-points": ["model_file", "--output"]}


@pytest.mark.parametrize("command", list(HELP))
def test_help_exits_zero_and_lists_the_flags(capsys, command):
    # argparse formats the help strings only here, so a stray % shows
    with pytest.raises(SystemExit) as info:
        main([command, "--help"] if command else ["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: seriesdyn") and "-h, --help" in out
    for flag in HELP[command]:
        assert flag in out, flag


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
    # the 1-D catalog injects 0 and -b/a: the origin's row reads 0
    assert main(["fixed-points", str(GOLDEN / "logistic.json")]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[2].startswith("0 ")


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


@pytest.mark.parametrize("x0", [1e-200, 1e-160], ids=["r0-squared-underflows",
                                                      "reciprocal-overflows"])
def test_radius_of_a_tiny_spiral_start_exits_zero(tmp_path, capsys, x0):
    # the branch point is at -inf, so no relative disagreement is defined
    doc = {"model": "spiral", "params": {"a": -0.5}, "x0": [x0, 0.0], "order": 30}
    assert main(["radius", write_model(tmp_path, doc)]) == EXIT_OK
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[3:] == ["analytic singularity modulus: inf (branch-point at t = -inf)",
                         "relative disagreement x: ratio n/a  root n/a",
                         "relative disagreement y: ratio n/a  root n/a"]
    assert captured.err == ""


def test_radius_cli_order_override(tmp_path, capsys):
    path = write_model(tmp_path, LOGISTIC_DOC)
    assert main(["radius", path, "-k", "12"]) == EXIT_OK
    assert "order K=12" in capsys.readouterr().out


def test_huge_exponent_is_bounded_work(tmp_path, capsys):
    # a power costs about 2 log2(e) products, so x^(10^9) compiles at once
    doc = {"model": "terms", "terms": [[{"exponents": [10 ** 9], "coeff": -1.0}]],
           "x0": [0.5]}
    path = write_model(tmp_path, doc)
    assert within(10, ["solve", path]) == EXIT_OK
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
    assert within(10, [command, write_model(tmp_path, doc)]) == code
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
    assert within(10, ["solve", path]) == EXIT_INPUT
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


@pytest.mark.parametrize("where", ["directory", "missing-folder"])
def test_output_path_that_cannot_be_written_is_input_error(tmp_path, capsys, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "x.txt"
    assert main(["table1", "--output", str(target)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("seriesdyn: error: ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", ["phase2d", "spiral"])
def test_largest_grid_exits_zero_with_one_row_per_sample(capsys, command):
    # MAX_SAMPLES, the largest grid the CLI samples, with no warning
    assert within(30, [command, "--samples", "100000"]) == EXIT_OK
    assert len(re.findall("^[-0-9]", capsys.readouterr().out, re.M)) == 100000


def test_zero_start_component_solves_with_no_warning(tmp_path, capsys):
    # a zero in x0 makes the starting-step heuristic divide by abs_tol
    doc = {"model": "spiral", "params": {"a": -0.5}, "x0": [0.0, 1e-5],
           "tolerances": {"abs": 1e-200}}
    assert main(["solve", write_model(tmp_path, doc)]) == EXIT_OK


def test_failed_command_creates_no_output_file(tmp_path, capsys):
    # the output is written only once the command has computed all of it
    target = tmp_path / "out.csv"
    assert main(["spiral", "-k", "0", "--output", str(target)]) == EXIT_INPUT
    assert not target.exists()


# -- cold processes: what a command loads, logs and renders ------------------

# each command on its golden inputs, and the package modules it loads
# (json rides with the model file); no command loads all of them, none
# loads the perturbation route (hpm), and radius and fixed-points, which
# never integrate, skip the integrator; and the lines each logger writes
# under SERIESDYN_LOG=DEBUG
LOADS = {
    "table1": (["table1"], {"errors", "model", "dp5", "series", "exact", "report"}),
    "phase2d": (["phase2d"], {"errors", "model", "dp5", "series", "phase", "report"}),
    "spiral": (["spiral"], {"errors", "model", "dp5", "series", "exact", "report"}),
    "radius": (["radius", str(GOLDEN / "spiral.json"), "-k", "30"],
               {"errors", "model", "modelfile", "json", "series", "exact", "report"}),
    "solve": (["solve", str(GOLDEN / "logistic.json")],
              {"errors", "model", "dp5", "modelfile", "json", "series", "report"}),
    "fixed-points": (["fixed-points", str(GOLDEN / "two_species.json")],
                     {"errors", "model", "modelfile", "json", "phase", "report"}),
}
DEBUG_LINES = {
    "solve": {"seriesdyn.dp5": 1, "seriesdyn.series": 1, "seriesdyn.report": 1},
    "fixed-points": {"seriesdyn.phase": 1, "seriesdyn.report": 1},
    "table1": {"seriesdyn.dp5": 1, "seriesdyn.series": 1, "seriesdyn.report": 1},
    "phase2d": {"seriesdyn.dp5": 1, "seriesdyn.series": 2, "seriesdyn.phase": 1,
                "seriesdyn.report": 1},
    "spiral": {"seriesdyn.dp5": 1, "seriesdyn.series": 1, "seriesdyn.report": 1},
    "radius": {"seriesdyn.series": 1, "seriesdyn.report": 1},
}
DEBUG = {"SERIESDYN_LOG": "DEBUG"}
HELP_END = "-- exit code"  # ends each help render of the one help process

# every cold process of this module, keyed by its test: the python
# arguments and the environment it adds, in the order the tests read them
COLD = {
    **{("loads", command): (["-W", "error", "-X", "importtime", "-m", "seriesdyn.cli",
                             *argv], {})
       for command, (argv, loads) in LOADS.items()},
    "bare import": (["-c", "import sys, seriesdyn; "
                           "print(sorted(m for m in sys.modules "
                           "if m.startswith('seriesdyn.') or m.split('.')[0] == 'numpy')); "
                           "print(seriesdyn.phase.__name__)"], {}),
    **{("debug", command): (["-m", "seriesdyn.cli", *argv], DEBUG)
       for command, (argv, loads) in LOADS.items()},
    "debug all": (["-c", "import sys; from seriesdyn.cli import main; "
                         f"sys.exit(max(main(argv) for argv in "
                         f"{[argv for argv, loads in LOADS.values()]!r}))"], DEBUG),
    "help": (["-W", "error", "-c",
              "from seriesdyn.cli import main\n"
              f"for argv in {[[c, '--help'] if c else ['--help'] for c in HELP]!r}:\n"
              "    try:\n"
              "        main(argv)\n"
              "    except SystemExit as exc:\n"
              f"        print({HELP_END!r}, exc.code)\n"], {}),
    "regime warning": (["-c", "from seriesdyn import Logistic, preset_ivp; "
                              "preset_ivp(Logistic(1.0, 3.0), [1.0])"], {}),
}


@pytest.mark.parametrize("command", list(LOADS))
def test_cold_command_loads_only_its_own_layers(cold_run, command):
    # python -W error: a warning ends the process non-zero
    child = cold_run(("loads", command))
    assert child.stdout == (GOLDEN / f"{command}.out").read_bytes()
    imported = {line.rsplit("|", 1)[1].strip()
                for line in child.stderr.decode().splitlines()
                if line.startswith("import time:")}
    ours = {name.removeprefix("seriesdyn.") for name in imported
            if name.startswith("seriesdyn.")}
    assert ours | ({"json"} & imported) == LOADS[command][1]
    # nothing logs without SERIESDYN_LOG, so nothing imports logging
    assert "logging" not in imported


def test_bare_import_loads_no_module_and_no_numpy(cold_run):
    child = cold_run("bare import")
    # a submodule the package used to bind is still an attribute, loaded when read
    assert child.stdout.decode().split("\n")[:2] == ["[]", "seriesdyn.phase"]


@pytest.mark.parametrize("command, lines", list(DEBUG_LINES.items()))
def test_debug_log_under_lazy_loading(cold_run, command, lines):
    # logging is set up before a command imports its layers, whose loggers
    # must still reach stderr; stdout is that of the run without logging
    child = cold_run(("debug", command))
    assert child.stdout == (GOLDEN / f"{command}.out").read_bytes()
    names = [line.split()[1].rstrip(":") for line in child.stderr.decode().splitlines()]
    assert {name: names.count(name) for name in names} == lines


def test_debug_log_leaves_stdout_of_every_command_unchanged(cold_run):
    # one process runs the six commands with SERIESDYN_LOG=DEBUG: stdout is
    # the six golden files, and stderr has one seriesdyn.report line each
    child = cold_run("debug all")
    assert child.stdout == b"".join((GOLDEN / f"{name}.out").read_bytes() for name in LOADS)
    report = [line.split()[2] for line in child.stderr.decode().splitlines()
              if line.startswith("DEBUG seriesdyn.report:")]
    assert report == [f"cmd_{name.replace('-', '_')}:" for name in LOADS]


@pytest.mark.parametrize("command", list(HELP))
def test_cold_help_renders_with_every_warning_an_error(cold_run, command):
    # python -W error: a warning raised while argparse formats the help
    # strings, or while the package loads, ends the process non-zero; one
    # process renders every help, each ended by its exit code
    child = cold_run("help")
    renders = re.findall(rf"(.*?){HELP_END} (\S+)\n", child.stdout.decode(), re.S)
    assert len(renders) == len(HELP)
    out, code = renders[list(HELP).index(command)]
    assert code == "0"
    assert out.startswith("usage: seriesdyn") and "-h, --help" in out
    for flag in HELP[command]:
        assert flag in out, flag
    assert child.stderr == b""


def test_regime_warning_reaches_stderr_without_logging_set_up(cold_run):
    # no handler is configured: Python's last-resort handler prints the
    # bare message of a WARNING, as it did when every module made its
    # logger at import
    child = cold_run("regime warning")
    assert child.stdout == b""
    assert child.stderr.decode() == (
        "preset Logistic(b=1.0, a=3.0) is outside the reference parameter regime\n")


# -- the package's public names ---------------------------------------------

PUBLIC = {
    "dp5": ["Trajectory", "integrate", "sample"],
    "errors": ["DegenerateError", "DimensionError", "InsufficientOrderError",
               "IntegrationFailedError", "ModelFileError", "NotAFixedPointError",
               "RangeError", "SeriesDynError", "SingularityError"],
    "exact": ["Singularity", "logistic_exact", "logistic_singularity", "spiral_exact",
              "spiral_singularity"],
    "hpm": ["HpmExpansion", "hpm_collapse_check", "hpm_solve", "poly_apply_series",
            "series_mul"],
    "model": ["InitialValueProblem", "IntegrationConfig", "Logistic", "Monomial",
              "PolyVectorField", "Polynomial", "Spiral", "TwoSpecies", "eval_field",
              "jacobian_at", "preset_ivp"],
    "phase": ["CLASSIFICATIONS", "CriticalPoint", "classify", "fixed_points"],
    "series": ["RadiusEstimate", "TaylorSolution", "TruncatedSeries", "radius_estimate",
               "series_eval", "taylor_solve"],
}


def test_package_surface_is_unchanged():
    assert sorted(seriesdyn.__all__) == sorted(
        [name for names in PUBLIC.values() for name in names] + ["__version__"])
    assert seriesdyn.__version__ == "0.1.0"
    star = {}
    exec("from seriesdyn import *", star)
    listed = dir(seriesdyn)
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"seriesdyn.{module}")
        for name in names:
            assert getattr(seriesdyn, name) is getattr(home, name), name
            assert star[name] is getattr(home, name), name
            assert name in listed, name
    assert star["__version__"] == seriesdyn.__version__


def test_each_module_imports_under_its_own_name():
    # no public name shadows a module: the path of each module gives the
    # module, and the package attribute of each public name stays its object
    import seriesdyn.dp5 as m
    assert isinstance(m, types.ModuleType) and m.__name__ == "seriesdyn.dp5"
    assert seriesdyn.integrate is m.integrate
    for module in seriesdyn._EXPORTS:
        home = importlib.import_module(f"seriesdyn.{module}")
        assert isinstance(home, types.ModuleType), module
        assert home.__name__ == f"seriesdyn.{module}"
        assert getattr(seriesdyn, module) is home


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        seriesdyn.no_such_name  # noqa: B018
    assert not hasattr(seriesdyn, "MAX_ORDER")
