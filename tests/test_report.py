"""Report/CSV command implementations: content, formats, determinism."""

import csv
import hashlib
import io
import logging
import math
from pathlib import Path

import numpy as np
import pytest

from seriesdyn import (
    InsufficientOrderError,
    IntegrationFailedError,
    Logistic,
    integrate,
    logistic_exact,
    preset_ivp,
    sample,
    taylor_solve,
)
from seriesdyn.modelfile import load_model, parse_model
from seriesdyn.report import (
    _csv,
    _fmt,
    _var_names,
    cmd_fixed_points,
    cmd_phase2d,
    cmd_radius,
    cmd_solve,
    cmd_spiral,
    cmd_table1,
)

# log10 relative errors of the 4th-order logistic series at t = 0.1..1.0,
# frozen from an independent evaluation of the series and closed form
TABLE1_LOG_ERRORS = [-3.14, -1.66, -0.798, -0.193, 0.273,
                     0.651, 0.968, 1.24, 1.48, 1.69]

LOGISTIC_DOC = {"model": "logistic", "params": {"b": 1.0, "a": -3.0},
                "x0": [1.0], "order": 4, "grid": {"end": 1.0, "count": 11}}


def parse_csv(text):
    data = [r for r in csv.reader(io.StringIO(text)) if r and not
            r[0].startswith("#")]
    comments = [line for line in text.splitlines() if line.startswith("#")]
    return data[0], data[1:], comments


def test_table1_values():
    rows = full_table1()
    assert [t for t, *_ in rows] == pytest.approx([i / 10 for i in range(1, 11)])
    for (t, *_, log_error), want in zip(rows, TABLE1_LOG_ERRORS):
        got = float(f"{log_error:.3g}")
        assert abs(got - want) <= 0.01, (t, got, want)


def test_table1_values_are_consistent():
    for t, series4, exact_value, numerical, log_error in full_table1():
        exact = logistic_exact(1.0, -3.0, 1.0, t)
        assert exact_value == pytest.approx(exact, rel=1e-12)
        assert abs(numerical - exact) / abs(exact) < 1e-8
        err = abs((exact - series4) / exact)
        assert log_error == pytest.approx(math.log10(err), rel=1e-12)


def full_table1(_cache=[]):
    """The rows of ``cmd_table1(full_precision=True)`` as floats: t, the
    partial sum, the closed form, the integrator and the log error."""
    if not _cache:
        lines = cmd_table1(full_precision=True).splitlines()[1:]
        _cache.extend([float(v) for v in line.split()] for line in lines)
    return _cache


def test_cmd_table1_text_layout():
    out = cmd_table1()
    lines = out.splitlines()
    assert len(lines) == 11
    assert lines[0].split() == ["t", "series4", "exact", "numerical",
                                "log10-rel-error"]
    first = lines[1].split()
    assert first[0] == "0.1"
    assert float(first[2]) == pytest.approx(0.8401065778530578, rel=1e-9)
    assert float(first[4]) == pytest.approx(-3.14, abs=0.01)


def test_cmd_table1_full_precision_round_trips():
    # the first row's cells read back as the values it was printed from
    ivp = preset_ivp(Logistic(1.0, -3.0), [1.0])
    ts = [i / 10 for i in range(1, 11)]
    series4 = taylor_solve(ivp, 4).eval(ts)[0, 0]
    exact = logistic_exact(1.0, -3.0, 1.0, 0.1)
    numerical = sample(integrate(ivp, 1.0), ts)[0, 0]
    cells = full_table1()[0][1:]
    assert cells[0] == series4
    assert cells[1] == exact
    assert cells[2] == numerical
    assert cells[3] == math.log10(abs((exact - series4) / exact))


def test_cmd_phase2d_structure():
    out = cmd_phase2d()
    header, rows, comments = parse_csv(out)
    assert header == ["t", "x_num", "y_num", "x_s4", "y_s4",
                      "x_s10", "y_s10", "crossover"]
    assert len(rows) == 121
    t0 = rows[0]
    assert float(t0[0]) == 0.0
    assert [float(v) for v in t0[1:7]] == [4.0, 10.0, 4.0, 10.0, 4.0, 10.0]
    # fixed-point footer
    assert comments[0].startswith("# fixed points:")
    assert len(comments) == 5
    footer = "\n".join(comments)
    assert "stable-node" in footer and "saddle" in footer \
        and "unstable-node" in footer


def test_cmd_phase2d_crossover_flag():
    _, rows, _ = parse_csv(cmd_phase2d())
    flags = [r[-1] for r in rows]
    assert flags.count("1") == 1
    assert flags[0] == "0"
    # beyond the crossover row the order-10 sum is farther from the
    # numerical curve than the order-4 sum
    i = flags.index("1")
    r = rows[i]
    num = np.array([float(r[1]), float(r[2])])
    s4 = np.array([float(r[3]), float(r[4])])
    s10 = np.array([float(r[5]), float(r[6])])
    assert np.linalg.norm(s10 - num) > np.linalg.norm(s4 - num)


def test_cmd_phase2d_series_explode_downstream():
    _, rows, _ = parse_csv(cmd_phase2d())
    last = rows[-1]
    num = np.array([float(last[1]), float(last[2])])
    s4 = np.array([float(last[3]), float(last[4])])
    s10 = np.array([float(last[5]), float(last[6])])
    # both partial sums are off by far more than 100% in at least one
    # coordinate at t = 300
    for s in (s4, s10):
        assert np.max(np.abs(s - num) / np.abs(num)) > 1.0


def test_cmd_phase2d_custom_orders():
    out = cmd_phase2d(orders=[6, 2], samples=13, t_end=50.0)
    header, rows, _ = parse_csv(out)
    assert header[:3] == ["t", "x_num", "y_num"]
    assert header[3:7] == ["x_s2", "y_s2", "x_s6", "y_s6"]
    assert len(rows) == 13
    single = cmd_phase2d(orders=[5], samples=5, t_end=10.0)
    _, srows, _ = parse_csv(single)
    assert all(r[-1] == "0" for r in srows)
    with pytest.raises(ValueError):
        cmd_phase2d(orders=[0])
    with pytest.raises(ValueError):
        cmd_phase2d(samples=1)


def test_cmd_phase2d_overflowed_orders_leak_no_warning():
    # from K = 190 the two-species partial sums overflow at late times; the
    # suite turns a RuntimeWarning from their deviation norms into an error
    for orders in ([190], [4, 190]):
        header, rows, _ = parse_csv(cmd_phase2d(orders=orders))
        assert f"x_s{orders[-1]}" in header and len(rows) == 121


def test_cmd_phase2d_deterministic():
    assert cmd_phase2d(samples=31, t_end=100.0) == \
        cmd_phase2d(samples=31, t_end=100.0)


def test_cmd_spiral_structure_and_tracking():
    out = cmd_spiral()
    header, rows, _ = parse_csv(out)
    assert header == ["t", "x_num", "y_num", "x_exact", "y_exact",
                      "x_series", "y_series"]
    assert len(rows) == 201
    assert [float(v) for v in rows[0][1:]] == [2.0, 2.0, 2.0, 2.0, 2.0, 2.0]
    num = np.array([[float(r[1]), float(r[2])] for r in rows])
    exact = np.array([[float(r[3]), float(r[4])] for r in rows])
    assert np.max(np.abs(num - exact)) < 1e-6


def test_cmd_spiral_series_breaks_down_by_half_time_unit():
    _, rows, _ = parse_csv(cmd_spiral(order=5))
    row = rows[5]
    assert float(row[0]) == 0.5
    exact = np.array([float(row[3]), float(row[4])])
    ser = np.array([float(row[5]), float(row[6])])
    rel = np.linalg.norm(ser - exact) / np.linalg.norm(exact)
    assert rel > 1.0


def test_cmd_spiral_on_a_fine_grid_is_pinned():
    # 20001 samples, most of them inside a step: the sampled columns keep
    # every printed digit (sha256 taken before sampling gathered by take)
    digest = hashlib.sha256(cmd_spiral(samples=20001).encode()).hexdigest()
    assert digest == "5cd9fed7c82a4df519564dca000d9018cb361513211380814402c5a46cafd02a"


def test_cmd_spiral_validation():
    with pytest.raises(ValueError):
        cmd_spiral(order=0)
    with pytest.raises(ValueError):
        cmd_spiral(samples=1)


def test_cmd_radius_logistic_complex_pair():
    mf = parse_model({"model": "logistic", "params": {"b": 1.0, "a": -3.0},
                      "x0": [0.1], "order": 30})
    out = cmd_radius(mf)
    lines = out.splitlines()
    assert lines[0] == "radius-of-convergence report: model logistic, order K=30"
    assert any(line.startswith("variable x: ratio") for line in lines)
    modline = next(line for line in lines
                   if line.startswith("analytic singularity modulus:"))
    assert "3.25384665670e+00" in modline
    assert "pole" in modline
    disagree = next(line for line in lines
                    if line.startswith("relative disagreement x:"))
    toks = disagree.split()
    ratio_rel, root_rel = float(toks[4]), float(toks[6])
    assert root_rel < 0.10
    assert ratio_rel > 0.5  # consecutive-ratio route fails on complex pairs


def test_cmd_radius_real_pole_both_methods_agree():
    mf = parse_model({"model": "logistic", "params": {"b": 1.0, "a": -3.0},
                      "x0": [1.0], "order": 30})
    out = cmd_radius(mf)
    disagree = next(line for line in out.splitlines()
                    if line.startswith("relative disagreement x:"))
    toks = disagree.split()
    assert float(toks[4]) < 0.10 and float(toks[6]) < 0.10
    assert "4.05465108108e-01" in out


@pytest.mark.parametrize("params, x0, modline", [
    ({"b": 1.0, "a": -1e-200}, 1e-200, "9.21039395075e+02 (pole at t = "
                                       "9.21034037198e+02+3.14159265359e+00i)"),
    ({"b": 1.0, "a": -3.0}, 1e-320, "7.35735335939e+02 (pole at t = "
                                   "7.35728628602e+02+3.14159265359e+00i)"),
], ids=["a-x0-underflows", "b-over-a-x0-overflows"])
def test_cmd_radius_pole_where_q_leaves_the_float_range(params, x0, modline):
    out = cmd_radius(parse_model({"model": "logistic", "params": params, "x0": [x0]}))
    assert f"analytic singularity modulus: {modline}" in out.splitlines()
    assert "nan" not in out


def test_cmd_radius_degenerate_equilibrium():
    mf = parse_model({"model": "logistic", "params": {"b": 3.0, "a": -3.0},
                      "x0": [1.0], "order": 12})
    out = cmd_radius(mf)
    assert "degenerate" in out
    assert "relative disagreement" not in out


@pytest.mark.parametrize("doc", [
    {"model": "spiral", "params": {"a": -0.5}, "x0": [0.0, 0.0]},
    {"model": "logistic", "params": {"b": 1.0, "a": -3.0}, "x0": [0.0]},
    {"model": "terms", "x0": [0.0],
     "terms": [[{"exponents": [1], "coeff": 1.0}, {"exponents": [2], "coeff": -3.0}]]},
], ids=["spiral-origin", "logistic-zero", "terms-zero"])
def test_cmd_radius_equilibrium_start_is_degenerate(doc):
    # f(x0) = 0: the solution is constant whether or not a closed form
    # exists or accepts the state
    out = cmd_radius(parse_model(doc))
    assert out.splitlines()[-1] == ("analytic singularity modulus: inf"
                                    " (degenerate: initial state is an equilibrium)")


def test_cmd_radius_terms_has_no_oracle():
    mf = parse_model({"model": "terms",
                      "terms": [[{"exponents": [1], "coeff": 1.0},
                                 {"exponents": [2], "coeff": -3.0}]],
                      "x0": [1.0], "order": 12})
    out = cmd_radius(mf)
    assert "unavailable" in out


def test_cmd_radius_order_override_and_floor():
    mf = parse_model(LOGISTIC_DOC)  # order 4 in the file
    with pytest.raises(InsufficientOrderError):
        cmd_radius(mf)
    out = cmd_radius(mf, order=30)
    assert "order K=30" in out


def test_cmd_solve_names_more_than_three_variables():
    decay = [[{"exponents": [int(i == j) for j in range(4)], "coeff": -1.0}]
             for i in range(4)]
    out = cmd_solve(parse_model({"model": "terms", "terms": decay,
                                 "x0": [1.0, 2.0, 3.0, 4.0]}))
    header, rows, _ = parse_csv(out)
    assert header == (["t"] + [f"x{i}_num" for i in range(1, 5)]
                      + [f"x{i}_s10" for i in range(1, 5)])
    assert len(rows) == 11


def test_cmd_solve_structure():
    out = cmd_solve(parse_model(LOGISTIC_DOC))
    header, rows, _ = parse_csv(out)
    assert header == ["t", "x_num", "x_s4"]
    assert len(rows) == 11
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 1.0
    exact = logistic_exact(1.0, -3.0, 1.0, 1.0)
    assert abs(float(rows[-1][1]) - exact) / abs(exact) < 1e-8


def test_cmd_solve_preset_and_terms_are_bit_identical():
    preset_doc = dict(LOGISTIC_DOC)
    terms_doc = {"model": "terms",
                 "terms": [[{"exponents": [1], "coeff": 1.0},
                            {"exponents": [2], "coeff": -3.0}]],
                 "x0": [1.0], "order": 4, "grid": {"end": 1.0, "count": 11}}
    out_p = cmd_solve(parse_model(preset_doc))
    out_t = cmd_solve(parse_model(terms_doc))
    assert out_p == out_t
    assert out_p == cmd_solve(parse_model(preset_doc))


def test_cmd_solve_raises_on_finite_time_escape():
    mf = parse_model({"model": "spiral", "params": {"a": 0.5},
                      "x0": [2.0, 2.0], "grid": {"end": 0.2, "count": 5}})
    with pytest.raises(IntegrationFailedError) as info:
        cmd_solve(mf)
    assert "blew-up" in str(info.value)


def test_cmd_fixed_points_two_species():
    mf = parse_model({
        "model": "two-species",
        "params": {"b1": 0.1, "b2": 0.08, "a11": -0.0014, "a12": -0.0012,
                   "a21": -0.0009, "a22": -0.001},
        "x0": [4.0, 10.0],
    })
    out = cmd_fixed_points(mf)
    lines = out.splitlines()
    assert lines[0] == "fixed points found: 4"
    assert lines[1].split()[:2] == ["x", "y"]
    body = "\n".join(lines[2:])
    assert "12.5" in body and "68.75" in body
    assert body.count("saddle") == 2
    assert "stable-node" in body and "unstable-node" in body
    assert "note:" not in out


def test_cmd_fixed_points_center_note():
    mf = parse_model({"model": "spiral", "params": {"a": -0.5},
                      "x0": [2.0, 2.0]})
    out = cmd_fixed_points(mf)
    assert out.splitlines()[0] == "fixed points found: 1"
    assert "center-linear" in out
    assert "note:" in out


def test_float_format_round_trip_precision():
    # 12 significant digits: parsing back is within 1e-11 relative
    vals = [1.0 / 3.0, 12.5, 68.75, 4870.905403990301, 1e-9, -0.0033]
    for v in vals:
        s = "{:.11e}".format(v)
        assert abs(float(s) - v) <= 1e-11 * abs(v)


def test_csv_cells_need_no_quoting():
    # a cell is a _fmt number (inf and nan too), "0" or "1", a fixed header
    # or a _var_names name: none holds a comma, a quote or a line break, so
    # _csv writes what the csv module writes for the same cells
    values = [0.0, -0.0, 1 / 3, -1e-300, 1e308, math.inf, -math.inf, math.nan]
    pairs = np.array([values, values[::-1]]).T  # a 2-D column holds two
    flags = np.arange(len(values)) % 3 == 0
    header = [name for n in (1, 2, 3, 4, 12) for name in _var_names(n)]
    rows = [header] + [[_fmt(v), _fmt(p), _fmt(q), str(int(f))]
                       for v, (p, q), f in zip(values, pairs.tolist(), flags)]
    text = _csv(header, [values, pairs, flags])
    for out in (cmd_phase2d(orders=[4, 10]), cmd_spiral(),
                cmd_solve(parse_model(LOGISTIC_DOC))):
        lines = [line for line in out.splitlines(keepends=True) if not line.startswith("#")]
        text += "".join(lines)
        rows += [line.removesuffix("\n").split(",") for line in lines]
    assert not set(",\"\r\n").intersection("".join(cell for row in rows for cell in row))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert text == buf.getvalue()


GOLDEN = Path(__file__).parent / "golden"


def test_one_debug_line_per_command(caplog):
    # each cmd_* logs its name, the lines and the UTF-8 bytes of its text;
    # logging at DEBUG leaves the text as the golden file has it
    calls = {
        "table1": lambda: cmd_table1(),
        "phase2d": lambda: cmd_phase2d(),
        "spiral": lambda: cmd_spiral(),
        "radius": lambda: cmd_radius(load_model(str(GOLDEN / "spiral.json")), order=30),
        "solve": lambda: cmd_solve(load_model(str(GOLDEN / "logistic.json"))),
        "fixed-points": lambda: cmd_fixed_points(load_model(str(GOLDEN / "two_species.json"))),
    }
    caplog.set_level(logging.DEBUG, logger="seriesdyn")
    for name, call in calls.items():
        caplog.clear()
        text = call()
        golden = (GOLDEN / f"{name}.out").read_bytes()
        assert text.encode() == golden
        lines = [r.getMessage() for r in caplog.records if r.name == "seriesdyn.report"]
        command, count = name.replace("-", "_"), golden.count(b"\n")
        assert lines == [f"cmd_{command}: {count} lines, {len(golden)} bytes"]
