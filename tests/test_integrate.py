"""Adaptive Runge-Kutta integrator: accuracy against closed forms,
dense output, statuses, and determinism."""

import hashlib
import importlib
import logging
import math
import warnings

import numpy as np
import pytest

from seriesdyn import (
    DimensionError,
    InitialValueProblem,
    IntegrationConfig,
    Logistic,
    Polynomial,
    PolyVectorField,
    RangeError,
    Spiral,
    Trajectory,
    TwoSpecies,
    dp5,
    eval_field,
    integrate,
    logistic_exact,
    preset_ivp,
    sample,
    spiral_exact,
)

LOGISTIC = preset_ivp(Logistic(1.0, -3.0), [1.0])
TWOSPECIES = preset_ivp(TwoSpecies.reference(), [4.0, 10.0])


def test_logistic_tracks_closed_form():
    traj = integrate(LOGISTIC, 1.0)
    assert traj.status == "completed"
    ts = np.linspace(0.0, 1.0, 101)
    num = sample(traj, ts)[:, 0]
    exact = np.array([logistic_exact(1.0, -3.0, 1.0, float(t)) for t in ts])
    assert np.max(np.abs(num - exact) / np.abs(exact)) < 1e-8


def test_spiral_tracks_closed_form():
    traj = integrate(preset_ivp(Spiral(-0.5), [2.0, 2.0]), 20.0)
    assert traj.status == "completed"
    ts = np.linspace(0.0, 20.0, 201)
    num = sample(traj, ts)
    exact = np.array([spiral_exact(-0.5, 2.0, 2.0, float(t)) for t in ts])
    rel = np.linalg.norm(num - exact, axis=1) / np.linalg.norm(exact, axis=1)
    assert np.max(rel) < 1e-6
    assert np.max(np.abs(num - exact)) < 1e-6


def test_two_species_reference_endpoint():
    # frozen from this integrator and confirmed by two independent
    # integrations (different method and fixed-step) to all printed digits
    traj = integrate(TWOSPECIES, 300.0)
    assert traj.status == "completed"
    np.testing.assert_allclose(traj.states[-1],
                               [17.251378456980948, 64.1686732691449],
                               rtol=1e-8)
    assert traj.t_end == 300.0


def test_two_species_reaches_attractor_eventually():
    # the slow eigenvalue at the stable node is about -0.0033, so the
    # approach takes on the order of a thousand time units
    traj = integrate(TWOSPECIES, 1700.0)
    assert traj.status == "completed"
    final = traj.states[-1]
    assert abs(final[0] - 12.5) / 12.5 < 0.005
    assert abs(final[1] - 68.75) / 68.75 < 0.005


def test_sample_interior_uses_dense_output():
    traj = integrate(LOGISTIC, 1.0)
    got = sample(traj, [0.05])[0, 0]
    exact = logistic_exact(1.0, -3.0, 1.0, 0.05)
    assert abs(got - exact) / abs(exact) < 1e-8


def test_sample_hits_nodes_exactly():
    traj = integrate(LOGISTIC, 1.0)
    mid = len(traj.ts) // 2
    got = sample(traj, [traj.ts[0], traj.ts[mid], traj.ts[-1]])
    np.testing.assert_array_equal(got[0], traj.states[0])
    np.testing.assert_array_equal(got[1], traj.states[mid])
    np.testing.assert_array_equal(got[2], traj.states[-1])


def test_sample_rejects_out_of_range():
    traj = integrate(LOGISTIC, 1.0)
    with pytest.raises(RangeError):
        sample(traj, [-0.1])
    with pytest.raises(RangeError):
        sample(traj, [0.5, 1.5])


def test_error_decreases_as_tolerances_shrink():
    exact = logistic_exact(1.0, -3.0, 1.0, 1.0)
    errs = []
    for k in range(4):
        cfg = IntegrationConfig(rel_tol=1e-6 / 2 ** k, abs_tol=1e-8 / 2 ** k)
        traj = integrate(LOGISTIC, 1.0, cfg)
        errs.append(abs(traj.states[-1, 0] - exact))
    assert all(a > b for a, b in zip(errs, errs[1:])), errs
    assert errs[-1] < errs[0] / 4


def test_blowup_at_spiral_branch_point():
    # a=+0.5 from (2,2) escapes at t_c = 0.125; the radius grows like
    # (t_c - t)^(-1/2), so escape shows up as step-size underflow just
    # below t_c with the state far beyond its initial scale
    traj = integrate(preset_ivp(Spiral(0.5), [2.0, 2.0]), 0.2)
    assert traj.status == "blew-up"
    assert 0.1249 < traj.t_end < 0.125
    assert np.max(np.abs(traj.states[-1])) > 1e3


def test_blowup_at_logistic_pole():
    # growth with a > 0: simple pole at ln(3), norm crosses the threshold
    ivp = preset_ivp(Logistic(1.0, 0.5), [1.0])
    traj = integrate(ivp, 2.0)
    assert traj.status == "blew-up"
    assert abs(traj.t_end - math.log(3.0)) < 1e-6
    assert np.max(np.abs(traj.states[-1])) > 1e8


def test_stiff_abort_when_budget_exhausted():
    traj = integrate(TWOSPECIES, 300.0, IntegrationConfig(max_steps=5))
    assert traj.status == "stiff-abort"
    assert traj.t_end < 300.0


def test_trajectory_shapes_and_read_only():
    traj = integrate(LOGISTIC, 1.0)
    n_nodes = len(traj.ts)
    assert traj.states.shape == (n_nodes, 1)
    assert traj.derivs.shape == (n_nodes, 1)
    assert traj.step_sizes.shape == (n_nodes - 1,)
    assert traj.error_estimates.shape == (n_nodes - 1,)
    assert traj.dimension == 1
    with pytest.raises(ValueError):
        traj.states[0, 0] = 99.0
    with pytest.raises(ValueError):
        traj.ts[0] = -1.0


def test_trajectory_stores_field_derivatives():
    # every stored slope is f at the stored state, to the last bit: the
    # 7th stage's argument is the accepted state (FSAL)
    for ivp, t_end in [(TWOSPECIES, 10.0), (LOGISTIC, 1.0),
                       (preset_ivp(Spiral(-0.5), [2.0, 2.0]), 20.0),
                       (preset_ivp(Spiral(-0.5), [-0.0, 1.0]), 20.0)]:
        traj = integrate(ivp, t_end)
        for state, deriv in zip(traj.states, traj.derivs):
            assert deriv.tobytes() == eval_field(ivp.field, state).tobytes()


def test_integration_is_deterministic():
    a = integrate(TWOSPECIES, 50.0)
    b = integrate(TWOSPECIES, 50.0)
    np.testing.assert_array_equal(a.ts, b.ts)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.error_estimates, b.error_estimates)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegrationConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegrationConfig(abs_tol=-1e-9)
    with pytest.raises(ValueError):
        IntegrationConfig(max_steps=0)
    with pytest.raises(ValueError):
        integrate(LOGISTIC, 0.0)
    with pytest.raises(ValueError):
        integrate(LOGISTIC, -1.0)


def test_max_steps_must_be_an_integer():
    for bad in (math.nan, math.inf, 2.5, 10.0, True, "10", 0, -3):
        with pytest.raises(ValueError, match="max_steps must be an integer >= 1"):
            IntegrationConfig(max_steps=bad)
    assert IntegrationConfig(max_steps=np.int64(5)).max_steps == 5
    traj = integrate(TWOSPECIES, 300.0, IntegrationConfig(max_steps=np.int32(5)))
    assert traj.status == "stiff-abort"


def test_rejected_steps_are_retried():
    # the sharp logistic front makes the controller overshoot and reject;
    # the numpy loop counts its rejections, and every array, the status
    # and the count must be the integrator's
    ivp = preset_ivp(Logistic(50.0, -50.0), [1e-6])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(ivp, 1.0)
    ts, ys, fs, hs, errs, status, rejected, non_finite, calls = reference_integrate(ivp, 1.0)
    assert rejected >= 1 and non_finite == 0
    assert traj.status == status == "completed"
    assert_same_bits(traj, ts, ys, fs, hs, errs)
    exact = np.array([logistic_exact(50.0, -50.0, 1e-6, float(t)) for t in traj.ts])
    np.testing.assert_allclose(traj.states[:, 0], exact, rtol=1e-6, atol=0.0)
    assert traj.rejected_steps == rejected
    # f(x0), the starting-step probe, then six stages per attempt
    accepted = len(traj.ts) - 1
    assert traj.rhs_evals == calls == 1 + 1 + 6 * (accepted + traj.rejected_steps)


def test_rejection_after_an_accepted_step_restarts_from_f_at_the_state():
    # a rejected attempt overwrites the last stage; the retry must still
    # start from f at the accepted state, not at the rejected trial point
    traj = integrate(preset_ivp(Logistic(200.0, -200.0), [1e-9]), 1.0)
    assert traj.status == "completed"
    exact = np.array([logistic_exact(200.0, -200.0, 1e-9, float(t)) for t in traj.ts])
    # abs_tol / x0 = 1e-3 is the relative accuracy the controller can hold
    np.testing.assert_allclose(traj.states[:, 0], exact, rtol=1e-3, atol=0.0)
    assert traj.rejected_steps >= 1


def test_non_finite_initial_slope_stops_at_once():
    # f(x0) = 10^400 - 10^401 is inf - inf: no step can be sized, so the
    # run ends at t = 0 instead of spending its whole step budget
    p = Polynomial.from_coeffs({(400,): 1.0, (401,): -1.0}, 1)
    ivp = InitialValueProblem(PolyVectorField((p,)), [10.0])
    traj = integrate(ivp, 1.0, IntegrationConfig(max_steps=1000))
    assert traj.rhs_evals <= 2
    assert traj.status == "stiff-abort"
    assert traj.stop_reason == "no_first_step"
    assert traj.ts.tolist() == [0.0]


def test_integrate_from_an_overflowing_state_leaks_no_warning():
    # the cubic terms overflow at x = 1e120; no RuntimeWarning escapes
    traj = integrate(preset_ivp(Spiral(-0.5), [1e120, 0.0]), 1.0)
    assert traj.status == "stiff-abort"
    assert traj.derivs[0, 0] == -np.inf


def test_steps_concentrate_near_singularity():
    # approaching the branch point the controller must shrink the step
    traj = integrate(preset_ivp(Spiral(0.5), [2.0, 2.0]), 0.2)
    assert traj.step_sizes[-1] < traj.step_sizes[0] / 100.0


def test_config_rejects_non_finite_tolerances():
    # a NaN tolerance used to be accepted and made every step a rejection
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            IntegrationConfig(rel_tol=bad)
        with pytest.raises(ValueError):
            IntegrationConfig(abs_tol=bad)


def test_relative_tolerance_floor():
    # rel_tol = 1e-300 used to leak RuntimeWarnings from the starting
    # step and then spend the whole step budget at t = 0
    floor = 100 * np.finfo(float).eps
    for rel in (1e-300, floor / 2, np.nextafter(floor, 0.0)):
        with pytest.raises(ValueError, match="rel_tol must be at least"):
            IntegrationConfig(rel_tol=rel, abs_tol=1e-300)
    assert importlib.import_module("seriesdyn.model")._REL_TOL_FLOOR == floor
    cfg = IntegrationConfig(rel_tol=floor, abs_tol=1e-300)
    for ivp, t_end in ((LOGISTIC, 1.0), (TWOSPECIES, 300.0)):
        traj = integrate(ivp, t_end, cfg)
        assert traj.status == "completed" and traj.t_end == t_end
    # a zero component makes (f0 / abs_tol) ** 2 overflow in the
    # starting-step heuristic; the first step used to be 0, so the run
    # ended 'stiff-abort' at t = 0, also at the default rel_tol
    ivp = preset_ivp(Spiral(-0.5), [0.0, 1e-5])
    for start_cfg in (cfg, IntegrationConfig(abs_tol=1e-200)):
        traj = integrate(ivp, 1.0, start_cfg)
        assert traj.status == "completed" and traj.t_end == 1.0
        exact = [spiral_exact(-0.5, 0.0, 1e-5, t) for t in traj.ts]
        assert np.max(np.abs(traj.states - exact)) < 1e-8 * 1e-5


def test_tolerances_are_stored_as_floats():
    # numpy tolerances would run the step loop on numpy scalars, which
    # warn where the float norm overflows quietly, at the same bits
    floor = 100 * np.finfo(float).eps
    cfg = IntegrationConfig(rel_tol=floor, abs_tol=np.float64(1e-300))
    assert type(cfg.rel_tol) is float and type(cfg.abs_tol) is float
    assert type(IntegrationConfig(rel_tol=1, abs_tol=1).abs_tol) is float
    float_cfg = IntegrationConfig(rel_tol=float(floor), abs_tol=1e-300)
    for ivp, t_end in ((TWOSPECIES, 300.0), (preset_ivp(Spiral(-0.5), [0.0, 1e-5]), 1.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(ivp, t_end, cfg)
        ref = integrate(ivp, t_end, float_cfg)
        assert traj.status == ref.status == "completed"
        for name in ("ts", "states", "derivs", "step_sizes", "error_estimates"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(ref, name))


def test_equilibrium_start_stays_put():
    # f(x0) = 0: the starting step takes its smallest scale, 1e-6, and
    # every step with a zero error estimate grows by the largest factor
    for ivp in (preset_ivp(Logistic(1.0, -3.0), [0.0]),
                preset_ivp(TwoSpecies.reference(), [0.0, 0.0])):
        traj = integrate(ivp, 1.0)
        assert traj.status == "completed" and traj.t_end == 1.0
        assert np.all(traj.states == ivp.x0)
        assert traj.step_sizes[0] == 1e-6
        assert len(traj.step_sizes) < 20


def test_slope_that_overflows_the_norm_gives_no_first_step():
    # f = 1e300 from x0 = 1: f(x0) / (rel_tol * |x0|) overflows the norm,
    # so the first step is 0 and the run ends at t = 0, without a warning
    p = Polynomial.from_coeffs({(0,): 1e300}, 1)
    ivp = InitialValueProblem(PolyVectorField((p,)), [1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(ivp, 1.0)
    assert traj.status == "stiff-abort"
    assert traj.stop_reason == "no_first_step"
    assert traj.ts.tolist() == [0.0]
    assert traj.rhs_evals == 1  # f(x0) only: the first step is zero before the probe


def test_integrate_rejects_non_finite_t_end():
    # NaN used to return a one-point "completed" trajectory
    with pytest.raises(ValueError):
        integrate(LOGISTIC, math.nan)
    with pytest.raises(ValueError):
        integrate(LOGISTIC, math.inf)


def test_sample_rejects_nan_times():
    traj = integrate(LOGISTIC, 1.0)
    with pytest.raises(RangeError):
        sample(traj, [math.nan])
    with pytest.raises(RangeError):
        sample(traj, [0.5, math.nan])


def test_sample_takes_a_scalar_or_one_dimension_of_times():
    # a (2, 2) array of times used to give a (2, 2, 2) array of states
    traj = integrate(LOGISTIC, 1.0)
    with pytest.raises(ValueError, match=r"scalar or 1-D, got shape \(2, 2\)"):
        sample(traj, [[0.1, 0.2], [0.3, 0.4]])
    np.testing.assert_array_equal(sample(traj, 0.5), sample(traj, [0.5]))
    assert sample(traj, 0.5).shape == (1, 1)


def scalar_hermite(traj, times):
    """One point at a time: node hits return the stored state, interior
    points the cubic Hermite blend of the bracketing step."""
    ts = traj.ts
    out = np.empty((len(times), traj.dimension))
    idx = np.clip(np.searchsorted(ts, times, side="right") - 1, 0, len(ts) - 2)
    for m, (t, i) in enumerate(zip(times, idx)):
        if t == ts[i]:
            out[m] = traj.states[i]
            continue
        if t == ts[i + 1]:
            out[m] = traj.states[i + 1]
            continue
        h = ts[i + 1] - ts[i]
        th = (t - ts[i]) / h
        th2 = th * th
        th3 = th2 * th
        h00 = 2 * th3 - 3 * th2 + 1
        h10 = th3 - 2 * th2 + th
        h01 = -2 * th3 + 3 * th2
        h11 = th3 - th2
        out[m] = (h00 * traj.states[i] + h10 * h * traj.derivs[i]
                  + h01 * traj.states[i + 1] + h11 * h * traj.derivs[i + 1])
    return out


def test_sample_equals_scalar_hermite_bit_for_bit():
    # bytes, since assert_array_equal would let -0.0 pass for 0.0
    rng = np.random.default_rng(5)
    for ivp, t_end in ((LOGISTIC, 1.0), (TWOSPECIES, 300.0),
                       (preset_ivp(Spiral(-0.5), [2.0, 2.0]), 20.0),
                       (preset_ivp(Spiral(0.5), [2.0, 2.0]), 1.0),  # blows up near 0.125
                       (preset_ivp(Spiral(-0.5), [-0.0, 1.0]), 20.0)):
        traj = integrate(ivp, t_end)
        times = np.concatenate([traj.ts[::4], [traj.ts[0], traj.ts[-1]],
                                rng.uniform(0.0, traj.t_end, 300)])
        rng.shuffle(times)
        got = sample(traj, times)
        assert got.shape == (len(times), ivp.dimension)
        assert got.tobytes() == scalar_hermite(traj, times).tobytes()
        for t in (traj.ts[0], traj.ts[-1], float(times[0])):
            assert sample(traj, t).tobytes() == scalar_hermite(traj, [t]).tobytes()
        assert sample(traj, []).shape == (0, ivp.dimension)
    # the start's -0.0 comes back from every node hit on it
    traj = integrate(preset_ivp(Spiral(-0.5), [-0.0, 1.0]), 20.0)
    assert np.signbit(sample(traj, [0.0, 0.0])[:, 0]).all()


# sha256 of the bytes of ``sample`` on the grids of the ``orbits``
# benchmark, taken before the sampling was vectorised by gathers
SAMPLE_SHA256 = {
    "spiral": "e8571f956b1fa453880f4e27bbb8c62ab17764f6f1a501f72209ad8a6906e824",
    "two-species": "f815df03cc3c966a539d01304693014affe57fa2ac4e5b374ae3a4e162fc506c",
    "logistic": "3d1cfcc3792adbd3a8cb5c72f5b986df1f6eeab05c31e8a856326feb112f3b14",
    "blowup": "7ea858ff159149dcbdf9fee6bf3f31d61e570ad4a6dbd0180f4e637d2bc05b55",
}


@pytest.mark.parametrize("name, ivp, t_end, points", [
    ("spiral", preset_ivp(Spiral(-0.5), [2.0, 2.0]), 20.0, 2001),
    ("two-species", TWOSPECIES, 2000.0, 2001),  # once per time unit
    ("logistic", LOGISTIC, 1.0, 1001),
    ("blowup", preset_ivp(Spiral(0.5), [2.0, 2.0]), 1.0, 1001),  # to where it stops
])
def test_sample_bits_are_pinned_on_the_orbits_grids(name, ivp, t_end, points):
    traj = integrate(ivp, t_end)
    got = sample(traj, np.linspace(0.0, traj.t_end, points))
    assert hashlib.sha256(got.tobytes()).hexdigest() == SAMPLE_SHA256[name]


def test_sample_one_node_trajectory():
    traj = Trajectory(ts=[0.0], states=[[2.0]], derivs=[[1.0]], step_sizes=[],
                      error_estimates=[], status="stiff-abort")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(sample(traj, [0.0, 0.0]), [[2.0], [2.0]])
    assert sample(traj, []).shape == (0, 1)


def test_sample_of_a_hand_built_trajectory_does_not_depend_on_memory_order():
    traj = integrate(preset_ivp(Spiral(-0.5), [2.0, 2.0]), 20.0)
    fortran = Trajectory(ts=traj.ts, states=np.asfortranarray(traj.states),
                         derivs=np.asfortranarray(traj.derivs), step_sizes=traj.step_sizes,
                         error_estimates=traj.error_estimates, status=traj.status)
    times = np.linspace(0.0, 20.0, 333)
    assert sample(fortran, times).tobytes() == sample(traj, times).tobytes()


def test_trajectory_rejects_a_malformed_record():
    good = dict(ts=[0.0, 0.5, 1.0], states=[[1.0], [2.0], [3.0]],
                derivs=[[1.0], [1.0], [1.0]], step_sizes=[0.5, 0.5],
                error_estimates=[0.1, 0.1], status="completed")
    assert sample(Trajectory(**good), 0.25).shape == (1, 1)
    for name, bad in [("derivs", [[1.0], [1.0]]),  # sample raised IndexError
                      ("states", [1.0, 2.0, 3.0]),
                      ("states", [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]),
                      ("states", np.empty((3, 0))),
                      ("step_sizes", [0.5]),
                      ("error_estimates", [0.1, 0.1, 0.1]),
                      ("ts", [[0.0, 0.5, 1.0]])]:
        with pytest.raises(DimensionError):
            Trajectory(**{**good, name: bad})
    with pytest.raises(DimensionError):
        Trajectory(ts=[], states=np.empty((0, 1)), derivs=np.empty((0, 1)),
                   step_sizes=[], error_estimates=[], status="completed")
    # decreasing times made sample raise "must lie in [1.0, 0.0]"
    for ts in ([1.0, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, math.nan, 1.0],
               [0.0, 0.5, math.inf], [-math.inf, 0.0, 1.0]):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            Trajectory(**{**good, "ts": ts})


def left_to_right(weights, rows):
    """w0 * k0 + w1 * k1 + ..., summed left to right over every weight,
    zeros included, one IEEE multiply and add per component."""
    acc = weights[0] * rows[0]
    for w, k in zip(weights[1:], rows[1:]):
        acc = acc + w * k
    return acc


def numpy_product(weights, rows):
    """The same weighted sum as one numpy ``@`` product: a BLAS ``dgemv``,
    whose blocking and fused multiply-adds depend on the CPU kernel."""
    return np.array(weights) @ rows


def reference_norm(q):
    """RMS of q: the square root of ``np.mean`` of the squares, or, where
    they overflow, ``math.hypot`` of the terms over sqrt(n)."""
    acc = np.mean(q ** 2)
    return float(np.sqrt(acc)) if np.isfinite(acc) else math.hypot(*q) / math.sqrt(len(q))


def reference_first_step(rhs, y, f, t_end, cfg):
    """The first step of Hairer, Norsett & Wanner (Solving ODEs I, II.4)
    in numpy, each scale an RMS norm weighted by abs_tol + rel_tol * |y|:
    zero where f(y) is not finite or overflows the norm, else sized from
    d0 = |y|, d1 = |f| and d2 = |f(y + h0 f) - f| / h0."""
    if not np.all(np.isfinite(f)):
        return 0.0
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y)
    with np.errstate(over="ignore"):
        d0, d1 = reference_norm(y / scale), reference_norm(f / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        if h0 == 0.0:
            return 0.0
        h0 = min(h0, t_end)
        d2 = reference_norm((rhs(y + h0 * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end)


# Dormand-Prince 5th-order weights (the 7th stage's weight is zero)
B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)


def reference_integrate(ivp, t_end, cfg=None, weighted=left_to_right):
    """The DP5 step loop with numpy on every value: f through
    ``eval_field`` per stage, the weighted sums of stages through
    ``weighted``, the error norm through ``np.mean`` and the blow-up test
    through ``np.max(np.abs(y))``; the new state is the 5th-order sum
    and the accepted f is copied out of the stage array (FSAL).  Returns
    the accepted nodes, steps and error norms, the status, and three
    counts: the rejected attempts, the attempts whose error norm was not
    finite, and the calls of f."""
    cfg = cfg or IntegrationConfig()
    calls = rejected = non_finite = 0

    def rhs(y):
        nonlocal calls
        calls += 1
        return eval_field(ivp.field, y)

    t = 0.0
    y = np.array(ivp.x0, dtype=float)
    f = rhs(y)
    ts, ys, fs, hs, errs = [t], [y], [f], [], []
    status = "completed"
    h = reference_first_step(rhs, y, f, t_end, cfg)
    err_prev = 1.0
    attempts = 0
    k = np.empty((7, len(y)))
    escape_scale = 1e3 * (1.0 + float(np.max(np.abs(y))))
    while t < t_end:
        if attempts >= cfg.max_steps:
            status = "stiff-abort"
            break
        h = min(h, t_end - t)
        if t + h == t:
            status = "blew-up" if np.max(np.abs(y)) > escape_scale else "stiff-abort"
            break
        attempts += 1
        k[0] = f
        for s in range(1, 7):
            k[s] = rhs(y + h * weighted(dp5._A[s], k[:s]))
        y_new = y + h * weighted(B5, k[:6])
        err_vec = h * weighted(dp5._E, k)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        non_finite += not np.isfinite(err)
        if np.isfinite(err) and err <= 1.0:
            t += h
            y = y_new
            f = k[6].copy()
            ts.append(t)
            ys.append(y)
            fs.append(f)
            hs.append(h)
            errs.append(err)
            if np.max(np.abs(y)) > dp5._BLOWUP_NORM:
                status = "blew-up"
                break
            factor = (dp5._SAFETY * err ** (-dp5._ALPHA) * err_prev ** dp5._BETA if err > 0
                      else dp5._MAX_FACTOR)
            h *= min(dp5._MAX_FACTOR, max(dp5._MIN_FACTOR, factor))
            err_prev = max(err, 1e-10)
        else:
            rejected += 1
            shrink = dp5._SAFETY * err ** (-0.2) if np.isfinite(err) else 0.1
            h *= max(0.1, min(1.0, shrink))
    return ts, ys, fs, hs, errs, status, rejected, non_finite, calls


def assert_same_bits(traj, ts, ys, fs, hs, errs):
    """The trajectory's arrays are the reference loop's, byte for byte
    (``assert_array_equal`` would let -0.0 pass for 0.0)."""
    for name, ref in (("ts", ts), ("states", ys), ("derivs", fs), ("step_sizes", hs),
                      ("error_estimates", errs)):
        assert getattr(traj, name).tobytes() == np.array(ref).tobytes(), name


def numpy_reference(ivp, t_end, cfg=None):
    """The same loop with every weighted sum a numpy ``@`` product."""
    return reference_integrate(ivp, t_end, cfg, weighted=numpy_product)


def random_ivp(n, seed):
    """A damped random quadratic system in n variables."""
    rng = np.random.default_rng(seed)
    comps = []
    for i in range(n):
        terms = {tuple(int(j == i) for j in range(n)): -1.0}
        for _ in range(3):
            e = tuple(int(v) for v in rng.integers(0, 3, n))
            terms[e] = terms.get(e, 0.0) + float(rng.normal())
        comps.append(Polynomial.from_coeffs(terms, n))
    return InitialValueProblem(PolyVectorField(tuple(comps)), rng.uniform(-1, 1, n))


STEP_LOOP_CASES = [
    (LOGISTIC, 1.0, None),
    (preset_ivp(Logistic(1.0, -3.0), [0.1]), 5.0, None),
    (preset_ivp(Spiral(-0.5), [2.0, 2.0]), 20.0, None),
    (preset_ivp(Spiral(0.5), [2.0, 2.0]), 1.0, None),
    (TWOSPECIES, 2000.0, None),
    (preset_ivp(Logistic(50.0, -50.0), [1e-6]), 1.0, None),
    (TWOSPECIES, 300.0, IntegrationConfig(max_steps=5)),
    (preset_ivp(Spiral(-0.5), [1e120, 0.0]), 1.0, None),
    (random_ivp(3, 31), 5.0, None),
    (random_ivp(7, 71), 5.0, None),
    (InitialValueProblem(PolyVectorField((Polynomial.from_coeffs({(0,): 1e300}, 1),)),
                         [1.0]), 1.0, None),
    # x' = 1 - x from 0: d0 = 0 takes the 1e-6 first guess, and the first
    # step is its 100-fold clamp, 1e-4
    (InitialValueProblem(PolyVectorField((Polynomial.from_coeffs({(0,): 1.0, (1,): -1.0}, 1),)),
                         [0.0]), 2.0, None),
    (LOGISTIC, 0.004, None),  # the first guess, 0.005, is clamped to t_end
    (preset_ivp(Spiral(-0.5), [-0.0, 1.0]), 20.0, None),
]
STEP_LOOP_IDS = ["logistic", "logistic-0.1", "spiral-decay", "spiral-blowup",
                 "two-species-2000", "logistic-rejects", "max-steps", "overflow-start",
                 "random-3d", "random-7d", "norm-overflow-start", "zero-start-clamped",
                 "logistic-short", "spiral-negative-zero"]


@pytest.mark.parametrize("ivp, t_end, cfg", STEP_LOOP_CASES, ids=STEP_LOOP_IDS)
def test_step_loop_matches_numpy_reference_bit_for_bit(ivp, t_end, cfg):
    traj = integrate(ivp, t_end, cfg)
    ts, ys, fs, hs, errs, status, *_ = reference_integrate(ivp, t_end, cfg)
    assert traj.status == status
    assert_same_bits(traj, ts, ys, fs, hs, errs)


STATUS_OF_STOP_REASON = {"t_end": {"completed"}, "max_steps": {"stiff-abort"},
                         "no_first_step": {"stiff-abort"}, "blowup_norm": {"blew-up"},
                         "step_underflow": {"blew-up", "stiff-abort"}}


@pytest.mark.parametrize("ivp, t_end, cfg", STEP_LOOP_CASES, ids=STEP_LOOP_IDS)
def test_counts_and_storage_match_the_reference(ivp, t_end, cfg):
    # rhs_evals must equal the reference loop's count of calls of f:
    # f(x0), the starting-step probe (skipped where the first step is
    # zero before it), six stages per attempt
    traj = integrate(ivp, t_end, cfg)
    *_, rejected, non_finite, calls = reference_integrate(ivp, t_end, cfg)
    accepted = len(traj.step_sizes)
    assert traj.rejected_steps == rejected
    assert traj.rhs_evals == calls
    assert calls - 6 * (accepted + rejected) in (1, 2)
    assert traj.status in STATUS_OF_STOP_REASON[traj.stop_reason]
    # the flat lists come back as C-contiguous read-only (N, n) arrays
    n, nodes = ivp.dimension, accepted + 1
    for arr in (traj.states, traj.derivs):
        assert arr.shape == (nodes, n) and arr.dtype == np.float64
        assert arr.flags.c_contiguous and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[-1, -1] = 0.0
    assert traj.ts.shape == (nodes,)
    np.testing.assert_array_equal(traj.states[0], ivp.x0)
    np.testing.assert_array_equal(traj.derivs[0], eval_field(ivp.field, ivp.x0))


def test_stop_reasons():
    cases = [(LOGISTIC, 1.0, None, "completed", "t_end"),
             (TWOSPECIES, 300.0, IntegrationConfig(max_steps=5), "stiff-abort", "max_steps"),
             (preset_ivp(Logistic(1.0, 0.5), [1.0]), 2.0, None, "blew-up", "blowup_norm"),
             (preset_ivp(Spiral(0.5), [2.0, 2.0]), 1.0, None, "blew-up", "step_underflow"),
             (preset_ivp(Spiral(-0.5), [1e120, 0.0]), 1.0, None, "stiff-abort",
              "no_first_step")]
    for ivp, t_end, cfg, status, reason in cases:
        traj = integrate(ivp, t_end, cfg)
        assert (traj.status, traj.stop_reason) == (status, reason)
    assert Trajectory(ts=[0.0], states=[[1.0]], derivs=[[0.0]], step_sizes=[],
                      error_estimates=[], status="completed").stop_reason is None


def test_one_debug_line_per_call_names_the_stop_reason(caplog):
    caplog.set_level(logging.DEBUG, logger="seriesdyn.dp5")
    traj = integrate(TWOSPECIES, 300.0, IntegrationConfig(max_steps=5))
    assert [r.getMessage() for r in caplog.records if r.name == "seriesdyn.dp5"] == [
        f"integrate: stiff-abort (max_steps) at t = {traj.t_end!r}, 5 accepted, "
        f"0 rejected, {traj.rhs_evals} rhs evaluations"]


@pytest.mark.parametrize("ivp, t_end, cfg", STEP_LOOP_CASES, ids=STEP_LOOP_IDS)
def test_step_loop_is_within_rounding_of_the_blas_reference(ivp, t_end, cfg):
    # The stage sums as BLAS products round differently (fused
    # multiply-adds, blocked order), but only in the last bits: the same
    # steps are accepted and the end points agree to rounding
    traj = integrate(ivp, t_end, cfg)
    ts, ys, fs, hs, errs, status, *_ = numpy_reference(ivp, t_end, cfg)
    assert traj.status == status
    if cfg is None:  # five steps from t = 0 are all rounding: no count to keep
        assert len(traj.step_sizes) == len(hs)
    if status == "completed":
        np.testing.assert_allclose(traj.states[-1], ys[-1], rtol=1e-12, atol=0.0)
    if status == "blew-up":
        assert abs(traj.t_end - ts[-1]) < 1e-10


def large_field(rng):
    """Three components of 1330 terms each (every monomial of degree <= 18
    in three variables) plus x^400."""
    exps = [(i, j, k) for i in range(19) for j in range(19 - i) for k in range(19 - i - j)]
    return PolyVectorField(tuple(
        Polynomial.from_coeffs({**{e: float(rng.uniform(-2, 2)) for e in exps},
                                (400, 0, 0): 0.5}, 3) for _ in range(3)))


def test_large_field_attempt_is_flat_and_matches_the_reference():
    # the step loop inlines f six times: about 32 000 lines, none nested
    rng = np.random.default_rng(5)
    ivp = InitialValueProblem(large_field(rng), rng.uniform(-0.5, 0.5, 3))
    cfg = IntegrationConfig(max_steps=3)
    traj = integrate(ivp, 1.0, cfg)
    ts, ys, fs, hs, errs, status, *_ = reference_integrate(ivp, 1.0, cfg)
    assert traj.status == status == "stiff-abort"
    assert_same_bits(traj, ts, ys, fs, hs, errs)


def test_power_overflow_mid_attempt_rejects_the_attempt():
    # f(5.8) = 1e-300 * 5.8^400 is finite, but a stage that lands past
    # 5.9, where x^400 overflows, gives inf and nan without raising: the
    # error is not finite and the attempt is rejected.  The numpy loop
    # counts those attempts; the integrator rejects the same ones
    p = Polynomial.from_coeffs({(400,): 1e-300}, 1)
    ivp = InitialValueProblem(PolyVectorField((p,)), [5.8])
    assert math.isfinite(eval_field(ivp.field, ivp.x0)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(ivp, 1.0)
    with np.errstate(all="ignore"):  # the numpy loop overflows in its stage sums
        ts, ys, fs, hs, errs, status, rejected, non_finite, _ = reference_integrate(ivp, 1.0)
    assert non_finite >= 1
    assert traj.rejected_steps == rejected >= non_finite
    assert np.all(np.isfinite(traj.states)) and np.all(np.isfinite(traj.derivs))
    assert traj.status == status
    assert_same_bits(traj, ts, ys, fs, hs, errs)


TRAJECTORIES = "\n".join([
    "from seriesdyn import Spiral, TwoSpecies, integrate, preset_ivp",
    "for ivp, t_end in [(preset_ivp(Spiral(-0.5), [2.0, 2.0]), 20.0),",
    "                   (preset_ivp(TwoSpecies.reference(), [4.0, 10.0]), 300.0)]:",
    "    traj = integrate(ivp, t_end)",
    "    print(traj.ts.tobytes().hex(), traj.states.tobytes().hex())",
])
# the script as a fresh process forced onto OpenBLAS's Prescott kernel,
# which has neither AVX nor FMA (OpenBLAS picks its kernels by CPU)
COLD = {"prescott": (["-c", TRAJECTORIES], {"OPENBLAS_CORETYPE": "Prescott"})}


def test_trajectories_do_not_depend_on_the_blas_kernel(cold_run, capsys):
    # the step loop calls no BLAS, so the process on the Prescott kernel
    # prints the bytes this one does
    exec(TRAJECTORIES, {})
    here = capsys.readouterr().out
    assert len(here.splitlines()) == 2
    assert cold_run("prescott").stdout.decode() == here
