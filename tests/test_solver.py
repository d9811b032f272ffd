import inspect
import math
import warnings

import numpy as np
import pytest
import sympy as sp

from hdw_forge import (BundleChart, HamiltonianModel, derive_extended,
                       derive_restricted)
from hdw_forge.errors import (ChartMismatchError, SolverAbortError,
                              UnsupportedFormError)
from hdw_forge.forms import extended_alpha
from hdw_forge.solver import (_check_evolution_form, _fd4, _periodic_dx4,
                              conservation_diagnostics,
                              discrete_field_energy, max_discrepancy,
                              project_extended, solve_field_1p1, solve_ode)


def _oscillator_model():
    chart = BundleChart(1, 1)
    return HamiltonianModel(chart, (chart.p(1, 1) ** 2 + chart.y(1) ** 2) / 2)


def _wave_field():
    chart = BundleChart(2, 1)
    h = (chart.p(1, 1) ** 2 - chart.p(1, 2) ** 2) / 2
    return derive_restricted(HamiltonianModel(chart, h))


def reference_ode(X, init, t0, t1, dt):
    """The m=1 RK4 loop as it stood before both solvers shared one loop:
    it aborts at the first non-finite stage value."""
    chart = X.chart
    names = [chart.y(a).name for a in range(1, chart.n + 1)]
    names += [chart.p(a, 1).name for a in range(1, chart.n + 1)]
    exprs = [X.F[(a, 1)] for a in range(1, chart.n + 1)]
    exprs += [X.G[(a, 1, 1)] for a in range(1, chart.n + 1)]
    if X.kind == "extended":
        names.append("pe")
        exprs.append(X.g[1])
    rhs = sp.lambdify([chart.x(1)] + [sp.Symbol(nm) for nm in names], exprs, "numpy")

    def deriv(tk, s):
        out = np.asarray(rhs(tk, *s), dtype=float)
        if not np.isfinite(out).all():
            raise SolverAbortError("stage", k)
        return out

    steps = int(round((t1 - t0) / dt))
    state = np.array([init[nm] for nm in names], dtype=float)
    data = np.empty((steps + 1, len(names)))
    data[0] = state
    for k in range(steps):
        tk = t0 + k * dt
        k1 = deriv(tk, state)
        k2 = deriv(tk + dt / 2, state + dt / 2 * k1)
        k3 = deriv(tk + dt / 2, state + dt / 2 * k2)
        k4 = deriv(tk + dt, state + dt * k3)
        state = state + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        data[k + 1] = state
    return {nm: data[:, i] for i, nm in enumerate(names)}


def reference_field(X, y, pt, t0, t1, dt, x0, x1, npoints):
    """The 1+1 method-of-lines loop as it stood before both solvers shared
    one loop: separate y and p_t arrays, p_x recovered inside the loop."""
    chart = X.chart
    a_expr, b_expr = _check_evolution_form(X)
    t_s, x_s, y_s = chart.x(1), chart.x(2), chart.y(1)
    args = (t_s, x_s, y_s, chart.p(1, 1), chart.p(1, 2))
    f_Ft = sp.lambdify(args, X.F[(1, 1)], "numpy")
    f_hy = sp.lambdify(args, -(X.G[(1, 1, 1)] + X.G[(1, 2, 2)]), "numpy")
    f_a = sp.lambdify((t_s, x_s, y_s), a_expr, "numpy")
    f_b = sp.lambdify((t_s, x_s, y_s), b_expr, "numpy")
    dx = (x1 - x0) / npoints
    x = x0 + dx * np.arange(npoints)

    def recover_px(tk, yk):
        return (_periodic_dx4(yk, dx) - f_a(tk, x, yk)) / f_b(tk, x, yk)

    def deriv(tk, yk, ptk):
        pxk = recover_px(tk, yk)
        dy = f_Ft(tk, x, yk, ptk, pxk) * np.ones(npoints)
        dpt = -f_hy(tk, x, yk, ptk, pxk) * np.ones(npoints) - _periodic_dx4(pxk, dx)
        return dy, dpt

    steps = int(round((t1 - t0) / dt))
    Y, PT, PX = (np.empty((steps + 1, npoints)) for _ in range(3))
    Y[0], PT[0], PX[0] = y, pt, recover_px(t0, y)
    for k in range(steps):
        tk = t0 + k * dt
        ky1, kp1 = deriv(tk, y, pt)
        ky2, kp2 = deriv(tk + dt / 2, y + dt / 2 * ky1, pt + dt / 2 * kp1)
        ky3, kp3 = deriv(tk + dt / 2, y + dt / 2 * ky2, pt + dt / 2 * kp2)
        ky4, kp4 = deriv(tk + dt, y + dt * ky3, pt + dt * kp3)
        y = y + dt / 6 * (ky1 + 2 * ky2 + 2 * ky3 + ky4)
        pt = pt + dt / 6 * (kp1 + 2 * kp2 + 2 * kp3 + kp4)
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(pt))):
            raise SolverAbortError("blew up", k)
        Y[k + 1], PT[k + 1] = y, pt
        PX[k + 1] = recover_px(t0 + (k + 1) * dt, y)
    return {"y1": Y, "p1_1": PT, "p1_2": PX}


def assert_bit_identical(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert (a.view(np.int64) == b.view(np.int64)).all()


def _forced_field_model():
    """An evolution-form Hamiltonian that exercises every term of the 1+1
    right-hand side: x1- and x2-dependence, a nonzero -dh/dy and an affine
    spatial relation with a nonzero offset."""
    chart = BundleChart(2, 1)
    t, x, y = chart.x(1), chart.x(2), chart.y(1)
    pt, px = chart.p(1, 1), chart.p(1, 2)
    h = (pt ** 2 - px ** 2) / 2 + y ** 2 / 2 + t * y / 5 + sp.sin(x) * px / 3
    return HamiltonianModel(chart, h)


class TestOneLoop:
    @pytest.mark.parametrize("derive", [derive_restricted, derive_extended])
    @pytest.mark.parametrize("h", ["oscillator", "forced"])
    def test_ode_matches_reference_loop(self, derive, h):
        chart = BundleChart(1, 1)
        t, q, p = chart.x(1), chart.y(1), chart.p(1, 1)
        model = (_oscillator_model() if h == "oscillator" else
                 HamiltonianModel(chart, p ** 2 / 2 + q ** 4 / 4 + sp.cos(t) * q))
        X = derive(model)
        init = {"y1": 1.0, "p1_1": 0.25, "pe": -0.5}
        grid = solve_ode(X, init, (0.0, 3.0), 0.01)
        ref = reference_ode(X, init, 0.0, 3.0, 0.01)
        assert list(grid.fields) == list(ref)
        for nm in ref:
            assert_bit_identical(grid.fields[nm], ref[nm])

    @pytest.mark.parametrize("model", ["wave", "forced"])
    def test_field_matches_reference_loop(self, model):
        X = _wave_field() if model == "wave" else derive_restricted(_forced_field_model())
        n = 16
        x = 2 * np.pi * np.arange(n) / n
        y0, pt0 = np.sin(x) + np.cos(2 * x) / 4, np.cos(x) / 2
        grid = solve_field_1p1(X, y0, pt0, (0.0, 1.0), 0.05, (0.0, 2 * np.pi), n)
        ref = reference_field(X, y0, pt0, 0.0, 1.0, 0.05, 0.0, 2 * np.pi, n)
        assert list(grid.fields) == list(ref)
        for nm in ref:
            assert_bit_identical(grid.fields[nm], ref[nm])

    def test_ode_abort_step_unchanged(self):
        chart = BundleChart(1, 1)
        X = derive_restricted(
            HamiltonianModel(chart, chart.p(1, 1) * chart.y(1) ** 2))
        init = {"y1": 1.0, "p1_1": 1.0}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the solver reports, numpy stays quiet
            with pytest.raises(SolverAbortError, match="step") as ours:
                solve_ode(X, init, (0.0, 3.0), 0.01)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverAbortError) as ref:
                reference_ode(X, init, 0.0, 3.0, 0.01)
        assert ours.value.last_step == ref.value.last_step

    def test_field_blow_up_aborts_with_step_index(self):
        # y_tt = y_xx + 4 y^3 with a large uniform start escapes in finite time
        chart = BundleChart(2, 1)
        pt, px, y = chart.p(1, 1), chart.p(1, 2), chart.y(1)
        X = derive_restricted(HamiltonianModel(chart, (pt ** 2 - px ** 2) / 2 - y ** 4))
        n = 8
        y0, pt0 = np.full(n, 10.0), np.zeros(n)
        args = (y0, pt0, (0.0, 1.0), 0.01, (0.0, 2 * np.pi), n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverAbortError, match="step") as ours:
                solve_field_1p1(X, *args)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverAbortError) as ref:
                reference_field(X, y0, pt0, 0.0, 1.0, 0.01, 0.0, 2 * np.pi, n)
        assert 0 <= ours.value.last_step < 100
        assert ours.value.last_step == ref.value.last_step


class TestStencils:
    def test_fd4_on_quartic(self):
        t = np.linspace(0, 1, 41)
        d = _fd4(t ** 4, t[1] - t[0])
        assert np.max(np.abs(d - 4 * t[2:-2] ** 3)) < 1e-12

    def test_fd4_needs_five_samples(self):
        with pytest.raises(ValueError):
            _fd4(np.ones(4), 0.1)

    def test_periodic_dx4_on_sine(self):
        n = 64
        x = 2 * np.pi * np.arange(n) / n
        d = _periodic_dx4(np.sin(x), x[1] - x[0])
        assert np.max(np.abs(d - np.cos(x))) < 1e-4

        def rolled(row, dx):
            return (-np.roll(row, -2) + 8.0 * np.roll(row, -1)
                    - 8.0 * np.roll(row, 1) + np.roll(row, 2)) / (12.0 * dx)

        rows = np.random.default_rng(3).standard_normal((7, n))
        for arr, ref in [(np.sin(x), rolled(np.sin(x), x[1] - x[0])),
                         (rows, np.stack([rolled(r, x[1] - x[0]) for r in rows]))]:
            d = _periodic_dx4(arr, x[1] - x[0])
            assert d.shape == ref.shape
            assert (d.view(np.int64) == ref.view(np.int64)).all()


class TestSolveOde:
    def test_oscillator_accuracy(self):
        X = derive_restricted(_oscillator_model())
        grid = solve_ode(X, {"y1": 1.0, "p1_1": 0.0}, (0.0, 10.0), 1e-3)
        assert abs(grid.fields["y1"][-1] - math.cos(10)) < 1e-6
        assert abs(grid.fields["p1_1"][-1] + math.sin(10)) < 1e-6

    def test_zero_hamiltonian_constant_solution(self):
        chart = BundleChart(1, 1)
        X = derive_restricted(HamiltonianModel(chart, 0))
        grid = solve_ode(X, {"y1": 2.5, "p1_1": -1.0}, (0.0, 1.0), 0.01)
        assert np.all(grid.fields["y1"] == 2.5)
        assert np.all(grid.fields["p1_1"] == -1.0)

    def test_extended_pe_constant_for_autonomous_h(self):
        X = derive_extended(_oscillator_model())
        grid = solve_ode(X, {"y1": 1.0, "p1_1": 0.0, "pe": -0.5}, (0.0, 10.0), 1e-3)
        assert np.max(np.abs(grid.fields["pe"] + 0.5)) < 1e-9

    def test_missing_initial_data(self):
        X = derive_restricted(_oscillator_model())
        with pytest.raises(ChartMismatchError):
            solve_ode(X, {"y1": 1.0}, (0.0, 1.0), 0.01)

    def test_requires_mechanics_chart(self):
        with pytest.raises(ChartMismatchError):
            solve_ode(_wave_field(), {}, (0.0, 1.0), 0.01)

    def test_bad_step_and_range(self):
        X = derive_restricted(_oscillator_model())
        with pytest.raises(ValueError):
            solve_ode(X, {"y1": 1.0, "p1_1": 0.0}, (0.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            solve_ode(X, {"y1": 1.0, "p1_1": 0.0}, (0.0, 0.0), 0.1)

    def test_blow_up_aborts_with_step_index(self):
        chart = BundleChart(1, 1)
        # dy/dt = y^2 escapes to infinity in finite time
        X = derive_restricted(
            HamiltonianModel(chart, chart.p(1, 1) * chart.y(1) ** 2))
        with pytest.raises(SolverAbortError) as exc, \
                np.errstate(over="ignore", invalid="ignore"):
            solve_ode(X, {"y1": 1.0, "p1_1": 1.0}, (0.0, 3.0), 0.01)
        assert 0 <= exc.value.last_step < 300

    def test_rk4_order_ratio(self):
        X = derive_restricted(_oscillator_model())
        errs = []
        # steps large enough that truncation error dominates roundoff
        for dt in (1e-2, 5e-3):
            grid = solve_ode(X, {"y1": 1.0, "p1_1": 0.0}, (0.0, 10.0), dt)
            errs.append(math.hypot(grid.fields["y1"][-1] - math.cos(10),
                                   grid.fields["p1_1"][-1] + math.sin(10)))
        ratio = errs[0] / errs[1]
        assert 14.0 <= ratio <= 18.0


class TestProjection:
    def test_projection_matches_direct_restricted_run(self):
        model = _oscillator_model()
        init = {"y1": 1.0, "p1_1": 0.0}
        direct = solve_ode(derive_restricted(model), init, (0.0, 10.0), 1e-3)
        ext = solve_ode(derive_extended(model), {**init, "pe": -0.5},
                        (0.0, 10.0), 1e-3)
        proj = project_extended(ext)
        assert "pe" not in proj.fields
        assert max_discrepancy(proj, direct) < 1e-9

    def test_projection_is_coordinate_dropping(self):
        ext = solve_ode(derive_extended(_oscillator_model()),
                        {"y1": 1.0, "p1_1": 0.0, "pe": -0.5}, (0.0, 1.0), 0.01)
        proj = project_extended(ext)
        assert np.array_equal(proj.fields["y1"], ext.fields["y1"])

    def test_projection_needs_extended_grid(self):
        grid = solve_ode(derive_restricted(_oscillator_model()),
                         {"y1": 1.0, "p1_1": 0.0}, (0.0, 1.0), 0.01)
        with pytest.raises(ChartMismatchError):
            project_extended(grid)


class TestConservation:
    def test_autonomous_drift(self):
        model = _oscillator_model()
        X = derive_extended(model)
        grid = solve_ode(X, {"y1": 1.0, "p1_1": 0.0, "pe": -0.5}, (0.0, 10.0), 1e-3)
        H, _ = extended_alpha(model.chart, model.h)
        report = conservation_diagnostics(grid, H)
        assert report.drift < 1e-9
        assert len(report.drift_series) == report.steps + 1

    def test_time_dependent_hamiltonian(self):
        chart = BundleChart(1, 1)
        t, q, p = chart.x(1), chart.y(1), chart.p(1, 1)
        h = p ** 2 / 2 + q ** 2 * (1 + t / 10) / 2
        model = HamiltonianModel(chart, h)
        X = derive_extended(model)
        grid = solve_ode(X, {"y1": 1.0, "p1_1": 0.0, "pe": -0.5}, (0.0, 10.0), 1e-3)
        H, _ = extended_alpha(chart, h)
        report = conservation_diagnostics(grid, H)
        assert report.drift < 1e-7
        assert report.trajectory_residual < 1e-6
        # pe itself moves: the level set is preserved, not the energy
        assert np.max(np.abs(grid.fields["pe"] - grid.fields["pe"][0])) > 1e-3

    def test_needs_extended_run(self):
        grid = solve_ode(derive_restricted(_oscillator_model()),
                         {"y1": 1.0, "p1_1": 0.0}, (0.0, 1.0), 0.01)
        with pytest.raises(ChartMismatchError):
            conservation_diagnostics(grid, sp.Symbol("pe"))


class TestSolveField1p1:
    def _grid(self, npoints=200):
        x = 2 * np.pi * np.arange(npoints) / npoints
        return x

    def test_standing_wave(self):
        n = 200
        x = self._grid(n)
        dt = 2 * np.pi / 200
        grid = solve_field_1p1(_wave_field(), np.sin(x), np.zeros(n),
                               (0.0, 2 * np.pi), dt, (0.0, 2 * np.pi), n)
        exact = np.cos(grid.t)[:, None] * np.sin(x)[None, :]
        assert np.max(np.abs(grid.fields["y1"] - exact)) < 1e-3

    def test_wave_energy_drift(self):
        n = 200
        x = self._grid(n)
        dt = 2 * np.pi / 200
        grid = solve_field_1p1(_wave_field(), np.sin(x), np.zeros(n),
                               (0.0, 2 * np.pi), dt, (0.0, 2 * np.pi), n)
        energy = discrete_field_energy(grid)
        assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) < 1e-3

    def test_zero_init_stays_zero(self):
        n = 32
        grid = solve_field_1p1(_wave_field(), np.zeros(n), np.zeros(n),
                               (0.0, 1.0), 0.05, (0.0, 2 * np.pi), n)
        assert np.all(grid.fields["y1"] == 0.0)

    def test_klein_gordon_dispersion(self):
        # y_tt = y_xx - y: the k=1 standing wave oscillates at omega = sqrt(2)
        chart = BundleChart(2, 1)
        h = (chart.p(1, 1) ** 2 - chart.p(1, 2) ** 2) / 2 + chart.y(1) ** 2 / 2
        X = derive_restricted(HamiltonianModel(chart, h))
        n = 200
        x = self._grid(n)
        dt = 2 * np.pi / 400
        grid = solve_field_1p1(X, np.sin(x), np.zeros(n),
                               (0.0, 2 * np.pi), dt, (0.0, 2 * np.pi), n)
        exact = np.cos(math.sqrt(2.0) * grid.t)[:, None] * np.sin(x)[None, :]
        assert np.max(np.abs(grid.fields["y1"] - exact)) < 1e-3

    def test_non_evolution_form_rejected(self):
        chart = BundleChart(2, 1)
        h = chart.p(1, 1) * chart.p(1, 2)
        X = derive_restricted(HamiltonianModel(chart, h))
        with pytest.raises(UnsupportedFormError):
            solve_field_1p1(X, np.zeros(8), np.zeros(8),
                            (0.0, 1.0), 0.1, (0.0, 2 * np.pi), 8)

    def test_flat_spatial_relation_rejected(self):
        chart = BundleChart(2, 1)
        h = chart.p(1, 1) ** 2 / 2
        X = derive_restricted(HamiltonianModel(chart, h))
        with pytest.raises(UnsupportedFormError):
            solve_field_1p1(X, np.zeros(8), np.zeros(8),
                            (0.0, 1.0), 0.1, (0.0, 2 * np.pi), 8)

    def test_cfl_warning(self):
        n = 16
        dx = 2 * np.pi / n
        grid = solve_field_1p1(_wave_field(), np.zeros(n), np.zeros(n),
                               (0.0, 2.0), 2 * dx, (0.0, 2 * np.pi), n)
        assert any("dx" in w for w in grid.meta["warnings"])

    def test_energy_needs_field_run(self):
        grid = solve_ode(derive_restricted(_oscillator_model()),
                         {"y1": 1.0, "p1_1": 0.0}, (0.0, 1.0), 0.01)
        with pytest.raises(ChartMismatchError):
            discrete_field_energy(grid)


class TestDiscrepancy:
    def test_identical_runs_are_bitwise_equal(self):
        X = derive_restricted(_oscillator_model())
        g1 = solve_ode(X, {"y1": 1.0, "p1_1": 0.0}, (0.0, 2.0), 0.01)
        g2 = solve_ode(X, {"y1": 1.0, "p1_1": 0.0}, (0.0, 2.0), 0.01)
        assert max_discrepancy(g1, g2) == 0.0

    def test_incomparable_grids(self):
        X = derive_restricted(_oscillator_model())
        g1 = solve_ode(X, {"y1": 1.0, "p1_1": 0.0}, (0.0, 2.0), 0.01)
        g2 = solve_ode(X, {"y1": 1.0, "p1_1": 0.0}, (0.0, 2.0), 0.02)
        with pytest.raises(ChartMismatchError):
            max_discrepancy(g1, g2)


class TestLambdifyModule:
    """The package lambdifies against the numpy module object, which skips
    the `from numpy import *` namespace of the "numpy" string and prints the
    same source."""

    u, v = sp.symbols("u v")
    EXPRS = {
        "sqrt": sp.sqrt(u) + sp.sqrt(2) * v,
        "abs": sp.Abs(u - v) * sp.Abs(v),
        "log": sp.log(u) + sp.log(1 + v ** 2),
        "constants": sp.E * u + sp.pi * v ** 2 + sp.exp(u),
        "float-rational": sp.Float(0.5) * u + sp.Rational(1, 3) * v ** 3,
        "matrix": sp.Matrix([[u, 0], [sp.sin(v), sp.Rational(2, 7) * u * v]]),
        "list-with-zero": [0, u * v, sp.Integer(1), sp.cos(u) - v],
    }

    @pytest.mark.parametrize("name", list(EXPRS))
    def test_same_source_and_values(self, name):
        args = (self.u, self.v)
        ours = sp.lambdify(args, self.EXPRS[name], [np])
        theirs = sp.lambdify(args, self.EXPRS[name], "numpy")
        assert inspect.getsource(ours) == inspect.getsource(theirs)
        rng = np.random.default_rng(13)
        points = [(np.float64(0.7), np.float64(-1.3))]
        if name != "matrix":  # a Matrix is evaluated at scalars, as rank_diagnostics does
            points.append(tuple(rng.uniform(0.1, 3.0, (2, 9))))
        for point in points:
            a, b = ours(*point), theirs(*point)
            if isinstance(a, list):
                assert [type(c) for c in a] == [type(c) for c in b]
                a, b = np.broadcast_arrays(*a), np.broadcast_arrays(*b)
            assert_bit_identical(a, b)


def test_ode_state_is_float64_components(monkeypatch):
    # the right-hand side gets np.float64 components, also when it returns
    # plain numbers, and the steps are those of the stacked-array loop
    chart = BundleChart(1, 1)
    t, q, p = chart.x(1), chart.y(1), chart.p(1, 1)
    real = sp.lambdify
    for h in (p + 2 * t, p ** 2 / 2 - sp.cos(q) + t * q):
        X = derive_extended(HamiltonianModel(chart, h))
        seen = set()

        def spy(*args, **kwargs):
            f = real(*args, **kwargs)

            def rhs(tk, *state):
                seen.update(type(c) for c in state)
                return f(tk, *state)
            return rhs
        monkeypatch.setattr(sp, "lambdify", spy)
        init = {"y1": 0.5, "p1_1": -0.25, "pe": 0.0}
        grid = solve_ode(X, init, (0.0, 1.0), 0.125)
        monkeypatch.undo()
        assert seen == {np.float64}
        ref = reference_ode(X, init, 0.0, 1.0, 0.125)
        for nm in ref:
            assert_bit_identical(grid.fields[nm], ref[nm])


def test_complex_rhs_value_is_not_cast_to_real():
    # x1^(1/3) of a negative time is complex: the run raises, as the
    # stacked-array loop did, instead of storing the real part
    chart = BundleChart(1, 1)
    h = chart.p(1, 1) ** 2 / 2 + chart.x(1) ** sp.Rational(1, 3) * chart.y(1)
    X = derive_restricted(HamiltonianModel(chart, h))
    with pytest.raises(TypeError):
        solve_ode(X, {"y1": 1.0, "p1_1": 0.0}, (-1.0, 1.0), 0.01)
