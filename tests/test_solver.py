import math

import numpy as np
import pytest
import sympy as sp

from hdw_forge import (BundleChart, HamiltonianModel, derive_extended,
                       derive_restricted)
from hdw_forge.errors import (ChartMismatchError, SolverAbortError,
                              UnsupportedFormError)
from hdw_forge.forms import extended_alpha
from hdw_forge.solver import (_fd4, _periodic_dx4, conservation_diagnostics,
                              discrete_field_energy, max_discrepancy,
                              project_extended, solve_field_1p1, solve_ode)


def _oscillator_model():
    chart = BundleChart(1, 1)
    return HamiltonianModel(chart, (chart.p(1, 1) ** 2 + chart.y(1) ** 2) / 2)


def _wave_field():
    chart = BundleChart(2, 1)
    h = (chart.p(1, 1) ** 2 - chart.p(1, 2) ** 2) / 2
    return derive_restricted(HamiltonianModel(chart, h))


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
