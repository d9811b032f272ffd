"""Acceptance suite: one test per release criterion.

Each test prints a single `criterion N: PASS|FAIL` line directly to the
terminal (bypassing capture) and then asserts, so a full run shows the
scorecard regardless of verbosity flags.
"""

import json
import math
import pathlib
import random
import re
import time

import numpy as np
import pytest
import sympy as sp

from hdw_forge import (BundleChart, HamiltonianModel, derive_extended,
                       derive_restricted, dof_count)
from hdw_forge.cli import main, read_grid_csv
from hdw_forge.forms import build_omega, extended_alpha, hamilton_cartan
from hdw_forge.hdw import (connection_equation_check, mu_vertical_pairing,
                           residual_extended, residual_restricted,
                           tangency_check)
from hdw_forge.legendre import (LagrangianModel, euler_lagrange,
                                hamiltonian_from_lagrangian,
                                hdw_momentum_elimination, legendre_maps,
                                rank_diagnostics)
from hdw_forge.modelfile import parse_model
from hdw_forge.solver import (discrete_field_energy, max_discrepancy,
                              project_extended, solve_field_1p1, solve_ode)
from hdw_forge.symbolic import fd_check, simplify

from conftest import (random_expr, random_gauge, random_point,
                      random_polynomial_h)

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"

PAIRS = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]


@pytest.fixture
def announce(capsys):
    def _announce(num, ok, detail=""):
        tail = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"criterion {num}: {'PASS' if ok else 'FAIL'}{tail}")
        assert ok, f"criterion {num} failed{tail}"
    return _announce


def _oscillator_model():
    chart = BundleChart(1, 1)
    return HamiltonianModel(chart, (chart.p(1, 1) ** 2 + chart.y(1) ** 2) / 2)


def test_criterion_01_symbolic_residual_suite(announce):
    rng = random.Random(1)
    start = time.perf_counter()
    ok = True
    count = 0
    while count < 20:
        m, n = PAIRS[count % len(PAIRS)]
        chart = BundleChart(m, n)
        h = random_polynomial_h(chart, rng)
        gauge = random_gauge(chart, rng)
        model = HamiltonianModel(chart, h)
        Xr = derive_restricted(model, gauge)
        Xe = derive_extended(model, gauge)
        _, omega_h = hamilton_cartan(chart, h)
        H, alpha = extended_alpha(chart, h)
        ok &= residual_restricted(Xr, omega_h).is_zero()
        ok &= residual_extended(Xe, build_omega(chart), alpha).is_zero()
        ok &= all(t == 0 for t in tangency_check(Xe, alpha))
        ok &= connection_equation_check(Xr, omega_h).is_zero()
        ok &= mu_vertical_pairing(alpha) == 1
        count += 1
    elapsed = time.perf_counter() - start
    announce(1, ok and elapsed < 60.0, f"20 models, {elapsed:.1f}s")


def test_criterion_02_degrees_of_freedom(announce):
    ok = True
    for m, n in PAIRS:
        chart = BundleChart(m, n)
        free_slots = n * m * (m - 1) + n * (m - 1)
        ok &= dof_count(chart) == n * (m ** 2 - 1) == free_slots
    announce(2, ok, "n*(m^2-1) for all five charts")


def test_criterion_03_mechanics_specialization(announce):
    chart = BundleChart(1, 1)
    t, q, p = chart.x(1), chart.y(1), chart.p(1, 1)
    rng = random.Random(3)
    ok = True
    cases = [(p ** 2 + q ** 2) / 2,
             p ** 2 / 2 + q ** 2 * (1 + t) / 2,
             random_polynomial_h(chart, rng)]
    for h in cases:
        Xe = derive_extended(HamiltonianModel(chart, h))
        ok &= Xe.f == 1
        ok &= simplify(Xe.F[(1, 1)] - sp.diff(h, p)) == 0
        ok &= simplify(Xe.G[(1, 1, 1)] + sp.diff(h, q)) == 0
        ok &= simplify(Xe.g[1] + sp.diff(h, t)) == 0
        Xr = derive_restricted(HamiltonianModel(chart, h))
        ok &= Xr.F == {k: v for k, v in Xe.F.items()}
        ok &= Xr.G == {k: v for k, v in Xe.G.items()}
    announce(3, ok, "m=1 coefficient formulas, restricted and extended")


def test_criterion_04_oscillator_regression(announce):
    start = time.perf_counter()
    model = _oscillator_model()
    grid = solve_ode(derive_restricted(model), {"y1": 1.0, "p1_1": 0.0},
                     (0.0, 10.0), 1e-3)
    q_err = abs(grid.fields["y1"][-1] - math.cos(10))
    p_err = abs(grid.fields["p1_1"][-1] + math.sin(10))
    ext = solve_ode(derive_extended(model),
                    {"y1": 1.0, "p1_1": 0.0, "pe": -0.5}, (0.0, 10.0), 1e-3)
    pe_drift = float(np.max(np.abs(ext.fields["pe"] + 0.5)))
    elapsed = time.perf_counter() - start
    ok = q_err < 1e-6 and p_err < 1e-6 and pe_drift < 1e-9 and elapsed < 1.0
    announce(4, ok, f"q err {q_err:.1e}, pe drift {pe_drift:.1e}, {elapsed:.2f}s")


def test_criterion_05_energy_drift_identity(announce):
    from hdw_forge.solver import conservation_diagnostics
    start = time.perf_counter()
    chart = BundleChart(1, 1)
    t, q, p = chart.x(1), chart.y(1), chart.p(1, 1)
    h = p ** 2 / 2 + q ** 2 * (1 + t / 10) / 2
    X = derive_extended(HamiltonianModel(chart, h))
    grid = solve_ode(X, {"y1": 1.0, "p1_1": 0.0, "pe": -0.5}, (0.0, 10.0), 1e-3)
    H, _ = extended_alpha(chart, h)
    report = conservation_diagnostics(grid, H)
    elapsed = time.perf_counter() - start
    ok = (report.trajectory_residual < 1e-6 and report.drift < 1e-7
          and elapsed < 1.0)
    announce(5, ok, f"residual {report.trajectory_residual:.1e}, "
                    f"H drift {report.drift:.1e}, {elapsed:.2f}s")


def test_criterion_06_projection_equivalence(announce):
    model = _oscillator_model()
    init = {"y1": 1.0, "p1_1": 0.0}
    direct = solve_ode(derive_restricted(model), init, (0.0, 10.0), 1e-3)
    ext = solve_ode(derive_extended(model), {**init, "pe": -0.5},
                    (0.0, 10.0), 1e-3)
    disc = max_discrepancy(project_extended(ext), direct)
    announce(6, disc < 1e-9, f"max discrepancy {disc:.1e}")


def test_criterion_07_wave_field(announce):
    start = time.perf_counter()
    chart = BundleChart(2, 1)
    lag = LagrangianModel(chart, (chart.v(1, 1) ** 2 - chart.v(1, 2) ** 2) / 2)
    ham = hamiltonian_from_lagrangian(legendre_maps(lag))
    X = derive_restricted(ham)
    n = 200
    x = 2 * np.pi * np.arange(n) / n
    dt = 2 * np.pi / 200
    grid = solve_field_1p1(X, np.sin(x), np.zeros(n), (0.0, 2 * np.pi), dt,
                           (0.0, 2 * np.pi), n)
    exact = np.cos(grid.t)[:, None] * np.sin(x)[None, :]
    err = float(np.max(np.abs(grid.fields["y1"] - exact)))
    energy = discrete_field_energy(grid, ham.h)
    drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    elapsed = time.perf_counter() - start
    ok = err < 1e-3 and drift < 1e-3 and elapsed < 30.0
    announce(7, ok, f"max err {err:.1e}, energy drift {drift:.1e}, {elapsed:.1f}s")


def test_criterion_08_legendre_round_trip(announce):
    rng = random.Random(8)
    ok = True
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]:
        chart = BundleChart(m, n)
        slots = [(a, nu) for a in range(1, n + 1) for nu in range(1, m + 1)]
        lag = sum(sp.Rational(rng.randint(1, 3), rng.randint(1, 2))
                  * chart.v(*s) ** 2 for s in slots)
        lag -= sum(sp.Rational(rng.randint(0, 2), 2) * chart.y(a) ** 2
                   for a in range(1, n + 1))
        model = LagrangianModel(chart, lag)
        el = euler_lagrange(model)
        elim = hdw_momentum_elimination(model)
        ok &= all(simplify(a - b) == 0 for a, b in zip(el, elim))
    announce(8, ok, "5 quadratic hyper-regular Lagrangians")


def test_criterion_09_derivative_validation(announce):
    rng = random.Random(9)
    syms = sp.symbols("x1 y1 p1_1")
    worst = 0.0
    for _ in range(100):
        e = random_expr(list(syms), rng, depth=4)
        point = random_point(list(syms), rng)
        _, _, relerr = fd_check(e, rng.choice(syms), point, 1e-5)
        worst = max(worst, relerr)
    announce(9, worst < 1e-6, f"worst relerr {worst:.1e} over 100 pairs")


def test_criterion_10_degeneracy_diagnostics(announce):
    chart = BundleChart(2, 1)
    res = legendre_maps(LagrangianModel(chart, chart.v(1, 1)))
    ok = res.classification == "degenerate"
    ok &= all(h == 0 for h in res.hessian.values())
    sub = parse_model(MODELS / "degenerate.hdw").submanifold
    dims = rank_diagnostics(chart, sub["embedding"], sub["h_P"],
                            sub["samples"], params=sub["params"])
    ok &= len(dims) == 10 and all(d >= 1 for d in dims)
    # regular mechanics comparison: trivial vertical kernel
    mchart = BundleChart(1, 1)
    u = sp.symbols("u1 u2 u3")
    embedding = {mchart.x(1): u[0], mchart.y(1): u[1], mchart.p(1, 1): u[2]}
    reg = rank_diagnostics(mchart, embedding, (u[2] ** 2 + u[1] ** 2) / 2,
                           [(0.1, 0.4, 0.9), (1.0, -0.2, 0.3)], params=u)
    ok &= reg == [0, 0]
    announce(10, ok, f"degenerate dims {sorted(set(dims))}, regular dims {sorted(set(reg))}")


def test_criterion_11_rk4_order(announce):
    X = derive_restricted(_oscillator_model())
    errs = []
    for dt in (1e-2, 5e-3):
        grid = solve_ode(X, {"y1": 1.0, "p1_1": 0.0}, (0.0, 10.0), dt)
        errs.append(math.hypot(grid.fields["y1"][-1] - math.cos(10),
                               grid.fields["p1_1"][-1] + math.sin(10)))
    ratio = errs[0] / errs[1]
    announce(11, 14.0 <= ratio <= 18.0, f"dt-halving ratio {ratio:.2f}")


def test_criterion_12_cli_contract(announce, capsys, tmp_path):
    def run(*argv):
        status = main(list(argv))
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    def stamped(text):
        return re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)

    ok = True
    # determinism of every command over the bundled models
    jobs = [("derive", "oscillator.hdw"), ("check", "oscillator.hdw"),
            ("derive", "wave.hdw"), ("check", "wave.hdw"),
            ("legendre", "wave.hdw"), ("legendre", "degenerate.hdw"),
            ("check", "degenerate.hdw"), ("solve", "oscillator.hdw")]
    for i, (cmd, name) in enumerate(jobs):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / f"{i}{sub}"
            status, out, _ = run(cmd, str(MODELS / name), "--out", str(d))
            ok &= status == 0
            # the report embeds the chosen output directory; normalize it
            outs.append(stamped(out).replace(str(d), "OUT"))
        ok &= outs[0] == outs[1]
    # grid files are byte-identical across runs
    g1 = (tmp_path / "7a" / "oscillator.solve.grid.csv").read_bytes()
    g2 = (tmp_path / "7b" / "oscillator.solve.grid.csv").read_bytes()
    ok &= g1 == g2
    # exit 1: sentinel injection breaks the residual check
    inject = tmp_path / "inject.json"
    inject.write_text(json.dumps({"F[1][1]": "p1_1 + 1"}))
    status, _, _ = run("check", str(MODELS / "oscillator.hdw"),
                       "--debug-inject", str(inject), "--out", str(tmp_path))
    ok &= status == 1
    # exit 2: input errors
    status, _, _ = run("check", str(tmp_path / "missing.hdw"),
                       "--out", str(tmp_path))
    ok &= status == 2
    bad = tmp_path / "bad.hdw"
    bad.write_text("[bundle]\nm = 1\nn = 1\n[hamiltonian]\nh = q^2\n")
    status, _, _ = run("check", str(bad), "--out", str(tmp_path))
    ok &= status == 2
    announce(12, ok, "deterministic reports, exit codes 0/1/2")
