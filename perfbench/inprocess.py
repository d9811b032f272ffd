"""Ops of the two in-process workloads and their known-answer checks.

Every op calls the package through module attributes (`hdw.standard_checks`,
`cli.main`, ...) so that the tracer's wrappers, when attached, see each call.
An op returns (seconds, failures); the known-answer checks run after the
clock stops and take their answers from outside the code under test.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import time

import numpy as np
import sympy as sp
from sympy.core.cache import clear_cache

import hdw_forge.cli as cli
import hdw_forge.forms as forms
import hdw_forge.hdw as hdw
import hdw_forge.legendre as legendre
from inputs import expected_lagrangian_h

WAVE_MODEL = os.path.join("models", "wave.hdw")
FIELD_GRID = 800
FIELD_DT = 2 * math.pi / FIELD_GRID


# ---------------------------------------------------------------------------
# check-matrix
# ---------------------------------------------------------------------------

def check_matrix_op(inp):
    """Derive both fields, run the battery, and reject a tampered field."""
    chart = inp.chart
    t0 = time.perf_counter()
    if inp.kind == "lag":
        lm = legendre.LagrangianModel(chart, inp.lag)
        model = legendre.hamiltonian_from_lagrangian(legendre.legendre_maps(lm))
        el = legendre.euler_lagrange(lm)
        elim = legendre.hdw_momentum_elimination(lm)
    else:
        model = hdw.HamiltonianModel(chart, inp.h)
    Xr = hdw.derive_restricted(model, inp.gauge)
    Xe = hdw.derive_extended(model, inp.gauge)
    results = hdw.standard_checks(model, inp.gauge)
    _, omega_h = forms.hamilton_cartan(chart, model.h)
    F = dict(Xr.F)
    F[(1, 1)] = F[(1, 1)] + 1
    tampered = hdw.HdwField(Xr.kind, chart, F, Xr.G, Xr.g, Xr.gauge, Xr.f)
    tampered_passes = hdw.residual_restricted(tampered, omega_h).is_zero()
    elapsed = time.perf_counter() - t0

    tag = f"slot {inp.slot} ({chart.m},{chart.n}) {inp.kind}"
    fails = [f"{tag}: check failed: {name}" for name, (ok, _) in results.items()
             if "diagnostic" not in name and not ok]
    if tampered_passes:
        fails.append(f"{tag}: tampered field passed the restricted residual")
    h = model.h
    for a in range(1, chart.n + 1):
        for nu in range(1, chart.m + 1):
            if sp.expand(Xe.F[(a, nu)] - sp.diff(h, chart.p(a, nu))) != 0:
                fails.append(f"{tag}: F[{a}][{nu}] is not dh/dp{a}_{nu}")
        trace = sum(Xe.G[(a, nu, nu)] for nu in range(1, chart.m + 1))
        if sp.expand(trace + sp.diff(h, chart.y(a))) != 0:
            fails.append(f"{tag}: trace of G[{a}] is not -dh/dy{a}")
    if inp.kind == "lag":
        if any(sp.expand(e1 - e2) != 0 for e1, e2 in zip(el, elim)) or len(el) != len(elim):
            fails.append(f"{tag}: Euler-Lagrange round trip disagrees")
        if sp.expand(h - expected_lagrangian_h(chart, inp.A, inp.b, inp.V)) != 0:
            fails.append(f"{tag}: induced Hamiltonian differs from (p-b).A^-1.(p-b)/2 + V")
    return elapsed, fails


# ---------------------------------------------------------------------------
# field-solve
# ---------------------------------------------------------------------------

class GridCapture:
    """Keeps the grid of the last `cli._run_solve` call for the y1 check.

    `_run_solve` is not traced, so attaching or detaching the tracer leaves
    this capture in place.
    """

    def __init__(self):
        self.grid = None
        self._run_solve = cli._run_solve
        cli._run_solve = self

    def __call__(self, *args, **kwargs):
        report, grid, ham = self._run_solve(*args, **kwargs)
        self.grid = grid
        return report, grid, ham

    def take(self):
        grid, self.grid = self.grid, None
        return grid


def field_solve_op(workdir, capture, grid_points=FIELD_GRID, dt=FIELD_DT,
                   between=None):
    """`solve` the wave model, then `compare` against the grid it wrote.

    The sympy cache is cleared first, because every op repeats the same
    model and a user's fresh process would not find it warm.  The y1 check,
    and `between()` when given, run between the two timed calls.
    """
    out = os.path.join(workdir, "field-solve")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    clear_cache()
    common = ["--grid", str(grid_points), "--out", out]
    if dt is not None:
        common += ["--dt", repr(dt)]
    csv = os.path.join(out, "wave.solve.grid.csv")
    fails = []
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        t0 = time.perf_counter()
        status = cli.main(["solve", WAVE_MODEL] + common)
        t1 = time.perf_counter()
        fails += _check_wave_grid(capture.take(), status)
        if between is not None:
            between()
        t2 = time.perf_counter()
        status = cli.main(["compare", WAVE_MODEL] + common + ["--against", csv])
        t3 = time.perf_counter()
    capture.take()
    if status != 0:
        fails.append(f"compare exited {status}")
    else:
        fails += _check_wave_reports(out)
    shutil.rmtree(out, ignore_errors=True)
    return (t1 - t0) + (t3 - t2), fails


def _check_wave_grid(grid, status):
    if status != 0 or grid is None:
        return [f"solve exited {status}"]
    exact = np.cos(grid.t)[:, None] * np.sin(grid.x)[None, :]
    err = float(np.max(np.abs(grid.fields["y1"] - exact)))
    return [] if err < 1e-3 else [f"y1 differs from cos(t)sin(x) by {err:.3g}"]


def _check_wave_reports(out):
    with open(os.path.join(out, "wave.solve.json"), encoding="utf-8") as fh:
        drift = json.load(fh)["metrics"]["energy_drift_rel"]
    with open(os.path.join(out, "wave.compare.json"), encoding="utf-8") as fh:
        disc = json.load(fh)["comparison"]["max_discrepancy"]
    fails = []
    if not drift < 1e-3:
        fails.append(f"energy_drift_rel {drift:.3g} >= 1e-3")
    if disc != 0.0:
        fails.append(f"compare max_discrepancy {disc!r} != 0.0")
    return fails


def field_solve_fingerprint(grid_points=FIELD_GRID, dt=FIELD_DT):
    with open(WAVE_MODEL, encoding="utf-8") as fh:
        text = fh.read()
    return f"{text}|--grid {grid_points} --dt {dt!r}"
