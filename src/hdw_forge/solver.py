"""Numerical integration of derived field equations.

m=1 systems are integrated with classic RK4.  m=2, n=1 systems are solved by
method of lines on a periodic spatial grid in evolution form: the spatial
momentum is recovered algebraically each stage from the spatial relation
dy/dx = dh/dp_x (affine in p_x), and (y, p_t) advance by RK4 with 4th-order
centered differences for every spatial derivative.  All runs are
deterministic: fixed step, fixed-order summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import sympy as sp

from .errors import (ChartMismatchError, SolverAbortError, UnsupportedFormError)
from .hdw import HdwField
from .symbolic import simplify


@dataclass
class SectionGrid:
    """Sampled section data over a structured base grid."""

    kind: str                     # "ode" | "field1p1"
    t: np.ndarray
    fields: dict                  # name -> array (1d for ode, (nt, nx) for field)
    x: np.ndarray | None = None   # spatial nodes (field runs; periodic, no endpoint)
    meta: dict = field(default_factory=dict)

    @property
    def has_extended(self) -> bool:
        return "pe" in self.fields


@dataclass
class SolveReport:
    scheme: str
    steps: int
    dt: float
    drift_series: np.ndarray | None = None
    drift: float | None = None
    trajectory_residual: float | None = None
    meta: dict = field(default_factory=dict)


def _fd4(series: np.ndarray, dt: float) -> np.ndarray:
    """4th-order centered first derivative on the interior of a sampled series."""
    f = np.asarray(series, dtype=float)
    if f.size < 5:
        raise ValueError("need at least 5 samples for the 4th-order stencil")
    return (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * dt)


def _periodic_dx4(arr: np.ndarray, dx: float) -> np.ndarray:
    """4th-order centered derivative along the last axis with periodic wrap."""
    a = np.concatenate((arr[..., -2:], arr, arr[..., :2]), axis=-1)
    return (-a[..., 4:] + 8.0 * a[..., 3:-1]
            - 8.0 * a[..., 1:-3] + a[..., :-4]) / (12.0 * dx)


def _state_names(X: HdwField) -> list:
    chart = X.chart
    names = [chart.y(a).name for a in range(1, chart.n + 1)]
    names += [chart.p(a, 1).name for a in range(1, chart.n + 1)]
    if X.kind == "extended":
        names.append("pe")
    return names


def solve_ode(X: HdwField, init: dict, t_range, dt: float) -> SectionGrid:
    """RK4 on the m=1 system dy/dt = F, dp/dt = G (and dpe/dt = g)."""
    chart = X.chart
    if chart.m != 1:
        raise ChartMismatchError("solve_ode requires a chart with m = 1")
    if dt <= 0:
        raise ValueError("dt must be positive")
    t0, t1 = float(t_range[0]), float(t_range[1])
    steps = int(round((t1 - t0) / dt))
    if steps < 1:
        raise ValueError("time range shorter than one step")

    names = _state_names(X)
    args = [chart.x(1)] + [sp.Symbol(nm) for nm in names]
    rhs_exprs = [X.F[(a, 1)] for a in range(1, chart.n + 1)]
    rhs_exprs += [X.G[(a, 1, 1)] for a in range(1, chart.n + 1)]
    if X.kind == "extended":
        rhs_exprs.append(X.g[1])
    rhs = sp.lambdify(args, rhs_exprs, "numpy")

    init = {str(k): float(v) for k, v in init.items()}
    missing = [nm for nm in names if nm not in init]
    if missing:
        raise ChartMismatchError(f"initial data missing coordinates: {missing}")
    state = np.array([init[nm] for nm in names], dtype=float)

    t = np.linspace(t0, t1, steps + 1)
    data = np.empty((steps + 1, len(names)))
    data[0] = state

    def deriv(tk, s):
        out = np.asarray(rhs(tk, *s), dtype=float)
        # the state is short: a scalar loop beats numpy's reduction dispatch
        if not all(map(math.isfinite, out.tolist())):
            raise FloatingPointError
        return out

    for k in range(steps):
        tk = t0 + k * dt
        try:
            k1 = deriv(tk, state)
            k2 = deriv(tk + dt / 2, state + dt / 2 * k1)
            k3 = deriv(tk + dt / 2, state + dt / 2 * k2)
            k4 = deriv(tk + dt, state + dt * k3)
        except (FloatingPointError, ZeroDivisionError, ValueError) as exc:
            raise SolverAbortError(
                f"evaluation failed at step {k} (t={tk:.6g})", k) from exc
        state = state + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        data[k + 1] = state

    fields = {nm: data[:, i].copy() for i, nm in enumerate(names)}
    meta = {"scheme": "rk4", "dt": dt, "steps": steps, "kind": X.kind,
            "gauge": X.gauge.mode}
    return SectionGrid("ode", t, fields, meta=meta)


def _check_evolution_form(X: HdwField):
    """Validate the separable evolution split for the 1+1 solver.

    Requires m=2, n=1; dh/dp_t free of p_x, dh/dp_x free of p_t and affine
    in p_x with a nonzero coefficient.
    """
    chart = X.chart
    if chart.m != 2 or chart.n != 1:
        raise ChartMismatchError("solve_field_1p1 requires m = 2, n = 1")
    pt, px = chart.p(1, 1), chart.p(1, 2)
    F_t = X.F[(1, 1)]   # dh/dp_t
    F_x = X.F[(1, 2)]   # dh/dp_x
    if F_t.has(px):
        raise UnsupportedFormError(
            "not evolution form: dh/dp_t depends on the spatial momentum")
    if F_x.has(pt):
        raise UnsupportedFormError(
            "not evolution form: dh/dp_x depends on the time momentum")
    b = simplify(sp.diff(F_x, px))
    if b == 0 or b.has(px):
        raise UnsupportedFormError(
            "not evolution form: dh/dp_x is not affine in p_x with nonzero slope")
    a = simplify(F_x - b * px)
    return a, b


def solve_field_1p1(X: HdwField, init_y: np.ndarray, init_pt: np.ndarray,
                    t_range, dt: float, x_range, npoints: int) -> SectionGrid:
    """Method-of-lines run of the 1+1 evolution-form system."""
    chart = X.chart
    a_expr, b_expr = _check_evolution_form(X)
    if dt <= 0:
        raise ValueError("dt must be positive")
    t0, t1 = float(t_range[0]), float(t_range[1])
    x0, x1 = float(x_range[0]), float(x_range[1])
    steps = int(round((t1 - t0) / dt))
    if steps < 1 or npoints < 5:
        raise ValueError("degenerate grid specification")
    dx = (x1 - x0) / npoints
    x = x0 + dx * np.arange(npoints)

    t_s, x_s = chart.x(1), chart.x(2)
    y_s, pt_s, px_s = chart.y(1), chart.p(1, 1), chart.p(1, 2)
    args = (t_s, x_s, y_s, pt_s, px_s)
    f_Ft = sp.lambdify(args, X.F[(1, 1)], "numpy")
    f_hy = sp.lambdify(args, -(X.G[(1, 1, 1)] + X.G[(1, 2, 2)]), "numpy")
    f_a = sp.lambdify((t_s, x_s, y_s), a_expr, "numpy")
    f_b = sp.lambdify((t_s, x_s, y_s), b_expr, "numpy")

    warnings = []
    if dt > dx:
        warnings.append(f"dt={dt:.4g} exceeds dx={dx:.4g}; explicit scheme may be unstable")

    y = np.array(init_y, dtype=float)
    pt = np.array(init_pt, dtype=float)
    if y.shape != (npoints,) or pt.shape != (npoints,):
        raise ValueError("initial arrays must match the spatial grid")

    def recover_px(tk, yk):
        s = _periodic_dx4(yk, dx)
        return (s - f_a(tk, x, yk)) / f_b(tk, x, yk)

    def deriv(tk, yk, ptk):
        pxk = recover_px(tk, yk)
        dy = f_Ft(tk, x, yk, ptk, pxk) * np.ones(npoints)
        dpt = -f_hy(tk, x, yk, ptk, pxk) * np.ones(npoints) - _periodic_dx4(pxk, dx)
        return dy, dpt

    nt = steps + 1
    t = np.linspace(t0, t1, nt)
    Y = np.empty((nt, npoints))
    PT = np.empty((nt, npoints))
    PX = np.empty((nt, npoints))
    Y[0], PT[0] = y, pt
    PX[0] = recover_px(t0, y)
    for k in range(steps):
        tk = t0 + k * dt
        ky1, kp1 = deriv(tk, y, pt)
        ky2, kp2 = deriv(tk + dt / 2, y + dt / 2 * ky1, pt + dt / 2 * kp1)
        ky3, kp3 = deriv(tk + dt / 2, y + dt / 2 * ky2, pt + dt / 2 * kp2)
        ky4, kp4 = deriv(tk + dt, y + dt * ky3, pt + dt * kp3)
        y = y + dt / 6 * (ky1 + 2 * ky2 + 2 * ky3 + ky4)
        pt = pt + dt / 6 * (kp1 + 2 * kp2 + 2 * kp3 + kp4)
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(pt))):
            raise SolverAbortError(f"solution blew up at step {k}", k)
        Y[k + 1], PT[k + 1] = y, pt
        PX[k + 1] = recover_px(t0 + (k + 1) * dt, y)

    fields = {"y1": Y, "p1_1": PT, "p1_2": PX}
    meta = {"scheme": "rk4/mol-fd4-periodic", "dt": dt, "dx": dx,
            "steps": steps, "npoints": npoints, "kind": X.kind,
            "gauge": X.gauge.mode, "split": "x1-time evolution form",
            "warnings": warnings}
    return SectionGrid("field1p1", t, fields, x=x, meta=meta)


def project_extended(grid: SectionGrid) -> SectionGrid:
    """Drop the extended scalar coordinate from a run."""
    if not grid.has_extended:
        raise ChartMismatchError("grid carries no extended coordinate")
    fields = {k: v for k, v in grid.fields.items() if k != "pe"}
    meta = dict(grid.meta)
    meta["kind"] = "restricted"
    meta["projected-from"] = "extended"
    return SectionGrid(grid.kind, grid.t, fields, x=grid.x, meta=meta)


def discrete_field_energy(grid: SectionGrid) -> np.ndarray:
    """Energy series 1/2 sum(p_t^2 + (dy/dx)^2) dx of a 1+1 run."""
    if grid.kind != "field1p1":
        raise ChartMismatchError("energy series needs a 1+1 field run")
    dx = grid.meta["dx"]
    pt = grid.fields["p1_1"]
    dydx = _periodic_dx4(grid.fields["y1"], dx)
    return 0.5 * np.sum(pt ** 2 + dydx ** 2, axis=1) * dx


def conservation_diagnostics(grid: SectionGrid, H) -> SolveReport:
    """Drift of the total Hamiltonian along an extended run.

    Also reports the max interior residual of d(pe)/dt + d(h o psi)/dt using
    4th-order finite differences, which must vanish along solutions whether
    or not the Hamiltonian is time-dependent.
    """
    if not grid.has_extended:
        raise ChartMismatchError("conservation diagnostics need an extended run")
    H = sp.sympify(H)
    names = ["x1"] + list(grid.fields)
    syms = [sp.Symbol(nm) for nm in names]
    fH = sp.lambdify(syms, H, "numpy")
    cols = [grid.t] + [grid.fields[nm] for nm in grid.fields]
    series = fH(*cols) * np.ones_like(grid.t)
    drift = float(np.max(np.abs(series - series[0])))

    dt = float(grid.t[1] - grid.t[0])
    pe = grid.fields["pe"]
    h_series = series - pe  # H = pe + h along the trajectory
    resid = _fd4(pe, dt) + _fd4(h_series, dt)
    report = SolveReport(
        scheme=grid.meta.get("scheme", "?"),
        steps=len(grid.t) - 1,
        dt=dt,
        drift_series=series,
        drift=drift,
        trajectory_residual=float(np.max(np.abs(resid))),
        meta={"kind": grid.meta.get("kind")},
    )
    return report


def max_discrepancy(g1: SectionGrid, g2: SectionGrid) -> float:
    """Max absolute difference over the fields common to two runs."""
    common = [k for k in g1.fields if k in g2.fields]
    if not common or g1.t.shape != g2.t.shape:
        raise ChartMismatchError("grids are not comparable")
    worst = 0.0
    for k in common:
        if g1.fields[k].shape != g2.fields[k].shape:
            raise ChartMismatchError(f"field {k} has mismatched shapes")
        worst = max(worst, float(np.max(np.abs(g1.fields[k] - g2.fields[k]))))
    return worst
