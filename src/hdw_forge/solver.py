"""Numerical integration of derived field equations.

Both solvers advance their state with the same classic RK4 loop, `_rk4`,
which holds the state as a list of components and combines them one by
one.  m=1 systems advance one `np.float64` per coordinate, (y, p, [pe]):
the lambdified right-hand side takes the components and returns them as a
list, so a step makes no ufunc call on a small array.  m=2, n=1 systems are
solved by method of lines on a periodic spatial grid in evolution form: the
state is one component, the (2, npoints) array of (y, p_t); the spatial
momentum is recovered algebraically each stage from the spatial relation
dy/dx = dh/dp_x (affine in p_x), and again for each stored row after the
run, with 4th-order centered differences for every spatial derivative.

One abort rule holds for both: if the right-hand side raises an arithmetic
or domain error, or the state is not finite or not real after step k, the
run stops with `SolverAbortError` carrying k.  A non-finite or complex stage
value always makes the new state so, and a run stops at the step that
produced it.  All runs are deterministic: fixed step, fixed-order summation.

`run_coordinates` states, once, the chart each run kind takes and the
coordinates that start it and that its grid stores; `modelfile` and `cli`
ask it too.

numpy is imported by the functions that compute, not with the module, and
every right-hand side is lambdified against the numpy module object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import sympy as sp

from .coords import BundleChart
from .errors import (ChartMismatchError, NonRealValueError, SolverAbortError,
                     UnsupportedFormError)
from .hdw import HdwField
from .symbolic import differentiate, simplify


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
    steps: int
    drift_series: np.ndarray | None = None
    drift: float | None = None
    trajectory_residual: float | None = None


def _fd4(series: np.ndarray, dt: float) -> np.ndarray:
    """4th-order centered first derivative on the interior of a sampled series."""
    import numpy as np
    f = np.asarray(series, dtype=float)
    if f.size < 5:
        raise ValueError("need at least 5 samples for the 4th-order stencil")
    return (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * dt)


def _periodic_dx4(arr: np.ndarray, dx: float) -> np.ndarray:
    """4th-order centered derivative along the last axis with periodic wrap.

    8 a[i+1] - a[i+2] rounds to the same double as -a[i+2] + 8 a[i+1] (x - y
    is x + (-y) in IEEE arithmetic), with one ufunc call fewer.
    """
    import numpy as np
    a = np.concatenate((arr[..., -2:], arr, arr[..., :2]), axis=-1)
    return (8.0 * a[..., 3:-1] - a[..., 4:]
            - 8.0 * a[..., 1:-3] + a[..., :-4]) / (12.0 * dx)


def _rk4(deriv, state: list, t0: float, dt: float, steps: int) -> np.ndarray:
    """Classic RK4 from `state` at t0; returns the (steps + 1, *shape of the
    stacked state) trajectory, the initial state first.

    `state` is a list of components, scalars or arrays, and `deriv(t,
    *state)` returns the derivative's components in the same order.  Each
    stage combines the components one by one with the operations, and in
    the order, that one stacked array would take, so a run does not depend
    on how its state is split.  numpy's overflow and invalid-value warnings
    are off inside the loop: the finiteness check of each stored row
    reports the step instead.
    """
    import numpy as np
    out = np.empty((steps + 1,) + np.shape(state))
    out[0] = state
    half, sixth = dt / 2, dt / 6
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(steps):
            tk = t0 + k * dt
            try:
                k1 = deriv(tk, *state)
                k2 = deriv(tk + half, *[s + half * d for s, d in zip(state, k1)])
                k3 = deriv(tk + half, *[s + half * d for s, d in zip(state, k2)])
                k4 = deriv(tk + dt, *[s + dt * d for s, d in zip(state, k3)])
            except (ArithmeticError, ValueError) as exc:
                raise SolverAbortError(
                    f"evaluation failed at step {k} (t={tk:.6g})", k) from exc
            state = [s + sixth * (a + 2 * b + 2 * c + d)
                     for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
            row = out[k + 1]
            try:
                np.copyto(row, state, casting="same_kind")
            except TypeError:   # same_kind refuses to drop an imaginary part
                raise NonRealValueError(
                    f"non-real value at step {k} (t={tk:.6g})", k) from None
            if not np.isfinite(row).all():
                raise SolverAbortError(f"solution blew up at step {k} (t={tk:.6g})", k)
    return out


def run_coordinates(kind: str, chart: BundleChart, extended: bool) -> tuple:
    """(initial, stored): the coordinates a [solve] block of `kind` gives
    on `chart`, and those its grid stores at each point, in column order.
    An ode run takes a chart with m = 1, starts from y_a, p_a_1 and stores
    them, and pe after them when `extended`; a field1p1 run takes
    (m, n) = (2, 1), starts from y1, p1_1 and also stores p1_2, recovered
    from them, and has no extended form."""
    if kind == "ode" and chart.m != 1:
        raise ChartMismatchError("kind ode needs a chart with m = 1")
    if kind == "field1p1" and (chart.m, chart.n) != (2, 1):
        raise ChartMismatchError("kind field1p1 needs a chart with m = 2, n = 1")
    state = chart.coords("J1")[chart.m:]
    if kind == "field1p1":
        return state[:2], state
    return state, state + ((chart.pe,) if extended else ())


def field_nodes(x_range, npoints: int):
    """(dx, x) of a field run: `npoints` periodic nodes from x_range[0], no
    endpoint."""
    import numpy as np
    x0, x1 = float(x_range[0]), float(x_range[1])
    dx = (x1 - x0) / npoints
    return dx, x0 + dx * np.arange(npoints)


def solve_ode(X: HdwField, init: dict, t_range, dt: float) -> SectionGrid:
    """RK4 on the m=1 system dy/dt = F, dp/dt = G (and dpe/dt = g), one
    `np.float64` state component per coordinate."""
    import numpy as np
    chart = X.chart
    _, stored = run_coordinates("ode", chart, X.kind == "extended")
    if dt <= 0:
        raise ValueError("dt must be positive")
    t0, t1 = float(t_range[0]), float(t_range[1])
    steps = int(round((t1 - t0) / dt))
    if steps < 1:
        raise ValueError("time range shorter than one step")

    names = [c.name for c in stored]
    args = [chart.x(1), *stored]
    rhs_exprs = [X.F[(a, 1)] for a in range(1, chart.n + 1)]
    rhs_exprs += [X.G[(a, 1, 1)] for a in range(1, chart.n + 1)]
    if X.kind == "extended":
        rhs_exprs.append(X.g[1])
    rhs = sp.lambdify(args, rhs_exprs, [np])

    init = {str(k): float(v) for k, v in init.items()}
    missing = [nm for nm in names if nm not in init]
    if missing:
        raise ChartMismatchError(f"initial data missing coordinates: {missing}")
    state = [np.float64(init[nm]) for nm in names]

    data = _rk4(rhs, state, t0, dt, steps)
    t = np.linspace(t0, t1, steps + 1)
    fields = {nm: data[:, i].copy() for i, nm in enumerate(names)}
    meta = {"scheme": "rk4", "dt": dt, "steps": steps, "kind": X.kind,
            "gauge": X.gauge.mode}
    return SectionGrid("ode", t, fields, meta=meta)


def _check_evolution_form(X: HdwField):
    """Validate the separable evolution split for the 1+1 solver.

    Requires dh/dp_t free of p_x, dh/dp_x free of p_t and affine in p_x
    with a nonzero coefficient, on the (2, 1) chart.
    """
    chart = X.chart
    pt, px = chart.p(1, 1), chart.p(1, 2)
    F_t = X.F[(1, 1)]   # dh/dp_t
    F_x = X.F[(1, 2)]   # dh/dp_x
    if F_t.has(px):
        raise UnsupportedFormError(
            "not evolution form: dh/dp_t depends on the spatial momentum")
    if F_x.has(pt):
        raise UnsupportedFormError(
            "not evolution form: dh/dp_x depends on the time momentum")
    b = differentiate(F_x, px)
    if b == 0 or b.has(px):
        raise UnsupportedFormError(
            "not evolution form: dh/dp_x is not affine in p_x with nonzero slope")
    a = simplify(F_x - b * px)
    return a, b


def solve_field_1p1(X: HdwField, init_y: np.ndarray, init_pt: np.ndarray,
                    t_range, dt: float, x_range, npoints: int) -> SectionGrid:
    """Method-of-lines run of the 1+1 evolution-form system; its RK4 state
    is one component, the (2, npoints) array of (y, p_t)."""
    import numpy as np
    chart = X.chart
    _, stored = run_coordinates("field1p1", chart, X.kind == "extended")
    a_expr, b_expr = _check_evolution_form(X)
    if dt <= 0:
        raise ValueError("dt must be positive")
    t0, t1 = float(t_range[0]), float(t_range[1])
    steps = int(round((t1 - t0) / dt))
    if steps < 1 or npoints < 5:
        raise ValueError("degenerate grid specification")
    dx, x = field_nodes(x_range, npoints)

    t_s, x_s, y_s = chart.x(1), chart.x(2), stored[0]
    args = (t_s, x_s, *stored)
    f_Ft = sp.lambdify(args, X.F[(1, 1)], [np])
    f_hy = sp.lambdify(args, -(X.G[(1, 1, 1)] + X.G[(1, 2, 2)]), [np])
    f_a = sp.lambdify((t_s, x_s, y_s), a_expr, [np])
    f_b = sp.lambdify((t_s, x_s, y_s), b_expr, [np])

    warnings = []
    if dt > dx:
        warnings.append(f"dt={dt:.4g} exceeds dx={dx:.4g}; explicit scheme may be unstable")

    y, pt = np.asarray(init_y, dtype=float), np.asarray(init_pt, dtype=float)
    if y.shape != (npoints,) or pt.shape != (npoints,):
        raise ValueError("initial arrays must match the spatial grid")
    state = np.stack((y, pt))

    def recover_px(tk, yk):
        s = _periodic_dx4(yk, dx)
        return (s - f_a(tk, x, yk)) / f_b(tk, x, yk)

    def deriv(tk, s):
        yk, ptk = s
        pxk = recover_px(tk, yk)
        dy, dpt = f_Ft(tk, x, yk, ptk, pxk), -f_hy(tk, x, yk, ptk, pxk) - _periodic_dx4(pxk, dx)
        out = np.empty(s.shape, np.result_type(dy, dpt))   # complex when either is
        out[0], out[1] = dy, dpt
        return (out,)

    data = _rk4(deriv, [state], t0, dt, steps)[:, 0]
    t = np.linspace(t0, t1, steps + 1)
    Y, PT = data[:, 0], data[:, 1]
    PX = np.empty_like(Y)
    for k, yk in enumerate(Y):
        PX[k] = recover_px(t0 + k * dt, yk)

    fields = {c.name: v for c, v in zip(stored, (Y, PT, PX))}
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


def discrete_field_energy(grid: SectionGrid, h) -> np.ndarray:
    """Energy series sum(e) dx of a 1+1 run of the Hamiltonian `h`, over
    each time row: e = h - p1_2 dy1/dx2, the x1-component of the
    energy-momentum balance, conserved when h does not depend on x1."""
    import numpy as np
    if grid.kind != "field1p1":
        raise ChartMismatchError("energy series needs a 1+1 field run")
    coords = BundleChart(2, 1).coords("J1")   # x1, x2, y1, p1_1, p1_2
    f_h = sp.lambdify(coords, h, [np])
    y, pt, px = (grid.fields[c.name] for c in coords[2:])
    # a blown-up run overflows here; the caller refuses the non-finite drift
    with np.errstate(over="ignore", invalid="ignore"):
        e = f_h(grid.t[:, None], grid.x, y, pt, px) - px * _periodic_dx4(y, grid.meta["dx"])
        return np.sum(e, axis=1) * grid.meta["dx"]


def conservation_diagnostics(grid: SectionGrid, H) -> SolveReport:
    """Drift of the total Hamiltonian along an extended run.

    Also reports the max interior residual of d(pe)/dt + d(h o psi)/dt using
    4th-order finite differences, which must vanish along solutions whether
    or not the Hamiltonian is time-dependent.
    """
    import numpy as np
    if not grid.has_extended:
        raise ChartMismatchError("conservation diagnostics need an extended run")
    H = sp.sympify(H)
    names = ["x1"] + list(grid.fields)
    syms = [sp.Symbol(nm) for nm in names]
    fH = sp.lambdify(syms, H, [np])
    cols = [grid.t] + [grid.fields[nm] for nm in grid.fields]
    series = fH(*cols) * np.ones_like(grid.t)
    drift = float(np.max(np.abs(series - series[0])))

    dt = float(grid.t[1] - grid.t[0])
    pe = grid.fields["pe"]
    h_series = series - pe  # H = pe + h along the trajectory
    resid = _fd4(pe, dt) + _fd4(h_series, dt)
    return SolveReport(
        steps=len(grid.t) - 1,
        drift_series=series,
        drift=drift,
        trajectory_residual=float(np.max(np.abs(resid))),
    )


def max_discrepancy(g1: SectionGrid, g2: SectionGrid) -> float:
    """Max absolute difference over the fields common to two runs; nan
    when either holds a nan."""
    import numpy as np
    common = [k for k in g1.fields if k in g2.fields]
    if not common or g1.t.shape != g2.t.shape:
        raise ChartMismatchError("grids are not comparable")
    worst = 0.0
    for k in common:
        if g1.fields[k].shape != g2.fields[k].shape:
            raise ChartMismatchError(f"field {k} has mismatched shapes")
        worst = float(np.maximum(worst, np.max(np.abs(g1.fields[k] - g2.fields[k]))))
    return worst
