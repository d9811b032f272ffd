"""Lagrangian input: momentum maps, regularity, induced Hamiltonians.

The transform runs on held values.  A `LegendreResult` keeps the momenta
and the Hessian (`forms.partials` of lag) as `HeldView`s over
"L" = (x, y, v), and the inverse velocities as one over "J1" = (x, y, p):
the frames agree position by position, so a held value is read over
either.  The extended entry and h are held sums (`forms.sum_of_products`),
det H and V = H^-1 (p - p|v=0) come from `forms.determinant` and
`forms.solve`, and h and the elimination's dh/dy substitute by composition
(`forms.compose`): each in the coefficient ring when the values allow it
(a constant Hessian; no Float, log, denominator or atom of a replaced
coordinate), else by `Matrix.det`, `LUsolve` or `subs`.

One builder, `_residuals`, forms the Euler-Lagrange residuals and the
momentum elimination over formal second-order symbols that never leave
this module, from the same divergence of the same momenta: the round trip
comparing them is no independent oracle, and checks only -dlag/dy_a
against dh/dy_a at p = dlag/dv.  Its involution half,
`involution_residuals`, checks the inverse: dh/dp at p = dlag/dv must give
back v.  The tests check `euler_lagrange` against sympy's
`euler_equations`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import sympy as sp

from .coords import BundleChart
from .errors import ChartMismatchError, RegularityError, SampleDomainError
from .forms import (HeldView, build_omega, compose, determinant, hold, partials, read, solve,
                    sum_of_products)
from .hdw import HamiltonianModel
from .symbolic import exact, is_structurally_zero, ring_widen


@dataclass(frozen=True)
class LagrangianModel:
    """A Lagrangian function on the velocity chart (x, y, v); Floats made `exact`."""

    chart: BundleChart
    lag: sp.Expr

    def __post_init__(self):
        object.__setattr__(self, "lag", exact(self.chart.validate_on(self.lag, "L")))


@dataclass(frozen=True)
class LegendreResult:
    model: LagrangianModel
    momenta: HeldView        # (a, nu) -> dlag/dv, held over "L"
    extended: sp.Expr        # lag - v . dlag/dv
    hessian: HeldView        # ((a, nu), (b, eta)) -> d2lag/dv dv, held over "L"
    classification: str      # hyper-regular-closed-form | regular-local | degenerate
    inverse_velocities: HeldView  # (a, nu) -> held over "J1"; empty without a closed form

    @cached_property
    def _induced(self) -> HamiltonianModel:
        chart, V = self.model.chart, self.inverse_velocities.held
        coords, onto = chart.coords("L"), chart.coords("J1")
        at_v = compose(hold(self.model.lag, coords),
                       {coords.index(chart.v(*s)): v for s, v in V.items()}, coords, onto)
        h = sum_of_products([(hold(chart.p(*s), onto), v) for s, v in V.items()]
                            + [(hold(-1, onto), at_v)], onto)
        return HamiltonianModel(chart, read(h, onto), provenance="from-Legendre")


def _velocity_slots(chart: BundleChart):
    return [(a, nu) for a in range(1, chart.n + 1) for nu in range(1, chart.m + 1)]


def legendre_maps(model: LagrangianModel, *, seed: int = 0) -> LegendreResult:
    """Momentum map, extended entry, Hessian, and regularity classification;
    det H is "degenerate" when `is_structurally_zero` with `seed` says it is
    zero."""
    chart, lag = model.chart, model.lag
    coords, onto = chart.coords("L"), chart.coords("J1")
    slots = _velocity_slots(chart)
    dlag = partials(lag, coords).held
    p = {s: dlag[chart.v(*s)] for s in slots}
    extended = sum_of_products(
        [(hold(1, coords), hold(lag, coords))]
        + [(hold(-chart.v(*s), coords), p[s]) for s in slots], coords)
    dp = {s: partials(p[s], coords).held for s in slots}
    hessian = HeldView(coords, {(s1, s2): dp[s1][chart.v(*s2)] for s1 in slots for s2 in slots})
    rows = [[hessian.held[(s1, s2)] for s2 in slots] for s1 in slots]
    det = determinant(rows, coords)
    if is_structurally_zero(det, seed)[0]:
        classification = "degenerate"
    elif det.free_symbols:
        classification = "regular-local"
    else:
        classification = "hyper-regular-closed-form"
    velocities = {chart.v(*s) for s in slots}
    inverse = HeldView(onto)
    if classification == "hyper-regular-closed-form" and not any(
            e.free_symbols & velocities for e in hessian.values()):
        # a Hessian free of v makes p = H v + p|v=0, solved for v exactly; H
        # names no v, so it is held over "J1" as it is over "L"
        at_rest = {coords.index(chart.v(*s)): hold(0, coords) for s in slots}
        rhs = [sum_of_products([(hold(1, onto), hold(chart.p(*s), onto)),
                                (hold(-1, onto), compose(p[s], at_rest, coords, onto))], onto)
               for s in slots]
        try:
            inverse = HeldView(onto, dict(zip(slots, solve(rows, rhs, onto))))
        except sp.matrices.exceptions.NonInvertibleMatrixError:
            pass
    return LegendreResult(model, HeldView(coords, p), read(extended, coords), hessian,
                          classification, inverse)


def hamiltonian_from_lagrangian(res: LegendreResult) -> HamiltonianModel:
    """Induced Hamiltonian h = p . V - lag(V) on the restricted chart, held by `res`."""
    if res.classification != "hyper-regular-closed-form" or not res.inverse_velocities:
        raise RegularityError(
            f"no closed-form inverse for classification {res.classification!r}; "
            "supply a Hamiltonian directly")
    return res._induced


def second_order_symbol(a: int, nu: int, eta: int) -> sp.Symbol:
    """Formal symmetric second-derivative symbol of the Euler-Lagrange residuals."""
    lo, hi = sorted((nu, eta))
    return sp.Symbol(f"y{a}_dd{lo}_{hi}")


def _residuals(chart: BundleChart, momenta: dict, others) -> list:
    """sum_nu D_nu momenta[(a, nu)] + others[a - 1] for a = 1..n, D_nu the
    formal total derivative along x^nu.  Each is one held sum over "L"
    followed by the second-order symbols; `ring_widen` takes the partials
    and `others`, held over "L", into that frame."""
    coords, slots = chart.coords("L"), _velocity_slots(chart)
    frame = coords + tuple(dict.fromkeys(second_order_symbol(b, nu, eta)
                                         for b, nu in slots for eta in range(1, chart.m + 1)))
    one = hold(1, frame)
    # D_nu = d/dx_nu + v_(b,nu) d/dy_b + y_(b,nu,eta) d/dv_(b,eta): (factor, coordinate)s
    derivatives = [[(one, chart.x(nu))]
                   + [(hold(chart.v(b, nu), frame), chart.y(b)) for b in range(1, chart.n + 1)]
                   + [(hold(second_order_symbol(b, nu, eta), frame), chart.v(b, eta))
                      for b, eta in slots] for nu in range(1, chart.m + 1)]
    dp = {s: partials(p, coords).held for s, p in momenta.items()}
    out = []
    for a, other in enumerate(others, 1):
        pairs = [(one, other)] + [(c, dp[(a, nu)][z])
                                  for nu, D in enumerate(derivatives, 1) for c, z in D]
        total = sum_of_products([(c, ring_widen(d, coords, frame)) for c, d in pairs], frame)
        out.append(read(total, frame))
    return out


def euler_lagrange(model: LagrangianModel) -> list:
    """The n Euler-Lagrange residuals over formal first/second-order symbols."""
    chart = model.chart
    dlag = partials(model.lag, chart.coords("L")).held
    return _residuals(chart, {s: dlag[chart.v(*s)] for s in _velocity_slots(chart)},
                      [-dlag[chart.y(a)] for a in range(1, chart.n + 1)])


def hdw_momentum_elimination(source) -> list:
    """Trace HDW equations with momenta eliminated through the momentum map
    of `source`, a `LegendreResult` or a `LagrangianModel`.

    Substituting p = dlag/dv into the derived field's trace constraint and
    expanding the divergence with formal total derivatives yields n residual
    expressions over the same symbols as `euler_lagrange`; structural
    equality of the two lists, with one divergence, is the round trip.
    """
    res = source if isinstance(source, LegendreResult) else legendre_maps(source)
    ham = hamiltonian_from_lagrangian(res)
    chart = res.model.chart
    coords, onto = chart.coords("J1"), chart.coords("L")
    momenta = {coords.index(chart.p(*s)): p for s, p in res.momenta.held.items()}
    # dh/dy with p = dlag/dv, held over the "L" frame
    return _residuals(chart, res.momenta.held,
                      [compose(ham.partials.held[chart.y(a)], momenta, coords, onto)
                       for a in range(1, chart.n + 1)])


def involution_residuals(res: LegendreResult) -> list:
    """dh/dp^nu_a at p = dlag/dv minus v^a_nu, one per velocity slot: all
    zero when the inverse velocities invert the momentum map, which the
    trace half of the round trip never looks at."""
    dh = hamiltonian_from_lagrangian(res).partials.held
    chart = res.model.chart
    coords, onto = chart.coords("J1"), chart.coords("L")
    momenta = {coords.index(chart.p(*s)): p for s, p in res.momenta.held.items()}
    return [read(compose(dh[chart.p(*s)], momenta, coords, onto), onto) - chart.v(*s)
            for s in _velocity_slots(chart)]


_RANK_TOL = 1e-9


def rank_diagnostics(chart: BundleChart, embedding: dict, h_P, samples, *,
                     params) -> list:
    """Kernel dimension of the contracted pullback structure at sample points.

    `embedding` maps every restricted-chart coordinate to an expression over
    the parameter symbols `params`; `h_P` is an expression over them.  At
    each sample omega_P, Omega (`build_omega`) pulled back along (embedding,
    pe = -h_P), is flattened to the matrix of single-vector contractions;
    the reported number is the dimension of its kernel intersected with the
    vectors vertical over the base (tolerance 1e-9 times the largest
    singular value).  The vertical restriction is what degeneracy of the
    underlying Lagrangian obstructs; without it the m=1 case would always
    report the one-dimensional evolution direction.  A sample at which the
    matrix cannot be evaluated, or is not finite and real, raises
    `SampleDomainError` with its position.
    """
    import numpy as np
    params = tuple(params)
    d = len(params)
    if d == 0:
        raise ChartMismatchError("embedding needs at least one parameter")
    missing = [c for c in chart.coords("J1") if c not in embedding]
    if missing:
        raise ChartMismatchError(
            "embedding must cover every restricted-chart coordinate; missing: "
            + ", ".join(s.name for s in missing))

    omega_P = build_omega(chart).pullback(params, {**embedding, chart.pe: -h_P})
    if omega_P.degree > d:
        raise ChartMismatchError(
            f"pullback degree {omega_P.degree} exceeds parameter count {d}")

    # row i: the contraction i(d/du_i) omega_P, then the base Jacobian column
    # d x_nu / d u_i (verticality: kernel vectors must not move the base)
    cols = list(itertools.combinations(range(d), omega_P.degree - 1))
    base = [partials(embedding[chart.x(nu)], params) for nu in range(1, chart.m + 1)]
    rows = []
    for i, u in enumerate(params):
        contracted = omega_P.interior_vector({i: 1})
        rows.append([contracted.coefficient(c) for c in cols] + [dx[u] for dx in base])
    system = sp.lambdify(params, sp.Matrix(rows), [np])
    out = []
    for k, pt in enumerate(samples):
        vals = [float(v) for v in pt]
        if len(vals) != d:
            raise ChartMismatchError(
                f"sample {pt} has {len(vals)} entries, expected {d}")
        try:
            with np.errstate(all="ignore"):
                K = np.array(system(*vals), dtype=complex)
            real = np.isfinite(K).all() and not K.imag.any()
            problem = None if real else "is not finite and real there"
        except (ArithmeticError, ValueError, TypeError) as exc:
            problem = f"cannot be evaluated there ({type(exc).__name__})"
        if problem:
            raise SampleDomainError(f"sample {pt} is outside the embedding's domain: "
                                    f"the contraction matrix {problem}", k)
        K = K.real
        svals = np.linalg.svd(K, compute_uv=False)
        rank = int(np.sum(svals > _RANK_TOL * svals[0]))
        out.append(d - rank)
    return out
