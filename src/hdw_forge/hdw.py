"""Derivation and verification of HDW multivector fields.

Given a local Hamiltonian function on the restricted momentum chart, the
coefficient system fixes the fiber velocities F uniquely, constrains only the
trace of the momentum coefficients G (leaving n*(m^2-1) free functions,
parametrized here by an explicit gauge), and, on the extended chart,
determines the scalar coefficients g uniquely from F and G.  The checkers
below turn the structural statements about these fields (residual equations,
transversality normalization, level-set tangency, connection flatness) into
computable forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import sympy as sp

from .coords import BundleChart
from .errors import ChartMismatchError, DegreeError, GaugeError
from .forms import (CoordForm, CoordMultiVector, base_contraction_key,
                    extended_alpha, hamilton_cartan, interior_product,
                    volume_form, wedge)
from .symbolic import poly_ring, simplify, to_poly


@dataclass(frozen=True)
class HamiltonianModel:
    """A Hamiltonian function on the restricted momentum chart."""

    chart: BundleChart
    h: sp.Expr
    provenance: str = "user-given"

    def __post_init__(self):
        object.__setattr__(self, "h", self.chart.validate_on(self.h, "J1"))


def dof_count(chart: BundleChart) -> int:
    """Number of free functions in the general solution: n*(m^2 - 1)."""
    return chart.n * (chart.m ** 2 - 1)


@dataclass
class GaugeChoice:
    """Parametrization of the free part of the momentum coefficients.

    `off_trace[(a, rho, nu)]` (rho != nu) are the n*m*(m-1) fully free
    entries; `redistribution[(a, nu)]` (nu < m) shift the diagonal split,
    with the last diagonal entry eliminated so the trace constraint holds
    identically.  Missing entries default to 0 ("equal-split").
    """

    mode: str = "equal-split"
    off_trace: dict = field(default_factory=dict)
    redistribution: dict = field(default_factory=dict)

    def validate(self, chart: BundleChart):
        free = 0
        for (a, rho, nu) in self.off_trace:
            if not (1 <= a <= chart.n and 1 <= rho <= chart.m
                    and 1 <= nu <= chart.m) or rho == nu:
                raise GaugeError(
                    f"off-trace entry ({a},{rho},{nu}) is not a free slot")
            free += 1
        for (a, nu) in self.redistribution:
            if not (1 <= a <= chart.n and 1 <= nu <= chart.m - 1):
                raise GaugeError(
                    f"redistribution entry ({a},{nu}) is not a free slot "
                    "(the last diagonal entry is eliminated)")
            free += 1
        if free > dof_count(chart):
            raise GaugeError(
                f"{free} gauge entries given but only {dof_count(chart)} are free")
        for expr in list(self.off_trace.values()) + list(self.redistribution.values()):
            chart.validate_on(expr, "J1")

    def psi(self, chart: BundleChart, a: int, nu: int) -> sp.Expr:
        """Diagonal redistribution; the last entry balances the others."""
        if nu < chart.m:
            return sp.sympify(self.redistribution.get((a, nu), 0))
        return -sum(sp.sympify(self.redistribution.get((a, e), 0))
                    for e in range(1, chart.m))


@dataclass
class HdwField:
    """A derived multivector field with its coefficient tables.

    F[(a, nu)] are the fiber-velocity coefficients, G[(a, rho, nu)] the
    momentum coefficients, and g[nu] (extended kind only) the coefficients
    along the extra scalar direction.
    """

    kind: str  # "restricted" | "extended"
    chart: BundleChart
    F: dict
    G: dict
    g: dict
    gauge: GaugeChoice
    f: sp.Expr = sp.Integer(1)

    @property
    def level(self) -> str:
        return "M" if self.kind == "extended" else "J1"

    def multivector(self) -> CoordMultiVector:
        chart = self.chart
        coords = chart.coords(self.level)
        index = {s: i for i, s in enumerate(coords)}
        base_positions = tuple(index[chart.x(nu)] for nu in range(1, chart.m + 1))
        comps = []
        for nu in range(1, chart.m + 1):
            comp = {}
            for a in range(1, chart.n + 1):
                comp[index[chart.y(a)]] = self.F[(a, nu)]
                for rho in range(1, chart.m + 1):
                    comp[index[chart.p(a, rho)]] = self.G[(a, rho, nu)]
            if self.kind == "extended":
                comp[index[chart.pe]] = self.g[nu]
            comps.append(comp)
        return CoordMultiVector(coords, base_positions, comps, self.f)

    def scaled(self, factor):
        return HdwField(self.kind, self.chart, self.F, self.G, self.g,
                        self.gauge, sp.expand(self.f * sp.sympify(factor)))


def _partials(h, coords) -> dict:
    """dh/ds for each frame symbol s, computed exactly in QQ[frame] when h is
    a polynomial (then already canonical) and by `sp.diff` otherwise."""
    poly = to_poly(h, coords)
    if poly is None:
        return {s: sp.diff(h, s) for s in coords}
    return {s: poly.diff(g).as_expr(*coords) for s, g in zip(coords, poly.ring.gens)}


def _coefficients(model: HamiltonianModel, gauge: GaugeChoice):
    chart, h = model.chart, model.h
    gauge.validate(chart)
    dh = _partials(h, chart.coords("J1"))
    F = {}
    G = {}
    for a in range(1, chart.n + 1):
        h_y = simplify(dh[chart.y(a)])
        for nu in range(1, chart.m + 1):
            F[(a, nu)] = simplify(dh[chart.p(a, nu)])
            for rho in range(1, chart.m + 1):
                if rho == nu:
                    G[(a, rho, nu)] = simplify(
                        -h_y / chart.m + gauge.psi(chart, a, nu))
                else:
                    G[(a, rho, nu)] = simplify(
                        sp.sympify(gauge.off_trace.get((a, rho, nu), 0)))
    return F, G, dh


def derive_restricted(model: HamiltonianModel, gauge: GaugeChoice | None = None) -> HdwField:
    """Solve the restricted coefficient system under the given gauge."""
    gauge = gauge or GaugeChoice()
    F, G, _ = _coefficients(model, gauge)
    return HdwField("restricted", model.chart, F, G, {}, gauge)


def derive_extended(model: HamiltonianModel, gauge: GaugeChoice | None = None) -> HdwField:
    """Restricted coefficients plus the scalar coefficients g."""
    gauge = gauge or GaugeChoice()
    chart = model.chart
    F, G, dh = _coefficients(model, gauge)
    g = {}
    for nu in range(1, chart.m + 1):
        expr = -dh[chart.x(nu)]
        for a in range(1, chart.n + 1):
            for eta in range(1, chart.m + 1):
                if eta == nu:
                    continue
                expr += dh[chart.p(a, nu)] * G[(a, eta, eta)]
                expr -= dh[chart.p(a, eta)] * G[(a, eta, nu)]
        g[nu] = simplify(expr)
    return HdwField("extended", chart, F, G, g, gauge)


def residual_restricted(X: HdwField, omega_h: CoordForm) -> CoordForm:
    """Contraction of the field into omega_h; zero exactly on solutions."""
    if X.kind != "restricted":
        raise ChartMismatchError("residual_restricted needs a restricted field")
    return interior_product(X.multivector(), omega_h).simplified()


def residual_extended(X: HdwField, omega: CoordForm, alpha: CoordForm) -> CoordForm:
    """i(X) omega - (-1)^(m+1) alpha; zero exactly on solutions."""
    if X.kind != "extended":
        raise ChartMismatchError("residual_extended needs an extended field")
    sign = (-1) ** (X.chart.m + 1)
    return (interior_product(X.multivector(), omega) - alpha.scale(sign)).simplified()


def transversality(X: HdwField) -> sp.Expr:
    """Contraction into the base volume form; 1 for normalized fields."""
    vol = volume_form(X.chart, X.level)
    res = interior_product(X.multivector(), vol)
    return simplify(res.coefficient(()))


def mu_vertical_pairing(alpha: CoordForm) -> sp.Expr:
    """Coefficient of the extra scalar differential in a 1-form."""
    if alpha.degree != 1:
        raise DegreeError("vertical pairing needs a 1-form")
    pe = sp.Symbol("pe")
    try:
        idx = alpha.coords.index(pe)
    except ValueError:
        raise ChartMismatchError("form frame has no extended coordinate") from None
    return simplify(alpha.coefficient((idx,)))


def tangency_check(X: HdwField, H) -> list:
    """Per-component contractions into dH; all zero means level-set tangency."""
    if X.kind != "extended":
        raise ChartMismatchError("tangency_check needs an extended field")
    coords = X.chart.coords("M")
    dH = CoordForm(coords, 0, {(): sp.sympify(H)}).d()
    mv = X.multivector()
    out = []
    for nu in range(1, X.chart.m + 1):
        res = dH.interior_vector(mv.vector(nu))
        out.append(simplify(res.coefficient(())))
    return out


def _apply_vector(components, gens, expr):
    """Directional derivative of a scalar along a coefficient table.

    Works alike on `Expr`s (gens: coordinate symbols) and on ring elements
    (gens: the ring's generators).
    """
    out = 0
    for idx, coeff in components.items():
        out += coeff * expr.diff(gens[idx])
    return out


def curvature(X: HdwField) -> dict:
    """Vertical parts of the pairwise brackets of the horizontal lifts.

    Keys are (nu, eta, coordinate name) for nu < eta; all values zero means
    the associated connection is flat (the field is integrable).  Polynomial
    fields are bracketed exactly in QQ[chart coordinates], and each bracket
    is converted to an `Expr` once.
    """
    chart = X.chart
    coords = chart.coords(X.level)
    mv = X.multivector()
    base_set = set(mv.base_positions)
    vertical = [i for i in range(len(coords)) if i not in base_set]
    vectors = [mv.vector(nu) for nu in range(1, chart.m + 1)]
    polys = [{i: to_poly(c, coords) for i, c in v.items()} for v in vectors]
    exact = all(p is not None for v in polys for p in v.values())
    if exact:
        ring = poly_ring(coords)
        vectors, gens, zero = polys, ring.gens, ring.zero
    else:
        gens, zero = coords, sp.Integer(0)
    out = {}
    for nu in range(1, chart.m + 1):
        Xnu = vectors[nu - 1]
        for eta in range(nu + 1, chart.m + 1):
            Xeta = vectors[eta - 1]
            for i in vertical:
                bracket = (_apply_vector(Xnu, gens, Xeta.get(i, zero))
                           - _apply_vector(Xeta, gens, Xnu.get(i, zero)))
                out[(nu, eta, coords[i].name)] = (
                    bracket.as_expr(*coords) if exact else simplify(bracket))
    return out


def connection_equation_check(X: HdwField, omega_h: CoordForm) -> CoordForm:
    """sum_nu dx^nu ^ i(X_nu) omega_h minus (m-1) omega_h; zero on solutions."""
    if X.kind != "restricted":
        raise ChartMismatchError("connection_equation_check needs a restricted field")
    chart = X.chart
    coords = chart.coords("J1")
    index = {s: i for i, s in enumerate(coords)}
    mv = X.multivector()
    total = omega_h.scale(-(chart.m - 1))
    for nu in range(1, chart.m + 1):
        dx = CoordForm(coords, 1, {(index[chart.x(nu)],): 1})
        total = total + dx.wedge(omega_h.interior_vector(mv.vector(nu)))
    return total.simplified()


def standard_checks(model: HamiltonianModel, gauge: GaugeChoice | None = None) -> dict:
    """Run the whole structural battery for one Hamiltonian; returns a dict
    name -> (passed, detail)."""
    chart = model.chart
    gauge = gauge or GaugeChoice()
    Xr = derive_restricted(model, gauge)
    Xe = derive_extended(model, gauge)
    _, omega_h = hamilton_cartan(chart, model.h)
    from .forms import build_omega
    omega = build_omega(chart)
    H, alpha = extended_alpha(chart, model.h)
    results = {}
    r1 = residual_restricted(Xr, omega_h)
    results["restricted residual i(X)omega_h = 0"] = (r1.is_zero(), repr(r1))
    r2 = residual_extended(Xe, omega, alpha)
    results["extended residual i(X)omega = (-1)^(m+1) alpha"] = (r2.is_zero(), repr(r2))
    pair = mu_vertical_pairing(alpha)
    results["vertical pairing of alpha = 1"] = (simplify(pair - 1) == 0, str(pair))
    tr = transversality(Xe)
    results["transversality normalization = 1"] = (simplify(tr - 1) == 0, str(tr))
    tans = tangency_check(Xe, H)
    results["level-set tangency i(X_nu)dH = 0"] = (
        all(t == 0 for t in tans), str(tans))
    conn = connection_equation_check(Xr, omega_h)
    results["connection contraction identity"] = (conn.is_zero(), repr(conn))
    curv = curvature(Xe)
    flat = all(v == 0 for v in curv.values())
    nonzero = sorted(k for k, v in curv.items() if v != 0)
    results["connection flatness (diagnostic)"] = (
        flat, "flat" if flat else f"nonzero bracket components: {nonzero}")
    return results
