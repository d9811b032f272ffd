"""Derivation and verification of HDW multivector fields.

Given a local Hamiltonian function on the restricted momentum chart, the
coefficient system fixes the fiber velocities F uniquely, constrains only the
trace of the momentum coefficients G (leaving n*(m^2-1) free functions,
parametrized here by a `GaugeChoice`, a value), and, on the extended chart,
determines the scalar coefficients g uniquely from F and G.  The checkers
below turn the structural statements about these fields (residual equations,
transversality normalization, level-set tangency, connection flatness) into
computable forms.

h and the gauge entries hold each Float as the Rational of its repr
(`symbolic.exact`), the number a model file's decimal parses to, so a Float
keeps no coefficient off the ring.  Coefficients are held as `forms` holds
them (`forms.hold`): a ring element when polynomial in the frame and its
sin/cos/exp atoms, the `Expr` as given otherwise.  That choice is made in `forms` alone; this module derives F, G
and g in held arithmetic (`forms.sum_of_products`), each table complete,
into an `HdwField`, a value whose `forms.HeldView`s read each entry as its
canonical `Expr` only when it is read.  `curvature` is a `forms.HeldView`
of the held brackets of `CoordMultiVector.bracket`; on a field with f = 1
whose tangency `standard_checks` has found exactly 0, the pe row of each
bracket is -sum_i B_i dh/di over its y and p rows B_i
(`CoordMultiVector.level_bracket`), with no derivative of a g entry.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import sympy as sp

from .coords import BundleChart
from .errors import ChartMismatchError, DegreeError, GaugeError
from .forms import (CoordForm, CoordMultiVector, HeldTable, HeldView, alpha_form,
                    build_omega, connection_contraction, hamilton_cartan, hold,
                    interior_product, partials, sum_of_products, volume_form)
from .symbolic import exact, is_structurally_zero, ring_widen


@dataclass(frozen=True)
class HamiltonianModel:
    """A Hamiltonian function on the restricted momentum chart; Floats made `exact`."""

    chart: BundleChart
    h: sp.Expr
    provenance: str = "user-given"

    def __post_init__(self):
        object.__setattr__(self, "h", exact(self.chart.validate_on(self.h, "J1")))

    @cached_property
    def partials(self) -> HeldView:
        """`forms.partials` of h, taken once: both derivations read them."""
        return partials(self.h, self.chart.coords("J1"))


def dof_count(chart: BundleChart) -> int:
    """Number of free functions in the general solution: n*(m^2 - 1)."""
    return chart.n * (chart.m ** 2 - 1)


@dataclass(frozen=True)
class GaugeChoice:
    """Parametrization of the free part of the momentum coefficients.

    `off_trace[(a, rho, nu)]` (rho != nu) are the n*m*(m-1) fully free
    entries; `redistribution[(a, nu)]` (nu < m) shift the diagonal split,
    with the last diagonal entry eliminated so the trace constraint holds
    identically.  Missing entries default to 0 ("equal-split").  Each table
    is a read-only copy of the one given, its Floats made `exact`.
    """

    mode: str = "equal-split"
    off_trace: Mapping = field(default_factory=dict)
    redistribution: Mapping = field(default_factory=dict)

    def __post_init__(self):
        for name in ("off_trace", "redistribution"):
            table = {key: exact(e) for key, e in getattr(self, name).items()}
            object.__setattr__(self, name, MappingProxyType(table))

    @staticmethod
    def check_slot(chart: BundleChart, key: tuple):
        """Raise `GaugeError` unless `key` is a free slot of `chart`: the
        (a, rho, nu) of an off-trace entry or the (a, nu) of a
        redistribution entry."""
        if len(key) == 3:
            a, rho, nu = key
            if not (1 <= a <= chart.n and 1 <= rho <= chart.m
                    and 1 <= nu <= chart.m) or rho == nu:
                raise GaugeError(
                    f"off-trace entry ({a},{rho},{nu}) is not a free slot")
        else:
            a, nu = key
            if not (1 <= a <= chart.n and 1 <= nu <= chart.m - 1):
                raise GaugeError(
                    f"redistribution entry ({a},{nu}) is not a free slot "
                    "(the last diagonal entry is eliminated)")

    def validate(self, chart: BundleChart):
        """Raise unless each key is a free slot, so at most `dof_count` are given."""
        for table, size in ((self.off_trace, 3), (self.redistribution, 2)):
            for key in table:
                if len(key) != size:
                    raise GaugeError(f"gauge key {key} needs {size} indices")
                self.check_slot(chart, key)
                chart.validate_on(table[key], "J1")

    def psi(self, chart: BundleChart, a: int, nu: int) -> sp.Expr:
        """Diagonal redistribution; the last entry balances the others."""
        if nu < chart.m:
            return self.redistribution.get((a, nu), sp.Integer(0))
        return -sum(self.redistribution.get((a, e), 0) for e in range(1, chart.m))


@dataclass(frozen=True)
class HdwField:
    """A derived multivector field with its coefficient tables.

    F[(a, nu)] are the fiber-velocity coefficients, G[(a, rho, nu)] the
    momentum coefficients, and g[nu] (extended kind only) the coefficients
    along the extra scalar direction.  Each is a `forms.HeldView` on the
    restricted chart: a `HeldView` over that frame is taken as it is, and
    any other mapping is held into a `forms.HeldTable`.  A field is a
    value: a changed field is a new one, and `multivector()` takes the
    tables' values as held, built on the first call.
    """

    kind: str  # "restricted" | "extended"
    chart: BundleChart
    F: Mapping
    G: Mapping
    g: Mapping
    gauge: GaugeChoice
    f: sp.Expr = sp.Integer(1)

    def __post_init__(self):
        coords = self.chart.coords("J1")
        for name in ("F", "G", "g"):
            table = getattr(self, name)
            if not (isinstance(table, HeldView) and table.coords == coords):
                object.__setattr__(self, name, HeldTable(coords, table))

    @property
    def level(self) -> str:
        return "M" if self.kind == "extended" else "J1"

    def multivector(self) -> CoordMultiVector:
        return self._multivector

    @cached_property
    def _multivector(self) -> CoordMultiVector:
        chart = self.chart
        coords = chart.coords(self.level)
        index = {s: i for i, s in enumerate(coords)}
        base_positions = tuple(index[chart.x(nu)] for nu in range(1, chart.m + 1))
        held_on = chart.coords("J1")
        F, G, g = ({key: ring_widen(c, held_on, coords) for key, c in table.held.items()}
                   for table in (self.F, self.G, self.g))
        comps = []
        for nu in range(1, chart.m + 1):
            comp = {}
            for a in range(1, chart.n + 1):
                comp[index[chart.y(a)]] = F[(a, nu)]
                for rho in range(1, chart.m + 1):
                    comp[index[chart.p(a, rho)]] = G[(a, rho, nu)]
            if self.kind == "extended":
                comp[index[chart.pe]] = g[nu]
            comps.append(comp)
        return CoordMultiVector(coords, base_positions, comps, self.f)

    def restricted(self) -> "HdwField":
        """Projection onto the restricted chart: the same F, G, gauge and f,
        without g."""
        return HdwField("restricted", self.chart, self.F, self.G, {}, self.gauge, self.f)

    def scaled(self, factor):
        return HdwField(self.kind, self.chart, self.F, self.G, self.g,
                        self.gauge, sp.expand(self.f * sp.sympify(factor)))


def derive_restricted(model: HamiltonianModel, gauge: GaugeChoice | None = None) -> HdwField:
    """Solve the restricted coefficient system under the given gauge."""
    gauge = gauge or GaugeChoice()
    chart = model.chart
    gauge.validate(chart)
    coords = chart.coords("J1")
    one, share = hold(1, coords), hold(sp.Rational(-1, chart.m), coords)
    zero = hold(0, coords)
    off_trace = HeldTable(coords, gauge.off_trace).held
    dh = model.partials.held
    F = {(a, nu): dh[chart.p(a, nu)]
         for a in range(1, chart.n + 1) for nu in range(1, chart.m + 1)}
    G = {}
    for a in range(1, chart.n + 1):
        h_y = dh[chart.y(a)]
        for nu in range(1, chart.m + 1):
            for rho in range(1, chart.m + 1):
                if rho == nu:
                    psi = hold(gauge.psi(chart, a, nu), coords)
                    G[(a, rho, nu)] = sum_of_products([(share, h_y), (one, psi)], coords)
                else:
                    G[(a, rho, nu)] = off_trace.get((a, rho, nu), zero)
    # every entry is settled (`HeldTable`, `sum_of_products`): no table is held again
    return HdwField("restricted", chart, HeldView(coords, F), HeldView(coords, G), {}, gauge)


def derive_extended(model: HamiltonianModel, gauge: GaugeChoice | None = None) -> HdwField:
    """The restricted field plus the scalar coefficients g, which F, G and
    the base partials of h (`model.partials`, as `derive_restricted` read
    them) fix."""
    X = derive_restricted(model, gauge)
    chart = model.chart
    coords = chart.coords("J1")
    F, G = X.F.held, X.G.held
    minus = hold(-1, coords)
    g = {}
    for nu in range(1, chart.m + 1):
        pairs = [(minus, model.partials.held[chart.x(nu)])]
        for a in range(1, chart.n + 1):
            for eta in range(1, chart.m + 1):
                if eta != nu:
                    pairs += [(F[(a, nu)], G[(a, eta, eta)]),
                              (-F[(a, eta)], G[(a, eta, nu)])]
        g[nu] = sum_of_products(pairs, coords)
    return HdwField("extended", chart, X.F, X.G, HeldView(coords, g), X.gauge)


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
    out = interior_product(X.multivector(), omega)
    for key, c in alpha.terms.held.items():
        out.add_term(key, -c if sign > 0 else c)
    return out.simplified()


def transversality(X: HdwField) -> sp.Expr:
    """Contraction into the base volume form; 1 for normalized fields."""
    vol = volume_form(X.chart, X.level)
    res = interior_product(X.multivector(), vol)
    return res.simplified().coefficient(())


def mu_vertical_pairing(alpha: CoordForm) -> sp.Expr:
    """Coefficient of the extra scalar differential in a 1-form."""
    if alpha.degree != 1:
        raise DegreeError("vertical pairing needs a 1-form")
    pe = sp.Symbol("pe")
    try:
        idx = alpha.coords.index(pe)
    except ValueError:
        raise ChartMismatchError("form frame has no extended coordinate") from None
    return alpha.simplified().coefficient((idx,))


def tangency_check(X: HdwField, alpha: CoordForm) -> list:
    """Per-component contractions into alpha = dH (`forms.alpha_form`, or
    `forms.extended_alpha`); all zero means level-set tangency."""
    if X.kind != "extended":
        raise ChartMismatchError("tangency_check needs an extended field")
    if alpha.degree != 1 or tuple(alpha.coords) != tuple(X.chart.coords("M")):
        raise ChartMismatchError("tangency_check needs a 1-form on the extended chart")
    mv = X.multivector()
    return [alpha.interior_vector(mv.vector(nu)).simplified().coefficient(())
            for nu in range(1, X.chart.m + 1)]


def curvature(X: HdwField, *, h_partials: HeldView | None = None) -> Mapping:
    """Vertical parts of the pairwise brackets of the horizontal lifts.

    Keys are (nu, eta, coordinate name) for nu < eta; all values zero means
    the associated connection is flat (the field is integrable).  The
    result is a `forms.HeldView` of `CoordMultiVector.bracket` of the field's
    multivector: a value is read as its canonical `Expr`, and the view's
    `held` table gives the held values, which compare to 0 exactly.

    `h_partials`, the held first partials of h on the restricted chart
    (`HamiltonianModel.partials`), may be given only for an extended field
    with f = 1 that is tangent to the zero level set of H = pe + h, every
    i(X_nu)dH exactly 0.  Then g_nu = -Xbar_nu(h), so the pe row is
    [X_nu, X_eta](pe) = -sum_i B_i dh/di over the y and p rows B_i
    (`CoordMultiVector.level_bracket`), and no g entry is differentiated.
    Without it, or where that sum leaves the ring, the pe row is the direct
    bracket's; the keys, their order and the values are the same.
    """
    chart = X.chart
    coords = chart.coords(X.level)
    mv = X.multivector()
    if h_partials is not None:
        # the y and p rows share their indices on both frames
        level, frame = coords.index(chart.pe), h_partials.coords
        dh = {i: ring_widen(h_partials.held[s], frame, coords)
              for i, s in enumerate(frame) if i >= chart.m}
    held = {}
    for nu in range(1, chart.m + 1):
        for eta in range(nu + 1, chart.m + 1):
            bracket = (mv.bracket(nu, eta) if h_partials is None
                       else mv.level_bracket(nu, eta, level, dh))
            for i, v in bracket.items():
                held[(nu, eta, coords[i].name)] = v
    return HeldView(coords, held)


def connection_equation_check(X: HdwField, omega_h: CoordForm) -> CoordForm:
    """sum_nu dx^nu ^ i(X_nu) omega_h minus (m-1) omega_h; zero on solutions."""
    if X.kind != "restricted":
        raise ChartMismatchError("connection_equation_check needs a restricted field")
    return connection_contraction(X.multivector(), omega_h).simplified()


def standard_checks(model: HamiltonianModel, gauge: GaugeChoice | None = None, *,
                    Xe: HdwField | None = None, seed: int = 0) -> dict:
    """Run the whole structural battery for one Hamiltonian; returns a dict
    name -> (passed, detail).

    `Xe` is the extended field to check, derived from `model` under `gauge`
    when not given; the restricted checks run on its projection
    `Xe.restricted()`.  `seed` seeds every sampled zero test.
    """
    chart = model.chart
    Xe = Xe or derive_extended(model, gauge)
    Xr = Xe.restricted()
    _, omega_h = hamilton_cartan(chart, model.h)
    omega = build_omega(chart)
    alpha = alpha_form(chart, model.h)
    results = {}
    r1 = residual_restricted(Xr, omega_h)
    results["restricted residual i(X)omega_h = 0"] = (r1.is_zero(seed), repr(r1))
    r2 = residual_extended(Xe, omega, alpha)
    results["extended residual i(X)omega = (-1)^(m+1) alpha"] = (r2.is_zero(seed), repr(r2))
    pair = mu_vertical_pairing(alpha)
    results["vertical pairing of alpha = 1"] = (
        is_structurally_zero(pair - 1, seed)[0], str(pair))
    tr = transversality(Xe)
    results["transversality normalization = 1"] = (
        is_structurally_zero(tr - 1, seed)[0], str(tr))
    tans = tangency_check(Xe, alpha)
    results["level-set tangency i(X_nu)dH = 0"] = (
        all(is_structurally_zero(t, seed)[0] for t in tans), str(tans))
    conn = connection_equation_check(Xr, omega_h)
    results["connection contraction identity"] = (conn.is_zero(seed), repr(conn))
    # on the zero level set of H the pe row of each bracket follows from the
    # y and p rows and h's partials (`curvature`): only an exact tangency
    # of a field with f = 1 takes it
    tangent = Xe.f == 1 and all(t == 0 for t in tans)
    curv = curvature(Xe, h_partials=model.partials if tangent else None).held
    # flatness is a diagnostic and decides no verdict, so it is not sampled:
    # a held bracket compares to 0 exactly, in the ring (which imposes no
    # relation between atoms) or as its `simplify`d `Expr`, and none is
    # turned into an `Expr` to decide it
    flat = all(v == 0 for v in curv.values())
    nonzero = sorted(k for k, v in curv.items() if v != 0)
    results["connection flatness (diagnostic)"] = (
        flat, "flat" if flat else f"nonzero bracket components: {nonzero}")
    return results
