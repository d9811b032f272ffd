"""Exterior calculus over a fixed coordinate frame.

Forms are sparse tables keyed by strictly increasing index tuples into the
frame's coordinate order; antisymmetry is enforced by sign normalization at
insertion and zero coefficients are dropped.  Multivector fields are stored
as m decomposed components, each sharing the transverse scalar f on the base
directions.

Sign conventions (fixed once, everything downstream derives from them):

  * volume = dx1 ^ ... ^ dxm, coefficient 1;
  * the degree-(m-1) base forms are contractions of the base vectors into
    the volume:  i(d/dx_nu) volume carries the sign (-1)^(nu-1);
  * a decomposed multivector contracts a form component-first:
    i(X1 ^ ... ^ Xm) F = i(Xm) ... i(X1) F  (X1 innermost).

A worked example for the second and third rules is in docs/conventions.md.
"""

from __future__ import annotations

import sympy as sp
from sympy.polys.rings import PolyElement

from .coords import BundleChart
from .errors import ChartMismatchError, DegreeError, WrongBundleError
from .symbolic import poly_ring, simplify, to_poly


def _merge_keys(k1, k2):
    """Merge two strictly increasing tuples; return (key, sign) or None."""
    if set(k1) & set(k2):
        return None
    merged = []
    sign = 1
    i = j = 0
    while i < len(k1) and j < len(k2):
        if k1[i] < k2[j]:
            merged.append(k1[i])
            i += 1
        else:
            merged.append(k2[j])
            # k2[j] hops over the remaining entries of k1
            if (len(k1) - i) % 2 == 1:
                sign = -sign
            j += 1
    merged.extend(k1[i:])
    merged.extend(k2[j:])
    return tuple(merged), sign


def _normalize_key(key):
    """Sort a key tuple, returning (sorted_key, sign) or None if repeated."""
    key = tuple(key)
    if len(set(key)) != len(key):
        return None
    perm = sorted(range(len(key)), key=lambda i: key[i])
    sign = 1
    seen = list(perm)
    # parity of the sorting permutation by cycle counting
    visited = [False] * len(seen)
    for i in range(len(seen)):
        if visited[i]:
            continue
        j = i
        length = 0
        while not visited[j]:
            visited[j] = True
            j = seen[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return tuple(sorted(key)), sign


class CoordForm:
    """A differential k-form over an ordered coordinate frame.

    A coefficient on the polynomial fragment is held as an element of
    QQ[coords] (see `symbolic.to_poly`), so sums, products and derivatives
    of polynomial forms stay in the ring; any other coefficient is held as
    an expanded `Expr`.  `terms` shows every coefficient as an `Expr`.
    """

    __slots__ = ("coords", "degree", "_coeffs", "_terms")

    def __init__(self, coords, degree, terms=None):
        self.coords = tuple(coords)
        if degree < 0 or degree > len(self.coords):
            raise DegreeError(
                f"degree {degree} out of range for a {len(self.coords)}-coordinate frame")
        self.degree = degree
        self._coeffs = {}   # sorted key -> ring element or Expr, never zero
        self._terms = None  # the Expr view, rebuilt on first use after a change
        if terms:
            for key, coeff in terms.items():
                self.add_term(key, coeff)

    @property
    def terms(self) -> dict:
        """Nonzero coefficients as expanded `Expr`s, keyed by sorted index
        tuple; a view to read, changed only through `add_term`."""
        if self._terms is None:
            self._terms = {key: self._expr(c) for key, c in self._coeffs.items()}
        return self._terms

    def _expr(self, coeff):
        return coeff.as_expr(*self.coords) if isinstance(coeff, PolyElement) else coeff

    def add_term(self, key, coeff):
        """Add `coeff` (an `Expr`, or an element of QQ[coords]) at `key`."""
        if len(key) != self.degree:
            raise DegreeError(f"key {key} has length != degree {self.degree}")
        norm = _normalize_key(key)
        if norm is None:
            return
        key, sign = norm
        old = self._coeffs.get(key)
        new = None
        if old is None or isinstance(old, PolyElement):
            new = coeff if isinstance(coeff, PolyElement) else to_poly(coeff, self.coords)
        if new is not None:
            total = sign * new if old is None else old + sign * new
        else:
            total = sp.expand(sign * sp.sympify(self._expr(coeff))
                              + self._expr(self._coeffs.get(key, 0)))
        self._terms = None
        if total == 0:
            self._coeffs.pop(key, None)
        else:
            self._coeffs[key] = total

    def _check_same_frame(self, other):
        if self.coords != other.coords:
            raise ChartMismatchError("forms live over different coordinate frames")

    def copy(self):
        out = CoordForm(self.coords, self.degree)
        out._coeffs = dict(self._coeffs)
        return out

    def map_coeffs(self, fn):
        out = CoordForm(self.coords, self.degree)
        for key, coeff in self.terms.items():
            out.add_term(key, fn(coeff))
        return out

    def simplified(self):
        """Canonical coefficients; ring elements already are."""
        out = CoordForm(self.coords, self.degree)
        for key, c in self._coeffs.items():
            out.add_term(key, c if isinstance(c, PolyElement) else simplify(c))
        return out

    def __add__(self, other):
        self._check_same_frame(other)
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree")
        out = self.copy()
        for key, coeff in other._coeffs.items():
            out.add_term(key, coeff)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, factor):
        factor = sp.sympify(factor)
        poly = to_poly(factor, self.coords)
        out = CoordForm(self.coords, self.degree)
        for key, c in self._coeffs.items():
            if poly is not None and isinstance(c, PolyElement):
                out.add_term(key, poly * c)
            else:
                out.add_term(key, factor * self._expr(c))
        return out

    def wedge(self, other):
        self._check_same_frame(other)
        out = CoordForm(self.coords, self.degree + other.degree)
        for k1, c1 in self._coeffs.items():
            for k2, c2 in other._coeffs.items():
                merged = _merge_keys(k1, k2)
                if merged is None:
                    continue
                key, sign = merged
                if isinstance(c1, PolyElement) and isinstance(c2, PolyElement):
                    out.add_term(key, sign * c1 * c2)
                else:
                    out.add_term(key, sign * self._expr(c1) * other._expr(c2))
        return out

    def d(self):
        """Exterior derivative over the frame coordinates."""
        out = CoordForm(self.coords, self.degree + 1)
        gens = poly_ring(self.coords).gens
        for key, coeff in self._coeffs.items():
            exact = isinstance(coeff, PolyElement)
            for idx, sym in enumerate(self.coords):
                dc = coeff.diff(gens[idx]) if exact else sp.diff(coeff, sym)
                if dc == 0:
                    continue
                merged = _merge_keys((idx,), key)
                if merged is None:
                    continue
                new_key, sign = merged
                out.add_term(new_key, sign * dc)
        return out

    def interior_vector(self, components):
        """Contract with a single vector field given as {coord index: Expr}."""
        if self.degree == 0:
            raise DegreeError("cannot contract a 0-form")
        out = CoordForm(self.coords, self.degree - 1)
        polys = {idx: to_poly(comp, self.coords) for idx, comp in components.items()}
        for key, coeff in self._coeffs.items():
            for pos, idx in enumerate(key):
                comp = components.get(idx, 0)
                if comp == 0:
                    continue
                rest = key[:pos] + key[pos + 1:]
                sign = -1 if pos % 2 else 1
                if polys[idx] is not None and isinstance(coeff, PolyElement):
                    out.add_term(rest, sign * polys[idx] * coeff)
                else:
                    out.add_term(rest, sign * sp.sympify(comp) * self._expr(coeff))
        return out

    def coefficient(self, key):
        norm = _normalize_key(key)
        if norm is None:
            return sp.Integer(0)
        key, sign = norm
        return sp.expand(sign * self._expr(self._coeffs.get(key, sp.Integer(0))))

    def is_zero(self) -> bool:
        # a ring element stored here is never zero
        return all(not isinstance(c, PolyElement) and simplify(c) == 0
                   for c in self._coeffs.values())

    def structurally_equal(self, other) -> bool:
        return (self - other).is_zero()

    def pullback(self, new_coords, submap):
        """Pull back along a map given by old coordinate -> Expr(new coords).

        Coordinates absent from `submap` must not occur in the form.
        """
        new_coords = tuple(new_coords)
        subs = {sp.sympify(k): sp.sympify(v) for k, v in submap.items()}
        basis = {}
        for idx, sym in enumerate(self.coords):
            if sym not in subs:
                continue
            one = CoordForm(new_coords, 1)
            for j, u in enumerate(new_coords):
                dv = sp.diff(subs[sym], u)
                if dv != 0:
                    one.add_term((j,), dv)
            basis[idx] = one
        out = CoordForm(new_coords, self.degree)
        for key, coeff in self.terms.items():
            term = CoordForm(new_coords, 0, {(): sp.sympify(coeff).subs(subs, simultaneous=True)})
            ok = True
            for idx in key:
                if idx not in basis:
                    raise WrongBundleError(
                        f"no substitution for coordinate {self.coords[idx]}")
                term = term.wedge(basis[idx])
                if not term.terms:
                    ok = False
                    break
            if ok:
                out = out + term
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            basis = "^".join(f"d{self.coords[i]}" for i in key) or "1"
            bits.append(f"({self.terms[key]}) {basis}".strip())
        return " + ".join(bits)


class CoordMultiVector:
    """A decomposed multivector X1 ^ ... ^ Xm over a frame.

    Component nu is  f * (d/dx_nu + sum_c coeff[c] d/dc)  where the base
    positions carry the shared transverse scalar f (default 1).
    """

    def __init__(self, coords, base_positions, fiber_components, f=1):
        self.coords = tuple(coords)
        self.base_positions = tuple(base_positions)
        self.m = len(base_positions)
        self.f = sp.sympify(f)
        # list (length m) of {coord index: Expr}, base positions excluded
        self.components = [
            {int(k): sp.sympify(v) for k, v in comp.items() if sp.sympify(v) != 0}
            for comp in fiber_components
        ]
        if len(self.components) != self.m:
            raise DegreeError("need exactly one component per base direction")

    def vector(self, nu: int) -> dict:
        """Full coefficient table of component nu (1-based), scaled by f."""
        comp = dict(self.components[nu - 1])
        comp[self.base_positions[nu - 1]] = sp.Integer(1)
        if self.f != 1:
            comp = {k: sp.expand(self.f * v) for k, v in comp.items()}
        return comp

    def scaled(self, factor):
        return CoordMultiVector(self.coords, self.base_positions,
                                self.components, sp.expand(self.f * sp.sympify(factor)))


def interior_product(X, F: CoordForm) -> CoordForm:
    """Full contraction of a decomposed multivector into a form.

    Component 1 contracts first (innermost); the result has degree
    deg(F) - m.
    """
    if isinstance(X, dict):
        return F.interior_vector(X)
    if tuple(X.coords) != tuple(F.coords):
        raise ChartMismatchError("multivector and form over different frames")
    if F.degree < X.m:
        raise DegreeError(
            f"cannot contract an m={X.m} multivector into a degree-{F.degree} form")
    out = F
    for nu in range(1, X.m + 1):
        out = out.interior_vector(X.vector(nu))
    return out


def wedge(F: CoordForm, G: CoordForm) -> CoordForm:
    return F.wedge(G)


def exterior_derivative(F: CoordForm) -> CoordForm:
    return F.d()


# ---------------------------------------------------------------------------
# Canonical forms on the momentum bundles
# ---------------------------------------------------------------------------

def _frame_index(chart: BundleChart, level: str):
    coords = chart.coords(level)
    return coords, {s: i for i, s in enumerate(coords)}


def volume_form(chart: BundleChart, level: str = "M") -> CoordForm:
    coords, index = _frame_index(chart, level)
    key = tuple(index[chart.x(nu)] for nu in range(1, chart.m + 1))
    return CoordForm(coords, chart.m, {key: 1})


def base_contraction_key(chart: BundleChart, level: str, nu: int):
    """Key and sign of the (m-1)-form obtained by dropping dx_nu from the volume."""
    coords, index = _frame_index(chart, level)
    key = tuple(index[chart.x(e)] for e in range(1, chart.m + 1) if e != nu)
    sign = (-1) ** (nu - 1)
    return key, sign


def build_theta(chart: BundleChart) -> CoordForm:
    """Tautological m-form on the extended momentum chart."""
    coords, index = _frame_index(chart, "M")
    theta = CoordForm(coords, chart.m)
    for a in range(1, chart.n + 1):
        for nu in range(1, chart.m + 1):
            key, sign = base_contraction_key(chart, "M", nu)
            merged = _merge_keys((index[chart.y(a)],), key)
            if merged is None:
                continue
            full_key, msign = merged
            theta.add_term(full_key, sign * msign * chart.p(a, nu))
    vol_key = tuple(index[chart.x(nu)] for nu in range(1, chart.m + 1))
    theta.add_term(vol_key, chart.pe)
    return theta


def build_omega(chart: BundleChart) -> CoordForm:
    """The closed (m+1)-form, minus the exterior derivative of theta."""
    return -build_theta(chart).d()


def hamilton_cartan(chart: BundleChart, h) -> tuple[CoordForm, CoordForm]:
    """The pair (theta_h, omega_h) on the restricted momentum chart."""
    h = chart.validate_on(h, "J1")
    coords, index = _frame_index(chart, "J1")
    theta_h = CoordForm(coords, chart.m)
    for a in range(1, chart.n + 1):
        for nu in range(1, chart.m + 1):
            key, sign = base_contraction_key(chart, "J1", nu)
            merged = _merge_keys((index[chart.y(a)],), key)
            if merged is None:
                continue
            full_key, msign = merged
            theta_h.add_term(full_key, sign * msign * chart.p(a, nu))
    vol_key = tuple(index[chart.x(nu)] for nu in range(1, chart.m + 1))
    theta_h.add_term(vol_key, -h)
    return theta_h, -theta_h.d()


def extended_alpha(chart: BundleChart, h) -> tuple[sp.Expr, CoordForm]:
    """Total Hamiltonian H = pe + h and the exact 1-form alpha = dH."""
    h = chart.validate_on(h, "J1")
    coords, _ = _frame_index(chart, "M")
    H = sp.expand(chart.pe + h)
    alpha = CoordForm(coords, 0, {(): H}).d()
    return H, alpha
