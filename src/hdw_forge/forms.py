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

Coefficient arithmetic is decided by the helpers `hold`, `read`, `_mul`,
`_diff` and `_signed_products` alone.  A coefficient polynomial in the
frame and its sin, cos and exp atoms is held as an element of
QQ[coords, atoms] (`symbolic.to_ring`), any other as an `Expr`; a product,
sum or derivative (`_diff`, the package's one, by the chain rule) of ring
elements stays in the ring over the union of their atoms unless those
atoms depend on each other.  Every held sum, sum(sign * a * b), is one
`_signed_products` call: one `_fma` pass into one monomial -> coefficient
table on the ring, else the expanded `Expr` sum of the `_mul` products,
held again.  A form coefficient stays so until `CoordForm.simplified`; a
bracket entry and `sum_of_products` are settled (`_settled`).  No ring
element is expanded, simplified or held again.  Other modules hold and
combine coefficients through `hold` and `sum_of_products`, take first
partials from `partials` (a 0-form's `CoordForm.d`), and read values back
through `read` and `HeldView`, the one lazy `Expr` view of held values:
`CoordForm.terms`, curvature, `partials`, and a field's F, G and g tables
(`HeldTable`, a view built complete from values it settles).
No view takes writes: a changed table is a new one.
The Legendre transform substitutes with `compose` and solves with
`determinant` and `solve`: each works in a ring where the held values
allow it and runs the `Expr` computation (`subs`, `Matrix.det`, `LUsolve`)
where they do not, so its caller makes one call whatever path is taken and
reads one result back with `read`.

No arithmetic is done that cannot change a value: a sign is applied by
negation (`_signed`) or while `_fma` accumulates, a ring's +1 or -1 factor
(`_unit`) adds the other factor's terms with no coefficient product, and a
lone product with such a factor is the other factor, or its negation
(`_unit_product`); each key of a form is summed once; a zero derivative
multiplies nothing, a bracket row's derivatives are taken only when the
row is formed, and on the zero level set of pe + h the pe row is formed
from the other rows and h's partials, with no derivative of a pe entry
(`CoordMultiVector.bracket`, `level_bracket`); the held partials of an
expression are taken once per frame (`partials`), and the forms that
depend on the chart alone (the canonical part, the volume form and -d of
the canonical part) are built once per (m, n, level), every caller
getting its own `copy`.
One builder, `_tautological`, makes theta and Omega (`build_theta`,
`build_omega`) and theta_h and omega_h (`hamilton_cartan`) from those
pieces and a scalar's held partials, whether it is held in a ring or off
it; alpha = dH is built from h's held partials too.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from typing import NamedTuple

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import PolyElement

from .coords import BundleChart
from .errors import ChartMismatchError, DegreeError, WrongBundleError
from .symbolic import (is_structurally_zero, ring_diff, ring_expr, ring_widen, simplify,
                       simplify_off_ring, to_ring, unify)


def hold(value, coords):
    """`value` as a coefficient is held: its ring element on the fragment,
    else the sympified `Expr` as it stands.

    A held ring element is shared, not copied: `CoordForm.copy`, `_signed`
    with sign +1 and every table that takes a held value keep the same
    `PolyElement`.  So no code mutates one in place; arithmetic on held
    values always makes a new element.
    """
    if isinstance(value, PolyElement):
        return value
    value = sp.sympify(value)
    poly = to_ring(value, coords)
    return value if poly is None else poly


def read(c, coords):
    """The `Expr` view of a held coefficient."""
    return ring_expr(c, coords) if isinstance(c, PolyElement) else c


def _unit(c):
    """1 or -1 when the ring element `c` is its ring's +1 or -1, else None:
    the one unit test."""
    if len(c) == 1:
        value = c.get(c.ring.zero_monom)
        if value is not None and value.denominator == 1 and value.numerator in (1, -1):
            return 1 if value.numerator > 0 else -1
    return None


def _unit_product(sign, a, b, coords):
    """sign * a * b, for ring elements `a` and `b`, as the other factor or
    its negation (`_signed`) when one factor is its ring's +1 or -1
    (`_unit`) and that ring has no atoms or is the other factor's: the
    product would be that, in the other factor's ring.  None otherwise."""
    for unit, other in ((a, b), (b, a)):
        if unit.ring is other.ring or unit.ring.ngens == len(coords):
            value = _unit(unit)
            if value is not None:
                return _signed(sign * value, other)
    return None


def _mul(a, b, coords):
    """The product of two held values: `_unit_product` when it applies, in
    the ring `unify` gives for two ring elements, else the `Expr`s'."""
    if isinstance(a, PolyElement) and isinstance(b, PolyElement):
        product = _unit_product(1, a, b, coords)
        if product is not None:
            return product
        pair = unify((a, b), coords)
        if pair is not None:
            return pair[0] * pair[1]
    return sp.sympify(read(a, coords)) * read(b, coords)


def _settled(c, coords):
    """A held value's canonical hold: a ring element as it is, an `Expr`,
    which the ring refused, as `hold(simplify_off_ring(c))`."""
    return c if isinstance(c, PolyElement) else hold(simplify_off_ring(c), coords)


def _signed(sign, c):
    """`c` times a key's sign, +1 or -1, by negation: no ring product."""
    return c if sign > 0 else -c


def _diff(c, idx, coords):
    if isinstance(c, PolyElement):
        return ring_diff(c, idx, coords)
    return sp.diff(c, coords[idx])


def _add_terms(acc, sign, c):
    """acc += sign * c, for `c` a ring element and `sign` +1 or -1: term by
    term, with no coefficient product; a coefficient that cancels is
    dropped."""
    if not acc and sign > 0:
        acc.update(c)
        return
    get = acc.get
    for monom, v in c.items():
        old = get(monom)
        if old is None:
            acc[monom] = v if sign > 0 else -v
        else:
            v = old + v if sign > 0 else old - v
            if v.numerator:
                acc[monom] = v
            else:
                del acc[monom]


def _add_product(acc, sign, a, b):
    """acc += sign * a * b, for `a` and `b` elements of one ring, neither a
    unit: one coefficient product per pair of terms, the sign taken by a's
    coefficients; a coefficient that cancels is dropped."""
    get, monomial_mul, terms = acc.get, a.ring.monomial_mul, list(b.items())
    for ma, va in a.items():
        if sign < 0:
            va = -va
        for mb, vb in terms:
            monom = monomial_mul(ma, mb)
            old = get(monom)
            if old is None:
                acc[monom] = va * vb
            else:
                v = old + va * vb
                if v.numerator:
                    acc[monom] = v
                else:
                    del acc[monom]


def _fma(triples, coords):
    """sum(sign * a * b) over `triples` (sign, a, b), each sign +1 or -1, in
    one pass: the held total in the ring `unify` gives for every factor,
    accumulated into one monomial -> coefficient table, or None when there
    is no triple, a factor is an `Expr` or the factors' atoms depend on
    each other.

    A unit factor (`_unit`) adds the other factor's terms, signed, with no
    coefficient product; a new monomial is stored as it is, with no
    addition to zero, and a coefficient is dropped when it cancels.  A lone
    triple with a unit factor is `_unit_product`'s, and makes no new
    element.  In exact arithmetic this is the ring element, in the same
    ring, that the sum of the products `_mul` forms gives.
    """
    factors = [c for _, a, b in triples for c in (a, b)]
    if not factors or not all(isinstance(c, PolyElement) for c in factors):
        return None
    if len(triples) == 1:
        total = _unit_product(*triples[0], coords)
        if total is not None:
            return total
    lifted = unify(factors, coords)
    if lifted is None:
        return None
    acc = {}
    for (sign, _, _), a, b in zip(triples, lifted[::2], lifted[1::2]):
        unit = _unit(a)
        if unit is not None:
            _add_terms(acc, sign * unit, b)
            continue
        unit = _unit(b)
        if unit is not None:
            _add_terms(acc, sign * unit, a)
        else:
            _add_product(acc, sign, a, b)
    return lifted[0].ring.dtype(acc)


def _signed_products(triples, coords):
    """sum(sign * a * b) over `triples` (sign, a, b) of held values, held:
    one `_fma` pass on the ring, else the expanded sum of the `Expr`s of
    the products `_mul` forms, held again (`hold`) when the ring takes it.
    No triple at all sums to the atom-free ring's zero."""
    total = _fma(triples, coords)
    if total is None:
        total = hold(sp.expand(sp.Add(*(read(_signed(sign, _mul(a, b, coords)), coords)
                                        for sign, a, b in triples))), coords)
    return total


@functools.lru_cache(maxsize=256)
def _one(ring):
    """The 1 of `ring`, built once (`ring.one` builds a new element)."""
    return ring.one


def _term(sign, c):
    """The triple (sign, c, 1) by which `_signed_products` adds sign * c;
    the 1 is c's ring's, so that no other ring is unified for it."""
    return sign, c, _one(c.ring) if isinstance(c, PolyElement) else sp.S.One


def sum_of_products(pairs, coords):
    """The sum of a*b over pairs (a, b) of held values, held and settled
    (`_signed_products`, `_settled`).

    A product with a zero factor is skipped: a zero `Expr` factor would take
    the whole sum off the ring.
    """
    return _settled(_signed_products([(1, a, b) for a, b in pairs if a != 0 and b != 0],
                                     coords), coords)


# ---------------------------------------------------------------------------
# Substitution and linear algebra on held values: in a ring where the values
# allow it, else by the `Expr` computation
# ---------------------------------------------------------------------------

def compose(value, images, coords, onto):
    """`value`, held over `coords`, with the coordinate at each position i
    of `images` replaced by the held value images[i], all at once.

    The images and the result are held over `onto`, a frame as long as
    `coords` with the same coordinate at each position not replaced.  Rings
    are keyed by size, so an element of one is read over either frame by
    position, and `PolyElement.compose` substitutes in the ring.  When a
    value is off the ring, their atoms depend on each other, or an atom
    depends on a coordinate that the two frames do not share at a position
    kept, the result is the `Expr` of `Basic.subs(simultaneous=True)`.
    """
    values = [value, *images.values()]
    lifted = unify(values, coords) if all(isinstance(c, PolyElement) for c in values) else None
    if lifted is not None:
        ring = lifted[0].ring
        kept = {s for i, (s, t) in enumerate(zip(coords, onto)) if s == t and i not in images}
        if all(atom.free_symbols <= kept for atom in ring.symbols[len(coords):]):
            return lifted[0].compose([(ring.gens[i], c) for i, c in zip(images, lifted[1:])])
    return read(value, coords).subs(
        {coords[i]: read(c, onto) for i, c in images.items()}, simultaneous=True)


def _constant_matrix(rows):
    """The square matrix of held values `rows` over QQ when every entry is a
    constant of a ring, else None."""
    if not all(isinstance(c, PolyElement) and c.is_ground for row in rows for c in row):
        return None
    return DomainMatrix([[c.get(c.ring.zero_monom, QQ.zero) for c in row] for row in rows],
                        (len(rows), len(rows)), QQ)


def _matrix(rows, coords):
    return sp.Matrix([[read(c, coords) for c in row] for row in rows])


def determinant(rows, coords):
    """det M, an `Expr`, for the square matrix M of held values `rows`: over
    QQ when every entry is a constant, else `simplify` of `Matrix.det`."""
    M = _constant_matrix(rows)
    if M is None:
        return simplify(_matrix(rows, coords).det())
    return QQ.to_sympy(M.det())


def solve(rows, rhs, coords):
    """The held x with M x = rhs, for the invertible square matrix M of held
    values `rows` and the held values `rhs`: M^-1 over QQ times rhs in a
    ring when M is constant and rhs is held in rings, else each entry e of
    `Matrix.LUsolve` (which raises `NonInvertibleMatrixError` for an M it
    finds singular) held as `hold(simplify(e))`."""
    M = _constant_matrix(rows)
    if M is None or not all(isinstance(c, PolyElement) for c in rhs):
        x = _matrix(rows, coords).LUsolve(sp.Matrix([read(c, coords) for c in rhs]))
        return [hold(simplify(e), coords) for e in x]
    ring = hold(0, coords).ring
    return [sum_of_products([(ring.ground_new(q), c) for q, c in zip(row, rhs)], coords)
            for row in M.inv().to_list()]


class HeldView(Mapping):
    """A read-only mapping over held values, kept as held in `held`.  A read
    gives a value's `Expr` (`read`)."""

    def __init__(self, coords, held=None):
        self.coords = tuple(coords)
        self.held = {} if held is None else held

    def __getitem__(self, key):
        return read(self.held[key], self.coords)

    def __iter__(self):
        return iter(self.held)

    def __len__(self):
        return len(self.held)


class HeldTable(HeldView):
    """A `HeldView` built complete from `values`: a value is held (`hold`),
    and one off the ring as `hold(simplify_off_ring(value))`, which tries
    the ring once more only on the simplified value."""

    def __init__(self, coords, values=()):
        coords = tuple(coords)
        super().__init__(coords, {key: _settled(hold(value, coords), coords)
                                  for key, value in dict(values).items()})


def _normalize_key(key):
    """Sort a key tuple; return (sorted_key, sign) or None if an index repeats.

    The sign is the parity of the number of inversions in `key`.
    """
    key = tuple(key)
    if len(set(key)) != len(key):
        return None
    inversions = sum(a > b for i, a in enumerate(key) for b in key[i + 1:])
    return tuple(sorted(key)), -1 if inversions % 2 else 1


class CoordForm:
    """A differential k-form over an ordered coordinate frame.

    Coefficients are held as the helpers above decide: in QQ[coords] on
    the polynomial fragment, as expanded `Expr`s otherwise.  `terms` is a
    `HeldView` of the nonzero coefficients keyed by sorted index tuple, to
    read and changed only through `add_term` (and, on a new form, the
    per-key pass `_add_products`).
    """

    __slots__ = ("coords", "degree", "_coeffs", "terms")

    def __init__(self, coords, degree, terms=None):
        self.coords = tuple(coords)
        if degree < 0 or degree > len(self.coords):
            raise DegreeError(
                f"degree {degree} out of range for a {len(self.coords)}-coordinate frame")
        self.degree = degree
        self._coeffs = {}   # sorted key -> ring element or Expr, never zero
        self.terms = HeldView(self.coords, self._coeffs)
        if terms:
            for key, coeff in terms.items():
                self.add_term(key, coeff)

    def add_term(self, key, coeff):
        """Add `coeff` (an `Expr`, or an element of QQ[coords]) at `key`."""
        if len(key) != self.degree:
            raise DegreeError(f"key {key} has length != degree {self.degree}")
        norm = _normalize_key(key)
        if norm is None:
            return
        key, sign = norm
        triples = [_term(sign, hold(coeff, self.coords))]
        if key in self._coeffs:
            triples.append(_term(1, self._coeffs[key]))
        total = _signed_products(triples, self.coords)
        if total == 0:
            self._coeffs.pop(key, None)
        else:
            self._coeffs[key] = total

    def _add_products(self, gathered):
        """Add sum(sign * a * b) over the triples (sign, a, b) at each sorted
        key of `gathered`, a key not yet held: one `_signed_products` call
        per key."""
        for key, triples in gathered.items():
            total = _signed_products(triples, self.coords)
            if total:
                self._coeffs[key] = total

    def _check_same_frame(self, other):
        if self.coords != other.coords:
            raise ChartMismatchError("forms live over different coordinate frames")

    def copy(self):
        """A new form holding the same coefficients: a write to either
        changes no other form."""
        out = CoordForm(self.coords, self.degree)
        out._coeffs.update(self._coeffs)
        return out

    def map_coeffs(self, fn):
        out = CoordForm(self.coords, self.degree)
        for key, coeff in self.terms.items():
            out.add_term(key, fn(coeff))
        return out

    def simplified(self):
        """Canonical coefficients: a ring element as it is, an `Expr`, which
        the ring refused, held as its `simplify_off_ring` (as `HeldTable`
        holds an off-ring value)."""
        out = CoordForm(self.coords, self.degree)
        for key, c in self._coeffs.items():
            c = _settled(c, self.coords)
            if c != 0:
                out._coeffs[key] = c
        return out

    def __add__(self, other):
        self._check_same_frame(other)
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree")
        gathered = {key: [_term(1, c)] for key, c in self._coeffs.items()}
        for key, c in other._coeffs.items():
            gathered.setdefault(key, []).append(_term(1, c))
        out = CoordForm(self.coords, self.degree)
        out._add_products(gathered)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, factor):
        """The form times `factor`; an integer +1 or -1 is a sign, applied
        to each coefficient by `_signed`."""
        out = CoordForm(self.coords, self.degree)
        if isinstance(factor, (int, sp.Integer)) and factor in (1, -1):
            out._coeffs.update((key, _signed(factor, c)) for key, c in self._coeffs.items())
            return out
        factor = hold(factor, self.coords)
        out._add_products({key: [(1, factor, c)] for key, c in self._coeffs.items()})
        return out

    def wedge(self, other):
        self._check_same_frame(other)
        gathered = {}
        for k1, c1 in self._coeffs.items():
            for k2, c2 in other._coeffs.items():
                merged = _normalize_key(k1 + k2)
                if merged is None:
                    continue
                key, sign = merged
                gathered.setdefault(key, []).append((sign, c1, c2))
        out = CoordForm(self.coords, self.degree + other.degree)
        out._add_products(gathered)
        return out

    def d(self):
        """Exterior derivative over the frame coordinates."""
        gathered = {}
        for key, coeff in self._coeffs.items():
            for idx in range(len(self.coords)):
                dc = _diff(coeff, idx, self.coords)
                if dc == 0:
                    continue
                merged = _normalize_key((idx,) + key)
                if merged is None:
                    continue
                new_key, sign = merged
                gathered.setdefault(new_key, []).append(_term(sign, hold(dc, self.coords)))
        out = CoordForm(self.coords, self.degree + 1)
        out._add_products(gathered)
        return out

    def interior_vector(self, components):
        """Contract with a single vector field given as {coord index: coeff},
        each coeff an `Expr` or an element of QQ[coords]."""
        if self.degree == 0:
            raise DegreeError("cannot contract a 0-form")
        gathered = {}
        for key, coeff in self._coeffs.items():
            for pos, idx in enumerate(key):
                comp = components.get(idx, 0)
                if comp == 0:
                    continue
                rest = key[:pos] + key[pos + 1:]
                gathered.setdefault(rest, []).append((-1 if pos % 2 else 1, comp, coeff))
        out = CoordForm(self.coords, self.degree - 1)
        out._add_products(gathered)
        return out

    def coefficient(self, key):
        norm = _normalize_key(key)
        if norm is None:
            return sp.Integer(0)
        key, sign = norm
        return sign * self.terms.get(key, sp.Integer(0))

    def is_zero(self, seed: int = 0) -> bool:
        """Every coefficient passes `is_structurally_zero` with `seed`."""
        return all(is_structurally_zero(c, seed)[0] for c in self.terms.values())

    def structurally_equal(self, other) -> bool:
        return (self - other).is_zero()

    def pullback(self, new_coords, submap):
        """Pull back along a map given by old coordinate -> Expr(new coords).

        Coordinates absent from `submap` must not occur in the form.  The
        terms of every key are summed in one `_add_products` pass.
        """
        new_coords = tuple(new_coords)
        subs = {sp.sympify(k): sp.sympify(v) for k, v in submap.items()}
        basis = {idx: CoordForm(new_coords, 1, {(j,): c for j, c in enumerate(
                     _held_partials(subs[sym], new_coords)[1].values())})
                 for idx, sym in enumerate(self.coords) if sym in subs}
        gathered = {}
        for key, coeff in self.terms.items():
            term = CoordForm(new_coords, 0, {(): coeff.subs(subs, simultaneous=True)})
            for idx in key:
                if idx not in basis:
                    raise WrongBundleError(
                        f"no substitution for coordinate {self.coords[idx]}")
                term = term.wedge(basis[idx])
            for k, c in term._coeffs.items():
                gathered.setdefault(k, []).append(_term(1, c))
        out = CoordForm(new_coords, self.degree)
        out._add_products(gathered)
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
    positions carry the shared transverse scalar f (default 1).  Each
    component's full table is built once from coefficients taken as held
    values (a ring element, or an `Expr` as it stands: none is held again)
    and scaled by f in held arithmetic.
    """

    def __init__(self, coords, base_positions, fiber_components, f=1):
        self.coords = tuple(coords)
        self.base_positions = tuple(base_positions)
        self.m = len(base_positions)
        self.f = sp.sympify(f)
        if len(fiber_components) != self.m:
            raise DegreeError("need exactly one component per base direction")
        coords = self.coords
        one = hold(1, coords)
        scale = None if self.f == 1 else hold(self.f, coords)
        self._vectors = []
        for base, comp in zip(self.base_positions, fiber_components):
            table = {int(k): v for k, v in comp.items()}
            table[base] = one
            if scale is not None:
                table = {k: _signed_products([(1, scale, c)], coords)
                         for k, c in table.items()}
            self._vectors.append({k: c for k, c in table.items() if c != 0})
        self._derivatives = [{} for _ in range(self.m)]
        self._zero = one.ring.zero

    def vector(self, nu: int) -> dict:
        """Full coefficient table of component nu (1-based), scaled by f; a
        view to read."""
        return self._vectors[nu - 1]

    def _vertical_derivatives(self, nu: int, i: int) -> dict:
        """{j: d(entry i)/d(coordinate j)} of the vertical entry i of
        component nu (1-based), for the coordinates j of the other
        components' entries, without the zero ones; taken once, and only
        for an entry some bracket row asks for.  An entry of a ring without
        atoms is differentiated only along the generators it contains."""
        table = self._derivatives[nu - 1]
        row = table.get(i)
        if row is None:
            coords, c = self.coords, self._vectors[nu - 1][i]
            others = set().union(*(v for k, v in enumerate(self._vectors) if k != nu - 1))
            if isinstance(c, PolyElement) and c.ring.ngens == len(coords):
                others &= {k for monom in c for k, e in enumerate(monom) if e}
            derivatives = ((j, _diff(c, j, coords)) for j in sorted(others))
            row = table[i] = {j: dc for j, dc in derivatives if dc != 0}
        return row

    def bracket(self, nu: int, eta: int, rows=None) -> dict:
        """Vertical part of the bracket [X_nu, X_eta] of two components
        (1-based), held and keyed by coordinate index: each entry is
        `_signed_products` of its terms, settled (`_settled`), so an entry
        off the ring reads as the `simplify` of its `Expr` sum.  Either
        compares to 0 exactly; a `HeldView` reads its `Expr`.  `rows`, the
        vertical coordinate indices to form in increasing order, defaults to
        all of them.

        Each entry's derivatives are taken once per multivector, and a
        term whose derivative is zero is not formed: a zero factor cannot
        change the sum, and a zero `Expr` would take it off the ring.  A
        bracket entry with no term is the ring's zero."""
        a, b, coords = self.vector(nu), self.vector(eta), self.coords
        if rows is None:
            rows = (i for i in range(len(coords)) if i not in self.base_positions)
        out = {}
        for i in rows:
            triples = []
            if i in b:
                d = self._vertical_derivatives(eta, i)
                triples += [(1, c, d[j]) for j, c in a.items() if j in d]
            if i in a:
                d = self._vertical_derivatives(nu, i)
                triples += [(-1, c, d[j]) for j, c in b.items() if j in d]
            out[i] = _settled(_signed_products(triples, coords), coords) if triples else self._zero
        return out

    def level_bracket(self, nu: int, eta: int, level: int, dh: dict) -> dict:
        """`bracket(nu, eta)` of components tangent to the zero level set of
        H = c + h, for c the coordinate at index `level` and h a function
        of the others, with f = 1: X_nu(c) = -Xbar_nu(h), Xbar_nu being X_nu
        without its c entry, so the row of c is -sum_i B_i dh/di over the
        other vertical rows B_i of the bracket.  `dh` maps the index of each
        such row to the held partial of h along it.

        The other rows are formed as `bracket` forms them, and row c as one
        `_fma` pass of them against `dh`; no derivative of a c entry is
        taken.  When that sum leaves the ring, row c is `bracket`'s."""
        rows = [i for i in range(len(self.coords))
                if i not in self.base_positions and i != level]
        out = self.bracket(nu, eta, rows)
        triples = [(-1, out[i], d) for i, d in dh.items() if d != 0 and out[i] != 0]
        total = _fma(triples, self.coords) if triples else self._zero
        out.update(self.bracket(nu, eta, [level]) if total is None else {level: total})
        return dict(sorted(out.items()))


@functools.lru_cache(maxsize=128)
def _held_partials(expr, coords):
    """(held `expr`, {coordinate: held first partial}) along `coords`: the
    0-form's coefficient and its `CoordForm.d`, each partial held as a
    `HeldTable` holds it; a zero one is the ring's zero.

    Kept for the 128 latest (value, frame) pairs.  The key compares
    expressions with sympy's `==`, under which Floats of different
    precision, or symbols of different assumptions, differ: two values
    that `hold` would hold differently never share an entry.
    """
    zero = hold(0, coords)
    form = CoordForm(coords, 0, {(): expr})
    d = form.d()._coeffs
    table = HeldTable(coords, {s: d.get((i,), zero) for i, s in enumerate(coords)})
    return form._coeffs.get((), zero), table.held


def partials(expr, coords) -> HeldView:
    """The first partials of `expr`, an `Expr` or held value, along `coords`
    (`CoordForm.d` of the 0-form), a `HeldView` by coordinate; a zero one reads 0.

    The held partials are taken once per (value, frame), and every call's
    view is over the same held values.
    """
    coords = tuple(coords)
    expr = expr if isinstance(expr, PolyElement) else sp.sympify(expr)
    return HeldView(coords, _held_partials(expr, coords)[1])


def interior_product(X: CoordMultiVector, F: CoordForm) -> CoordForm:
    """Full contraction of a decomposed multivector into a form.

    Component 1 contracts first (innermost); the result has degree
    deg(F) - m.
    """
    if tuple(X.coords) != tuple(F.coords):
        raise ChartMismatchError("multivector and form over different frames")
    if F.degree < X.m:
        raise DegreeError(
            f"cannot contract an m={X.m} multivector into a degree-{F.degree} form")
    out = F
    for nu in range(1, X.m + 1):
        out = out.interior_vector(X.vector(nu))
    return out


def connection_contraction(X: CoordMultiVector, F: CoordForm) -> CoordForm:
    """sum_nu dx^nu ^ i(X_nu) F - (m-1) F, dx^nu the differential of the
    nu-th base coordinate of X.

    The signed products of every key, from -(m-1) F and from each
    contraction wedged with its dx^nu, are gathered and summed in one
    `_add_products` pass: no contraction, wedge or partial sum is a form
    of its own.
    """
    if tuple(X.coords) != tuple(F.coords):
        raise ChartMismatchError("multivector and form over different frames")
    if F.degree == 0:
        raise DegreeError("cannot contract a 0-form")
    gathered = {}
    if X.m > 1:
        scale = hold(X.m - 1, F.coords)
        gathered = {key: [(-1, scale, c)] for key, c in F._coeffs.items()}
    for nu, base in enumerate(X.base_positions, 1):
        components = X.vector(nu)
        for key, coeff in F._coeffs.items():
            for pos, idx in enumerate(key):
                comp = components.get(idx, 0)
                if comp == 0:
                    continue
                merged = _normalize_key((base,) + key[:pos] + key[pos + 1:])
                if merged is None:
                    continue
                new_key, sign = merged
                gathered.setdefault(new_key, []).append(
                    (-sign if pos % 2 else sign, comp, coeff))
    out = CoordForm(F.coords, F.degree)
    out._add_products(gathered)
    return out


# ---------------------------------------------------------------------------
# Canonical forms on the momentum bundles
# ---------------------------------------------------------------------------

def _frame_index(chart: BundleChart, level: str):
    coords = chart.coords(level)
    return coords, {s: i for i, s in enumerate(coords)}


# The forms below depend on the chart alone: they are built once per
# (m, n, level) and shared, and every caller gets its own table (`copy`).
_per_chart = functools.lru_cache(maxsize=64)


class _ChartForms(NamedTuple):
    canonical: CoordForm          # sum p^nu_a dy^a ^ d^{m-1}x_nu
    volume: CoordForm             # dx1 ^ ... ^ dxm
    minus_d_canonical: CoordForm  # -d(canonical)
    volume_key: tuple


@_per_chart
def _chart_forms(m: int, n: int, level: str) -> _ChartForms:
    chart = BundleChart(m, n)
    coords, index = _frame_index(chart, level)
    canonical = CoordForm(coords, chart.m)
    for a in range(1, chart.n + 1):
        for nu in range(1, chart.m + 1):
            key, sign = base_contraction_key(chart, level, nu)
            merged = _normalize_key((index[chart.y(a)],) + key)
            if merged is None:
                continue
            full_key, msign = merged
            canonical.add_term(full_key, sign * msign * chart.p(a, nu))
    volume_key = tuple(index[chart.x(nu)] for nu in range(1, chart.m + 1))
    volume = CoordForm(coords, chart.m, {volume_key: 1})
    return _ChartForms(canonical, volume, -canonical.d(), volume_key)


def _tautological(chart: BundleChart, level: str, sigma) -> tuple[CoordForm, CoordForm]:
    """(theta, omega) on the chart at `level` for a scalar `sigma`:
    theta = canonical part - sigma vol and omega = -d theta
    = -d(canonical part) + d sigma ^ vol, built from sigma's held value and
    held partials (`_held_partials`) and the chart's forms."""
    coords = chart.coords(level)
    held, dsigma = _held_partials(sigma, coords)
    shared = _chart_forms(chart.m, chart.n, level)
    theta = shared.canonical.copy()
    theta.add_term(shared.volume_key, -held)
    omega = shared.minus_d_canonical.copy()
    for i, s in enumerate(coords):
        if dsigma[s]:
            omega.add_term((i,) + shared.volume_key, dsigma[s])
    return theta, omega


def volume_form(chart: BundleChart, level: str = "M") -> CoordForm:
    return _chart_forms(chart.m, chart.n, level).volume.copy()


def base_contraction_key(chart: BundleChart, level: str, nu: int):
    """Key and sign of the (m-1)-form obtained by dropping dx_nu from the volume."""
    coords, index = _frame_index(chart, level)
    key = tuple(index[chart.x(e)] for e in range(1, chart.m + 1) if e != nu)
    sign = (-1) ** (nu - 1)
    return key, sign


def canonical_part(chart: BundleChart, level: str) -> CoordForm:
    """The m-form sum_{a,nu} p^nu_a dy^a ^ d^{m-1}x_nu on the chart at `level`."""
    return _chart_forms(chart.m, chart.n, level).canonical.copy()


def build_theta(chart: BundleChart) -> CoordForm:
    """Tautological m-form on the extended momentum chart: the canonical
    part plus pe vol (`_tautological` with sigma = -pe)."""
    return _tautological(chart, "M", -chart.pe)[0]


def build_omega(chart: BundleChart) -> CoordForm:
    """The closed (m+1)-form, minus the exterior derivative of theta."""
    return _tautological(chart, "M", -chart.pe)[1]


def hamilton_cartan(chart: BundleChart, h) -> tuple[CoordForm, CoordForm]:
    """The pair (theta_h, omega_h) on the restricted momentum chart: theta
    and Omega taken on the section pe = -h (`_tautological` with sigma = h)."""
    return _tautological(chart, "J1", chart.validate_on(h, "J1"))


def alpha_form(chart: BundleChart, h) -> CoordForm:
    """alpha = dH, H = pe + h, on the extended momentum chart.

    alpha is h's held partials (`_held_partials`) taken into the extended
    frame (`ring_widen`) plus 1 dpe, keyed in the order `d` gives: dpe
    last.  The 1 is the one of h's ring so taken, or of the atom-free ring
    for an h off the ring.
    """
    coords, wide = chart.coords("J1"), chart.coords("M")
    held, dh = _held_partials(chart.validate_on(h, "J1"), coords)
    alpha = CoordForm(wide, 1)
    for i, s in enumerate(coords):
        if dh[s]:
            alpha._coeffs[(i,)] = ring_widen(dh[s], coords, wide)
    alpha._coeffs[(len(coords),)] = (ring_widen(held.ring.one, coords, wide)
                                     if isinstance(held, PolyElement) else hold(1, wide))
    return alpha


def extended_alpha(chart: BundleChart, h) -> tuple[sp.Expr, CoordForm]:
    """Total Hamiltonian H = pe + h, read from its held value, and alpha = dH."""
    coords, wide = chart.coords("J1"), chart.coords("M")
    held = _held_partials(chart.validate_on(h, "J1"), coords)[0]
    H = _signed_products([_term(1, ring_widen(held, coords, wide)),
                          _term(1, hold(chart.pe, wide))], wide)
    return read(H, wide), alpha_form(chart, h)
