"""The ring-backed canonical form agrees with the plain `Expr` algebra.

`simplify`, `CoordForm.add_term` and `curvature` canonicalize polynomial
input exactly in QQ[frame]; every other input keeps the expand / cancel
path.  Both must give the same `Expr`, equal under `==` and `str`, as the
reference copies of the `Expr` code below.  `curvature` brackets each term
in the ring or on `Expr`s as its factors are held, and must give what the
all-or-nothing bracket it replaced gave.  `derive_restricted` and
`derive_extended` form F, G and g on held coefficients and must give what
the `Expr` derivation they replaced gave.
"""

import ast
import collections.abc
import itertools
import pathlib
import random
import sys

import pytest
import sympy as sp
from sympy.polys.rings import PolyElement

from hdw_forge import (BundleChart, GaugeChoice, HamiltonianModel, derive_extended, forms,
                       hdw, legendre, symbolic)
from hdw_forge.forms import (CoordForm, CoordMultiVector, _diff, _mul, _normalize_key, _signed,
                             base_contraction_key, build_theta, hamilton_cartan, hold, read)
from hdw_forge.hdw import (HdwField, curvature, derive_restricted, residual_restricted,
                          standard_checks)
from hdw_forge.symbolic import has_transcendental, simplify, to_poly

from conftest import (MN_MATRIX, make_check_input, random_gauge, random_polynomial_h,
                      same_outputs_tool)


def reference_simplify(e):
    e = sp.expand(sp.sympify(e))
    if has_transcendental(e):
        return e
    num, den = sp.fraction(sp.together(e))
    if den != 1:
        e = sp.expand(sp.cancel(e))
    return e


def reference_merge_keys(k1, k2):
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


def reference_normalize_key(key):
    """Sorted key and the parity of the sorting permutation by cycle counting."""
    if len(set(key)) != len(key):
        return None
    perm = sorted(range(len(key)), key=lambda i: key[i])
    sign = 1
    visited = [False] * len(perm)
    for i in range(len(perm)):
        length = 0
        j = i
        while not visited[j]:
            visited[j] = True
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return tuple(sorted(key)), sign


def test_key_sign_matches_references():
    for length in range(6):
        for key in itertools.product(range(6), repeat=length):
            assert _normalize_key(key) == reference_normalize_key(key), key
    increasing = [k for r in range(5) for k in itertools.combinations(range(8), r)]
    for k1 in increasing:
        for k2 in increasing:
            assert _normalize_key(k1 + k2) == reference_merge_keys(k1, k2), (k1, k2)


def reference_terms(insertions, terms=None):
    """Coefficient table built by `Expr` insertions, as `add_term` once did."""
    terms = {} if terms is None else dict(terms)
    for key, coeff in insertions:
        norm = _normalize_key(key)
        if norm is None:
            continue
        key, sign = norm
        coeff = sp.expand(sign * sp.sympify(coeff) + terms.get(key, 0))
        if coeff == 0:
            terms.pop(key, None)
        else:
            terms[key] = coeff
    return terms


def reference_wedge(t1, t2):
    out = []
    for k1, c1 in t1.items():
        for k2, c2 in t2.items():
            merged = reference_merge_keys(k1, k2)
            if merged is not None:
                out.append((merged[0], merged[1] * c1 * c2))
    return reference_terms(out)


def reference_d(terms, coords):
    out = []
    for key, coeff in terms.items():
        for idx, sym in enumerate(coords):
            dc = sp.diff(coeff, sym)
            merged = reference_merge_keys((idx,), key)
            if dc != 0 and merged is not None:
                out.append((merged[0], merged[1] * dc))
    return reference_terms(out)


def reference_interior(terms, components):
    out = []
    for key, coeff in terms.items():
        for pos, idx in enumerate(key):
            comp = components.get(idx, 0)
            if comp != 0:
                sign = -1 if pos % 2 else 1
                out.append((key[:pos] + key[pos + 1:], sign * sp.sympify(comp) * coeff))
    return reference_terms(out)


def reference_vectors(X):
    """The components f*(d/dx_nu + F d/dy + G d/dp + g d/dpe) of X, built
    from its tables alone."""
    chart = X.chart
    index = {s: i for i, s in enumerate(chart.coords(X.level))}
    vectors = []
    for nu in range(1, chart.m + 1):
        comp = {index[chart.x(nu)]: sp.Integer(1)}
        for a in range(1, chart.n + 1):
            comp[index[chart.y(a)]] = X.F[(a, nu)]
            for rho in range(1, chart.m + 1):
                comp[index[chart.p(a, rho)]] = X.G[(a, rho, nu)]
        if X.kind == "extended":
            comp[index[chart.pe]] = X.g[nu]
        vectors.append({i: sp.expand(X.f * c) for i, c in comp.items()})
    return vectors


def reference_curvature(X, names=None):
    """The brackets on `Expr`s, of every vertical row or of the rows of the
    coordinates `names`."""
    chart = X.chart
    coords = chart.coords(X.level)
    vectors = reference_vectors(X)
    base = {coords.index(chart.x(nu)) for nu in range(1, chart.m + 1)}
    vertical = [i for i in range(len(coords))
                if i not in base and (names is None or coords[i].name in names)]

    def apply(components, expr):
        out = sp.Integer(0)
        for idx, coeff in components.items():
            out += coeff * sp.diff(expr, coords[idx])
        return out

    out = {}
    for nu in range(1, chart.m + 1):
        Xnu = vectors[nu - 1]
        for eta in range(nu + 1, chart.m + 1):
            Xeta = vectors[eta - 1]
            for i in vertical:
                bracket = (apply(Xnu, Xeta.get(i, sp.Integer(0)))
                           - apply(Xeta, Xnu.get(i, sp.Integer(0))))
                out[(nu, eta, coords[i].name)] = reference_simplify(bracket)
    return out


def assert_same(a, b):
    assert a == b and str(a) == str(b), (a, b)


def assert_same_terms(form, expected):
    assert list(form.terms) == list(expected)
    for key, coeff in expected.items():
        assert_same(form.terms[key], coeff)


def random_insertions(coords, degree, rng, polys, count=12):
    out = []
    for _ in range(count):
        key = tuple(rng.randrange(len(coords)) for _ in range(degree))
        coeff = rng.choice(polys) * rng.choice(polys)
        out.append((key, coeff))
        if rng.random() < 0.3:   # cancels it: reversing a key takes degree//2 swaps
            out.append((key[::-1], -(-1) ** (degree // 2) * coeff))
    return out


@pytest.mark.parametrize("m,n", MN_MATRIX)
class TestPolynomialFragment:
    def test_simplify_matches_expr_path(self, m, n):
        rng = random.Random(100 * m + n)
        chart = BundleChart(m, n)
        coords = chart.coords("M")
        for _ in range(2):
            h = random_polynomial_h(chart, rng)
            g = random_polynomial_h(chart, rng, n_terms=3)
            exprs = [h, h * g - g * h, (h - g) ** 2 / 3, sp.Rational(5, 7) + 0 * h]
            exprs += [sp.diff(h, s) / rng.randint(1, 4) for s in rng.sample(coords, 3)]
            for e in exprs:
                assert to_poly(e, coords) is not None
                assert_same(simplify(e), reference_simplify(e))

    def test_form_algebra_matches_expand(self, m, n):
        rng = random.Random(200 * m + n)
        chart = BundleChart(m, n)
        coords = chart.coords("M")
        polys = [random_polynomial_h(chart, rng, n_terms=2, p_degree=2, y_degree=1)
                 for _ in range(5)]
        forms = []
        for degree in range(1, min(3, len(coords)) + 1):
            insertions = random_insertions(coords, degree, rng, polys, count=6)
            form = CoordForm(coords, degree)
            for key, coeff in insertions:
                form.add_term(key, coeff)
            assert_same_terms(form, reference_terms(insertions))
            forms.append(form)
        one, two = forms[:2]
        comps = {i: rng.choice(polys) for i in rng.sample(range(len(coords)), 3)}
        assert_same_terms(one.wedge(two), reference_wedge(one.terms, two.terms))
        assert_same_terms(one.d(), reference_d(one.terms, coords))
        assert_same_terms(two.interior_vector(comps), reference_interior(two.terms, comps))

    def test_omega_h_matches_expr_path(self, m, n):
        rng = random.Random(300 * m + n)
        chart = BundleChart(m, n)
        theta_h, omega_h = hamilton_cartan(chart, random_polynomial_h(chart, rng))
        d_theta = reference_d(theta_h.terms, chart.coords("J1"))
        assert_same_terms(omega_h, reference_terms([(k, -c) for k, c in d_theta.items()]))

    def test_curvature_matches_expr_brackets(self, m, n):
        rng = random.Random(400 * m + n)
        chart = BundleChart(m, n)
        model = HamiltonianModel(chart, random_polynomial_h(chart, rng, n_terms=3))
        X = derive_extended(model, random_gauge(chart, rng, density=0.3))
        got, expected = curvature(X), reference_curvature(X)
        assert got.keys() == expected.keys()
        for key in expected:
            assert_same(got[key], expected[key])


def reference_tautological(chart, level, vol_coeff):
    """sum p dy ^ d^{m-1}x + vol_coeff vol, by the loop the builders once ran."""
    coords = chart.coords(level)
    index = {s: i for i, s in enumerate(coords)}
    form = CoordForm(coords, chart.m)
    for a in range(1, chart.n + 1):
        for nu in range(1, chart.m + 1):
            key, sign = base_contraction_key(chart, level, nu)
            merged = reference_merge_keys((index[chart.y(a)],), key)
            if merged is None:
                continue
            full_key, msign = merged
            form.add_term(full_key, sign * msign * chart.p(a, nu))
    form.add_term(tuple(index[chart.x(nu)] for nu in range(1, chart.m + 1)), vol_coeff)
    return form


@pytest.mark.parametrize("m,n", MN_MATRIX)
def test_tautological_builders_match_loop(m, n):
    rng = random.Random(500 * m + n)
    chart = BundleChart(m, n)
    assert_same_terms(build_theta(chart), reference_tautological(chart, "M", chart.pe).terms)
    transcendental = (sp.sin(chart.y(1)) * chart.p(1, 1) + sp.exp(chart.x(m)) / 3
                      + 0.5 * chart.p(n, m) ** 2)
    for h in (random_polynomial_h(chart, rng), transcendental):
        theta_h, omega_h = hamilton_cartan(chart, h)
        expected = reference_tautological(chart, "J1", -h)
        assert_same_terms(theta_h, expected.terms)
        assert_same_terms(omega_h, (-expected.d()).terms)


y1, p1_1, x1 = sp.symbols("y1 p1_1 x1")
A, B = sp.symbols("A B", commutative=False)
OFF_FRAGMENT = [0.5 * y1, sp.pi * y1, 1 / y1, sp.sqrt(y1), sp.sin(y1) * p1_1,
                (y1 + 1) / (y1 ** 2 - 1), sp.Float(2.0) + p1_1 ** 2, A * B - B * A]


class TestOffFragment:
    @pytest.mark.parametrize("e", OFF_FRAGMENT, ids=str)
    def test_takes_expr_path(self, e):
        assert to_poly(e, (x1, y1, p1_1)) is None
        assert_same(simplify(e), reference_simplify(e))
        form = CoordForm((x1, y1, p1_1), 1)
        insertions = [((1,), e), ((1,), p1_1 * y1 / 3), ((2,), e * (y1 + 1))]
        for key, coeff in insertions:
            form.add_term(key, coeff)
        expected = reference_terms(insertions)
        for key, coeff in expected.items():
            assert_same(form.terms[key], coeff)

    def test_float_is_not_rationalized(self):
        assert str(simplify(0.5 * y1)) == "0.5*y1"
        form = CoordForm((x1, y1, p1_1), 0, {(): 0.5 * y1})
        assert str(form.terms[()]) == "0.5*y1"

    def test_symbol_outside_frame(self):
        z = sp.Symbol("z")
        assert to_poly(z * y1, (x1, y1)) is None
        form = CoordForm((x1, y1), 1, {(0,): z * (y1 + 1)})
        assert_same(form.terms[(0,)], z * y1 + z)

    def test_form_algebra_on_mixed_coefficients(self):
        rng = random.Random(17)
        chart = BundleChart(2, 1)
        coords = chart.coords("J1")
        y, p = chart.y(1), chart.p(1, 1)
        polys = [random_polynomial_h(chart, rng, n_terms=2) for _ in range(4)]
        coeffs = polys + [sp.sin(y) * p, 0.5 * y, 1 / (1 + y ** 2), sp.pi * p]
        forms = []
        for degree in (1, 2):
            insertions = random_insertions(coords, degree, rng, coeffs)
            form = CoordForm(coords, degree)
            for key, coeff in insertions:
                form.add_term(key, coeff)
            assert_same_terms(form, reference_terms(insertions))
            forms.append(form)
        one, two = forms
        assert_same_terms(one.wedge(two), reference_wedge(one.terms, two.terms))
        assert_same_terms(two.d(), reference_d(two.terms, coords))
        comps = {i: rng.choice(coeffs) for i in rng.sample(range(len(coords)), 3)}
        assert_same_terms(two.interior_vector(comps), reference_interior(two.terms, comps))
        for factor in (-1, sp.Rational(2, 3) * y, sp.cos(p)):
            scaled = reference_terms([(k, factor * c) for k, c in two.terms.items()])
            assert_same_terms(two.scale(factor), scaled)
        assert_same_terms(two + two.scale(-1), {})
        other = one.d().interior_vector(comps)
        assert_same_terms(one - other,
                          reference_terms([(k, -c) for k, c in other.terms.items()], one.terms))
        assert_same_terms(one.simplified(), reference_terms(
            [(k, reference_simplify(c)) for k, c in one.terms.items()]))
        assert (one - one).is_zero() and not one.is_zero()
        for key in one.terms:
            assert_same(one.coefficient(key[::-1]), one.terms[key])

    def test_curvature_of_transcendental_field(self):
        chart = BundleChart(2, 1)
        h = (chart.p(1, 1) ** 2 - chart.p(1, 2) ** 2) / 2 + sp.sin(chart.y(1)) * chart.x(1)
        X = derive_extended(HamiltonianModel(chart, h))
        got, expected = curvature(X), reference_curvature(X)
        for key in expected:
            assert_same(got[key], expected[key])


def random_atom_coefficient(chart, rng, terms=3):
    """A rational combination of monomials of the extended frame times
    sin, cos and exp atoms.  The exp atoms of one coefficient share a sign,
    so the coefficient is held in a ring."""
    coords = chart.coords("M")
    sign = rng.choice((-1, 1))
    out = sp.Integer(0)
    for _ in range(terms):
        u = rng.choice(coords) * rng.choice((1, 2, rng.choice(coords)))
        c = sign * sp.Rational(rng.randint(1, 3), rng.randint(1, 2))
        atom = rng.choice((sp.sin(u), sp.cos(u), sp.exp(c * u)))
        out += (sp.Rational(rng.randint(-4, 4), rng.randint(1, 3))
                * atom ** rng.randint(1, 2) * rng.choice(coords) ** rng.randint(0, 2))
    return sp.expand(out)


def tampered_residual(h, extra):
    """repr of the restricted residual of the (1, 1) field of h with `extra`
    added to F[1][1]."""
    chart = BundleChart(1, 1)
    model = HamiltonianModel(chart, h)
    X = derive_restricted(model)
    F = dict(X.F)
    F[(1, 1)] = F[(1, 1)] + extra
    _, omega_h = hamilton_cartan(chart, model.h)
    return repr(residual_restricted(HdwField(X.kind, chart, F, X.G, X.g, X.gauge), omega_h))


class TestAtomRing:
    @pytest.mark.parametrize("m,n", MN_MATRIX)
    def test_diff_matches_sp_diff(self, m, n):
        rng = random.Random(f"atom diff {m} {n}")
        chart = BundleChart(m, n)
        coords = chart.coords("M")
        for _ in range(3):
            e = random_atom_coefficient(chart, rng)
            held = hold(e, coords)
            assert isinstance(held, PolyElement)
            assert sp.srepr(read(held, coords)) == sp.srepr(e)
            for idx, s in enumerate(coords):
                got = read(_diff(held, idx, coords), coords)
                expected = sp.expand(sp.diff(e, s))
                assert got == expected and sp.srepr(got) == sp.srepr(expected), (e, s)

    @pytest.mark.parametrize("m,n", MN_MATRIX)
    def test_form_algebra_matches_expand(self, m, n):
        # coefficients of both exp signs meet in products, which sympy may
        # merge to 1; those products are taken on `Expr`s
        rng = random.Random(f"atom forms {m} {n}")
        chart = BundleChart(m, n)
        coords = chart.coords("M")
        coeffs = [random_atom_coefficient(chart, rng, terms=2) for _ in range(5)]
        forms = []
        for degree in range(1, min(3, len(coords)) + 1):
            insertions = random_insertions(coords, degree, rng, coeffs, count=6)
            form = CoordForm(coords, degree)
            for key, coeff in insertions:
                form.add_term(key, coeff)
            assert_same_terms(form, reference_terms(insertions))
            forms.append(form)
        one, two = forms[:2]
        comps = {i: rng.choice(coeffs) for i in rng.sample(range(len(coords)), 3)}
        assert_same_terms(one.wedge(two), reference_wedge(one.terms, two.terms))
        assert_same_terms(one.d(), reference_d(one.terms, coords))
        assert_same_terms(two.interior_vector(comps), reference_interior(two.terms, comps))

    def test_exp_multiples_share_a_generator(self):
        coords = (x1, y1, p1_1)
        e = sp.exp(y1 / 2) + p1_1 * sp.exp(y1) - sp.exp(3 * y1 / 2) / 5
        held = hold(e, coords)
        assert isinstance(held, PolyElement)
        assert held.ring.symbols[len(coords):] == (sp.exp(y1 / 2),)
        assert sp.srepr(read(held, coords)) == sp.srepr(e)
        square = _mul(held, held, coords)
        assert sp.srepr(read(square, coords)) == sp.srepr(sp.expand(e * e))

    @pytest.mark.parametrize("e", [sp.exp(y1) + sp.exp(-y1), sp.sin(sp.log(y1)),
                                   sp.exp(y1 + x1), sp.cos(y1) * sp.log(y1)], ids=str)
    def test_dependent_or_off_fragment_atoms_stay_expr(self, e):
        held = hold(e, (x1, y1, p1_1))
        assert not isinstance(held, PolyElement)
        assert held == e

    def test_exp_of_both_signs_multiply_on_exprs(self):
        # sympy's exp(y1)*exp(-y1) is 1; the free ring would keep the product
        coords = (x1, y1, p1_1)
        up, down = hold(sp.exp(y1), coords), hold(p1_1 * sp.exp(-y1), coords)
        assert isinstance(up, PolyElement) and isinstance(down, PolyElement)
        assert _mul(up, down, coords) == p1_1
        assert held_sum([up, down], coords) == sp.exp(y1) + p1_1 * sp.exp(-y1)

    @pytest.mark.parametrize("h,extra,expected", [
        (p1_1 ** 2 / 2 + p1_1 * sp.exp(y1 / 2) + sp.exp(y1), p1_1 * sp.exp(y1 / 2),
         "(p1_1**2*exp(y1)/2 + p1_1*exp(3*y1/2)) dx1 + (p1_1*exp(y1/2)) dp1_1"),
        (p1_1 ** 2 / 2 + p1_1 * sp.exp(y1) + sp.exp(-y1), p1_1 * sp.exp(-y1),
         "(p1_1**2 - p1_1*exp(-2*y1)) dx1 + (p1_1*exp(-y1)) dp1_1"),
        (p1_1 ** 2 / 2 + p1_1 * sp.sin(sp.log(y1)), sp.cos(sp.log(y1)),
         "(p1_1*cos(log(y1))**2/y1) dx1 + (cos(log(y1))) dp1_1"),
    ], ids=["exp-multiples", "exp-both-signs", "sin-of-log"])
    def test_residual_repr_as_on_exprs(self, h, extra, expected):
        # the expected strings are what the all-`Expr` algebra printed
        assert tampered_residual(h, extra) == expected


def all_or_nothing_curvature(X):
    """`curvature` as it was computed before `CoordMultiVector.bracket`:
    wholly in QQ[coords] when every entry of every component is on the
    polynomial fragment, else wholly on `Expr`s and simplified."""
    chart = X.chart
    coords = chart.coords(X.level)
    vectors = []
    for table in reference_vectors(X):
        held = {i: to_poly(c, coords) for i, c in table.items() if c != 0}
        vectors.append({i: table[i] if p is None else p for i, p in held.items()})
    base = {coords.index(chart.x(nu)) for nu in range(1, chart.m + 1)}
    vertical = [i for i in range(len(coords)) if i not in base]
    exact = all(isinstance(c, PolyElement) for v in vectors for c in v.values())
    if exact:
        ring = vectors[0][min(base)].ring
        gens, zero = ring.gens, ring.zero
    else:
        vectors = [{i: c.as_expr(*coords) if isinstance(c, PolyElement) else c
                    for i, c in v.items()} for v in vectors]
        gens, zero = coords, sp.Integer(0)

    def apply(components, expr):
        out = 0
        for idx, coeff in components.items():
            out += coeff * expr.diff(gens[idx])
        return out

    out = {}
    for nu in range(1, chart.m + 1):
        Xnu = vectors[nu - 1]
        for eta in range(nu + 1, chart.m + 1):
            Xeta = vectors[eta - 1]
            for i in vertical:
                bracket = apply(Xnu, Xeta.get(i, zero)) - apply(Xeta, Xnu.get(i, zero))
                out[(nu, eta, coords[i].name)] = (
                    bracket.as_expr(*coords) if exact else simplify(bracket))
    return out


def case_field(m, n, kind):
    """An extended field whose coefficients are polynomial ("poly"), carry
    sin/exp terms ("trans") or a 1/y1 term ("rational") through h, or are
    polynomial but for one log(y1) off-trace gauge entry ("mixed"), which
    stays an `Expr` while the rest are ring elements."""
    rng = random.Random(f"one rule {m} {n} {kind}")
    chart = BundleChart(m, n)
    h = random_polynomial_h(chart, rng, n_terms=3)
    gauge = random_gauge(chart, rng, density=0.3)
    if kind == "trans":
        h += sp.sin(chart.y(1)) * chart.p(1, m) / 2 + sp.exp(chart.x(1) / 3)
    elif kind == "rational":
        h += chart.p(n, 1) / chart.y(1) + chart.x(m) * chart.y(n) ** 2
    elif kind == "mixed":
        gauge = GaugeChoice("user-table", {**gauge.off_trace, (1, 2, 1): sp.log(chart.y(1))},
                            gauge.redistribution)
    return derive_extended(HamiltonianModel(chart, h), gauge)


CURVATURE_CASES = ([(m, n, kind) for m, n in MN_MATRIX for kind in ("poly", "trans", "rational")]
                   + [(m, n, "mixed") for m, n in MN_MATRIX if m > 1])


class TestOneCoefficientRule:
    @pytest.mark.parametrize("m,n,kind", CURVATURE_CASES)
    def test_curvature_matches_all_or_nothing(self, m, n, kind):
        X = case_field(m, n, kind)
        got, expected = curvature(X), all_or_nothing_curvature(X)
        assert list(got) == list(expected)
        for key in expected:
            assert_same(got[key], expected[key])
            assert sp.srepr(got[key]) == sp.srepr(expected[key])

    def test_bracket_is_simplified(self):
        # X1 = d/dx1 + A d/dy1 and X2 = d/dx2 + B d/dy1, with A off the ring
        # and B on it: the bracket's terms mix, and its fractions only
        # combine under `simplify`, not under `expand`
        A, B = 1 / (y1 - 1), x1 * y1
        x2 = sp.Symbol("x2")
        mv = CoordMultiVector((x1, x2, y1), (0, 1), [{2: A}, {2: B}])
        bracket = sp.diff(B, x1) + A * sp.diff(B, y1) - B * sp.diff(A, y1)
        expected = reference_simplify(bracket)
        assert expected != sp.expand(bracket)
        assert list(mv.bracket(1, 2)) == [2]
        assert_same(mv.bracket(1, 2)[2], expected)

    def test_mixed_field_brackets_mix(self):
        X = case_field(2, 1, "mixed")
        held = X.multivector().vector(1)
        kinds = {isinstance(c, PolyElement) for c in held.values()}
        assert kinds == {True, False}
        assert any(v != 0 and has_transcendental(v) for v in curvature(X).values())


ROOT = pathlib.Path(__file__).resolve().parent.parent


# the fields of the tool's `offring` group: polynomial, sin/cos/exp, exp of
# both signs, 1/y1, 0.5*p1_1**2 and log(y1) Hamiltonians under a gauge with
# 1/y1, sin(log(y1)) and 0.5*y1 entries, and one with zero F and G entries
OFFRING = {tag: (model, gauge)
           for tag, model, gauge in same_outputs_tool().offring_fields(MN_MATRIX)}


def expr_derivation(model, gauge):
    """F, G and g as derived before coefficients were held: each F and G
    entry `simplify`d from the `Expr` partials of h, g `simplify`d from
    `Expr` products."""
    chart = model.chart
    coords = chart.coords("J1")
    dh_terms = CoordForm(coords, 0, {(): model.h}).d().terms
    dh = {s: dh_terms.get((i,), sp.Integer(0)) for i, s in enumerate(coords)}
    F, G, g = {}, {}, {}
    for a in range(1, chart.n + 1):
        h_y = simplify(dh[chart.y(a)])
        for nu in range(1, chart.m + 1):
            F[(a, nu)] = simplify(dh[chart.p(a, nu)])
            for rho in range(1, chart.m + 1):
                if rho == nu:
                    G[(a, rho, nu)] = simplify(-h_y / chart.m + gauge.psi(chart, a, nu))
                else:
                    G[(a, rho, nu)] = simplify(
                        sp.sympify(gauge.off_trace.get((a, rho, nu), 0)))
    for nu in range(1, chart.m + 1):
        expr = -dh[chart.x(nu)]
        for a in range(1, chart.n + 1):
            for eta in range(1, chart.m + 1):
                if eta == nu:
                    continue
                expr += F[(a, nu)] * G[(a, eta, eta)]
                expr -= F[(a, eta)] * G[(a, eta, nu)]
        g[nu] = simplify(expr)
    return F, G, g


def assert_same_table(got, expected):
    assert list(got) == list(expected)
    for key in expected:
        assert_same(got[key], expected[key])
        assert sp.srepr(got[key]) == sp.srepr(expected[key])


def _count_calls(monkeypatch, module, name, when=lambda frame: True):
    """Count the calls of `module.name` made while `when(caller frame)`."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        if when(sys._getframe(1)):
            calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, spy)
    return calls


def _inside(names):
    def when(frame):
        while frame is not None:
            if frame.f_code.co_name in names:
                return True
            frame = frame.f_back
        return False
    return when


def _count_simplify_calls(monkeypatch):
    """Count the calls of `symbolic.simplify` made outside
    `is_structurally_zero`, which simplifies by design, through every
    binding of it in the package's modules (as `perfbench/tracer.py` wraps
    a function)."""
    calls = []
    real = symbolic.simplify
    zero_test = _inside({"is_structurally_zero"})

    def spy(*args, **kwargs):
        if not zero_test(sys._getframe(1)):
            calls.append(args)
        return real(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "hdw_forge" or name.startswith("hdw_forge.")):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, spy)
    return calls


class TestHeldDerivation:
    @pytest.mark.parametrize("tag", list(OFFRING))
    def test_tables_match_expr_derivation(self, tag):
        model, gauge = OFFRING[tag]
        F, G, g = expr_derivation(model, gauge)
        Xr, Xe = derive_restricted(model, gauge), derive_extended(model, gauge)
        for X in (Xr, Xe):
            assert_same_table(X.F, F)
            assert_same_table(X.G, G)
        assert Xr.g == {}
        assert_same_table(Xe.g, g)

    def test_cases_cover_zero_and_off_ring_entries(self):
        X = derive_extended(*OFFRING["(2,1)/zero"])
        assert X.F[(1, 1)] != 0 and X.F[(1, 2)] == 0
        assert all(v == 0 for v in X.G.values())
        X = derive_extended(*OFFRING["(2,2)/exp-both-signs"])
        held = [forms.hold(v, X.chart.coords("J1")) for v in (*X.F.values(), *X.G.values())]
        assert {isinstance(c, PolyElement) for c in held} == {True, False}

    def test_polynomial_field_with_zeros_is_never_simplified(self, monkeypatch):
        # an autonomous h has no partial along x: a plain 0 in g's sum of
        # products would take g off the ring, to be read back by `simplify`
        chart = BundleChart(2, 2)
        x, y, p = chart.x, chart.y, chart.p
        h = (p(1, 1) ** 2 - p(2, 2) ** 2) / 2 + y(1) * y(2) * p(1, 2)
        gauge = GaugeChoice("user-table", {(1, 2, 1): y(2) ** 2}, {})
        model = HamiltonianModel(chart, h)
        # `HeldTable` canonicalizes an off-ring write with `simplify_off_ring`
        calls = [_count_simplify_calls(monkeypatch),
                 _count_calls(monkeypatch, forms, "simplify_off_ring")]
        X = derive_extended(model, gauge)
        assert calls == [[], []]
        F, G, g = expr_derivation(model, gauge)
        assert X.F[(2, 1)] == 0 and X.G[(2, 1, 2)] == 0
        assert (X.F, X.G, X.g) == (F, G, g)

    def test_off_ring_write_tries_the_ring_at_most_twice(self, monkeypatch):
        # a table holds each value once, when it is built
        chart = BundleChart(2, 1)
        y1, p1 = chart.y(1), chart.p(1, 1)
        calls = [_count_calls(monkeypatch, module, "to_ring") for module in (forms, symbolic)]
        table = forms.HeldTable(chart.coords("J1"), {1: 1 / y1 + p1})
        assert sum(map(len, calls)) <= 2
        assert table.held[1] == simplify(1 / y1 + p1) and table[1] == simplify(1 / y1 + p1)
        # a value that `cancel` takes into the ring is held there
        table = forms.HeldTable(chart.coords("J1"), {2: (y1 ** 2 - 1) / (y1 - 1)})
        assert isinstance(table.held[2], PolyElement) and table[2] == y1 + 1

    def test_checks_read_ring_coefficients_without_simplify(self, monkeypatch):
        chart = BundleChart(2, 1)
        y1, p1, p2 = chart.y(1), chart.p(1, 1), chart.p(1, 2)
        model = HamiltonianModel(chart, (p1 ** 2 - p2 ** 2) / 2 + chart.x(1) * y1 ** 2)
        gauge = GaugeChoice("user-table", {(1, 1, 2): y1 * p1}, {})
        X = derive_extended(model, gauge)
        before = {name: (ok, detail) for name, (ok, detail)
                  in standard_checks(model, gauge, Xe=X).items()}
        calls = [_count_simplify_calls(monkeypatch),
                 _count_calls(monkeypatch, forms, "simplify_off_ring")]
        assert standard_checks(model, gauge, Xe=derive_extended(model, gauge)) == before
        assert calls == [[], []]
        assert all(ok for name, (ok, _) in before.items() if "diagnostic" not in name)

    def test_flatness_is_decided_on_held_brackets(self, monkeypatch):
        chart = BundleChart(2, 1)
        p1, p2 = chart.p(1, 1), chart.p(1, 2)
        model = HamiltonianModel(chart, (p1 ** 2 - p2 ** 2) / 2 + chart.x(1) * chart.y(1) ** 2)
        gauge = GaugeChoice("user-table", {(1, 1, 2): chart.y(1) * p1}, {})
        X = derive_extended(model, gauge)
        calls = _count_calls(monkeypatch, forms, "ring_expr", _inside({"bracket", "curvature"}))
        flat, detail = standard_checks(model, gauge, Xe=X)["connection flatness (diagnostic)"]
        assert not flat and detail.startswith("nonzero bracket components: [(1, 2, ")
        assert calls == []
        curv, expected = curvature(X), reference_curvature(X)
        assert isinstance(curv, collections.abc.Mapping)
        assert not isinstance(curv, collections.abc.MutableMapping)
        with pytest.raises(TypeError):
            curv[(1, 2, "y1")] = 0
        assert curv == expected and expected == curv
        assert list(curv) == list(expected) and len(curv) == len(expected)
        for key in expected:
            assert sp.srepr(curv[key]) == sp.srepr(expected[key])

    def test_derivation_converts_no_entry(self, monkeypatch):
        # the tables hold what derivation made, and each multivector takes
        # them held: only h, the gauge entries and numbers are held
        chart = BundleChart(3, 2)
        rng = random.Random("held (3,2)")
        model = HamiltonianModel(chart, random_polynomial_h(chart, rng))
        gauge = random_gauge(chart, rng)
        inputs = {model.h, *gauge.off_trace.values(), *gauge.redistribution.values()}
        inputs |= {gauge.psi(chart, a, nu) for a in range(1, chart.n + 1)
                   for nu in range(1, chart.m + 1)}
        holds = [_count_calls(monkeypatch, module, "to_ring") for module in (forms, symbolic)]
        reads = _count_calls(monkeypatch, forms, "ring_expr")
        Xe = derive_extended(model, gauge)
        Xe.multivector()
        Xe.restricted().multivector()
        assert reads == []
        held = [sp.sympify(args[0]) for calls in holds for args in calls]
        assert held and all(e in inputs or e.is_Rational for e in held)

    def test_projection_and_tampered_field_reuse_held_values(self, monkeypatch):
        chart = BundleChart(3, 2)
        rng = random.Random("reuse (3,2)")
        model = HamiltonianModel(chart, random_polynomial_h(chart, rng))
        gauge = random_gauge(chart, rng)
        Xe = derive_extended(model, gauge)
        Xr = Xe.restricted()
        for name in ("F", "G"):
            ours, theirs = getattr(Xr, name).held, getattr(Xe, name).held
            assert all(ours[key] is theirs[key] for key in theirs)
        Xr = derive_restricted(model, gauge)
        F = dict(Xr.F)
        F[(1, 1)] = F[(1, 1)] + 1
        calls = _count_calls(monkeypatch, forms, "to_ring")
        tampered = HdwField(Xr.kind, chart, F, Xr.G, Xr.g, Xr.gauge, Xr.f)
        tampered.multivector()
        assert all(tampered.G.held[key] is c for key, c in Xr.G.held.items())
        entries = set(F.values())
        assert all(args[0] in entries or args[0].is_Rational for args in calls)


    def test_extended_derivation_holds_h_once(self, monkeypatch):
        # derive_extended reads the partials derive_restricted took, and still
        # calls it through the module, where a tracer finds it
        chart = BundleChart(2, 1)
        p1, p2 = chart.p(1, 1), chart.p(1, 2)
        model = HamiltonianModel(chart, (p1 ** 2 - p2 ** 2) / 2 + chart.x(1) * chart.y(1) ** 2)
        # the held partials are kept per (expression, frame) across calls,
        # and an earlier test held this h: count from an empty memo
        forms._held_partials.cache_clear()
        holds = _count_calls(monkeypatch, forms, "to_ring")
        restricted = _count_calls(monkeypatch, hdw, "derive_restricted")
        X = derive_extended(model)
        assert len(restricted) == 1
        assert [args for args in holds if args[0] == model.h] == [(model.h, chart.coords("J1"))]
        assert_same_table(X.g, expr_derivation(model, GaugeChoice())[2])


class TestCanonicalOnce:
    """A held value is canonical: `simplify` reads what the ring holds back
    from it, and nothing already held is expanded, simplified or held again."""

    def test_simplify_goes_through_the_ring(self, monkeypatch):
        e = p1_1 * sp.sin(y1) + (y1 + sp.cos(y1)) ** 2
        expected = sp.expand(e)
        calls = _count_calls(monkeypatch, sp, "expand")
        got = simplify(e)
        assert calls == []
        assert_same(got, expected)
        assert sp.srepr(got) == sp.srepr(expected)

    def test_simplified_keeps_ring_coefficients(self, monkeypatch):
        coords = (x1, y1, p1_1)
        form = CoordForm(coords, 1, {(0,): p1_1 * sp.sin(y1) + x1 ** 2,
                                     (2,): sp.exp(y1 / 2) * x1 - sp.Rational(1, 3)})
        held = dict(form._coeffs)
        assert all(isinstance(c, PolyElement) for c in held.values())
        reads = _count_calls(monkeypatch, forms, "ring_expr")
        simplified = _count_calls(monkeypatch, forms, "simplify")
        out = form.simplified()
        assert reads == [] and simplified == []
        assert out._coeffs == held
        assert all(out._coeffs[key] is c for key, c in held.items())

    def test_simplified_tries_the_ring_once_per_off_ring_coefficient(self, monkeypatch):
        # the form already failed to hold each coefficient in its ring, so
        # only the simplified value is tried there again
        chart = BundleChart(2, 1)
        y, p = chart.y(1), chart.p(1, 1)
        values = [p + 1 / y, p * sp.log(y), 0.5 * y]
        form = CoordForm(chart.coords("J1"), 1, {(i,): v for i, v in enumerate(values)})
        assert not any(isinstance(c, PolyElement) for c in form._coeffs.values())
        calls = [_count_calls(monkeypatch, module, "to_ring") for module in (forms, symbolic)]
        out = form.simplified()
        assert len(calls[0]) + len(calls[1]) == len(values)
        assert [out.terms[(i,)] for i in range(len(values))] == [simplify(v) for v in values]

    def test_extended_alpha_reads_h_from_its_held_form(self, monkeypatch):
        chart = BundleChart(2, 1)
        p1, p2, y = chart.p(1, 1), chart.p(1, 2), chart.y(1)
        h = (p1 ** 2 - p2 ** 2) / 2 + sp.sin(y) * (p1 + chart.x(1)) ** 2
        expected = sp.expand(chart.pe + h)
        calls = _count_calls(monkeypatch, sp, "expand")
        H, alpha = forms.extended_alpha(chart, h)
        assert calls == []
        assert sp.srepr(H) == sp.srepr(expected)
        assert alpha.degree == 1 and alpha.coords == chart.coords("M")

    def test_multivector_takes_table_values_as_held(self, monkeypatch):
        # the table failed to hold its off-ring entries on this frame already
        X = derive_restricted(*OFFRING["(3,2)/rational"])
        assert not all(isinstance(c, PolyElement) for c in X.G.held.values())
        holds = [_count_calls(monkeypatch, module, "to_ring") for module in (forms, symbolic)]
        mv = X.multivector()
        assert len(holds[0]) + len(holds[1]) <= 1
        index = {s: i for i, s in enumerate(X.chart.coords("J1"))}
        y, p = X.chart.y, X.chart.p
        assert mv.vector(1)[index[y(1)]] is X.F.held[(1, 1)]
        assert X.G[(1, 2, 1)] == 1 / y(1)
        assert mv.vector(1)[index[p(1, 2)]] is X.G.held[(1, 2, 1)]

    def test_injected_pe_entry_is_held_on_the_extended_frame(self):
        # docs/conventions.md: an injected `p1_1 + pe` is a ring element on
        # the extended frame, which the restricted one cannot hold
        chart = BundleChart(2, 1)
        p1, p2 = chart.p(1, 1), chart.p(1, 2)
        X = derive_extended(HamiltonianModel(chart, (p1 ** 2 - p2 ** 2) / 2))
        X = HdwField(X.kind, chart, X.F, X.G, {**X.g, 1: p1 + chart.pe}, X.gauge)
        assert not isinstance(X.g.held[1], PolyElement)
        coords = chart.coords("M")
        entry = X.multivector().vector(1)[coords.index(chart.pe)]
        assert isinstance(entry, PolyElement)
        assert_same(forms.read(entry, coords), p1 + chart.pe)


def test_ring_types_stay_in_forms_and_symbolic():
    """Only `forms` and `symbolic` name `PolyElement` or `sympy.polys`, so the
    choice between ring element and `Expr` cannot leak into other modules."""
    leaks = []
    for path in sorted((ROOT / "src" / "hdw_forge").glob("*.py")):
        if path.name in ("forms.py", "symbolic.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if any(name in ("PolyElement", "polys") or name.startswith("sympy.polys")
                   or name.endswith(".PolyElement") for name in names):
                leaks.append((path.name, node.lineno))
    assert not leaks


def test_sp_diff_stays_in_forms_and_symbolic():
    """Only `forms` (`_diff`, behind `CoordForm.d`) and `symbolic` call
    `sp.diff`, so every partial derivative goes through one of them."""
    calls = []
    for path in sorted((ROOT / "src" / "hdw_forge").glob("*.py")):
        if path.name in ("forms.py", "symbolic.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sympy"):
                if any(a.name == "diff" for a in node.names):
                    calls.append((path.name, node.lineno))
            elif (isinstance(node, ast.Attribute) and node.attr == "diff"
                  and isinstance(node.value, ast.Name) and node.value.id in ("sp", "sympy")):
                calls.append((path.name, node.lineno))
    assert not calls


def test_only_forms_writes_into_held_tables():
    """Held tables and fields are values: no module outside `forms` assigns
    into or deletes from a subscript of a `.held` table or of a field's F, G
    or g, so a changed table or field is always a new one."""
    writes = []
    for path in sorted((ROOT / "src" / "hdw_forge").glob("*.py")):
        if path.name == "forms.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if (isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Attribute)
                            and sub.value.attr in ("held", "F", "G", "g")):
                        writes.append((path.name, node.lineno))
    assert not writes


def test_orjson_is_imported_only_inside_cli_functions():
    """Only `cli` imports orjson, the grid CSV codec, and only in the
    functions that use it, so `derive`, `check` and `legendre` never load
    it."""
    where = []
    for path in sorted((ROOT / "src" / "hdw_forge").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_functions = {id(node) for f in ast.walk(tree)
                        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "orjson" for name in names):
                where.append((path.name, id(node) in in_functions))
    assert where and set(where) == {("cli.py", True)}


def test_only_forks_start_forks_and_no_module_sends_files():
    """`os.fork` and `os._exit` occur only in `cli._Forks.start`, so every
    child is reaped and ends without returning into its caller, and no
    module calls `os.sendfile`: `_in_blocks` copies each part with
    `shutil.copyfileobj`."""
    where = []
    for path in sorted((ROOT / "src" / "hdw_forge").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for scope in ast.walk(tree):
            if isinstance(scope, ast.ClassDef):
                for f in scope.body:
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        owner.update((id(node), f"{scope.name}.{f.name}")
                                     for node in ast.walk(f))
        names = ("fork", "_exit", "sendfile")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "os" and node.attr in names):
                where.append((path.name, owner.get(id(node)), node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                where += [(path.name, None, a.name) for a in node.names if a.name in names]
    assert sorted(where) == [("cli.py", "_Forks.start", "_exit"),
                             ("cli.py", "_Forks.start", "fork")]


def test_zero_forms_stay_in_forms():
    """Only `forms` builds a 0-form (`CoordForm(..., 0, ...)`), whose one use
    is to be differentiated: every other module takes first partials from
    `forms.partials`."""
    builds = []
    for path in sorted((ROOT / "src" / "hdw_forge").glob("*.py")):
        if path.name == "forms.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            degree = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "degree"), None)
            if (name == "CoordForm" and isinstance(degree, ast.Constant)
                    and degree.value == 0):
                builds.append((path.name, node.lineno))
    assert not builds


def held_sum(values, coords):
    """The held sum of held `values`, as `add_term` forms it: each value
    times the 1 of its ring (`_term`), in one `_signed_products` call."""
    return forms._signed_products([forms._term(1, c) for c in values], coords)


def parent_add_term(held, key, coeff, coords):
    """`CoordForm.add_term` on the table `held` as it was when a key's sign
    was applied as the product `sign * c`: a ring product for a ring
    element."""
    norm = _normalize_key(key)
    if norm is None:
        return
    key, sign = norm
    values = [sign * hold(coeff, coords)]
    if key in held:
        values.append(held[key])
    total = held_sum(values, coords)
    if total == 0:
        held.pop(key, None)
    else:
        held[key] = total


def parent_table(pairs, coords, held=None):
    held = {} if held is None else dict(held)
    for key, c in pairs:
        parent_add_term(held, key, c, coords)
    return held


def parent_signed(key, c):
    """(sorted key, sign * c) for a key that `_normalize_key` sorts, or None."""
    norm = _normalize_key(key)
    return None if norm is None else (norm[0], norm[1] * c)


def parent_algebra(one, two, other, comps):
    """Held tables of one ^ two, d(two), i(comps) two, two.scale(+-1), -two
    and one - other, with every sign a product `sign * c` and `scale(-1)`
    the ring product with the ring's -1."""
    coords = one.coords
    wedge = [parent_signed(k1 + k2, _mul(c1, c2, coords))
             for k1, c1 in one._coeffs.items() for k2, c2 in two._coeffs.items()]
    d = [parent_signed((idx,) + key, _diff(c, idx, coords))
         for key, c in two._coeffs.items() for idx in range(len(coords))]
    interior = [(key[:pos] + key[pos + 1:], (-1 if pos % 2 else 1) * _mul(comps[idx], c, coords))
                for key, c in two._coeffs.items() for pos, idx in enumerate(key) if idx in comps]
    plus, minus = hold(1, coords), hold(-1, coords)
    negated = parent_table(((k, _mul(minus, c, coords)) for k, c in two._coeffs.items()), coords)
    return {
        "wedge": parent_table((p for p in wedge if p is not None), coords),
        "d": parent_table((p for p in d if p is not None and p[1] != 0), coords),
        "interior_vector": parent_table(interior, coords),
        "scale(1)": parent_table(((k, _mul(plus, c, coords)) for k, c in two._coeffs.items()),
                                 coords),
        "scale(-1)": negated,
        "neg": negated,
        "sub": parent_table(((k, _mul(minus, c, coords)) for k, c in other._coeffs.items()),
                            coords, one._coeffs),
    }


def assert_same_held(got, expected, coords):
    """Same keys in the same order; each value of the same kind, in the same
    ring, with the same srepr."""
    assert list(got) == list(expected)
    for key, c in expected.items():
        assert isinstance(got[key], PolyElement) == isinstance(c, PolyElement), key
        if isinstance(c, PolyElement):
            assert got[key].ring == c.ring and got[key] == c, key
        assert sp.srepr(read(got[key], coords)) == sp.srepr(read(c, coords)), key


@pytest.mark.parametrize("m,n", MN_MATRIX)
def test_signs_by_negation_match_sign_products(m, n):
    """Signs applied by negation give, key for key, what the products
    `sign * c` gave, over polynomial, sin/cos/exp and `1/y1` coefficients."""
    rng = random.Random(f"signs {m} {n}")
    chart = BundleChart(m, n)
    coords = chart.coords("M")
    x, y, p = chart.x(m), chart.y(1), chart.p(n, 1)
    pool = [x * y - p ** 2 / 3, sp.Rational(5, 2) * chart.pe + y * p,
            random_atom_coefficient(chart, rng, terms=2), x * sp.sin(y) - sp.cos(y) / 2,
            p * sp.exp(y / 2) + x, sp.exp(x) * y, 1 / y + p]
    one, two, other = (CoordForm(coords, degree) for degree in (1, 2, 1))
    insertions = {}
    for form in (one, two, other):
        # and the `1/y` entry at a key whose sign is -1 for a 2-form
        insertions[id(form)] = (random_insertions(coords, form.degree, rng, pool, count=10)
                                + [(tuple(range(form.degree, 0, -1)), pool[-1])])
        for key, coeff in insertions[id(form)]:
            form.add_term(key, coeff)
        assert_same_held(form._coeffs, parent_table(insertions[id(form)], coords), coords)
    comps = {i: rng.choice(pool) for i in rng.sample(range(len(coords)), 3)}
    comps = {i: forms.hold(c, coords) if k % 2 else c for k, (i, c) in enumerate(comps.items())}
    # the cases the sign and lift paths need: odd permutations, and ring
    # elements of different rings meeting in one product or sum
    keys = [key for pairs in insertions.values() for key, _ in pairs]
    assert any(_normalize_key(key) and _normalize_key(key)[1] < 0 for key in keys)
    assert any(_normalize_key(k1 + k2) and _normalize_key(k1 + k2)[1] < 0
               for k1 in one._coeffs for k2 in two._coeffs)
    rings = {c.ring for form in (one, two) for c in form._coeffs.values()
             if isinstance(c, PolyElement)}
    assert len(rings) > 1
    assert not all(isinstance(c, PolyElement) for c in two._coeffs.values())
    got = {"wedge": one.wedge(two), "d": two.d(), "interior_vector": two.interior_vector(comps),
           "scale(1)": two.scale(1), "scale(-1)": two.scale(-1), "neg": -two,
           "sub": one - other}
    expected = parent_algebra(one, two, other, comps)
    for name, form in got.items():
        assert_same_held(form._coeffs, expected[name], coords)


class TestNoIdleArithmetic:
    """Arithmetic that cannot change a value is not done: no product with a
    sign, no chain rule on a ring without atoms, no frame or ring table
    rebuilt."""

    def test_checks_make_no_int_times_ring_products(self, monkeypatch):
        chart = BundleChart(2, 1)
        x, y, p1, p2 = chart.x(1), chart.y(1), chart.p(1, 1), chart.p(1, 2)
        model = HamiltonianModel(chart, (p1 ** 2 - p2 ** 2) / 2 + x * y ** 2 - y * p1 * p2)
        gauge = GaugeChoice("user-table", {(1, 2, 1): y * p1}, {})
        products = []
        real = PolyElement.__rmul__

        def spy(poly, other):
            if isinstance(other, int):
                products.append(other)
            return real(poly, other)
        monkeypatch.setattr(PolyElement, "__rmul__", spy)
        results = standard_checks(model, gauge)
        assert products == []
        assert all(ok for name, (ok, _) in results.items() if "diagnostic" not in name)

    def test_atom_free_derivative_follows_no_chain(self, monkeypatch):
        chart = BundleChart(2, 1)
        coords = chart.coords("J1")
        e = chart.x(1) * chart.y(1) ** 2 + chart.p(1, 2) ** 3 / 2 - chart.y(1) * chart.p(1, 1)
        poly = symbolic.to_ring(e, coords)
        assert poly.ring.ngens == len(coords)
        chains = _count_calls(monkeypatch, symbolic, "_chain")
        got = [symbolic.ring_expr(symbolic.ring_diff(poly, idx, coords), coords)
               for idx in range(len(coords))]
        assert chains == []
        assert got == [sp.expand(sp.diff(e, s)) for s in coords]
        # a ring with atoms still follows the chain rule
        atoms = symbolic.to_ring(e * sp.sin(chart.y(1)), coords)
        symbolic.ring_diff(atoms, coords.index(chart.y(1)), coords)
        assert len(chains) == 1

    def test_chart_frames_are_built_once(self):
        chart = BundleChart(3, 2)
        for level in ("E", "J1", "M", "L"):
            assert chart.coords(level) is chart.coords(level)
            assert chart.coords(level) == tuple(c.symbol for c in chart.ids(level))

    def test_unify_of_one_ring_builds_no_ring_table(self, monkeypatch):
        coords = (x1, y1, p1_1)
        polys = [hold(e, coords) for e in (x1 * sp.sin(y1), p1_1 * sp.cos(y1) + 1,
                                             y1 * sp.sin(y1) ** 2)]
        assert all(p.ring is polys[0].ring for p in polys)
        tables = []

        class Dict(dict):
            @classmethod
            def fromkeys(cls, *args):
                tables.append(args)
                return dict.fromkeys(*args)
        monkeypatch.setattr(symbolic, "dict", Dict, raising=False)
        lifts = _count_calls(monkeypatch, symbolic, "_lifts")
        assert symbolic.unify(polys, coords) is polys
        assert tables == [] and lifts == []


def reference_products(triples, coords):
    """sum(sign * a * b) as it was formed before the fused pass: each
    product by `_mul`, signed by negation, then one held sum."""
    return held_sum([_signed(s, _mul(a, b, coords)) for s, a, b in triples], coords)


def assert_same_value(got, expected, coords):
    """Same kind and ring, no zero coefficient, and the same srepr read."""
    assert isinstance(got, PolyElement) == isinstance(expected, PolyElement)
    if isinstance(expected, PolyElement):
        assert got.ring == expected.ring and got == expected
        assert all(got.values())
    assert sp.srepr(forms.read(got, coords)) == sp.srepr(forms.read(expected, coords))


class TestFusedProducts:
    """`_fma`, the one-pass multiply-accumulate, holds what the products
    `_mul` forms and their held sum gave; off the ring `_signed_products`
    gives the expanded `Expr` sum, held again, decided per sum."""

    CHART = BundleChart(2, 1)
    COORDS = CHART.coords("J1")

    def pool(self, rng):
        """Held ring values: atom-free, sin/cos/exp ones whose rings unify
        (exp(y1/2) beside exp(y1), sin(2*y1) beside sin(y1)), and the +1
        and -1 of rings with and without atoms."""
        x, y, p, q = self.CHART.x(1), self.CHART.y(1), self.CHART.p(1, 1), self.CHART.p(1, 2)
        coords = self.COORDS

        def poly():
            return sum(sp.Rational(rng.randint(-5, 5), rng.randint(1, 4))
                       * rng.choice(coords) ** rng.randint(0, 2)
                       * rng.choice(coords) ** rng.randint(0, 1) for _ in range(3))

        exprs = [poly() for _ in range(4)] + [
            p * sp.exp(y / 2) + x, sp.exp(y) * q - y ** 2, sp.sin(y) * p + sp.cos(y),
            sp.sin(2 * y) * q - x * p, x * sp.cos(2 * y) + sp.Rational(3, 2)]
        held = [hold(e, coords) for e in exprs]
        assert all(isinstance(c, PolyElement) for c in held)
        units = [hold(1, coords), hold(-1, coords)]
        for c in held[4:6]:
            units += [c.ring.one, -c.ring.one]
        assert {u.ring.ngens for u in units} != {len(coords)}
        return held, units

    def test_equals_products_then_sum(self):
        rng = random.Random("fused products")
        held, units = self.pool(rng)
        coords = self.COORDS
        rings = set()
        for _ in range(150):
            values = held + units if rng.random() < 0.5 else held
            triples = [(rng.choice((1, -1)), rng.choice(values), rng.choice(values))
                       for _ in range(rng.randint(1, 6))]
            got = forms._fma(triples, coords)
            assert isinstance(got, PolyElement)
            assert_same_value(got, reference_products(triples, coords), coords)
            rings.add(got.ring)
        # the atom-free ring, each atom ring and their unions were met
        assert len(rings) >= 4

    @pytest.mark.parametrize("sign", [1, -1])
    def test_units_contribute_the_other_factor(self, monkeypatch, sign):
        held, units = self.pool(random.Random("units"))
        coords = self.COORDS
        products = _count_calls(monkeypatch, forms, "_add_product")
        for unit in units:
            for c in held:
                for triple in ((sign, unit, c), (sign, c, unit)):
                    assert_same_value(forms._fma([triple], coords),
                                      reference_products([triple], coords), coords)
        assert products == []

    def test_cancelling_total_is_the_rings_zero(self):
        held, units = self.pool(random.Random("cancel"))
        coords = self.COORDS
        a, b, c = held[0], held[5], held[7]
        for triples in ([(1, a, b), (-1, a, b)], [(1, a, b), (1, b, -a)],
                        [(1, b, c), (-1, c, b), (1, units[2], a), (-1, a, units[0])]):
            got = forms._fma(triples, coords)
            expected = reference_products(triples, coords)
            assert got == 0 and not got
            assert_same_value(got, expected, coords)

    def test_zero_factors_are_dropped(self):
        held, _ = self.pool(random.Random("zeros"))
        coords = self.COORDS
        exp_zero = held[5].ring.zero
        pairs = [(held[0], held[1]), (exp_zero, held[6]), (held[2], sp.Integer(0)),
                 (held[3], held[0])]
        got = forms.sum_of_products(pairs, coords)
        # neither the zero of the exp ring nor the zero `Expr` takes part
        assert got.ring.ngens == len(coords)
        assert_same_value(got, reference_products(
            [(1, a, b) for a, b in pairs if a != 0 and b != 0], coords), coords)
        assert forms.sum_of_products([(exp_zero, held[0])], coords) == 0

    @pytest.mark.parametrize("reading", ["expand", "simplify"])
    def test_off_the_ring_gives_the_expr_sum(self, reading):
        # the expanded sum, held again: a ring element when the ring takes
        # it; settled, as `sum_of_products` and a bracket entry return it,
        # the held `simplify` of the sum
        held, _ = self.pool(random.Random("off"))
        coords = self.COORDS
        y, p = self.CHART.y(1), self.CHART.p(1, 1)
        up, down = hold(sp.exp(y), coords), hold(p * sp.exp(-y), coords)
        cases = [[(1, held[0], p / y), (-1, held[1], held[2])],          # an `Expr` factor
                 [(1, up, held[0]), (-1, down, held[3])],               # exp of both signs
                 [(1, held[0], p / y), (-1, p / y, held[0]), (1, held[1], held[2])],
                 [(1, up, down), (-1, held[1], held[2])]]               # sums on the ring
        kinds = set()
        for triples in cases:
            assert forms._fma(triples, coords) is None
            total = sp.Add(*(s * read(a, coords) * read(b, coords) for s, a, b in triples))
            got = forms._signed_products(triples, coords)
            if reading == "simplify":
                got = forms._settled(got, coords)
            kinds.add(isinstance(got, PolyElement))
            canonical = sp.expand if reading == "expand" else simplify
            assert_same_value(got, hold(canonical(total), coords), coords)
        assert kinds == {True, False}

    def test_ring_or_expr_per_key_and_per_entry(self, monkeypatch):
        # one off-ring factor takes its key or bracket entry off the ring,
        # and no other: only its products are formed one by one
        chart, coords = self.CHART, self.COORDS
        x, y, p = chart.x(1), chart.y(1), chart.p(1, 1)
        form = CoordForm(coords, 2, {(0, 1): x * p, (1, 2): sp.sin(y), (0, 3): p / y})
        comps = {1: hold(y ** 2, coords), 0: hold(sp.exp(y / 2), coords),
                 3: hold(x, coords)}
        products = _count_calls(monkeypatch, forms, "_mul")
        terms = _count_calls(monkeypatch, CoordForm, "add_term")
        got = form.interior_vector(comps)
        assert terms == []   # an off-ring key is summed in its one call too
        # (0,) gets y1^2 x1 p1_1 and x1 p1_1/y1, (3,) exp(y1/2) p1_1/y1;
        # (1,) and (2,) take one `_fma` pass each
        assert sorted(str(read(comp, coords)) for comp, _, _ in products) == [
            "exp(y1/2)", "x1", "y1**2"]
        monkeypatch.undo()
        expected = parent_table(
            [(key[:pos] + key[pos + 1:], (-1 if pos % 2 else 1) * _mul(comps[idx], c, coords))
             for key, c in form._coeffs.items() for pos, idx in enumerate(key) if idx in comps],
            coords)
        assert_same_held(got._coeffs, expected, coords)
        kinds = {key: isinstance(c, PolyElement) for key, c in got._coeffs.items()}
        assert kinds[(1,)] and kinds[(2,)] and not kinds[(3,)]
        gauge = GaugeChoice("user-table", {(1, 2, 1): 1 / y}, {})
        X = derive_extended(HamiltonianModel(chart, p ** 2 / 2 + x * y * chart.p(1, 2)), gauge)
        brackets = X.multivector().bracket(1, 2)
        assert {isinstance(c, PolyElement) for c in brackets.values()} == {True, False}
        expected = reference_curvature(X)
        for key, value in curvature(X).items():
            assert sp.srepr(value) == sp.srepr(expected[key])


def structure_cases(m, n):
    """(tag, h) on the (m, n) chart: a random polynomial h and the sin/cos/
    exp, exp of both signs, 1/y1, Float, log and linear Hamiltonians of the
    `offring` group."""
    chart = BundleChart(m, n)
    yield "random", random_polynomial_h(chart, random.Random(f"structure {m} {n}"))
    for tag, (model, _) in OFFRING.items():
        if tag.startswith(f"({m},{n})/"):
            yield tag, model.h


@pytest.mark.parametrize("m,n", MN_MATRIX)
def test_structure_forms_match_their_formulas(m, n):
    """theta_h, omega_h, H, alpha, theta and Omega give, key for key, what
    their formulas give: theta_h = canonical - h vol, omega_h = -d theta_h,
    H the 0-form pe + h and alpha = dH, theta = canonical + pe vol and
    Omega = -d theta."""
    chart = BundleChart(m, n)
    J1, M = chart.coords("J1"), chart.coords("M")
    theta = reference_tautological(chart, "M", chart.pe)
    assert_same_held(forms.build_theta(chart)._coeffs, theta._coeffs, M)
    assert_same_held(forms.build_omega(chart)._coeffs, (-theta.d())._coeffs, M)
    kinds = set()
    for tag, h in structure_cases(m, n):
        theta_h, omega_h = hamilton_cartan(chart, h)
        expected = reference_tautological(chart, "J1", -h)
        assert_same_held(theta_h._coeffs, expected._coeffs, J1)
        assert_same_held(omega_h._coeffs, (-expected.d())._coeffs, J1)
        total = CoordForm(M, 0, {(): chart.pe + h})
        H, alpha = forms.extended_alpha(chart, h)
        assert sp.srepr(H) == sp.srepr(total.terms[()]), tag
        assert_same_held(alpha._coeffs, total.d()._coeffs, M)
        assert_same_held(forms.alpha_form(chart, h)._coeffs, alpha._coeffs, M)
        kinds |= {isinstance(c, PolyElement) for c in alpha._coeffs.values()}
        assert theta_h.coords is J1 and omega_h.coords is J1 and alpha.coords is M
    assert kinds == {True, False}


def test_partials_memo_keeps_float_precisions_apart():
    chart = BundleChart(1, 1)
    coords, p = chart.coords("J1"), chart.p(1, 1)
    for digits in (15, 30, 15):
        h = sp.Float("0.1", digits) * p ** 2
        got = forms.partials(h, coords)[p]
        assert sp.srepr(got) == sp.srepr(sp.diff(h, p))
        _, alpha = forms.extended_alpha(chart, h)
        assert sp.srepr(alpha.terms[(coords.index(p),)]) == sp.srepr(sp.diff(h, p))


class TestStructureFormsOnce:
    """h's partials are held once per frame, the chart's forms are built once
    per (m, n, level), and no caller can change what another is handed."""

    def test_checks_make_no_unit_ring_products(self, monkeypatch):
        # neither a ring product nor the kernel's coefficient-product step
        # ever takes a +1 or -1 factor
        chart = BundleChart(2, 1)
        x, y, p1, p2 = chart.x(1), chart.y(1), chart.p(1, 1), chart.p(1, 2)
        model = HamiltonianModel(chart, (p1 ** 2 - p2 ** 2) / 2 + x * y ** 2 - y * p1 * p2)
        gauge = GaugeChoice("user-table", {(1, 2, 1): y * p1}, {})
        units = []
        real = PolyElement.__mul__

        def unit(c):
            return (isinstance(c, PolyElement) and len(c) == 1
                    and c.get(c.ring.zero_monom) in (1, -1))

        def spy(a, b):
            if unit(a) or unit(b):
                units.append((a, b))
            return real(a, b)
        monkeypatch.setattr(PolyElement, "__mul__", spy)
        products = _count_calls(monkeypatch, forms, "_add_product")
        results = standard_checks(model, gauge)
        assert products and units == []
        assert not any(unit(a) or unit(b) for _, _, a, b in products)
        assert all(ok for name, (ok, _) in results.items() if "diagnostic" not in name)

    @pytest.mark.parametrize("m,n", [(2, 1), (3, 2)])
    def test_bracket_multiplies_no_zero_derivative(self, monkeypatch, m, n):
        rng = random.Random(f"zero derivatives {m} {n}")
        chart = BundleChart(m, n)
        model = HamiltonianModel(chart, random_polynomial_h(chart, rng))
        X = derive_extended(model, random_gauge(chart, rng))
        calls = _count_calls(monkeypatch, forms, "_fma", _inside({"bracket"}))
        got = curvature(X)
        triples = [triple for args in calls for triple in args[0]]
        assert triples and all(a != 0 and b != 0 for _, a, b in triples)
        expected = reference_curvature(X)
        assert list(got) == list(expected)
        for key in expected:
            assert sp.srepr(got[key]) == sp.srepr(expected[key])

    def test_checks_and_hamilton_cartan_hold_h_once_per_frame(self, monkeypatch):
        chart = BundleChart(2, 1)
        x, y, p1, p2 = chart.x(1), chart.y(1), chart.p(1, 1), chart.p(1, 2)
        # an h that no other test holds, so none of its partials are kept yet
        h = (p1 ** 2 - p2 ** 2) / 2 + x * y ** 2 - sp.Rational(13, 17) * y * p1 * p2
        model = HamiltonianModel(chart, h)
        holds = _count_calls(monkeypatch, forms, "to_ring")
        standard_checks(model)
        hamilton_cartan(chart, model.h)
        # h as it is, negated or plus pe, over each frame
        of_h = [len(coords) for e, coords in holds
                if sp.expand(sp.sympify(e) - h) in (0, chart.pe) or sp.expand(e + h) == 0]
        assert of_h and all(of_h.count(size) == 1 for size in of_h)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (3, 2)])
    def test_off_ring_h_takes_no_d_of_an_m_form(self, monkeypatch, m, n):
        # omega_h of every h is -d(canonical part), built once per chart,
        # plus dh ^ volume from h's held partials
        chart = BundleChart(m, n)
        y, p = chart.y(1), chart.p(1, 1)
        hamilton_cartan(chart, p ** 2 / 2)  # builds the chart's -d(canonical part)
        derivatives = _count_calls(monkeypatch, CoordForm, "d", _inside({"hamilton_cartan"}))
        for h in (sp.log(y) * p, p ** 2 / 2 + 1 / y, sp.Float(0.5) * p ** 2 + y):
            theta_h, omega_h = hamilton_cartan(chart, h)
            assert not all(isinstance(c, PolyElement) for c in theta_h._coeffs.values())
            assert omega_h.structurally_equal(-theta_h.d())
        assert derivatives and all(form.degree == 0 for form, in derivatives)

    def test_omega_is_built_once_per_chart(self, monkeypatch):
        one, two = BundleChart(2, 1), BundleChart(2, 1)
        first = forms.build_omega(one)
        derivatives = _count_calls(monkeypatch, CoordForm, "d")
        second = forms.build_omega(two)
        assert derivatives == []
        assert first.coords is one.coords("M") and second.coords is two.coords("M")
        assert first._coeffs == second._coeffs and first._coeffs is not second._coeffs

    def test_returned_forms_are_the_callers_own(self):
        chart = BundleChart(2, 2)
        y, p = chart.y(1), chart.p(2, 1)
        h = p ** 2 / 2 + chart.x(1) * y * chart.p(1, 2)
        makers = {
            "omega": lambda: forms.build_omega(chart),
            "theta": lambda: forms.build_theta(chart),
            "canonical": lambda: forms.canonical_part(chart, "J1"),
            "volume": lambda: forms.volume_form(chart, "M"),
            "theta_h": lambda: hamilton_cartan(chart, h)[0],
            "omega_h": lambda: hamilton_cartan(chart, h)[1],
            "alpha": lambda: forms.extended_alpha(chart, h)[1],
            "alpha_form": lambda: forms.alpha_form(chart, h),
        }
        for name, make in makers.items():
            form = make()
            before = repr(form)
            for key in list(form.terms)[:2] + [tuple(range(form.degree))]:
                form.add_term(key, y ** 3 + 1)
            assert repr(form) != before, name
            assert repr(make()) == before, name

    def test_partials_tables_are_the_callers_own(self):
        # a caller that wants other partials builds its own table from a
        # view; the views every call hands out still read h's partials
        chart = BundleChart(2, 1)
        coords = chart.coords("J1")
        y, p = chart.y(1), chart.p(1, 1)
        h = p ** 2 / 2 + y ** 3 * chart.x(2)
        one = forms.partials(h, coords)
        mine = forms.HeldTable(coords, {**one, y: p, p: 1 / y})
        assert (mine[y], mine[p], mine[chart.x(2)]) == (p, 1 / y, y ** 3)
        two = forms.partials(h, coords)
        assert (one[y], one[p]) == (two[y], two[p]) == (3 * y ** 2 * chart.x(2), p)
        assert HamiltonianModel(chart, h).partials[y] == 3 * y ** 2 * chart.x(2)

    def test_partials_calls_share_held_values(self):
        chart = BundleChart(2, 1)
        coords = chart.coords("J1")
        h = chart.p(1, 1) ** 2 / 2 + chart.y(1) ** 3 * chart.x(2)
        one, two = forms.partials(h, coords), forms.partials(h, coords)
        assert one.held is two.held
        assert HamiltonianModel(chart, h).partials.held is one.held


def level_cases():
    """(tag, model, gauge) of extended fields to bracket by the level-set
    identity: seeded poly, trans and lag inputs of the check-matrix charts
    with m > 1, the two `atom_fields` and the `offring` fields with m > 1."""
    for m, n in MN_MATRIX:
        if m == 1:
            continue
        for kind in ("poly", "trans", "lag"):
            inp = make_check_input(random.Random(f"level {m} {n} {kind}"),
                                   random.Random(f"level coeff {m} {n} {kind}"), 0, m, n, kind)
            if kind == "lag":
                model = legendre.hamiltonian_from_lagrangian(
                    legendre.legendre_maps(legendre.LagrangianModel(inp.chart, inp.lag)))
            else:
                model = HamiltonianModel(inp.chart, inp.h)
            yield f"seeded ({m},{n})/{kind}", model, inp.gauge
    yield from same_outputs_tool().atom_fields()
    for tag, (model, gauge) in OFFRING.items():
        if model.chart.m > 1:
            yield tag, model, gauge


LEVEL_CASES = {tag: (model, gauge) for tag, model, gauge in level_cases()}


def _tangent(X, model):
    """True when every i(X_nu)dH of X is exactly 0."""
    alpha = forms.alpha_form(model.chart, model.h)
    return all(t == 0 for t in hdw.tangency_check(X, alpha))


class TestLevelBracket:
    """On the zero level set of H = pe + h, the pe row of each bracket is
    -sum_i B_i dh/di over its y and p rows: `curvature` with h's partials
    forms it so, and gives the held tables of the direct bracket."""

    @pytest.mark.parametrize("tag", list(LEVEL_CASES))
    def test_identity_gives_the_direct_tables(self, monkeypatch, tag):
        model, gauge = LEVEL_CASES[tag]
        X = derive_extended(model, gauge)
        assert _tangent(X, model)
        coords = X.chart.coords("M")
        level = _count_calls(monkeypatch, CoordMultiVector, "level_bracket")
        got = curvature(X, h_partials=model.partials)
        assert len(level) == X.chart.m * (X.chart.m - 1) // 2
        monkeypatch.undo()
        direct = curvature(X)
        assert_same_held(got.held, direct.held, coords)
        # the y and p rows are `bracket`'s, which the tests above compare
        expected = reference_curvature(X, names={"pe"})
        for key in expected:
            assert sp.srepr(got[key]) == sp.srepr(expected[key]), key

    def test_identity_covers_rings_atoms_and_fallback(self):
        """The cases above include pe rows held in the atom-free ring, in
        rings with atoms, and off the ring, where the direct row is taken."""
        kinds = set()
        for model, gauge in LEVEL_CASES.values():
            X = derive_extended(model, gauge)
            for (_, _, name), v in curvature(X, h_partials=model.partials).held.items():
                if name == "pe" and v != 0:
                    kinds.add("expr" if not isinstance(v, PolyElement)
                              else "atoms" if v.ring.ngens > len(X.chart.coords("M"))
                              else "ring")
        assert kinds == {"ring", "atoms", "expr"}

    @pytest.mark.parametrize("m,n", [(2, 1), (3, 2)])
    def test_battery_differentiates_no_g_entry(self, monkeypatch, m, n):
        rng = random.Random(f"no g derivative {m} {n}")
        chart = BundleChart(m, n)
        model = HamiltonianModel(chart, random_polynomial_h(chart, rng))
        Xe = derive_extended(model, random_gauge(chart, rng))
        pe = chart.coords("M").index(chart.pe)
        g = [Xe.multivector().vector(nu)[pe] for nu in range(1, m + 1)]
        calls = _count_calls(monkeypatch, forms, "_diff", _inside({"standard_checks"}))
        results = standard_checks(model, Xe=Xe)
        assert calls and not any(c is entry for c, _, _ in calls for entry in g)
        assert not results["connection flatness (diagnostic)"][0]

    @pytest.mark.parametrize("change", ["g[1]+y1", "f=y1"])
    def test_untangent_or_scaled_field_takes_the_direct_bracket(self, monkeypatch, change):
        chart = BundleChart(2, 1)
        x, y, p1, p2 = chart.x(1), chart.y(1), chart.p(1, 1), chart.p(1, 2)
        model = HamiltonianModel(chart, (p1 ** 2 - p2 ** 2) / 2 + x * y ** 2 - y * p1 * p2)
        Xe = derive_extended(model)
        if change == "f=y1":
            # y1 X_nu is still tangent, but its base entries are not 1
            Xe = Xe.scaled(y)
            assert _tangent(Xe, model)
        else:
            Xe = HdwField(Xe.kind, chart, Xe.F, Xe.G, {**Xe.g, 1: Xe.g[1] + y}, Xe.gauge)
            assert not _tangent(Xe, model)
        level = _count_calls(monkeypatch, CoordMultiVector, "level_bracket")
        results = standard_checks(model, Xe=Xe)
        assert level == []
        expected = reference_curvature(Xe)
        assert expected[(1, 2, "pe")] != 0
        ok, detail = results["connection flatness (diagnostic)"]
        assert not ok and "(1, 2, 'pe')" in detail
        assert sp.srepr(curvature(Xe)[(1, 2, "pe")]) == sp.srepr(expected[(1, 2, "pe")])

    def test_lone_unit_triple_returns_the_factor(self):
        coords = BundleChart(2, 1).coords("J1")
        y, p = coords[2], coords[3]
        for c in (hold(y * p - 3, coords), hold(sp.sin(y) * p, coords)):
            for one in (hold(1, coords), c.ring.one):
                assert forms._fma([(1, one, c)], coords) is c
                assert forms._fma([(-1, c, -one)], coords) is c
                negated = forms._fma([(-1, one, c)], coords)
                assert negated == -c and negated.ring is c.ring

    @pytest.mark.parametrize("tag", ["random", "(2,1)/atoms", "(3,2)/rational",
                                     "(4,1)/log", "(3,1)/exp-both-signs"])
    def test_connection_check_gathers_every_key_once(self, monkeypatch, tag):
        if tag == "random":
            rng = random.Random("connection once")
            chart = BundleChart(3, 2)
            model = HamiltonianModel(chart, random_polynomial_h(chart, rng))
            gauge = random_gauge(chart, rng)
        else:
            model, gauge = OFFRING[tag]
            chart = model.chart
        Xr = derive_restricted(model, gauge)
        _, omega_h = hamilton_cartan(chart, model.h)
        adds = _count_calls(monkeypatch, CoordForm, "__add__")
        got = hdw.connection_equation_check(Xr, omega_h)
        assert adds == []
        monkeypatch.undo()
        # the formula as it was formed: scale, wedge and a sum of forms
        coords = chart.coords("J1")
        mv = Xr.multivector()
        total = omega_h.scale(-(chart.m - 1))
        for nu in range(1, chart.m + 1):
            dx = CoordForm(coords, 1, {(coords.index(chart.x(nu)),): 1})
            total = total + dx.wedge(omega_h.interior_vector(mv.vector(nu)))
        expected = total.simplified()
        assert repr(got) == repr(expected)
        assert sorted(got.terms) == sorted(expected.terms)
        for key in expected.terms:
            assert sp.srepr(got.terms[key]) == sp.srepr(expected.terms[key])


def test_d_and_add_sum_each_key_once(monkeypatch):
    """`d` and `+` gather each key's contributions and make one
    `_signed_products` call per key, with no `add_term`, and give the sums
    `add_term` made one at a time."""
    chart = BundleChart(2, 2)
    coords = chart.coords("M")
    rng = random.Random("sum each key once")
    pool = [chart.x(1) * chart.y(2) - chart.p(2, 1) ** 2 / 3, sp.sin(chart.y(1)) * chart.p(1, 2),
            sp.exp(chart.y(2) / 2) + chart.x(2), 1 / chart.y(1) + chart.pe]
    one, two = CoordForm(coords, 2), CoordForm(coords, 2)
    for form in (one, two):
        for key, coeff in random_insertions(coords, 2, rng, pool, count=14):
            form.add_term(key, coeff)
    expected = parent_algebra(one, one, two, {})
    sums = _count_calls(monkeypatch, forms, "_signed_products")
    terms = _count_calls(monkeypatch, CoordForm, "add_term")
    got = {"d": one.d(), "add": one + two}
    assert terms == []
    keys = {(idx,) + key for key, c in one._coeffs.items() for idx in range(len(coords))
            if idx not in key and _diff(c, idx, coords) != 0}
    distinct = {tuple(sorted(key)) for key in keys} | set(one._coeffs) | set(two._coeffs)
    assert len(sums) == len(distinct)
    monkeypatch.undo()
    assert_same_held(got["d"]._coeffs, expected["d"], coords)
    sub = one - two
    assert_same_held(sub._coeffs, expected["sub"], coords)
    plus = parent_table(two._coeffs.items(), coords, one._coeffs)
    assert_same_held(got["add"]._coeffs, plus, coords)
