"""The ring-backed canonical form agrees with the plain `Expr` algebra.

`simplify`, `CoordForm.add_term` and `curvature` canonicalize polynomial
input exactly in QQ[frame]; every other input keeps the expand / cancel
path.  Both must give the same `Expr`, equal under `==` and `str`, as the
reference copies of the `Expr` code below.
"""

import random

import pytest
import sympy as sp

from hdw_forge import BundleChart, HamiltonianModel, derive_extended
from hdw_forge.forms import (CoordForm, _merge_keys, _normalize_key,
                             hamilton_cartan)
from hdw_forge.hdw import curvature
from hdw_forge.symbolic import has_transcendental, simplify, to_poly

from conftest import MN_MATRIX, random_gauge, random_polynomial_h


def reference_simplify(e):
    e = sp.expand(sp.sympify(e))
    if has_transcendental(e):
        return e
    num, den = sp.fraction(sp.together(e))
    if den != 1:
        e = sp.expand(sp.cancel(e))
    return e


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
            merged = _merge_keys(k1, k2)
            if merged is not None:
                out.append((merged[0], merged[1] * c1 * c2))
    return reference_terms(out)


def reference_d(terms, coords):
    out = []
    for key, coeff in terms.items():
        for idx, sym in enumerate(coords):
            dc = sp.diff(coeff, sym)
            merged = _merge_keys((idx,), key)
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


def reference_curvature(X):
    chart = X.chart
    coords = chart.coords(X.level)
    mv = X.multivector()
    vertical = [i for i in range(len(coords)) if i not in set(mv.base_positions)]

    def apply(components, expr):
        out = sp.Integer(0)
        for idx, coeff in components.items():
            out += coeff * sp.diff(expr, coords[idx])
        return out

    out = {}
    for nu in range(1, chart.m + 1):
        Xnu = mv.vector(nu)
        for eta in range(nu + 1, chart.m + 1):
            Xeta = mv.vector(eta)
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
