import collections
import itertools
import pathlib
import random
import sys

import numpy as np
import pytest
import sympy as sp
from sympy.matrices.matrixbase import MatrixBase
from sympy.polys.rings import PolyElement

from hdw_forge import BundleChart, symbolic
from hdw_forge.errors import ChartMismatchError, RegularityError, SampleDomainError
from hdw_forge.forms import (CoordForm, HeldView, build_omega, canonical_part, hold, read, solve,
                             volume_form)
from hdw_forge.legendre import (LagrangianModel, euler_lagrange,
                                hamiltonian_from_lagrangian,
                                hdw_momentum_elimination, legendre_maps,
                                rank_diagnostics, second_order_symbol)
from hdw_forge.modelfile import parse_model
from hdw_forge.symbolic import is_structurally_zero, simplify

from conftest import MN_MATRIX, check_input, random_quadratic_lagrangian, same_outputs_tool

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def _oscillator_lagrangian():
    chart = BundleChart(1, 1)
    return LagrangianModel(chart, (chart.v(1, 1) ** 2 - chart.y(1) ** 2) / 2)


def _wave_lagrangian():
    chart = BundleChart(2, 1)
    return LagrangianModel(chart, (chart.v(1, 1) ** 2 - chart.v(1, 2) ** 2) / 2)


def _random_quadratic_lagrangian(m, n, rng):
    """Positive-definite kinetic part plus potential: always hyper-regular."""
    chart = BundleChart(m, n)
    slots = [(a, nu) for a in range(1, n + 1) for nu in range(1, m + 1)]
    lag = sp.Integer(0)
    for i, s1 in enumerate(slots):
        lag += sp.Rational(rng.randint(1, 3), rng.randint(1, 2)) * chart.v(*s1) ** 2
        for s2 in slots[i + 1:]:
            if rng.random() < 0.3:
                lag += sp.Rational(rng.randint(-1, 1), 4) * chart.v(*s1) * chart.v(*s2)
    for a in range(1, n + 1):
        lag -= sp.Rational(rng.randint(0, 3), rng.randint(1, 2)) * chart.y(a) ** 2
        if rng.random() < 0.5:
            lag += chart.x(rng.randint(1, m)) * chart.y(a)
    return LagrangianModel(chart, lag)


def _y_hessian_lagrangian():
    """Hessian [[1, y1], [y1, 1 + y1^2]]: it depends on y1, and its
    determinant is 1."""
    chart = BundleChart(2, 1)
    v, y1 = chart.v, chart.y(1)
    return LagrangianModel(chart, v(1, 1) ** 2 / 2 + y1 * v(1, 1) * v(1, 2)
                           + (1 + y1 ** 2) * v(1, 2) ** 2 / 2)


class TestLegendreMaps:
    def test_oscillator_momentum(self):
        lag = _oscillator_lagrangian()
        res = legendre_maps(lag)
        chart = lag.chart
        assert res.momenta[(1, 1)] == chart.v(1, 1)
        assert res.classification == "hyper-regular-closed-form"
        assert res.inverse_velocities[(1, 1)] == chart.p(1, 1)

    def test_extended_entry_identity(self):
        rng = random.Random(31)
        for m, n in [(1, 1), (2, 1), (2, 2)]:
            lag = _random_quadratic_lagrangian(m, n, rng)
            res = legendre_maps(lag)
            chart = lag.chart
            direct = lag.lag - sum(
                chart.v(a, nu) * sp.diff(lag.lag, chart.v(a, nu))
                for a in range(1, n + 1) for nu in range(1, m + 1))
            assert simplify(res.extended - direct) == 0

    def test_linear_lagrangian_is_degenerate(self):
        chart = BundleChart(2, 1)
        res = legendre_maps(LagrangianModel(chart, chart.v(1, 1)))
        assert res.classification == "degenerate"
        assert all(h == 0 for h in res.hessian.values())

    def test_hessian_that_is_zero_by_an_identity_is_degenerate(self):
        # det H = sin(y1)^2 + cos(y1)^2 - 1 is no ring zero, but the zero
        # test reads it as 0
        chart = BundleChart(1, 1)
        y = chart.y(1)
        lag = (sp.sin(y) ** 2 + sp.cos(y) ** 2 - 1) * chart.v(1, 1) ** 2 / 2
        assert legendre_maps(LagrangianModel(chart, lag)).classification == "degenerate"

    def test_cubic_lagrangian_is_regular_local(self):
        chart = BundleChart(1, 1)
        res = legendre_maps(LagrangianModel(chart, chart.v(1, 1) ** 3))
        assert res.classification == "regular-local"

    def test_hessian_of_a_rational_momentum_is_canonical(self):
        # the Hessian differentiates the canonical momentum
        # v + 1/(1 + y^2), whose terms all carry the denominator
        chart = BundleChart(1, 1)
        v, y = chart.v(1, 1), chart.y(1)
        res = legendre_maps(LagrangianModel(chart, v ** 2 / 2 + v / (1 + y ** 2)))
        assert res.hessian[((1, 1), (1, 1))] == 1
        assert res.classification == "hyper-regular-closed-form"

    def test_tables_are_held_views(self):
        # the momenta and the Hessian over "L", the inverse velocities over "J1"
        lm = _y_hessian_lagrangian()
        res = legendre_maps(lm)
        L, J1 = lm.chart.coords("L"), lm.chart.coords("J1")
        assert [(type(t), t.coords) for t in (res.momenta, res.hessian, res.inverse_velocities)] \
            == [(HeldView, L), (HeldView, L), (HeldView, J1)]
        assert all(isinstance(c, PolyElement) for c in res.inverse_velocities.held.values())

    def test_rejects_momentum_coordinates(self):
        chart = BundleChart(1, 1)
        with pytest.raises(Exception):
            LagrangianModel(chart, chart.p(1, 1) ** 2)


class TestInducedHamiltonian:
    def test_oscillator(self):
        ham = hamiltonian_from_lagrangian(legendre_maps(_oscillator_lagrangian()))
        chart = ham.chart
        expected = (chart.p(1, 1) ** 2 + chart.y(1) ** 2) / 2
        assert simplify(ham.h - expected) == 0
        assert ham.provenance == "from-Legendre"

    def test_wave(self):
        ham = hamiltonian_from_lagrangian(legendre_maps(_wave_lagrangian()))
        chart = ham.chart
        expected = (chart.p(1, 1) ** 2 - chart.p(1, 2) ** 2) / 2
        assert simplify(ham.h - expected) == 0

    def test_degenerate_raises(self):
        chart = BundleChart(1, 1)
        res = legendre_maps(LagrangianModel(chart, chart.v(1, 1)))
        with pytest.raises(RegularityError):
            hamiltonian_from_lagrangian(res)

    @pytest.mark.parametrize("m, n", MN_MATRIX)
    def test_random_quadratic_against_the_inverse_matrix(self, m, n):
        # the oracle inverts A with sympy's own Matrix.inv
        chart = BundleChart(m, n)
        rng = random.Random(f"induced h {m} {n}")
        lag, A, b, V = random_quadratic_lagrangian(chart, rng, rng)
        ham = hamiltonian_from_lagrangian(legendre_maps(LagrangianModel(chart, lag)))
        q = sp.Matrix([chart.p(a, nu) for a in range(1, n + 1)
                       for nu in range(1, m + 1)]) - b
        assert simplify(ham.h - (q.T * A.inv() * q)[0, 0] / 2 - V) == 0

    def test_y_dependent_hessian_with_unit_determinant(self):
        lm = _y_hessian_lagrangian()
        chart = lm.chart
        p11, p12, y1 = chart.p(1, 1), chart.p(1, 2), chart.y(1)
        res = legendre_maps(lm)
        assert res.classification == "hyper-regular-closed-form"
        expected = {(1, 1): p11 * (1 + y1 ** 2) - p12 * y1, (1, 2): p12 - p11 * y1}
        assert res.inverse_velocities.keys() == expected.keys()
        assert all(simplify(e - expected[s]) == 0 for s, e in res.inverse_velocities.items())
        el, elim = euler_lagrange(lm), hdw_momentum_elimination(res)
        assert len(el) == len(elim) == 1
        assert all(simplify(a - b) == 0 for a, b in zip(el, elim))

    def test_regular_local_raises(self):
        chart = BundleChart(1, 1)
        res = legendre_maps(LagrangianModel(chart, chart.v(1, 1) ** 3))
        with pytest.raises(RegularityError):
            hamiltonian_from_lagrangian(res)


class TestEulerLagrangeOracle:
    def test_oscillator(self):
        [res] = euler_lagrange(_oscillator_lagrangian())
        assert simplify(res - (second_order_symbol(1, 1, 1) + sp.Symbol("y1"))) == 0

    def test_wave_operator(self):
        [res] = euler_lagrange(_wave_lagrangian())
        expected = second_order_symbol(1, 1, 1) - second_order_symbol(1, 2, 2)
        assert simplify(res - expected) == 0

    def test_second_order_symbol_is_symmetric(self):
        assert second_order_symbol(1, 2, 1) == second_order_symbol(1, 1, 2)

    def test_round_trip_oscillator(self):
        lag = _oscillator_lagrangian()
        el = euler_lagrange(lag)
        elim = hdw_momentum_elimination(lag)
        assert all(simplify(a - b) == 0 for a, b in zip(el, elim))

    def test_round_trip_random_quadratics(self):
        rng = random.Random(33)
        cases = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (4, 1)]
        for m, n in cases:
            lag = _random_quadratic_lagrangian(m, n, rng)
            el = euler_lagrange(lag)
            elim = hdw_momentum_elimination(lag)
            assert all(simplify(a - b) == 0 for a, b in zip(el, elim))

    def test_round_trip_with_floats(self):
        # the model holds 0.1, 0.3 and 0.7 as 1/10, 3/10 and 7/10, so the
        # two sides agree exactly, not up to rounding
        chart = BundleChart(2, 1)
        v, y = chart.v, chart.y(1)
        lag = LagrangianModel(chart, 0.1 * v(1, 1) ** 2 - v(1, 2) ** 2 / 2 - 0.3 * y ** 2
                              + 0.7 * v(1, 1) * y)
        el = euler_lagrange(lag)
        elim = hdw_momentum_elimination(lag)
        assert all(is_structurally_zero(a - b)[0] for a, b in zip(el, elim))

    @pytest.mark.parametrize("case", [f"seed {seed}" for seed in range(1, 6)]
                             + ["oscillator", "wave"])
    def test_agrees_with_sympy_euler_equations(self, case):
        # sympy's `euler_equations`, on y as Functions of x and v as their
        # Derivatives, shares no code with `euler_lagrange`; its residuals
        # are the negatives of ours
        if case == "oscillator":
            lms = [_oscillator_lagrangian()]
        elif case == "wave":
            lms = [_wave_lagrangian()]
        else:
            inputs = [check_input(int(case.split()[1]), slot) for slot in range(8 * len(MN_MATRIX))]
            lms = [LagrangianModel(inp.chart, inp.lag) for inp in inputs if inp.kind == "lag"]
            assert len(lms) == len(MN_MATRIX)
        tool = same_outputs_tool()
        for lm in lms:
            assert tool.euler_equations_agree(lm), lm.lag

    def test_sympy_oracle_knows_the_oscillator(self):
        # y'' + y = 0, with sympy's sign
        lm = _oscillator_lagrangian()
        [theirs] = same_outputs_tool().euler_equations_residuals(lm)
        assert sp.expand(theirs + second_order_symbol(1, 1, 1) + lm.chart.y(1)) == 0

    def test_elimination_takes_a_legendre_result(self):
        rng = random.Random(35)
        for m, n in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (4, 1)]:
            lag = _random_quadratic_lagrangian(m, n, rng)
            from_result = hdw_momentum_elimination(legendre_maps(lag))
            from_model = hdw_momentum_elimination(lag)
            assert [sp.srepr(e) for e in from_result] == [sp.srepr(e) for e in from_model]


@pytest.fixture
def substitutions(monkeypatch):
    """Counts of the calls to sympy's `Basic.subs` and `MatrixBase.LUsolve`."""
    counts = collections.Counter()
    for owner, name in ((sp.Basic, "subs"), (MatrixBase, "LUsolve")):
        def spy(*args, _real=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    return counts


@pytest.fixture
def simplify_calls(monkeypatch):
    """The arguments of each call to `symbolic.simplify` through any binding
    of it in the package's modules, as `perfbench/tracer.py` wraps them."""
    calls = []
    original = symbolic.simplify

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name == "hdw_forge" or name.startswith("hdw_forge."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, spy)
    return calls


def _ring_case(case):
    """A Lagrangian whose Legendre steps stay on the ring."""
    if case == "wave.hdw":
        model = parse_model(MODELS / case)
        return LagrangianModel(model.chart, model.lagrangian)
    if case == "lag/float":
        return dict(same_outputs_tool().offring_lagrangians())[case]
    rng = random.Random(41)
    return LagrangianModel(BundleChart(4, 1),
                           random_quadratic_lagrangian(BundleChart(4, 1), rng, rng)[0])


def _legendre_steps(lm):
    res = legendre_maps(lm)
    hamiltonian_from_lagrangian(res)
    hdw_momentum_elimination(res)


class TestRingPath:
    """A constant Hessian is inverted over QQ and every substitution is a
    composition in the coefficient ring; off it the `Expr` code still runs:
    `subs` for an off-ring value, `LUsolve` for an off-ring right-hand side
    or a Hessian that is not constant."""

    @pytest.mark.parametrize("case", ["wave.hdw", "random (4,1)"])
    def test_no_expr_substitution_on_the_ring(self, case, substitutions):
        _legendre_steps(_ring_case(case))
        assert substitutions == {}

    @pytest.mark.parametrize("case", ["wave.hdw", "random (4,1)", "lag/float"])
    def test_residuals_take_no_simplify_on_the_ring(self, case, simplify_calls):
        lm = _ring_case(case)
        res = legendre_maps(lm)
        simplify_calls.clear()
        euler_lagrange(lm)
        hdw_momentum_elimination(res)
        assert simplify_calls == []

    def test_solve_off_the_ring_holds_the_simplified_solution(self):
        # the y-dependent Hessian of unit determinant takes LUsolve; each
        # entry is held as the simplified Expr of that solution
        chart = BundleChart(2, 1)
        J1, y1 = chart.coords("J1"), chart.y(1)
        hessian = [[1, y1], [y1, 1 + y1 ** 2]]
        p = [chart.p(1, 1), chart.p(1, 2)]
        held = solve([[hold(c, J1) for c in row] for row in hessian],
                     [hold(c, J1) for c in p], J1)
        expected = [simplify(e) for e in sp.Matrix(hessian).LUsolve(sp.Matrix(p))]
        assert all(isinstance(c, PolyElement) for c in held)
        assert [sp.srepr(read(c, J1)) for c in held] == [sp.srepr(e) for e in expected]
        assert expected == [p[0] * y1 ** 2 + p[0] - p[1] * y1, p[1] - p[0] * y1]

    @pytest.mark.parametrize("tag, calls", [
        # a model holds the Float as the Rational of its repr: on the ring
        ("lag/float", ()),
        ("lag/log", ("subs", "LUsolve")),
        ("lag/y-hessian-det1", ("LUsolve",)),
    ])
    def test_off_the_ring_substitutes(self, tag, calls, substitutions):
        lm = dict(same_outputs_tool().offring_lagrangians())[tag]
        _legendre_steps(lm)
        assert set(substitutions) == set(calls)


def _identity_embedding_m1():
    chart = BundleChart(1, 1)
    u1, u2, u3 = sp.symbols("u1 u2 u3")
    embedding = {chart.x(1): u1, chart.y(1): u2, chart.p(1, 1): u3}
    return chart, (u1, u2, u3), embedding


def per_term_rank_diagnostics(chart, embedding, h_P, samples, params):
    """`rank_diagnostics` as it once assembled its matrix: one compiled
    function per coefficient of omega_P and per base-Jacobian entry, with the
    contraction signs (-1)**pos applied by hand."""
    d = len(params)
    theta_P = canonical_part(chart, "J1").pullback(params, embedding)
    theta_P = theta_P + volume_form(chart, "J1").pullback(params, embedding).scale(-h_P)
    omega_P = -theta_P.d()
    lam_terms = [(key, sp.lambdify(params, coeff, "numpy"))
                 for key, coeff in omega_P.terms.items()]
    cols = {c: i for i, c in enumerate(itertools.combinations(range(d), omega_P.degree - 1))}
    base_jac = [[sp.lambdify(params, sp.diff(embedding[chart.x(nu)], u), "numpy")
                 for u in params] for nu in range(1, chart.m + 1)]
    out = []
    for pt in samples:
        vals = [float(v) for v in pt]
        M = np.zeros((d, len(cols)))
        for key, fn in lam_terms:
            c = float(fn(*vals))
            for pos, i in enumerate(key):
                M[i, cols[key[:pos] + key[pos + 1:]]] += ((-1) ** pos) * c
        B = np.array([[float(fn(*vals)) for fn in row] for row in base_jac])
        vert_dim = d - int(np.linalg.matrix_rank(B))
        K = np.hstack([M, B.T])
        if np.allclose(K, 0.0):
            out.append(vert_dim)
            continue
        svals = np.linalg.svd(K, compute_uv=False)
        out.append(d - int(np.sum(svals > 1e-9 * svals[0])))
    return out


def _rank_case(case):
    """(chart, embedding, h_P, samples, params) of a named diagnostics case
    (`tools/same_outputs.py` `submanifold_cases`)."""
    return {tag: rest for tag, *rest in same_outputs_tool().submanifold_cases()}[case]


RANK_CASES = ["degenerate.hdw", "m1", "m2", "m1-folded", "m1-scale-1", "m1-scale-1e-9",
              "m2-transcendental", "m3"]


@pytest.fixture
def form_calls(monkeypatch):
    """(method name, degree of the form called on) of each call to
    `CoordForm.scale`, `__add__`, `__neg__` and `d`."""
    calls = []
    for name in ("scale", "__add__", "__neg__", "d"):
        def spy(self, *args, _real=getattr(CoordForm, name), _name=name, **kwargs):
            calls.append((_name, self.degree))
            return _real(self, *args, **kwargs)
        monkeypatch.setattr(CoordForm, name, spy)
    return calls


class TestRankDiagnostics:
    def test_regular_m1_has_trivial_vertical_kernel(self):
        chart, params, embedding = _identity_embedding_m1()
        u1, u2, u3 = params
        h_P = (u3 ** 2 + u2 ** 2) / 2
        dims = rank_diagnostics(chart, embedding, h_P,
                                [(0.1, 0.3, 0.7), (1.0, -0.5, 0.2)], params=params)
        assert dims == [0, 0]

    def test_degenerate_image_has_kernel(self):
        # image of the momentum map of a v-linear Lagrangian: p frozen
        chart = BundleChart(2, 1)
        u1, u2, u3 = sp.symbols("u1 u2 u3")
        embedding = {chart.x(1): u1, chart.x(2): u2, chart.y(1): u3,
                     chart.p(1, 1): sp.Integer(1), chart.p(1, 2): sp.Integer(0)}
        dims = rank_diagnostics(chart, embedding, 0,
                                [(0.1, 0.2, 0.3), (1.0, 1.0, 1.0)],
                                params=(u1, u2, u3))
        assert all(d >= 1 for d in dims)

    def test_regular_m2_identity(self):
        chart = BundleChart(2, 1)
        params = sp.symbols("u1 u2 u3 u4 u5")
        embedding = dict(zip(
            (chart.x(1), chart.x(2), chart.y(1), chart.p(1, 1), chart.p(1, 2)),
            params))
        h_P = (params[3] ** 2 - params[4] ** 2) / 2
        dims = rank_diagnostics(chart, embedding, h_P,
                                [(0.3, 0.1, 0.5, 0.7, 0.2)], params=params)
        assert dims == [0]

    @pytest.mark.parametrize("scale", [sp.Integer(1), sp.Rational(1, 10 ** 9)])
    def test_small_coefficients_do_not_read_as_zero(self, scale):
        # the base Jacobian vanishes at u1 = 0, where the kernel is the u1
        # direction alone however small the scale of p and h_P
        chart, params, embedding = _identity_embedding_m1()
        u1, u2, u3 = params
        embedding[chart.x(1)] = u1 ** 2
        embedding[chart.p(1, 1)] = scale * u3
        h_P = scale * (u3 ** 2 + u2 ** 2) / 2
        assert rank_diagnostics(chart, embedding, h_P, [(0.0, 0.3, 0.7)], params=params) == [1]

    @pytest.mark.parametrize("case", ["degenerate.hdw", "m1", "m2", "m1-folded"])
    def test_matches_per_term_assembly(self, case):
        chart, embedding, h_P, samples, params = _rank_case(case)
        dims = rank_diagnostics(chart, embedding, h_P, samples, params=params)
        assert dims == per_term_rank_diagnostics(chart, embedding, h_P, samples, params)

    @pytest.mark.parametrize("case", RANK_CASES)
    def test_omega_pulled_back_along_the_section_is_minus_d_theta_P(self, case):
        # Omega has constant coefficients and the pulled-back volume is
        # closed: Phi*Omega, Phi = (phi, pe = -h_P), is -d(theta_P) key by key
        chart, embedding, h_P, _, params = _rank_case(case)
        pulled = build_omega(chart).pullback(params, {**embedding, chart.pe: -h_P})
        theta_P = (canonical_part(chart, "J1").pullback(params, embedding)
                   + volume_form(chart, "J1").pullback(params, embedding).scale(-h_P))
        expected = -theta_P.d()
        assert pulled.degree == expected.degree == chart.m + 1
        assert ({k: sp.srepr(c) for k, c in pulled.terms.items()}
                == {k: sp.srepr(c) for k, c in expected.terms.items()})

    @pytest.mark.parametrize("case", ["degenerate.hdw", "m2", "m3"])
    def test_builds_omega_P_from_no_form_arithmetic(self, case, form_calls):
        # omega_P is Omega pulled back: no theta_P is scaled, added, negated
        # or differentiated; a 0-form's d is a partial
        chart, embedding, h_P, samples, params = _rank_case(case)
        expected = rank_diagnostics(chart, embedding, h_P, samples, params=params)
        form_calls.clear()
        assert rank_diagnostics(chart, embedding, h_P, samples, params=params) == expected
        assert not [(name, degree) for name, degree in form_calls
                    if name in ("scale", "__add__", "__neg__") or (name == "d" and degree)]

    @pytest.mark.parametrize("case", ["m2", "m2-transcendental", "m3"])
    def test_pullback_sums_each_key_once(self, case, form_calls):
        chart, embedding, h_P, _, params = _rank_case(case)
        omega = build_omega(chart)
        form_calls.clear()
        pulled = omega.pullback(params, {**embedding, chart.pe: -h_P})
        assert len(pulled.terms) > 1
        assert not [name for name, _ in form_calls if name == "__add__"]

    def test_rejects_zero_parameters(self):
        chart = BundleChart(1, 1)
        with pytest.raises(ChartMismatchError):
            rank_diagnostics(chart, {chart.x(1): 1, chart.y(1): 0,
                                     chart.p(1, 1): 0}, 0, [()], params=())

    def test_rejects_partial_embedding(self):
        chart, params, embedding = _identity_embedding_m1()
        del embedding[chart.p(1, 1)]
        with pytest.raises(ChartMismatchError):
            rank_diagnostics(chart, embedding, 0, [(0.1, 0.2)], params=params[:2])

    def test_sample_outside_the_domain_names_its_position(self):
        # 1/u1 has no value at u1 = 0, and exp(u1) no finite one at 1000
        chart, params, embedding = _identity_embedding_m1()
        for p, bad in ((1 / params[0], (0.0, 0.3, 0.2)), (sp.exp(params[0]), (1e3, 0.3, 0.2))):
            embedding[chart.p(1, 1)] = p
            with pytest.raises(SampleDomainError) as exc:
                rank_diagnostics(chart, embedding, 0, [(1.0, 0.3, 0.2), bad], params=params)
            assert exc.value.index == 1 and str(bad) in str(exc.value)

    def test_rejects_sample_arity_mismatch(self):
        chart, params, embedding = _identity_embedding_m1()
        with pytest.raises(ChartMismatchError):
            rank_diagnostics(chart, embedding, 0, [(0.1, 0.2)], params=params)
