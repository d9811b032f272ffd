import math
import random

import pytest
import sympy as sp

from hdw_forge import BundleChart, differentiate, evaluate, fd_check, simplify
from hdw_forge.coords import CoordId
from hdw_forge.errors import (ChartMismatchError, EvaluationDomainError,
                              IncompleteAssignmentError)
from hdw_forge.symbolic import is_structurally_zero

from conftest import random_expr, random_point

q, p, t, y = sp.symbols("y1 p1_1 x1 y2")


class TestDifferentiate:
    def test_polynomial_wrt_q(self):
        assert differentiate((p**2 + q**2) / 2, q) == q

    def test_polynomial_wrt_p(self):
        assert differentiate((p**2 + q**2) / 2, p) == p

    def test_product_chain_rule(self):
        assert differentiate(sp.sin(t) * y, t) == sp.cos(t) * y

    def test_accepts_coord_ids(self):
        assert differentiate(q**3, CoordId("y", a=1)) == 3 * q**2

    def test_chart_mismatch(self):
        chart = BundleChart(1, 1)
        with pytest.raises(ChartMismatchError):
            differentiate(q, CoordId("p", a=2, nu=1), chart=chart)

    def test_linearity_on_random_instances(self):
        rng = random.Random(5)
        syms = [q, p, t]
        for _ in range(25):
            e1 = random_expr(syms, rng, depth=3)
            e2 = random_expr(syms, rng, depth=3)
            a = sp.Rational(rng.randint(-3, 3), rng.randint(1, 2))
            lhs = differentiate(a * e1 + e2, q)
            rhs = a * differentiate(e1, q) + differentiate(e2, q)
            verdict, _ = is_structurally_zero(lhs - rhs, seed=7)
            assert verdict


class TestSimplify:
    def test_additive_identity(self):
        assert simplify(q + 0) == q

    def test_commutativity_cancellation(self):
        assert simplify(p * q - q * p) == 0

    def test_evaluation_homomorphism(self):
        x = sp.Symbol("x1")
        e = (x + 1) ** 2
        assert evaluate(simplify(e), {x: 2}) == evaluate(e, {x: 2}) == 9.0

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(30):
            e = random_expr([q, p, t], rng, depth=4)
            s = simplify(e)
            assert simplify(s) == s

    def test_fractions_that_combine_to_a_polynomial_cancel(self):
        # each term has a denominator, their sum has none
        y = sp.Symbol("y1")
        e = y ** 2 / (y ** 2 + 1) + 1 / (y ** 2 + 1)
        assert simplify(e) == 1
        assert simplify(e - 1) == 0
        assert is_structurally_zero(e - 1) == (True, "structural")
        assert simplify(q * e + p) == q + p

    def test_preserves_evaluation(self):
        rng = random.Random(13)
        for _ in range(30):
            e = random_expr([q, p], rng, depth=4)
            point = random_point([q, p], rng)
            assert abs(evaluate(e, point) - evaluate(simplify(e), point)) < 1e-12


class TestEvaluate:
    def test_arithmetic(self):
        assert evaluate((p**2 + q**2) / 2, {p: 3, q: 4}) == 12.5

    def test_sin_zero(self):
        assert evaluate(sp.sin(t), {t: 0}) == 0.0

    def test_exp_zero_times_y(self):
        assert evaluate(sp.exp(0 * t) * y, {y: 7, t: 1}) == 7.0

    def test_missing_variable(self):
        with pytest.raises(IncompleteAssignmentError) as exc:
            evaluate(p + q, {p: 1})
        assert "y1" in str(exc.value)

    def test_division_by_zero(self):
        with pytest.raises(EvaluationDomainError):
            evaluate(1 / q, {q: 0})

    def test_log_nonpositive(self):
        with pytest.raises(EvaluationDomainError):
            evaluate(sp.log(q), {q: -1})

    def test_deterministic(self):
        e = sp.sin(t) * p**3 / (1 + q**2)
        pt = {t: 0.7, p: 1.3, q: 0.4}
        assert evaluate(e, pt) == evaluate(e, pt)


class TestNames:
    """A name is read only as its `CoordId` prints it: an index has no
    leading zero, and nothing else comes before or after the name."""

    @pytest.mark.parametrize("name", ["y01", "x0", "x01", "p1_01", "v01_1", "y1\n",
                                      "y\u0661"])
    def test_other_spellings_are_no_names(self, name):
        with pytest.raises(ChartMismatchError):
            CoordId.from_name(name)
        with pytest.raises(ChartMismatchError):
            evaluate(q + 1, {"y1": 1, name: 2})

    @pytest.mark.parametrize("cid", [CoordId("x", nu=10), CoordId("y", a=1),
                                     CoordId("p", a=2, nu=10), CoordId("pe"),
                                     CoordId("v", a=10, nu=1)], ids=str)
    def test_printed_names_read_back(self, cid):
        assert CoordId.from_name(cid.name) == cid

    @pytest.mark.parametrize("name", ["y01", "x01", "p1_01", "v01_1", "y\u0661"])
    def test_symbols_spelled_another_way_are_no_keys(self, name):
        with pytest.raises(ChartMismatchError):
            evaluate(q + 1, {sp.Symbol(name): 2, "y1": 1})
        with pytest.raises(ChartMismatchError):
            differentiate(q ** 2, sp.Symbol(name))

    @pytest.mark.parametrize("name", ["u1", "x0", "y1_dd1_2", "pe", "y1"])
    def test_other_symbols_are_kept(self, name):
        # parameters and formal symbols are no coordinates, and stay keys
        s = sp.Symbol(name)
        assert evaluate(t + s, {s: 2, t: 1}) == 3.0
        assert differentiate(s ** 2 * t, s) == 2 * s * t

    def test_chart_resolves_no_other_spelling(self):
        chart = BundleChart(1, 1)
        assert chart.resolve("y1") == q
        with pytest.raises(ChartMismatchError):
            chart.resolve("y01")
        with pytest.raises(ChartMismatchError):
            differentiate(q ** 2, "y01")


class TestFdCheck:
    def test_cubic(self):
        sym, num, relerr = fd_check(q**3, q, {q: 2}, 1e-5)
        assert sym == 12.0
        assert relerr < 1e-8

    def test_sine(self):
        sym, num, relerr = fd_check(sp.sin(t), t, {t: 1}, 1e-5)
        assert abs(sym - math.cos(1)) < 1e-15
        assert relerr < 1e-8

    def test_constant(self):
        sym, num, relerr = fd_check(sp.Integer(5), q, {q: 1}, 1e-5)
        assert sym == 0.0 and num == 0.0

    def test_bad_step(self):
        with pytest.raises(ValueError):
            fd_check(q, q, {q: 1}, 0.0)

    def test_randomized_battery(self):
        rng = random.Random(99)
        syms = [q, p, t]
        checked = 0
        for _ in range(100):
            e = random_expr(syms, rng, depth=4)
            for _ in range(5):
                point = random_point(syms, rng)
                _, _, relerr = fd_check(e, rng.choice(syms), point, 1e-5)
                assert relerr < 1e-6
                checked += 1
        assert checked == 500


class TestZeroRecognition:
    def test_rational_zero_is_structural(self):
        verdict, method = is_structurally_zero((p + q) ** 2 - p**2 - 2 * p * q - q**2)
        assert verdict and method == "structural"

    def test_transcendental_identity_is_numeric(self):
        verdict, method = is_structurally_zero(sp.sin(t) ** 2 + sp.cos(t) ** 2 - 1)
        assert verdict and method == "numeric"

    def test_nonzero(self):
        verdict, _ = is_structurally_zero(p * q + 1)
        assert not verdict

    def test_small_coefficient_is_not_zero(self):
        verdict, method = is_structurally_zero(sp.Rational(1, 10**12) * sp.sin(q))
        assert not verdict and method == "numeric"
        verdict, method = is_structurally_zero(sp.sin(q) ** 2 + sp.cos(q) ** 2 - 1)
        assert verdict and method == "numeric"

    def test_identity_outside_the_default_box(self):
        # log(y1 - 5) is real only for y1 > 5, outside the box [0.1, 2.0]
        e = sp.sin(sp.log(q - 5)) ** 2 + sp.cos(sp.log(q - 5)) ** 2 - 1
        assert is_structurally_zero(e) == (True, "numeric")
        assert is_structurally_zero(e + sp.log(q - 5) / 10**6) == (False, "numeric")

    def test_unevaluable_is_not_zero(self):
        # log(y1 - 5) is not real anywhere in the sampled box: no evidence
        verdict, method = is_structurally_zero(sp.log(q - 5))
        assert not verdict and method == "numeric"
