import dataclasses
import random

import pytest
import sympy as sp
from sympy.polys.rings import PolyElement

from hdw_forge import (BundleChart, GaugeChoice, HamiltonianModel,
                       derive_extended, derive_restricted, dof_count)
from hdw_forge.errors import ChartMismatchError, GaugeError, WrongBundleError
from hdw_forge.forms import CoordForm, build_omega, extended_alpha, hamilton_cartan
from hdw_forge.hdw import (HdwField, connection_equation_check, curvature,
                           mu_vertical_pairing, residual_extended,
                           residual_restricted, standard_checks,
                           tangency_check, transversality)
from hdw_forge.symbolic import ring_expr, simplify

from conftest import MN_MATRIX, random_gauge, random_polynomial_h, same_outputs_tool


def reference_g(model, Xr):
    """g as it was derived before the extended field was built on the
    restricted one: from the partials of h, not from F."""
    chart, h = model.chart, model.h
    g = {}
    for nu in range(1, chart.m + 1):
        expr = -sp.diff(h, chart.x(nu))
        for a in range(1, chart.n + 1):
            for eta in range(1, chart.m + 1):
                if eta == nu:
                    continue
                expr += sp.diff(h, chart.p(a, nu)) * Xr.G[(a, eta, eta)]
                expr -= sp.diff(h, chart.p(a, eta)) * Xr.G[(a, eta, nu)]
        g[nu] = simplify(expr)
    return g


def _oscillator():
    chart = BundleChart(1, 1)
    q, p = chart.y(1), chart.p(1, 1)
    return HamiltonianModel(chart, (p ** 2 + q ** 2) / 2)


class TestDofCount:
    @pytest.mark.parametrize("m,n,expected", [
        (1, 1, 0), (2, 1, 3), (2, 2, 6), (3, 1, 8), (3, 2, 16),
    ])
    def test_values(self, m, n, expected):
        assert dof_count(BundleChart(m, n)) == expected

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_matches_free_slot_count(self, m, n):
        chart = BundleChart(m, n)
        off = n * m * (m - 1)
        redistribution = n * (m - 1)
        assert off + redistribution == dof_count(chart)


class TestGaugeChoice:
    def test_default_is_empty(self):
        g = GaugeChoice()
        g.validate(BundleChart(2, 1))
        assert g.mode == "equal-split"

    def test_rejects_diagonal_off_trace_slot(self):
        g = GaugeChoice("user-table", {(1, 1, 1): sp.Integer(1)}, {})
        with pytest.raises(GaugeError):
            g.validate(BundleChart(2, 1))

    def test_rejects_out_of_range_slot(self):
        g = GaugeChoice("user-table", {(2, 1, 2): sp.Integer(1)}, {})
        with pytest.raises(GaugeError):
            g.validate(BundleChart(2, 1))

    def test_rejects_last_diagonal_redistribution(self):
        # the m-th diagonal entry is eliminated, not free
        g = GaugeChoice("user-table", {}, {(1, 2): sp.Integer(1)})
        with pytest.raises(GaugeError):
            g.validate(BundleChart(2, 1))

    @pytest.mark.parametrize("off_trace, redistribution", [
        ({(1, 1): sp.Symbol("y1")}, {}), ({}, {(1, 1, 2): sp.Symbol("y1")})])
    def test_rejects_a_key_of_the_other_table(self, off_trace, redistribution):
        # (1, 1) is a free redistribution slot of a (2, 1) chart, and
        # (1, 1, 2) a free off-trace one, but neither in the other table
        g = GaugeChoice("user-table", off_trace, redistribution)
        with pytest.raises(GaugeError, match="needs"):
            g.validate(BundleChart(2, 1))
        with pytest.raises(GaugeError):
            derive_restricted(HamiltonianModel(BundleChart(2, 1), 0), g)

    def test_is_a_value(self):
        chart = BundleChart(2, 1)
        off_trace = {(1, 1, 2): chart.y(1)}
        g = GaugeChoice("user-table", off_trace, {})
        X = derive_restricted(HamiltonianModel(chart, chart.p(1, 1) ** 2 / 2), g)
        off_trace[(1, 1, 2)] = chart.x(1)
        with pytest.raises(TypeError):
            X.gauge.off_trace[(1, 1, 2)] = chart.x(1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            X.gauge.mode = "equal-split"
        assert X.gauge.off_trace == {(1, 1, 2): chart.y(1)} == {(1, 1, 2): X.G[(1, 1, 2)]}

    def test_holds_floats_as_rationals(self):
        chart = BundleChart(2, 1)
        y1, p = chart.y(1), chart.p(1, 1)
        g = GaugeChoice("user-table", {(1, 2, 1): 0.1 * y1}, {(1, 1): 0.5 * y1})
        assert g.off_trace[(1, 2, 1)] == y1 / 10 and g.redistribution[(1, 1)] == y1 / 2
        assert HamiltonianModel(chart, 0.3 * p ** 2).h == 3 * p ** 2 / 10

    def test_rejects_level_violating_entry(self):
        g = GaugeChoice("user-table", {(1, 1, 2): sp.Symbol("pe")}, {})
        with pytest.raises(WrongBundleError):
            g.validate(BundleChart(2, 1))

    def test_psi_balances_to_zero(self):
        chart = BundleChart(3, 1)
        y = chart.y(1)
        g = GaugeChoice("user-table", {}, {(1, 1): y, (1, 2): y ** 2})
        total = sum(g.psi(chart, 1, nu) for nu in range(1, 4))
        assert sp.expand(total) == 0


class TestDeriveRestricted:
    def test_zero_hamiltonian(self):
        chart = BundleChart(2, 1)
        X = derive_restricted(HamiltonianModel(chart, 0))
        assert all(v == 0 for v in X.F.values())
        assert all(v == 0 for v in X.G.values())

    def test_oscillator_coefficients(self):
        X = derive_restricted(_oscillator())
        chart = X.chart
        assert X.F[(1, 1)] == chart.p(1, 1)
        assert X.G[(1, 1, 1)] == -chart.y(1)

    def test_free_wave_coefficients(self):
        chart = BundleChart(2, 1)
        p1, p2 = chart.p(1, 1), chart.p(1, 2)
        X = derive_restricted(HamiltonianModel(chart, (p1 ** 2 - p2 ** 2) / 2))
        assert X.F[(1, 1)] == p1
        assert X.F[(1, 2)] == -p2
        assert X.G[(1, 1, 1)] == 0 and X.G[(1, 2, 2)] == 0

    def test_trace_constraint_any_gauge(self):
        rng = random.Random(17)
        for m, n in [(2, 1), (2, 2), (3, 2)]:
            chart = BundleChart(m, n)
            h = random_polynomial_h(chart, rng)
            gauge = random_gauge(chart, rng)
            X = derive_restricted(HamiltonianModel(chart, h), gauge)
            for a in range(1, n + 1):
                trace = sum(X.G[(a, nu, nu)] for nu in range(1, m + 1))
                assert simplify(trace + sp.diff(h, chart.y(a))) == 0

    def test_trace_is_gauge_invariant(self):
        rng = random.Random(18)
        chart = BundleChart(2, 2)
        h = random_polynomial_h(chart, rng)
        model = HamiltonianModel(chart, h)
        X1 = derive_restricted(model, random_gauge(chart, rng))
        X2 = derive_restricted(model, random_gauge(chart, rng))
        for a in (1, 2):
            t1 = sum(X1.G[(a, nu, nu)] for nu in (1, 2))
            t2 = sum(X2.G[(a, nu, nu)] for nu in (1, 2))
            assert simplify(t1 - t2) == 0


class TestDeriveExtended:
    def test_m1_scalar_coefficient_is_time_gradient(self):
        chart = BundleChart(1, 1)
        t, q, p = chart.x(1), chart.y(1), chart.p(1, 1)
        h = p ** 2 / 2 + q ** 2 * (1 + t) / 2
        X = derive_extended(HamiltonianModel(chart, h))
        assert simplify(X.g[1] + sp.diff(h, t)) == 0

    def test_autonomous_wave_scalar_coefficients_vanish(self):
        chart = BundleChart(2, 1)
        p1, p2 = chart.p(1, 1), chart.p(1, 2)
        X = derive_extended(HamiltonianModel(chart, (p1 ** 2 - p2 ** 2) / 2))
        assert X.g[1] == 0 and X.g[2] == 0

    def test_zero_hamiltonian(self):
        X = derive_extended(HamiltonianModel(BundleChart(3, 1), 0))
        assert all(v == 0 for v in X.g.values())

    def test_shares_restricted_coefficients(self):
        rng = random.Random(19)
        chart = BundleChart(2, 2)
        h = random_polynomial_h(chart, rng)
        gauge = random_gauge(chart, rng)
        model = HamiltonianModel(chart, h)
        Xr = derive_restricted(model, gauge)
        Xe = derive_extended(model, gauge)
        assert Xr.F == Xe.F and Xr.G == Xe.G

    @pytest.mark.parametrize("kind", ["poly", "trans", "rational"])
    @pytest.mark.parametrize("m,n", MN_MATRIX)
    def test_projection_is_restricted_field(self, m, n, kind):
        rng = random.Random(f"projection {m} {n} {kind}")
        chart = BundleChart(m, n)
        h = random_polynomial_h(chart, rng)
        if kind == "trans":
            h += sp.sin(chart.y(1)) * chart.p(1, m) / 2 + sp.exp(chart.x(1) / 3)
        elif kind == "rational":
            h += chart.p(n, 1) / chart.y(1) + chart.x(m) * chart.y(n) ** 2
        gauge = random_gauge(chart, rng)
        model = HamiltonianModel(chart, h)
        Xe = derive_extended(model, gauge)
        Xr = derive_restricted(model, gauge)
        proj = Xe.restricted()
        assert (proj.kind, proj.chart, proj.g, proj.gauge, proj.f) == (
            "restricted", chart, {}, Xe.gauge, Xe.f)
        for ours, ref in ((proj.F, Xr.F), (proj.G, Xr.G), (Xe.g, reference_g(model, Xr))):
            assert list(ours.items()) == list(ref.items())
            assert [str(v) for v in ours.values()] == [str(v) for v in ref.values()]


class TestResiduals:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
    def test_derived_fields_solve_both_equations(self, m, n):
        rng = random.Random(100 * m + n)
        chart = BundleChart(m, n)
        h = random_polynomial_h(chart, rng)
        gauge = random_gauge(chart, rng)
        model = HamiltonianModel(chart, h)
        _, omega_h = hamilton_cartan(chart, h)
        assert residual_restricted(derive_restricted(model, gauge), omega_h).is_zero()
        _, alpha = extended_alpha(chart, h)
        assert residual_extended(derive_extended(model, gauge),
                                 build_omega(chart), alpha).is_zero()

    def test_perturbed_field_detected(self):
        model = _oscillator()
        _, omega_h = hamilton_cartan(model.chart, model.h)
        X = derive_restricted(model)
        F = dict(X.F)
        F[(1, 1)] = F[(1, 1)] + 1
        perturbed = HdwField(X.kind, X.chart, F, X.G, X.g, X.gauge, X.f)
        assert not residual_restricted(perturbed, omega_h).is_zero()
        assert residual_restricted(X, omega_h).is_zero()

    def test_write_after_multivector_is_seen(self):
        # a field takes no writes: a changed entry makes a new field, whose
        # multivector is its own
        rng = random.Random("write after multivector")
        chart = BundleChart(2, 1)
        model = HamiltonianModel(chart, random_polynomial_h(chart, rng))
        gauge = random_gauge(chart, rng)
        _, omega_h = hamilton_cartan(chart, model.h)
        X = derive_restricted(model, gauge)
        assert residual_restricted(X, omega_h).is_zero()
        F = dict(X.F)
        F[(1, 1)] += 1
        changed = HdwField(X.kind, chart, F, X.G, X.g, X.gauge, X.f)
        assert not residual_restricted(changed, omega_h).is_zero()
        # the field whose multivector was built first still checks clean
        assert residual_restricted(X, omega_h).is_zero()
        # the projection of a changed extended field carries the change
        Xe = derive_extended(model, gauge)
        residuals = ["restricted residual i(X)omega_h = 0",
                     "extended residual i(X)omega = (-1)^(m+1) alpha"]
        assert all(standard_checks(model, gauge, Xe=Xe)[name][0] for name in residuals)
        F, g = dict(Xe.F), dict(Xe.g)
        g[1] += 1
        F[(1, 2)] += 1
        changed = HdwField(Xe.kind, chart, F, Xe.G, g, Xe.gauge, Xe.f)
        assert not any(standard_checks(model, gauge, Xe=changed)[name][0]
                       for name in residuals)
        assert all(standard_checks(model, gauge, Xe=Xe)[name][0] for name in residuals)

    def test_field_tables_and_partials_take_no_writes(self):
        model = _oscillator()
        X = derive_extended(model)
        y = model.chart.y(1)
        before = [dict(table) for table in (X.F, X.G, X.g, model.partials)]
        for table, key in ((X.F, (1, 1)), (X.G, (1, 1, 1)), (X.g, 1), (model.partials, y)):
            with pytest.raises(TypeError):
                table[key] = 0
        assert [dict(table) for table in (X.F, X.G, X.g, model.partials)] == before
        with pytest.raises(dataclasses.FrozenInstanceError):
            X.F = {}
        assert X.multivector() is X.multivector()

    def test_kind_mismatch_errors(self):
        model = _oscillator()
        _, omega_h = hamilton_cartan(model.chart, model.h)
        Xe = derive_extended(model)
        with pytest.raises(ChartMismatchError):
            residual_restricted(Xe, omega_h)
        _, alpha = extended_alpha(model.chart, model.h)
        with pytest.raises(ChartMismatchError):
            residual_extended(derive_restricted(model), build_omega(model.chart), alpha)


class TestHeldMultivector:
    def test_built_once(self):
        X = derive_extended(_oscillator())
        assert X.multivector() is X.multivector()
        assert X.scaled(2).multivector() is not X.multivector()

    @pytest.mark.parametrize("m,n", MN_MATRIX)
    def test_polynomial_field_holds_ring_elements(self, m, n):
        rng = random.Random(600 * m + n)
        chart = BundleChart(m, n)
        Xe = derive_extended(HamiltonianModel(chart, random_polynomial_h(chart, rng)),
                             random_gauge(chart, rng))
        for X in (Xe, Xe.restricted()):
            coords = chart.coords(X.level)
            mv = X.multivector()
            for nu in range(1, m + 1):
                table = mv.vector(nu)
                assert all(isinstance(c, PolyElement) and c != 0 for c in table.values())
                assert table[coords.index(chart.x(nu))] == 1

    def test_atom_entries_are_ring_elements(self):
        # sin, cos and exp of a polynomial are generators of the coefficient
        # ring, and a model holds a Float as the Rational of its repr; log or
        # a denominator keep an entry an `Expr`, as does a Float put straight
        # into a `CoordForm`
        chart = BundleChart(1, 1)
        q, p = chart.y(1), chart.p(1, 1)
        coords = chart.coords("J1")
        X = derive_restricted(HamiltonianModel(
            chart, p ** 2 / 2 + sp.sin(q) + p * sp.exp(q / 2)))
        table = X.multivector().vector(1)
        for i, entry in ((coords.index(q), X.F[(1, 1)]), (coords.index(p), X.G[(1, 1, 1)])):
            assert isinstance(table[i], PolyElement)
            assert ring_expr(table[i], coords) == entry
        assert X.G[(1, 1, 1)] == -sp.cos(q) - p * sp.exp(q / 2) / 2
        X = derive_restricted(HamiltonianModel(chart, p ** 2 / 2 + p * 0.5 * q))
        held = X.multivector().vector(1)[coords.index(q)]
        assert isinstance(held, PolyElement)
        assert ring_expr(held, coords) == X.F[(1, 1)] == p + q / 2
        for off in (sp.log(q), 1 / q):
            X = derive_restricted(HamiltonianModel(chart, p ** 2 / 2 + p * off))
            held = X.multivector().vector(1)[coords.index(q)]
            assert not isinstance(held, PolyElement)
            assert held == X.F[(1, 1)] == p + off
        held = CoordForm(coords, 0, {(): 0.5 * q})._coeffs[()]
        assert not isinstance(held, PolyElement) and held == 0.5 * q


@pytest.mark.parametrize("kind", ["poly", "rational", "log"])
def test_offring_field_with_a_float_gauge_passes(kind):
    # the gauge's 0.5*y1 is held as y1/2, so no check fails by rounding
    fields = {tag: (model, gauge)
              for tag, model, gauge in same_outputs_tool().offring_fields([(3, 1)])}
    results = standard_checks(*fields[f"(3,1)/{kind}"])
    verdicts = [ok for name, (ok, _) in results.items() if "diagnostic" not in name]
    assert len(verdicts) == 6 and all(verdicts)


class TestNormalizations:
    def test_transversality_is_one(self):
        rng = random.Random(21)
        for m, n in [(1, 1), (2, 1), (3, 2)]:
            chart = BundleChart(m, n)
            h = random_polynomial_h(chart, rng)
            X = derive_extended(HamiltonianModel(chart, h))
            assert transversality(X) == 1

    def test_transversality_scales_with_f(self):
        chart = BundleChart(2, 1)
        X = derive_extended(HamiltonianModel(chart, 0)).scaled(chart.y(1))
        # both decomposed components carry f, so an m=2 contraction sees f^2
        assert simplify(transversality(X) - chart.y(1) ** 2) == 0

    def test_vertical_pairing_is_one(self):
        rng = random.Random(22)
        chart = BundleChart(2, 2)
        _, alpha = extended_alpha(chart, random_polynomial_h(chart, rng))
        assert mu_vertical_pairing(alpha) == 1

    def test_vertical_pairing_flags_scaling(self):
        chart = BundleChart(1, 1)
        _, alpha = extended_alpha(chart, 0)
        assert mu_vertical_pairing(alpha.scale(2)) == 2


class TestTangency:
    def test_oscillator(self):
        model = _oscillator()
        _, alpha = extended_alpha(model.chart, model.h)
        assert tangency_check(derive_extended(model), alpha) == [0]

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 1)])
    def test_random_corpus(self, m, n):
        rng = random.Random(200 * m + n)
        chart = BundleChart(m, n)
        h = random_polynomial_h(chart, rng)
        gauge = random_gauge(chart, rng)
        _, alpha = extended_alpha(chart, h)
        X = derive_extended(HamiltonianModel(chart, h), gauge)
        assert all(t == 0 for t in tangency_check(X, alpha))

    def test_needs_one_form_on_extended_chart(self):
        model = _oscillator()
        X = derive_extended(model)
        dh = CoordForm(model.chart.coords("J1"), 0, {(): model.h}).d()
        H, alpha = extended_alpha(model.chart, model.h)
        with pytest.raises(ChartMismatchError):
            tangency_check(X, dh)
        with pytest.raises(ChartMismatchError):
            tangency_check(X, CoordForm(alpha.coords, 0, {(): H}))


class TestConnection:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2)])
    def test_contraction_identity(self, m, n):
        rng = random.Random(300 * m + n)
        chart = BundleChart(m, n)
        h = random_polynomial_h(chart, rng)
        gauge = random_gauge(chart, rng)
        _, omega_h = hamilton_cartan(chart, h)
        X = derive_restricted(HamiltonianModel(chart, h), gauge)
        assert connection_equation_check(X, omega_h).is_zero()

    def test_curvature_empty_for_mechanics(self):
        assert curvature(derive_extended(_oscillator())) == {}

    def test_wave_is_flat(self):
        chart = BundleChart(2, 1)
        p1, p2 = chart.p(1, 1), chart.p(1, 2)
        X = derive_extended(HamiltonianModel(chart, (p1 ** 2 - p2 ** 2) / 2))
        assert all(v == 0 for v in curvature(X).values())

    def test_adversarial_gauge_breaks_flatness(self):
        chart = BundleChart(2, 1)
        p1, p2 = chart.p(1, 1), chart.p(1, 2)
        gauge = GaugeChoice("user-table", {(1, 1, 2): chart.y(1)}, {})
        X = derive_extended(
            HamiltonianModel(chart, (p1 ** 2 - p2 ** 2) / 2), gauge)
        assert any(v != 0 for v in curvature(X).values())


class TestStandardChecks:
    def test_all_pass_for_oscillator(self):
        results = standard_checks(_oscillator())
        assert all(ok for ok, _ in results.values())

    def test_nonflat_gauge_is_diagnostic_only(self):
        chart = BundleChart(2, 1)
        p1, p2 = chart.p(1, 1), chart.p(1, 2)
        gauge = GaugeChoice("user-table", {(1, 1, 2): chart.y(1) * p1}, {})
        results = standard_checks(
            HamiltonianModel(chart, (p1 ** 2 - p2 ** 2) / 2), gauge)
        for name, (ok, _) in results.items():
            if "diagnostic" in name:
                assert not ok
            else:
                assert ok
