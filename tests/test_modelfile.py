import math
import pathlib
import re

import pytest
import sympy as sp

from hdw_forge import BundleChart, modelfile
from hdw_forge.errors import (ExpressionSyntaxError, ModelFileError,
                              UnknownCoordinateError)
from hdw_forge.exprparse import parse_expression, render_latex, render_plain
from hdw_forge.modelfile import parse_model, parse_model_text

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


class TestExpressionParser:
    def setup_method(self):
        self.chart = BundleChart(2, 1)

    def parse(self, text, level="M"):
        return parse_expression(text, self.chart, level)

    def test_oscillator_hamiltonian(self):
        chart = BundleChart(1, 1)
        e = parse_expression("(p1_1^2 + y1^2)/2", chart, "J1")
        assert sp.expand(e - (chart.p(1, 1) ** 2 + chart.y(1) ** 2) / 2) == 0

    def test_precedence_and_unary(self):
        x1 = self.chart.x(1)
        assert self.parse("-x1^2") == -x1 ** 2
        assert self.parse("2*x1 + 3*x1") == 5 * x1

    def test_rational_exponent(self):
        x1 = self.chart.x(1)
        assert self.parse("x1^(1/2)") == sp.sqrt(x1)
        assert self.parse("x1^(-3)") == x1 ** -3

    def test_decimal_becomes_exact_rational(self):
        assert self.parse("0.5") == sp.Rational(1, 2)

    def test_functions(self):
        x2 = self.chart.x(2)
        assert self.parse("sin(x2) + exp(x2)") == sp.sin(x2) + sp.exp(x2)

    def test_unknown_coordinate_with_suggestion(self):
        with pytest.raises(UnknownCoordinateError) as exc:
            self.parse("p1_3")
        assert any(s.startswith("p1_") for s in exc.value.suggestions)

    def test_level_restricts_names(self):
        with pytest.raises(UnknownCoordinateError):
            parse_expression("pe + y1", self.chart, "J1")

    def test_extra_names(self):
        e = parse_expression("u1*u2", None, extra_names=["u1", "u2"])
        assert e == sp.Symbol("u1") * sp.Symbol("u2")

    def test_syntax_error_has_position(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            self.parse("x1 + ")
        assert exc.value.line == 1 and exc.value.column == 6

    def test_bad_character(self):
        with pytest.raises(ExpressionSyntaxError):
            self.parse("x1 @ 2")

    def test_trailing_input(self):
        with pytest.raises(ExpressionSyntaxError):
            self.parse("x1 x2")

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            self.parse("x1^x2")

    @pytest.mark.parametrize("text,column", [
        ("y1/0", 3), ("1/(y1-y1)", 2), ("0^(-1)", 2), ("x1^(1/0)", 6), ("0/0", 2),
        ("log(y1-y1)", 1), ("x1 + 2*(p1_1^2/0)", 15), ("0^(-1/2) + x1", 2),
    ])
    def test_value_that_is_not_finite_is_refused_at_its_operator(self, text, column):
        with pytest.raises(ExpressionSyntaxError, match="not finite") as exc:
            self.parse(text)
        assert exc.value.line == 1 and exc.value.column == column

    def test_finite_quotients_and_powers_parse(self):
        y1 = self.chart.y(1)
        assert self.parse("y1/2 + 0^2 + (y1-y1)^(1/2) + log(1)") == y1 / 2
        assert self.parse("y1^(-1)") == 1 / y1


class TestRendering:
    def test_plain_round_trip(self):
        chart = BundleChart(2, 2)
        exprs = [
            chart.p(1, 2) ** 2 / 2 - chart.y(1) * chart.x(2),
            sp.sqrt(chart.y(2)),
            sp.sin(chart.x(1)) * chart.p(2, 1) ** -3,
        ]
        for e in exprs:
            text = render_plain(e)
            assert "**" not in text and "sqrt" not in text
            back = parse_expression(text, chart, "M")
            assert sp.simplify(back - e) == 0

    def test_latex_index_conventions(self):
        chart = BundleChart(2, 1)
        s = render_latex(chart.p(1, 2) + chart.y(1) + chart.pe)
        assert "p^{2}_{1}" in s and "y^{1}" in s
        # the extended scalar momentum renders as a bare p
        assert "pe" not in s


OSC = """\
[bundle]
m = 1
n = 1

[hamiltonian]
h = (p1_1^2 + y1^2)/2
"""


class TestModelParsing:
    def test_minimal_hamiltonian_model(self):
        model = parse_model_text(OSC)
        assert model.physics == "hamiltonian"
        assert model.chart.m == 1 and model.chart.n == 1
        chart = model.chart
        assert sp.expand(model.hamiltonian
                         - (chart.p(1, 1) ** 2 + chart.y(1) ** 2) / 2) == 0

    def test_comments_and_blank_lines(self):
        model = parse_model_text("# header\n\n" + OSC + "\n# trailing\n")
        assert model.hamiltonian is not None

    def test_unknown_section(self):
        with pytest.raises(ModelFileError) as exc:
            parse_model_text("[physics]\nh = 1\n")
        assert exc.value.line == 1

    def test_entry_before_section(self):
        with pytest.raises(ModelFileError):
            parse_model_text("m = 1\n")

    def test_missing_bundle(self):
        with pytest.raises(ModelFileError):
            parse_model_text("[hamiltonian]\nh = y1\n")

    def test_both_physics_blocks(self):
        text = OSC + "\n[lagrangian]\nlag = v1_1^2/2\n"
        with pytest.raises(ModelFileError):
            parse_model_text(text)

    def test_neither_physics_block(self):
        with pytest.raises(ModelFileError):
            parse_model_text("[bundle]\nm = 1\nn = 1\n")

    def test_duplicate_section(self):
        with pytest.raises(ModelFileError):
            parse_model_text(OSC + "\n[bundle]\nm = 1\nn = 1\n")

    @staticmethod
    def error_line(text, match):
        with pytest.raises(ModelFileError, match=match) as exc:
            parse_model_text(text)
        return exc.value.line

    @pytest.mark.parametrize("entry,line", [("m = 0", 4), ("n = 0", 5)])
    def test_dimension_below_one_reports_its_entry(self, entry, line):
        text = "# a chart with no base\n\n[bundle]\nm = 1\nn = 1\n[hamiltonian]\nh = 0\n"
        text = text.replace(entry[0] + " = 1", entry)
        assert self.error_line(text, "need m >= 1 and n >= 1") == line

    def test_physics_section_without_its_entry_reports_its_header(self):
        text = "[bundle]\nm = 1\nn = 1\n\n# no h below\n\n[hamiltonian]\n"
        assert self.error_line(text, r"\[hamiltonian\] needs an 'h = ...' entry") == 7

    @pytest.mark.parametrize("slot", ["psi[1][2]", "G[1][1][1]"])
    def test_gauge_slot_error_reports_its_entry(self, slot):
        text = ("[bundle]\nm = 2\nn = 1\n[hamiltonian]\nh = p1_1*p1_1\n"
                f"[gauge]\nmode = user-table\nG[1][1][2] = y1\n{slot} = y1\n")
        assert self.error_line(text, "is not a free slot") == 9

    @pytest.mark.parametrize("body", ["", "m = 1\nn = 1\n"], ids=["empty", "full"])
    def test_duplicate_section_reports_its_header(self, body):
        text = "[bundle]\nm = 1\nn = 1\n[hamiltonian]\nh = 0\n[bundle]\n" + body
        assert self.error_line(text, r"duplicate section \[bundle\]") == 6

    def test_second_physics_section_reports_its_header(self):
        text = "[bundle]\nm = 1\nn = 1\n[hamiltonian]\n[lagrangian]\nlag = v1_1^2/2\n"
        assert self.error_line(text, "need exactly one of") == 5

    BASE = "[bundle]\nm = 2\nn = 1\n[hamiltonian]\nh = p1_1^2/2\n"

    @pytest.mark.parametrize("text,key,section,line", [
        ("[bundle]\nm = 1\nm = 2\nn = 1\n[hamiltonian]\nh = 0\n", "m", "bundle", 3),
        (BASE + "h = y1\n", "h", "hamiltonian", 6),
        (BASE + "[solve]\nkind = ode\nt0 = 0\nt1 = 1\ndt = 0.1\ndt = 0.2\n",
         "dt", "solve", 11),
        (BASE + "[solve]\nkind = ode\nt0 = 0\nt1 = 1\ndt = 0.1\ny1 = 1\ny1 = 2\n",
         "y1", "solve", 12),
        (BASE + "[submanifold]\nparams = u1 u2 u3\nparams = u1 u2 u3\nx1 = u1\nx2 = u2\n"
         "y1 = u3\np1_1 = 0\np1_2 = 0\nh_P = 0\nsamples = 1 1 1\n", "params", "submanifold", 8),
        (BASE + "[gauge]\nG[1][1][2] = y1\nG[1][1][2] = x1\n", "G[1][1][2]", "gauge", 8),
    ], ids=["bundle-m", "hamiltonian-h", "solve-dt", "solve-y1", "submanifold-params",
            "gauge-slot"])
    def test_repeated_key_reports_its_second_line(self, text, key, section, line):
        assert self.error_line(text, rf"repeated key '{re.escape(key)}' in \[{section}\]") == line

    def test_repeated_samples_accumulate(self):
        text = self.SUBMANIFOLD + "samples = 2 2 2\n"
        sub = parse_model_text(text).submanifold
        assert len(sub["samples"]) == 3
        # each sample keeps its line, which an error found later names
        lines = text.splitlines()
        assert [lines[ln - 1] for ln in sub["sample_lines"]] == [
            "samples = 0.1 0.2 0.3; 1 1 1"] * 2 + ["samples = 2 2 2"]

    def test_unknown_bundle_key_reports_its_line(self):
        text = "[bundle]\nm = 1\nn = 1\nmm = 7\n[hamiltonian]\nh = 0\n"
        assert self.error_line(text, r"unexpected key 'mm' in \[bundle\]") == 4

    def test_non_integer_dimension(self):
        with pytest.raises(ModelFileError):
            parse_model_text("[bundle]\nm = one\nn = 1\n[hamiltonian]\nh = 0\n")

    def test_out_of_chart_coordinate_reports_line(self):
        text = "[bundle]\nm = 1\nn = 1\n[hamiltonian]\nh = p2_1\n"
        with pytest.raises(UnknownCoordinateError) as exc:
            parse_model_text(text)
        assert exc.value.line == 5

    def test_gauge_section(self):
        text = """\
[bundle]
m = 2
n = 1

[hamiltonian]
h = p1_1*p1_1

[gauge]
G[1][1][2] = y1
psi[1][1] = x1
"""
        model = parse_model_text(text)
        assert model.gauge.mode == "user-table"
        assert model.gauge.off_trace[(1, 1, 2)] == sp.Symbol("y1")
        assert model.gauge.redistribution[(1, 1)] == sp.Symbol("x1")

    def test_gauge_bad_slot(self):
        text = OSC + "\n[gauge]\nG[1][1][1] = y1\n"
        with pytest.raises(ModelFileError):
            parse_model_text(text)

    def test_solve_ode_section(self):
        text = OSC + "\n[solve]\nkind = ode\nextended = true\nt0 = 0\nt1 = 10\ndt = 0.001\ny1 = 1\np1_1 = 0\n"
        model = parse_model_text(text)
        assert model.solve["kind"] == "ode"
        assert model.solve["extended"] is True
        assert model.solve["init"]["y1"] == 1.0

    def test_solve_missing_required_key(self):
        text = OSC + "\n[solve]\nkind = ode\nt0 = 0\ndt = 0.1\n"
        with pytest.raises(ModelFileError):
            parse_model_text(text)

    def test_solve_empty_time_range(self):
        text = OSC + "\n[solve]\nkind = ode\nt0 = 1\nt1 = 1\ndt = 0.1\n"
        with pytest.raises(ModelFileError):
            parse_model_text(text)

    @pytest.mark.parametrize("entry,needle", [
        ("dt = 0", "dt must be > 0"),
        ("dt = -0.5", "dt must be > 0"),
        ("dt = nan", "dt must be finite"),
        ("t1 = inf", "t1 must be finite"),
        ("dt = 5", "dt must be > 0 and give at least one step"),
        ("points = 4", "points must be at least 5"),
        ("dt = 1e-9", "dt must be large enough for at most 20000000 stored values, "
         r"\(steps \+ 1\) x 2 per step"),
        ("dt = 5e-324", "dt must be large enough"),
        ("t1 = 1/0", "t1 must be numeric"),
    ])
    def test_solve_value_out_of_range_reports_its_line(self, entry, needle):
        # the entry replaces the block's own line for its key, as its last line
        block = ["kind = ode", "t0 = 0", "t1 = 1", "dt = 0.1", "y1 = 1"]
        key = entry.split(" =")[0]
        block = [line for line in block if line.split(" =")[0] != key] + [entry]
        text = OSC + "\n[solve]\n" + "\n".join(block) + "\n"
        with pytest.raises(ModelFileError, match=needle) as exc:
            parse_model_text(text)
        assert exc.value.line == text.count("\n")

    @pytest.mark.parametrize("kind,extras,per_step", [
        ("ode", {"extended": False}, 2 * 2),
        ("ode", {"extended": True}, 2 * 2 + 1),
        ("field1p1", {"points": 800}, 3 * 800),
    ])
    def test_stored_values_bound_is_inclusive(self, kind, extras, per_step):
        chart = BundleChart(1, 2) if kind == "ode" else BundleChart(2, 1)
        steps = modelfile.MAX_RUN_VALUES // per_step - 1
        run = {"kind": kind, "t0": 0.0, "t1": float(steps), "dt": 1.0, **extras}
        assert modelfile.solve_problem(run, chart) is None
        run["t1"] += 1
        key, bound = modelfile.solve_problem(run, chart)
        assert key == "dt" and f"x {per_step} per step" in bound

    def test_bundled_runs_fit_the_bound(self):
        # the largest run the tests and the benchmark make: the wave at 800 x 800
        for path in sorted(MODELS.glob("*.hdw")):
            model = parse_model(path)
            if model.solve is not None:
                assert modelfile.solve_problem(model.solve, model.chart) is None
        wave = parse_model(MODELS / "wave.hdw")
        wide = dict(wave.solve, points=800, dt=2 * math.pi / 800)
        assert modelfile.solve_problem(wide, wave.chart) is None

    def test_solve_field_profiles_parse_against_base(self):
        text = """\
[bundle]
m = 2
n = 1

[hamiltonian]
h = (p1_1^2 - p1_2^2)/2

[solve]
kind = field1p1
t0 = 0
t1 = 1
dt = 0.01
xmin = 0
xmax = 6.28
points = 16
y1 = sin(x2)
"""
        model = parse_model_text(text)
        assert model.solve["init"]["y1"] == sp.sin(sp.Symbol("x2"))

    def test_solve_unknown_init_coordinate(self):
        text = OSC + "\n[solve]\nkind = ode\nt0 = 0\nt1 = 1\ndt = 0.1\nq = 1\n"
        with pytest.raises(ModelFileError):
            parse_model_text(text)

    def test_submanifold_section(self):
        text = OSC + """
[submanifold]
params = u1 u2 u3
x1 = u1
y1 = u2
p1_1 = u3
h_P = (u3^2 + u2^2)/2
samples = 0.1 0.2 0.3; 1 1 1
"""
        model = parse_model_text(text)
        sub = model.submanifold
        assert sub["params"] == (sp.Symbol("u1"), sp.Symbol("u2"), sp.Symbol("u3"))
        assert len(sub["samples"]) == 2
        assert sub["embedding"][sp.Symbol("p1_1")] == sp.Symbol("u3")

    @pytest.mark.parametrize("init", ["y1 = 1/0", "p1_1 = 2/0"])
    def test_ode_initial_value_dividing_by_zero_reports_its_line(self, init):
        text = OSC + "\n[solve]\nkind = ode\nt0 = 0\nt1 = 1\ndt = 0.1\n" + init + "\n"
        with pytest.raises(ModelFileError, match="must be numeric") as exc:
            parse_model_text(text)
        assert exc.value.line == text.count("\n")

    SUBMANIFOLD = OSC + """
[submanifold]
params = u1 u2 u3
x1 = u1
y1 = u2
p1_1 = u3
h_P = 0
samples = 0.1 0.2 0.3; 1 1 1
"""

    @pytest.mark.parametrize("samples,needle,line", [
        ("0.1 0.2; 1 1 1", r"sample \(0.1, 0.2\) has 2 entries, expected 3", "samples = 0.1"),
        ("1 1 1; 0.5 0.5 0.5 0.5", "has 4 entries, expected 3", "samples = 1 1 1"),
        ("1 1 1\nsamples = 1/0 1 1", "sample must be numeric, got '1/0'", "samples = 1/0"),
    ])
    def test_submanifold_sample_refused_at_its_line(self, samples, needle, line):
        text = self.SUBMANIFOLD.replace("0.1 0.2 0.3; 1 1 1", samples)
        with pytest.raises(ModelFileError, match=needle) as exc:
            parse_model_text(text)
        assert text.splitlines()[exc.value.line - 1].startswith(line)

    def test_submanifold_repeated_parameter_refused_at_its_line(self):
        text = self.SUBMANIFOLD.replace("params = u1 u2 u3", "params = u1 u2 u1")
        line = self.error_line(text, r"repeated parameter 'u1' in \[submanifold\]")
        assert text.splitlines()[line - 1] == "params = u1 u2 u1"

    def test_submanifold_embedding_must_cover_the_restricted_chart(self):
        text = self.SUBMANIFOLD.replace("y1 = u2\n", "")
        with pytest.raises(ModelFileError, match="missing: y1") as exc:
            parse_model_text(text)
        assert text.splitlines()[exc.value.line - 1] == "params = u1 u2 u3"

    def test_submanifold_needs_params_first(self):
        text = OSC + "\n[submanifold]\nh_P = 0\nparams = u1\nsamples = 1\n"
        with pytest.raises(ModelFileError):
            parse_model_text(text)

    def test_missing_file(self):
        with pytest.raises(ModelFileError):
            parse_model("/nonexistent/model.hdw")

    def test_bundled_models_parse(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        for name in ("oscillator", "wave", "degenerate"):
            model = parse_model(root / "models" / f"{name}.hdw")
            assert model.chart.m in (1, 2)
