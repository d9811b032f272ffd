import dataclasses
import importlib
import itertools
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import hdw_forge
from hdw_forge import cli, symbolic
from hdw_forge.cli import SCHEMA_VERSION, main, read_grid_csv, write_grid_csv
from hdw_forge.errors import ModelFileError
from hdw_forge.modelfile import parse_model
from hdw_forge.solver import SectionGrid

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def run_json(capsys, *argv):
    status, out, err = run(capsys, *argv)
    return status, (json.loads(out) if out.strip() else None), err


def strip_timestamp(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)


def reference_grid_csv(grid) -> str:
    """The grid CSV bytes as a per-element `repr(float(v))` loop writes them."""
    lines = [f"# hdw-forge grid v{SCHEMA_VERSION}"]
    lines += [f"# {k} = {grid.meta[k]}" for k in sorted(grid.meta) if k != "warnings"]
    names = list(grid.fields)
    if grid.kind == "ode":
        lines.append(",".join(["x1"] + names))
        for i, tv in enumerate(grid.t):
            row = [repr(float(tv))] + [repr(float(grid.fields[nm][i])) for nm in names]
            lines.append(",".join(row))
    else:
        lines.append(",".join(["x1", "x2"] + names))
        for i, tv in enumerate(grid.t):
            for j, xv in enumerate(grid.x):
                row = [repr(float(tv)), repr(float(xv))]
                row += [repr(float(grid.fields[nm][i, j])) for nm in names]
                lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def assert_bit_identical(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert (a.view(np.int64) == b.view(np.int64)).all()


def assert_same_grid(got, want):
    assert got.kind == want.kind
    assert_bit_identical(got.t, want.t)
    if want.x is not None:
        assert_bit_identical(got.x, want.x)
    assert list(got.fields) == list(want.fields)
    for nm in want.fields:
        assert_bit_identical(got.fields[nm], want.fields[nm])


def bit_pattern_grid():
    """An `ode` grid of 10**5 rows: y1 holds seeded random finite bit
    patterns, pe values on both sides of the points where orjson's notation
    differs from `repr`'s (1e-5, 1e-4, 1e16), subnormals, +-0.0, every
    power of ten from 1e-308 to 1e308, values holding 0.0000 after a
    first digit, nan and +-inf."""
    n = 10 ** 5
    bits = np.random.default_rng(16).integers(-2 ** 63, 2 ** 63 - 1, n, dtype=np.int64)
    y1 = bits.view(np.float64)
    y1[~np.isfinite(y1)] = 1.5
    sides = np.array([1e-5, 1e-4, 1e16, 2.2250738585072014e-308])
    sides = np.concatenate([sides, np.nextafter(sides, 0), np.nextafter(sides, np.inf)])
    powers = 10.0 ** np.arange(-308, 309)
    inside = [10.00001, 100.0000125, 7.00000001e-05]  # 0.0000d inside a longer token
    edges = np.concatenate([sides, powers, 1.25 * powers[:-1], inside,
                            [5e-324, 1e-320, 0.0, np.inf]])
    edges = np.concatenate([edges, -edges, [np.nan]])  # `repr` drops a nan's sign
    return SectionGrid("ode", np.arange(n) * 0.25,
                       {"y1": y1, "pe": np.resize(edges, n)}, meta={"scheme": "rk4"})


def odd_grids():
    """An `ode` and a field grid holding -0.0, a subnormal and values whose
    shortest `repr` switches notation, two larger random grids and
    `bit_pattern_grid`."""
    odd = np.array([-0.0, 1e-05, 1e16, 5e-324, 0.1])
    rng = np.random.default_rng(7)
    return [
        SectionGrid("ode", np.arange(5) * 0.1, {"y1": odd, "p1_1": -odd[::-1]},
                    meta={"scheme": "rk4", "warnings": ["dropped"]}),
        SectionGrid("field1p1", np.linspace(0.0, 1.0, 4),
                    {"y1": rng.standard_normal((4, 5)),
                     "p1_1": np.tile(odd, (4, 1)), "p1_2": rng.random((4, 5))},
                    x=2 * np.pi * np.arange(5) / 5, meta={"dx": 0.2}),
        SectionGrid("ode", np.linspace(0.0, 2.0, 13),
                    {"y1": rng.standard_normal(13), "pe": rng.random(13) * 1e-300}),
        SectionGrid("field1p1", np.linspace(0.0, 1.0, 7),
                    {"y1": rng.standard_normal((7, 6)) * 1e8}, x=np.arange(6) / 6),
        bit_pattern_grid(),
    ]


def assert_writes_reference(tmp_path, grids):
    """Each grid is written as `reference_grid_csv` and read back bit for bit."""
    for k, g in enumerate(grids):
        path = tmp_path / f"copy{k}.csv"
        write_grid_csv(g, str(path))
        assert path.read_bytes() == reference_grid_csv(g).encode()
        assert_same_grid(read_grid_csv(str(path)), g)


class TestDerive:
    def test_oscillator_equations(self, capsys, tmp_path):
        status, report, _ = run_json(
            capsys, "derive", str(MODELS / "oscillator.hdw"), "--out", str(tmp_path))
        assert status == 0
        texts = [eq["text"] for eq in report["equations"]]
        assert "d(y1)/d(x1) = p1_1" in texts
        assert "d(p1_1)/d(x1) = -y1" in texts
        assert "d(pe)/d(x1) = 0" in texts
        assert report["dof_count"] == 0
        assert (tmp_path / "oscillator.derive.json").exists()

    def test_wave_equations_from_lagrangian(self, capsys, tmp_path):
        status, report, _ = run_json(
            capsys, "derive", str(MODELS / "wave.hdw"), "--out", str(tmp_path))
        assert status == 0
        texts = [eq["text"] for eq in report["equations"]]
        assert "d(y1)/d(x1) = p1_1" in texts
        assert "d(y1)/d(x2) = -p1_2" in texts
        assert report["model"]["physics"] == "lagrangian"

    def test_latex_format_prints_fragments(self, capsys, tmp_path):
        status, out, _ = run(
            capsys, "derive", str(MODELS / "oscillator.hdw"),
            "--format", "latex", "--out", str(tmp_path))
        assert status == 0
        assert r"\partial" in out


OSC_H = "[bundle]\nm = 1\nn = 1\n[hamiltonian]\nh = (p1_1^2 + y1^2)/2\n"
WAVE_H = "[bundle]\nm = 2\nn = 1\n[hamiltonian]\nh = (p1_1^2 - p1_2^2)/2\n"
LAG_1 = "[bundle]\nm = 1\nn = 1\n[lagrangian]\nlag = (v1_1^2 - y1^2)/2\n"


class TestCheck:
    def test_oscillator_all_pass(self, capsys, tmp_path):
        status, report, _ = run_json(
            capsys, "check", str(MODELS / "oscillator.hdw"), "--out", str(tmp_path))
        assert status == 0
        assert report["checks"]
        assert all(c["passed"] for c in report["checks"])

    def test_wave_all_pass(self, capsys, tmp_path):
        status, report, _ = run_json(
            capsys, "check", str(MODELS / "wave.hdw"), "--out", str(tmp_path))
        assert status == 0
        assert all(c["passed"] for c in report["checks"])

    def test_degenerate_reports_rank_diagnostics(self, capsys, tmp_path):
        status, report, _ = run_json(
            capsys, "check", str(MODELS / "degenerate.hdw"), "--out", str(tmp_path))
        assert status == 0
        assert all(d >= 1 for d in report["rank_diagnostics"]["kernel_dims"])

    def test_injected_perturbation_fails(self, capsys, tmp_path):
        inject = tmp_path / "inject.json"
        inject.write_text(json.dumps({"F[1][1]": "p1_1 + 1"}))
        status, report, _ = run_json(
            capsys, "check", str(MODELS / "oscillator.hdw"),
            "--debug-inject", str(inject), "--out", str(tmp_path))
        assert status == 1
        assert any(not c["passed"] for c in report["checks"])

    def test_injection_returns_a_new_field(self, tmp_path):
        from hdw_forge import BundleChart, HamiltonianModel, derive_extended
        chart = BundleChart(2, 1)
        p1, p2 = chart.p(1, 1), chart.p(1, 2)
        X = derive_extended(HamiltonianModel(chart, (p1 ** 2 - p2 ** 2) / 2 + chart.y(1) ** 2))
        before = [dict(X.F), dict(X.G), dict(X.g)]
        inject = tmp_path / "inject.json"
        inject.write_text(json.dumps({"F[1][1]": "p1_1 + 1", "G[1][1][2]": "y1",
                                      "g[2]": "p1_1 + pe"}))
        Y = cli._apply_injection(X, str(inject))
        assert Y is not X
        assert [dict(X.F), dict(X.G), dict(X.g)] == before
        assert (Y.F[(1, 1)], Y.G[(1, 1, 2)], Y.g[2]) == (p1 + 1, chart.y(1), p1 + chart.pe)
        assert Y.F[(1, 2)] == X.F[(1, 2)] and Y.g[1] == X.g[1]
        assert (Y.kind, Y.chart, Y.gauge, Y.f) == (X.kind, X.chart, X.gauge, X.f)

    @pytest.mark.parametrize("entry,status", [
        ({"F[1][1]": "p1_1*(sin(y1)^2+cos(y1)^2)"}, 0),
        ({"G[1][1][1]": "-y1*(sin(y1)^2+cos(y1)^2)"}, 0),
        ({"F[1][1]": "p1_1 + 1"}, 1),
        ({"F[1][1]": "p1_1 + log(y1 - 5)"}, 1),
    ], ids=["trig-identity-F", "trig-identity-G", "shifted-F", "unevaluable-F"])
    def test_injected_field_runs_full_battery(self, capsys, tmp_path, entry, status):
        model = str(MODELS / "oscillator.hdw")
        _, plain, _ = run_json(capsys, "check", model, "--out", str(tmp_path))
        inject = tmp_path / "inject.json"
        inject.write_text(json.dumps(entry))
        got, report, _ = run_json(
            capsys, "check", model, "--debug-inject", str(inject), "--out", str(tmp_path))
        assert got == status
        assert [c["name"] for c in report["checks"]] == [c["name"] for c in plain["checks"]]
        assert all(c["passed"] for c in report["checks"]) == (status == 0)

    def test_seed_picks_the_sampled_points(self, capsys, tmp_path, monkeypatch):
        # sin^2 + cos^2 in F leaves residual terms that only sampling decides
        inject = tmp_path / "inject.json"
        inject.write_text(json.dumps({"F[1][1]": "p1_1*(sin(y1)^2+cos(y1)^2)"}))
        evaluate = symbolic.evaluate
        points = []
        for seed in ("0", "1", "0"):
            seen = []

            def spy(e, assignment, seen=seen):
                seen.append(tuple(sorted((str(k), v) for k, v in assignment.items())))
                return evaluate(e, assignment)

            monkeypatch.setattr(symbolic, "evaluate", spy)
            status, _, _ = run_json(
                capsys, "check", str(MODELS / "oscillator.hdw"), "--seed", seed,
                "--debug-inject", str(inject), "--out", str(tmp_path))
            assert status == 0 and seen
            points.append(seen)
        # every sampled check follows the seed: no point of seed 0 recurs
        assert not set(points[0]) & set(points[1])
        assert points[0] == points[2]

    @pytest.mark.parametrize("text,line,needle", [
        (WAVE_H + "[gauge]\nG[1][1][2] = y1\nG[01][1][2] = x1\n", 8,
         "unexpected gauge key 'G[01][1][2]'"),
        (WAVE_H + "[gauge]\npsi[1][1] = y1\npsi[1][01] = x1\n", 8,
         "unexpected gauge key 'psi[1][01]'"),
        (OSC_H + "[solve]\nkind = ode\nextended = true\nt0 = 0\nt1 = 1\ndt = 0.1\n"
         "y1 = 1.0\ny01 = 5.0\np1_1 = 0.0\n", 13, "unknown coordinate 'y01' in [solve]"),
        (OSC_H + "[submanifold]\nparams = u1 u2 u3\nx01 = u1\ny1 = u2\np1_1 = u3\n"
         "h_P = 0\nsamples = 1 1 1\n", 8, "unknown coordinate 'x01' in [submanifold]"),
    ], ids=["G", "psi", "solve", "submanifold"])
    def test_key_with_a_leading_zero_exits_2_at_its_line(self, capsys, tmp_path, text,
                                                          line, needle):
        model = tmp_path / "spelled.hdw"
        model.write_text(text)
        status, out, err = run(capsys, "check", str(model), "--out", str(tmp_path))
        assert status == 2 and out == ""
        assert err == f"error: line {line}: {needle}" + (
            " (use mode, G[A][rho][nu], psi[A][nu])\n" if "gauge" in needle else "\n")

    @pytest.mark.parametrize("text,line,message", [
        (OSC_H + "[solve]\nkind = ode\nextended = true\nt0 = 0\nt1 = 1\ndt = 0.1\n"
         "y1 = 1.0\nx1 = 7\np1_1 = 0.0\n", 13,
         "'x1' is a base coordinate, not initial data, in [solve]"),
        (WAVE_H + "[solve]\nkind = field1p1\nt0 = 0\nt1 = 1\ndt = 0.01\nxmin = 0\n"
         "xmax = 6.28\npoints = 16\ny1 = sin(x2)\nx2 = 1\n", 15,
         "'x2' is a base coordinate, not initial data, in [solve]"),
        (OSC_H + "[solve]\nkind = ode\nextended = true\nt0 = 0\nt1 = 1\ndt = 0.1\n"
         "y1 = 1.0\np1_1 = 0.0\npe = 3\n", 14,
         "'pe' is not initial data in [solve]: kind = ode takes y1, p1_1"),
        (OSC_H + "[solve]\nkind = ode\nt0 = 0\nt1 = 1\ndt = 0.1\n"
         "y1 = 1.0\npe = 3\np1_1 = 0.0\n", 12,
         "'pe' is not initial data in [solve]: kind = ode takes y1, p1_1"),
        (OSC_H + "[solve]\nkind = ode\nextended = true\nt0 = 0\nt1 = 1\ndt = 0.1\n"
         "y1 = 1.0\nv1_1 = 5\np1_1 = 0.0\n", 13,
         "'v1_1' is not initial data in [solve]: kind = ode takes y1, p1_1"),
        (WAVE_H + "[solve]\nkind = field1p1\nt0 = 0\nt1 = 1\ndt = 0.01\nxmin = 0\n"
         "xmax = 6.28\npoints = 16\ny1 = sin(x2)\np1_2 = 1\n", 15,
         "'p1_2' is not initial data in [solve]: kind = field1p1 takes y1, p1_1"),
    ], ids=["ode-x1", "field1p1-x2", "ode-extended-pe", "ode-restricted-pe", "ode-v1_1",
            "field1p1-p1_2"])
    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_base_coordinate_in_solve_exits_2_at_its_line(self, capsys, tmp_path, command,
                                                           text, line, message):
        # a run starts at x1 = t0 and, extended, at pe = -h there: its
        # initial data are the y_a and p_a_1 it integrates, and nothing else
        model = tmp_path / "base.hdw"
        model.write_text(text)
        status, out, err = run(capsys, command, str(model), "--out", str(tmp_path))
        assert status == 2 and out == ""
        assert err == f"error: line {line}: {message}\n"

    def test_bad_injection_key(self, capsys, tmp_path):
        inject = tmp_path / "inject.json"
        inject.write_text(json.dumps({"Q[1]": "0"}))
        status, _, err = run(
            capsys, "check", str(MODELS / "oscillator.hdw"),
            "--debug-inject", str(inject), "--out", str(tmp_path))
        assert status == 2
        assert "injection" in err

    @pytest.mark.parametrize("content,needle", [
        (None, "missing.json"),
        ('{"F[1][1]": ', "not valid JSON"),
        ("[1, 2]", "JSON object"),
        ('{"F[9][9]": "0"}', "'F[9][9]'"),
        ('{"G[1][1]": "0"}', "'G[1][1]'"),
        ('{"g[1][1]": "0"}', "'g[1][1]'"),
        ('{"g[2]": "0"}', "'g[2]'"),
        ('{"F[1][1]": 3}', "not a string"),
        # F[01][1] would overwrite the tampered F[1][1] and pass every check
        ('{"F[1][1]": "p1_1 + y1", "F[01][1]": "p1_1"}', "bad injection key 'F[01][1]'"),
    ], ids=["missing", "invalid-json", "json-list", "F-out-of-range", "G-wrong-arity",
            "g-wrong-arity", "g-out-of-range", "non-string-value", "F-leading-zero"])
    def test_bad_injection_file_is_input_error(self, capsys, tmp_path, content, needle):
        inject = tmp_path / "missing.json"
        if content is not None:
            inject.write_text(content)
        status, out, err = run(
            capsys, "check", str(MODELS / "oscillator.hdw"),
            "--debug-inject", str(inject), "--out", str(tmp_path))
        assert status == 2 and out == ""
        assert err.startswith("error: ") and needle in err

    @pytest.mark.parametrize("value,message", [
        ("p1_1/0", "line 1, column 5: '/' gives a value that is not finite"),
        ("p1_1 +", "line 1, column 7: expected a value, found 'end of input'"),
    ], ids=["not-finite", "truncated"])
    def test_bad_injection_value_names_file_and_key(self, capsys, tmp_path, value, message):
        inject = tmp_path / "inject.json"
        inject.write_text(json.dumps({"F[1][1]": value}))
        out_dir = tmp_path / "out"
        status, out, err = run(
            capsys, "check", str(MODELS / "oscillator.hdw"),
            "--debug-inject", str(inject), "--out", str(out_dir))
        assert (status, out) == (2, "")
        assert err == f"error: {inject}: injection value of 'F[1][1]' at {message}\n"
        assert not out_dir.exists()


class TestLegendre:
    def test_wave_round_trip(self, capsys, tmp_path):
        status, report, _ = run_json(
            capsys, "legendre", str(MODELS / "wave.hdw"), "--out", str(tmp_path))
        assert status == 0
        assert report["classification"] == "hyper-regular-closed-form"
        assert report["round_trip"]["passed"] is True
        assert report["induced_h"]["text"] == "p1_1^2/2 - p1_2^2/2"

    def test_round_trip_checks_the_inverse_velocities(self, capsys, tmp_path, monkeypatch):
        # V = 2V + 1 induces h = -p1_1 - p1_2, whose dh/dy matches -dlag/dy:
        # only dh/dp at p = dlag/dv, which is -1 and not v, shows it wrong
        from hdw_forge import forms, legendre
        real = legendre.legendre_maps

        def wrong_inverse(model, **kwargs):
            res = real(model, **kwargs)
            onto = model.chart.coords("J1")
            V = {s: forms.hold(2 * forms.read(v, onto) + 1, onto)
                 for s, v in res.inverse_velocities.held.items()}
            return dataclasses.replace(res, inverse_velocities=forms.HeldView(onto, V))

        monkeypatch.setattr(cli, "legendre_maps", wrong_inverse)
        status, report, _ = run_json(
            capsys, "legendre", str(MODELS / "wave.hdw"), "--out", str(tmp_path))
        assert report["induced_h"]["text"] == "-p1_1 - p1_2"
        assert status == 1 and report["round_trip"] == {"passed": False}

    def test_degenerate_is_structured_outcome(self, capsys, tmp_path):
        status, report, _ = run_json(
            capsys, "legendre", str(MODELS / "degenerate.hdw"), "--out", str(tmp_path))
        assert status == 0
        assert report["classification"] == "degenerate"
        assert report["round_trip"]["passed"] is None
        assert all(d >= 1 for d in report["rank_diagnostics"]["kernel_dims"])

    def test_hamiltonian_model_rejected(self, capsys, tmp_path):
        status, _, err = run(
            capsys, "legendre", str(MODELS / "oscillator.hdw"), "--out", str(tmp_path))
        assert status == 2
        assert "lagrangian" in err

    def test_legendre_map_is_computed_once(self, capsys, tmp_path, monkeypatch):
        # the elimination reuses the command's LegendreResult
        from hdw_forge import cli, legendre
        calls = []
        real = legendre.legendre_maps

        def spy(model, **kwargs):
            calls.append(model)
            return real(model, **kwargs)

        monkeypatch.setattr(cli, "legendre_maps", spy)
        monkeypatch.setattr(legendre, "legendre_maps", spy)
        status, report, _ = run_json(
            capsys, "legendre", str(MODELS / "wave.hdw"), "--out", str(tmp_path))
        assert status == 0 and report["round_trip"]["passed"] is True
        assert len(calls) == 1

    def test_induced_h_is_formed_once(self, capsys, tmp_path, monkeypatch):
        # the report's induced h and the elimination read one held Hamiltonian
        from hdw_forge import legendre
        calls = []
        real = legendre.compose

        def spy(value, images, coords, onto):
            calls.append(legendre.read(value, coords))
            return real(value, images, coords, onto)

        monkeypatch.setattr(legendre, "compose", spy)
        status, report, _ = run_json(
            capsys, "legendre", str(MODELS / "wave.hdw"), "--out", str(tmp_path))
        assert status == 0 and report["round_trip"]["passed"] is True
        lag = parse_model(MODELS / "wave.hdw").lagrangian
        assert calls.count(lag) == 1

    @pytest.mark.parametrize("command", ["legendre", "derive", "check", "solve", "compare"])
    def test_seed_reaches_the_hessian_zero_test(self, capsys, tmp_path, monkeypatch, command):
        # det H = exp(y1) is transcendental: the zero test samples it, at
        # the points of the command's --seed
        from hdw_forge import legendre
        model = tmp_path / "exp.hdw"
        model.write_text("[bundle]\nm = 1\nn = 1\n[lagrangian]\nlag = v1_1^2*exp(y1)/2\n"
                         "[solve]\nkind = ode\nt0 = 0\nt1 = 1\ndt = 0.1\n"
                         "y1 = 1.0\np1_1 = 0.0\n")
        seeds = []
        real = legendre.is_structurally_zero

        def spy(e, seed=0):
            seeds.append(seed)
            return real(e, seed)

        monkeypatch.setattr(legendre, "is_structurally_zero", spy)
        extra = ["--against", str(tmp_path / "none.csv")] if command == "compare" else []
        status, _, err = run(capsys, command, str(model), "--seed", "3", "--out",
                             str(tmp_path), *extra)
        assert seeds == [3]
        if command == "legendre":
            assert status == 0
        else:
            assert status == 2 and "regular-local" in err


class TestSolve:
    def test_oscillator_run_writes_grid(self, capsys, tmp_path):
        status, report, _ = run_json(
            capsys, "solve", str(MODELS / "oscillator.hdw"), "--out", str(tmp_path))
        assert status == 0
        grid = read_grid_csv(report["outputs"]["grid_csv"])
        assert grid.kind == "ode"
        assert set(grid.fields) == {"y1", "p1_1", "pe"}
        assert report["metrics"]["H_drift"] < 1e-9

    def test_wave_run_metrics(self, capsys, tmp_path):
        status, report, _ = run_json(
            capsys, "solve", str(MODELS / "wave.hdw"), "--out", str(tmp_path))
        assert status == 0
        assert report["metrics"]["energy_drift_rel"] < 1e-3
        grid = read_grid_csv(report["outputs"]["grid_csv"])
        assert grid.kind == "field1p1"
        assert grid.fields["y1"].shape == (201, 200)

    def test_field_energy_is_taken_from_h(self, capsys, tmp_path):
        # Klein-Gordon: e = h - p1_2 dy1/dx2 holds the 2 y1^2 term too
        model = tmp_path / "kg.hdw"
        model.write_text((MODELS / "wave.hdw").read_text().replace(
            "[lagrangian]\nlag = (v1_1^2 - v1_2^2)/2",
            "[hamiltonian]\nh = (p1_1^2 - p1_2^2)/2 + 2*y1^2"))
        status, report, _ = run_json(capsys, "solve", str(model), "--out", str(tmp_path))
        assert status == 0
        assert report["metrics"]["energy_drift_rel"] < 1e-5

    def test_time_dependent_h_reports_no_energy_drift(self, capsys, tmp_path):
        # e is not conserved when h depends on x1
        model = tmp_path / "forced.hdw"
        model.write_text((MODELS / "wave.hdw").read_text().replace(
            "[lagrangian]\nlag = (v1_1^2 - v1_2^2)/2",
            "[hamiltonian]\nh = (p1_1^2 - p1_2^2)/2 + x1*y1"))
        status, report, _ = run_json(capsys, "solve", str(model), "--out", str(tmp_path))
        assert status == 0
        assert list(report["metrics"]) == ["dt", "dx", "steps", "warnings"]

    def test_blown_up_run_is_refused_before_any_output(self, capsys, tmp_path):
        # the file's dt over an 800-point dx is dt/dx = 4, past the RK4 x fd4
        # limit: every state stays finite but the energy overflows, h to
        # inf - inf
        status, out, err = run(capsys, "solve", str(MODELS / "wave.hdw"), "--grid", "800",
                               "--out", str(tmp_path / "out"))
        assert status == 2 and out == ""
        assert err == "error: energy_drift_rel is nan, not finite: the run blew up\n"
        assert not (tmp_path / "out").exists()

    def test_grid_csv_round_trip(self, tmp_path, capsys):
        status, report, _ = run_json(
            capsys, "solve", str(MODELS / "oscillator.hdw"), "--out", str(tmp_path))
        assert status == 0
        grid = read_grid_csv(report["outputs"]["grid_csv"])
        assert_writes_reference(tmp_path, [grid] + odd_grids())

    def test_field_grid_rows_in_any_order(self, tmp_path):
        rng = np.random.default_rng(3)
        g = SectionGrid("field1p1", np.linspace(0.0, 1.0, 3),
                        {"y1": rng.standard_normal((3, 4))}, x=np.arange(4) * 0.25)
        path = tmp_path / "grid.csv"
        write_grid_csv(g, str(path))
        lines = path.read_text().splitlines(keepends=True)
        body = lines.index("x1,x2,y1\n") + 1
        rows = lines[body:]
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("".join(lines[:body] + [rows[i] for i in rng.permutation(12)]))
        again = read_grid_csv(str(shuffled))
        assert_bit_identical(again.t, g.t)
        assert_bit_identical(again.x, g.x)
        assert_bit_identical(again.fields["y1"], g.fields["y1"])
        duplicated = tmp_path / "duplicated.csv"
        duplicated.write_text("".join(lines[:body] + rows[:-1] + rows[:1]))
        with pytest.raises(ModelFileError, match="rows do not fill x1 by x2"):
            read_grid_csv(str(duplicated))

    def test_unwritable_grid_path_is_output_error(self, capsys, tmp_path):
        # the grid path is a directory: it is reported, and left in place
        (tmp_path / "oscillator.solve.grid.csv").mkdir()
        status, out, err = run(
            capsys, "solve", str(MODELS / "oscillator.hdw"), "--out", str(tmp_path))
        assert (status, out) == (2, "")
        assert err.startswith(f"error: cannot write {tmp_path}/oscillator.solve.grid.csv: ")
        assert "Traceback" not in err
        assert (tmp_path / "oscillator.solve.grid.csv").is_dir()

    @pytest.mark.parametrize("command", ["solve", "derive"])
    def test_out_dir_under_a_file_is_output_error(self, capsys, tmp_path, command):
        (tmp_path / "plain").write_text("")
        out_dir = tmp_path / "plain" / "out"
        status, out, err = run(
            capsys, command, str(MODELS / "oscillator.hdw"), "--out", str(out_dir))
        assert (status, out) == (2, "")
        assert err.startswith(f"error: cannot write {out_dir}/oscillator.{command}.")
        assert "Not a directory" in err

    def test_failed_grid_write_removes_the_grid(self, tmp_path, monkeypatch):
        grid = odd_grids()[3]
        path = tmp_path / "grid.csv"
        path.write_text("an older grid\n")

        def full(fh, grid, start, stop):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(cli, "_write_rows", full)
        with pytest.raises(OSError, match="No space left"):
            write_grid_csv(grid, str(path))
        assert list(tmp_path.iterdir()) == []

    def test_dt_override(self, capsys, tmp_path):
        status, report, _ = run_json(
            capsys, "solve", str(MODELS / "oscillator.hdw"),
            "--dt", "0.01", "--out", str(tmp_path))
        assert status == 0
        assert report["metrics"]["dt"] == 0.01

    def test_solve_without_block(self, capsys, tmp_path):
        status, _, err = run(
            capsys, "solve", str(MODELS / "degenerate.hdw"), "--out", str(tmp_path))
        assert status == 2

    @pytest.mark.parametrize("extended", ["true", "false"])
    def test_missing_initial_momentum_is_input_error(self, capsys, tmp_path, extended):
        text = (MODELS / "oscillator.hdw").read_text()
        model = tmp_path / "osc.hdw"
        model.write_text(text.replace("p1_1 = 0.0\n", "").replace(
            "extended = true", f"extended = {extended}"))
        status, out, err = run(capsys, "solve", str(model), "--out", str(tmp_path))
        assert (status, out) == (2, "")
        assert err.startswith("error: ") and "p1_1" in err
        if extended == "true":
            assert "assignment missing variables: p1_1" in err

    def test_steps_key_is_unknown(self, capsys, tmp_path):
        text = (MODELS / "oscillator.hdw").read_text() + "steps = 5\n"
        model = tmp_path / "osc.hdw"
        model.write_text(text)
        status, _, err = run(capsys, "solve", str(model), "--out", str(tmp_path))
        assert status == 2
        assert f"line {text.count(chr(10))}: unknown coordinate 'steps' in [solve]" in err

    @pytest.mark.parametrize("model,flag,value,needle", [
        ("oscillator", "--dt", "0", "must be > 0 and give at least one step"),
        ("oscillator", "--dt", "1e-400", "must be > 0 and give at least one step"),
        ("oscillator", "--dt", "-1", "must be > 0 and give at least one step"),
        ("oscillator", "--dt", "nan", "must be finite"),
        ("oscillator", "--dt", "100", "must be > 0 and give at least one step"),
        ("wave", "--grid", "3", "must be at least 5"),
        ("wave", "--grid", "-5", "must be at least 5"),
        ("oscillator", "--dt", "1e-300", "must be large enough for at most 20000000 "
         "stored values, (steps + 1) x 3 per step, got 1e-300"),
        ("oscillator", "--dt", "5e-324", "must be large enough for at most 20000000"),
        ("oscillator", "--dt", "1e-7", "must be large enough for at most 20000000"),
        ("wave", "--dt", "1e-5", "must be large enough for at most 20000000 "
         "stored values, (steps + 1) x 600 per step"),
        ("wave", "--grid", "4000000", "must be at most 3333333"),
        ("wave", "--grid", "100000", "must be small enough for at most 20000000 "
         "stored values, (steps + 1) x 300000 per step, got 100000"),
    ])
    def test_bad_flag_is_input_error(self, capsys, tmp_path, model, flag, value, needle):
        status, _, err = run(capsys, "solve", str(MODELS / f"{model}.hdw"),
                             flag, value, "--out", str(tmp_path))
        assert status == 2
        assert f"error: {flag} {needle}" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("model,entry,bad,needle", [
        ("oscillator", "dt = 0.001", "dt = 0", "dt must be > 0"),
        ("oscillator", "dt = 0.001", "dt = nan", "dt must be finite"),
        ("wave", "points = 200", "points = 2", "points must be at least 5"),
        ("oscillator", "dt = 0.001", "dt = 1e-300", "dt must be large enough"),
        ("wave", "dt = 0.031415926535897934", "dt = 1e-6", "dt must be large enough"),
        ("wave", "points = 200", "points = 10000000", "points must be at most 3333333"),
    ])
    def test_bad_model_value_is_input_error(self, capsys, tmp_path, model, entry, bad, needle):
        text = (MODELS / f"{model}.hdw").read_text()
        line = text[:text.index(entry)].count("\n") + 1
        path = tmp_path / "bad.hdw"
        path.write_text(text.replace(entry, bad))
        status, _, err = run(capsys, "solve", str(path), "--out", str(tmp_path / "out"))
        assert status == 2
        assert f"error: line {line}: {needle}" in err

    @pytest.mark.parametrize("h,solve", [
        ("p1_1^2/2 + x1^(1/3)*y1", "kind = ode\ny1 = 1.0\np1_1 = 0.0"),
        ("(p1_1^2 - p1_2^2)/2 + x1^(1/3)*y1",
         "kind = field1p1\nxmin = 0\nxmax = 6.283185307179586\npoints = 16\n"
         "y1 = sin(x2)\np1_1 = 0"),
    ], ids=["ode", "field1p1"])
    def test_complex_right_hand_side_aborts(self, capsys, tmp_path, h, solve):
        # x1^(1/3) of a negative time is complex: the run stops at its first
        # step, for either solver, instead of dropping the imaginary part
        m = 2 if "field1p1" in solve else 1
        path = tmp_path / "complex.hdw"
        path.write_text(f"[bundle]\nm = {m}\nn = 1\n\n[hamiltonian]\nh = {h}\n\n"
                        f"[solve]\n{solve}\nt0 = -1\nt1 = 0\ndt = 0.01\n")
        status, _, err = run(capsys, "solve", str(path), "--out", str(tmp_path / "out"))
        assert status == 2
        assert "error: non-real value at step 0 (t=-1)" in err
        assert not (tmp_path / "out").exists()


@pytest.fixture
def blocks(monkeypatch):
    """`blocks(n)`: every grid CSV from here on is cut into n blocks."""
    def split(n):
        monkeypatch.setattr(cli, "_BLOCK_FLOOR", 1)
        monkeypatch.setattr(cli, "_cpus", lambda: n)
    return split


def fail_in_children(monkeypatch, name, when):
    """Make `cli.<name>` raise in forked children when `when(*args)`."""
    parent, real = os.getpid(), getattr(cli, name)

    def job(*args):
        if os.getpid() != parent and when(*args):
            raise OSError("a child failed")
        return real(*args)
    monkeypatch.setattr(cli, name, job)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def parent_calls(monkeypatch, name, owner=cli):
    """The argument tuples of the calls of `owner.<name>` made in this
    process, not in a forked child."""
    parent, real, calls = os.getpid(), getattr(owner, name), []

    def spy(*args):
        if os.getpid() == parent:
            calls.append(args)
        return real(*args)
    monkeypatch.setattr(owner, name, spy)
    return calls


def counted_forks(monkeypatch, fail_from=None, error=None):
    """The list that grows by one on each `os.fork`; from call `fail_from`
    on, the fork raises `error` instead."""
    forks, real = [], os.fork

    def fork():
        forks.append(None)
        if fail_from is not None and len(forks) >= fail_from:
            raise error
        return real()
    monkeypatch.setattr(os, "fork", fork)
    return forks


class TestGridBlocks:
    """Grid CSVs cut into blocks of time rows: block 0 done by the parent,
    each later block by a forked child."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_writes_match_reference(self, tmp_path, blocks, workers):
        blocks(workers)
        grids = odd_grids()
        assert_writes_reference(tmp_path, grids)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"copy{k}.csv" for k in range(len(grids))]
        assert_no_children()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_reads_any_layout_bit_for_bit(self, tmp_path, blocks, monkeypatch, workers):
        grid = odd_grids()[3]
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, str(path))
        lines = path.read_text().splitlines(keepends=True)
        body = lines.index("x1,x2,y1\n") + 1
        rows = lines[body:]
        rng = np.random.default_rng(5)
        layouts = {
            "shuffled": lines[:body] + [rows[i] for i in rng.permutation(len(rows))],
            "crlf": [line.replace("\n", "\r\n") for line in lines],
            "cr": [line.replace("\n", "\r") for line in lines],
            "comment": lines[:body + 20] + ["# a note\n"] + rows[20:],
            "blank": lines[:body + 1] + ["\n"] * 3 + rows[1:-1] + ["\n", rows[-1]],
            "no last line end": lines[:-1] + [lines[-1].rstrip("\n")],
        }
        # reads of about one line cut every piece, many of them at a bare CR
        for name, chunk in itertools.product(layouts, [cli._CHUNK_BYTES, 40]):
            monkeypatch.setattr(cli, "_CHUNK_BYTES", chunk)
            copy = tmp_path / f"{name}.csv"
            copy.write_bytes("".join(layouts[name]).encode())
            blocks(workers)
            got = read_grid_csv(str(copy))
            blocks(1)
            assert_same_grid(got, read_grid_csv(str(copy)))
            assert_same_grid(got, grid)
        assert_no_children()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_malformed_last_block_reads_as_one_block(self, tmp_path, blocks, workers):
        path = tmp_path / "grid.csv"
        write_grid_csv(odd_grids()[3], str(path))
        lines = path.read_text().splitlines(keepends=True)
        lines[-2] = "0.5,abc,1.0\n"
        path.write_text("".join(lines))
        errors = []
        for n in (workers, 1):
            blocks(n)
            with pytest.raises(ModelFileError) as exc:
                read_grid_csv(str(path))
            errors.append(str(exc.value))
        assert errors[0] == errors[1]
        assert f"line {len(lines) - 1}: " in errors[0]
        assert_no_children()

    @pytest.mark.parametrize("token", ["-0", "true", "null", "nan", "inf", "+1.0", ".5", "1.",
                                       "1e400", " 0.5", "0.5\t", "# a comment line"])
    def test_tokens_off_the_codec_read_as_loadtxt_reads_them(self, tmp_path, blocks, token):
        # a chunk holding any of these is parsed by np.loadtxt, not orjson
        path = tmp_path / "grid.csv"
        write_grid_csv(odd_grids()[2], str(path))
        lines = path.read_text().splitlines(keepends=True)
        body = lines.index("x1,y1,pe\n") + 1
        if token.startswith("#"):
            lines.insert(-2, token + "\n")
        else:
            row = lines[-2].split(",")
            lines[-2] = ",".join([row[0], token] + row[2:])
        path.write_text("".join(lines))
        try:
            want = np.loadtxt(lines[body:], delimiter=",", ndmin=2)
        except ValueError:
            want = None
        got = []
        for split in (None, 2):  # one block, then two blocks with one forked
            if split:
                blocks(split)
            try:
                grid = read_grid_csv(str(path))
            except ModelFileError as exc:
                got.append(str(exc))
            else:
                got.append(np.column_stack([grid.t] + list(grid.fields.values())))
        if want is None:
            assert got[0] == got[1]
            assert got[0].startswith(f"line {len(lines) - 1}: {path}: malformed grid")
        else:
            for data in got:
                assert_bit_identical(data, want)
        assert_no_children()

    def test_failed_child_is_redone_in_process(self, tmp_path, blocks, monkeypatch):
        # the last block's child fails, after the middle block's part is appended
        blocks(3)
        grid = odd_grids()[3]
        fail_in_children(monkeypatch, "_write_rows",
                         lambda fh, g, start, stop: stop == len(g.t))
        fail_in_children(monkeypatch, "_parse_block",
                         lambda path, start, stop, *_: stop == os.path.getsize(path))
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["grid.csv"]
        assert path.read_bytes() == reference_grid_csv(grid).encode()
        assert_same_grid(read_grid_csv(str(path)), grid)
        assert_no_children()

    def test_failed_reader_child_redoes_its_block_alone(self, tmp_path, blocks, monkeypatch):
        grid = odd_grids()[3]
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, str(path))
        text, size = path.read_bytes(), os.path.getsize(path)
        body = text.index(b"x1,x2,y1\n") + len(b"x1,x2,y1\n")
        blocks(3)
        fail_in_children(monkeypatch, "_parse_block", lambda path, start, stop, *_: stop == size)
        calls = parent_calls(monkeypatch, "_parse_block")
        assert_same_grid(read_grid_csv(str(path)), grid)
        # block 0, then the last block's bytes alone, from a line start past
        # the end of block 0
        (_, start0, stop0, *_), (_, start, stop, *_) = calls
        assert start0 == body and stop0 < start
        assert stop == size and text[start - 1:start] == b"\n" and start > text.index(b"\n", body)
        assert_no_children()

    def test_parent_does_block_0_alone(self, tmp_path, blocks, monkeypatch):
        grid = odd_grids()[3]
        path = tmp_path / "grid.csv"
        body = reference_grid_csv(grid).index("x1,x2,y1\n") + len("x1,x2,y1\n")
        blocks(3)
        written = parent_calls(monkeypatch, "_write_rows")
        parsed = parent_calls(monkeypatch, "_parse_block")
        write_grid_csv(grid, str(path))
        assert_same_grid(read_grid_csv(str(path)), grid)
        assert [call[2:] for call in written] == [cli._block_bounds(len(grid.t), len(grid.t))[0]]
        (_, start, stop, *_), = parsed
        assert start == body and stop < os.path.getsize(path)
        assert_no_children()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_one_fork_per_block_after_the_first(self, tmp_path, blocks, monkeypatch, workers):
        blocks(workers)
        grid = odd_grids()[3]
        path = tmp_path / "grid.csv"
        forks = counted_forks(monkeypatch)
        write_grid_csv(grid, str(path))
        assert len(forks) == workers - 1
        forks.clear()
        assert_same_grid(read_grid_csv(str(path)), grid)
        assert len(forks) == workers - 1
        assert_no_children()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parent_copies_each_finished_part(self, tmp_path, blocks, monkeypatch, workers):
        # each part goes into the grid, and into the read buffer, by one
        # copy in the parent, with no kernel copy
        blocks(workers)
        grid = odd_grids()[3]
        path = tmp_path / "grid.csv"
        copied = parent_calls(monkeypatch, "copyfileobj", shutil)
        sent = parent_calls(monkeypatch, "sendfile", os)
        write_grid_csv(grid, str(path))
        assert [src.name.endswith(".part") for src, *_ in copied] == [True] * (workers - 1)
        copied.clear()
        assert_same_grid(read_grid_csv(str(path)), grid)
        assert [src.name.endswith(".part") for src, *_ in copied] == [True] * (workers - 1)
        assert sent == []
        assert_no_children()

    def test_children_started_before_a_failed_fork_run_on(self, tmp_path, blocks, monkeypatch):
        # the second fork fails: block 1's child is neither killed nor
        # redone, and the parent does blocks 0 and 2
        blocks(3)
        grid = odd_grids()[3]
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, str(path))
        text = path.read_bytes()
        bounds = cli._block_bounds(len(grid.t), len(grid.t))
        written = parent_calls(monkeypatch, "_write_rows")
        parsed = parent_calls(monkeypatch, "_parse_block")
        copied = parent_calls(monkeypatch, "copyfileobj", shutil)
        killed = []
        monkeypatch.setattr(os, "kill", lambda pid, sig: killed.append(pid))
        forks = counted_forks(monkeypatch, fail_from=2,
                              error=BlockingIOError(11, "Resource temporarily unavailable"))
        copy = tmp_path / "copy.csv"
        write_grid_csv(grid, str(copy))
        assert copy.read_bytes() == text and len(copied) == 1
        assert [call[2:] for call in written] == [bounds[0], bounds[2]]
        forks.clear()
        assert_same_grid(read_grid_csv(str(copy)), grid)
        (_, start0, stop0, *_), (_, start2, stop2, *_) = parsed
        assert start0 == text.index(b"x1,x2,y1\n") + len(b"x1,x2,y1\n")
        assert stop0 < start2 and stop2 == len(text)
        assert killed == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["copy.csv", "grid.csv"]
        assert_no_children()

    @pytest.mark.parametrize("malformed", [False, True], ids=["ok", "malformed"])
    def test_read_leaves_no_part_file(self, tmp_path, blocks, monkeypatch, malformed):
        # a reader's parts go to the temporary directory, never beside the grid
        temp, grids = tmp_path / "temp", tmp_path / "grids"
        temp.mkdir()
        grids.mkdir()
        grid = odd_grids()[3]
        path = grids / "grid.csv"
        write_grid_csv(grid, str(path))
        if malformed:
            lines = path.read_text().splitlines(keepends=True)
            lines[-2] = "0.5,abc,1.0\n"
            path.write_text("".join(lines))
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        made, real = [], tempfile.mkstemp

        def mkstemp(**kwargs):
            fd, part = real(**kwargs)
            made.append(part)
            return fd, part
        monkeypatch.setattr(cli.tempfile, "mkstemp", mkstemp)
        blocks(3)
        if malformed:
            with pytest.raises(ModelFileError, match="malformed grid"):
                read_grid_csv(str(path))
        else:
            assert_same_grid(read_grid_csv(str(path)), grid)
        assert len(made) == 2 and all(os.path.dirname(part) == str(temp) for part in made)
        assert list(temp.iterdir()) == []
        assert [p.name for p in grids.iterdir()] == ["grid.csv"]
        assert_no_children()

    def test_failed_write_leaves_no_file(self, tmp_path, blocks, monkeypatch):
        blocks(3)
        monkeypatch.setattr(shutil, "copyfileobj", lambda *args: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            write_grid_csv(odd_grids()[3], str(tmp_path / "grid.csv"))
        assert list(tmp_path.iterdir()) == []
        assert_no_children()

    def test_failed_block_0_stops_the_children(self, tmp_path, blocks, monkeypatch):
        # the parent's own block fails while the children run: they are
        # killed and reaped, and no grid or part file is left
        grid = odd_grids()[3]
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, str(path))
        lines = path.read_text().splitlines(keepends=True)
        body = lines.index("x1,x2,y1\n") + 1
        lines[body] = "0.5,abc,1.0\n"
        path.write_text("".join(lines))
        blocks(1)
        with pytest.raises(ModelFileError) as one_block:
            read_grid_csv(str(path))
        temp = tmp_path / "temp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        blocks(3)
        with pytest.raises(ModelFileError) as exc:
            read_grid_csv(str(path))
        assert str(exc.value) == str(one_block.value)
        assert f"line {body + 1}: " in str(exc.value)
        parent, real = os.getpid(), cli._write_rows

        def full(fh, g, start, stop):
            if os.getpid() == parent:
                raise OSError(28, "No space left on device")
            return real(fh, g, start, stop)
        monkeypatch.setattr(cli, "_write_rows", full)
        with pytest.raises(OSError, match="No space left"):
            write_grid_csv(grid, str(tmp_path / "copy.csv"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.csv", "temp"]
        assert list(temp.iterdir()) == []
        assert_no_children()

    @pytest.mark.parametrize("error", [BlockingIOError(11, "Resource temporarily unavailable"),
                                       OSError(12, "Cannot allocate memory")],
                             ids=["EAGAIN", "ENOMEM"])
    def test_no_child_to_be_had_is_one_block(self, tmp_path, blocks, monkeypatch, error):
        # the second fork of a call fails (EAGAIN under a pids limit, or
        # ENOMEM): the first child runs on, and the blocks without a child
        # are done in-process
        blocks(3)
        grid = odd_grids()[3]
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, str(path))
        forks = counted_forks(monkeypatch, fail_from=2, error=error)
        copy = tmp_path / "copy.csv"
        write_grid_csv(grid, str(copy))
        assert copy.read_bytes() == path.read_bytes() and len(forks) == 2
        forks.clear()
        assert_same_grid(read_grid_csv(str(path)), grid)
        assert len(forks) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["copy.csv", "grid.csv"]
        assert_no_children()

    def test_no_part_file_is_one_block(self, tmp_path, blocks, monkeypatch):
        blocks(3)
        grid = odd_grids()[3]

        def full(*args, **kwargs):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(cli.tempfile, "mkstemp", full)
        write_grid_csv(grid, str(tmp_path / "grid.csv"))
        assert (tmp_path / "grid.csv").read_bytes() == reference_grid_csv(grid).encode()
        assert [p.name for p in tmp_path.iterdir()] == ["grid.csv"]
        assert_no_children()

    def test_files_beside_the_grid_are_left_alone(self, tmp_path, blocks):
        blocks(3)
        grid = odd_grids()[3]
        beside = {f"grid.csv.part{k}": f"a file of the user's {k}\n" for k in range(4)}
        for name, text in beside.items():
            (tmp_path / name).write_text(text)
        write_grid_csv(grid, str(tmp_path / "grid.csv"))
        assert (tmp_path / "grid.csv").read_bytes() == reference_grid_csv(grid).encode()
        assert {p.name: p.read_text() for p in tmp_path.iterdir()
                if p.name != "grid.csv"} == beside

    def test_block_count_is_capped_by_size(self, monkeypatch):
        monkeypatch.setattr(cli, "_cpus", lambda: 256)
        floor = cli._BLOCK_FLOOR
        assert cli._block_bounds(801, floor - 1) == [(0, 801)]
        assert len(cli._block_bounds(801, 2 * floor - 1)) == 1
        assert len(cli._block_bounds(801, 801 * 800 * 5)) == 801 * 800 * 5 // floor == 6
        assert len(cli._block_bounds(801, 10 ** 12)) == 256
        assert len(cli._block_bounds(3, 10 ** 12)) == 3


def _numpy_modules_after(tmp_path, *argv):
    """Status of `cli.main(argv)` in a fresh interpreter, and the numpy
    modules loaded when it returns."""
    code = ("import json, sys\n"
            "from hdw_forge import cli\n"
            "status = cli.main(sys.argv[1:])\n"
            "mods = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
            "sys.stderr.write(json.dumps([status, mods]))\n")
    env = dict(os.environ)
    src = pathlib.Path(hdw_forge.__file__).resolve().parent.parent  # the package under test
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    status, mods = json.loads(done.stderr.splitlines()[-1])
    return status, set(mods)


class TestStartUpCost:
    """A command imports numpy only when it computes with it, and the
    lambdified functions import none of numpy's optional subpackages."""

    @pytest.mark.parametrize("argv", [("derive", "oscillator"), ("check", "oscillator"),
                                      ("legendre", "wave")])
    def test_symbolic_commands_import_no_numpy(self, tmp_path, argv):
        command, model = argv
        status, mods = _numpy_modules_after(tmp_path, command, str(MODELS / f"{model}.hdw"))
        assert status == 0
        assert mods == set()

    def test_solve_loads_no_optional_numpy_subpackage(self, tmp_path):
        status, mods = _numpy_modules_after(tmp_path, "solve", str(MODELS / "oscillator.hdw"))
        assert status == 0
        assert "numpy" in mods
        assert not mods & {"numpy.f2py", "numpy.testing"}


class TestCompare:
    def test_compare_against_own_grid(self, capsys, tmp_path):
        status, report, _ = run_json(
            capsys, "solve", str(MODELS / "oscillator.hdw"), "--out", str(tmp_path))
        assert status == 0
        csv_path = report["outputs"]["grid_csv"]
        status, report, _ = run_json(
            capsys, "compare", str(MODELS / "oscillator.hdw"),
            "--against", csv_path, "--out", str(tmp_path))
        assert status == 0
        assert report["comparison"]["max_discrepancy"] == 0.0

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_discrepancy_is_input_error(self, capsys, tmp_path, value):
        status, report, _ = run_json(
            capsys, "solve", str(MODELS / "oscillator.hdw"), "--out", str(tmp_path))
        ref = pathlib.Path(report["outputs"]["grid_csv"])
        lines = ref.read_text().splitlines(keepends=True)
        row = lines[-5].split(",")
        lines[-5] = ",".join(row[:1] + [value] + row[2:])
        ref.write_text("".join(lines))
        (tmp_path / "oscillator.solve.json").unlink()
        status, out, err = run(capsys, "compare", str(MODELS / "oscillator.hdw"),
                               "--against", str(ref), "--out", str(tmp_path))
        assert status == 2 and out == ""
        assert err == (f"error: {ref}: max_discrepancy is {value}, not finite: "
                       "the grid holds a nan or an infinity\n")
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body, where", [
        ("x1,y1,p1_1,pe\n0.0,1.0,0.0,-0.5\n0.001,abc,0.0,-0.5\n", "line 5: "),
        ("x1,y1,p1_1,pe\n0.0,1.0,0.0,-0.5\n0.001,1.0,0.0\n", "line 5: "),
        ("x1,y1,p1_1\n0.0,1.0,0.0,-0.5\n", "line 4: "),
        ("t,y1\n0.0,1.0\n", "malformed grid"),
        ("x1,x2,y1\n0.0,0.0,1.0\n0.0,1.0,1.0\n1.0,0.0,1.0\n", "malformed grid"),
        ("x1,y1,p1_1,pe\n# only comments below the header\n\n", "empty grid file"),
        (None, "cannot read"),
    ], ids=["bad-cell", "ragged-row", "wider-than-header", "no-x1", "not-a-product",
            "empty-body", "missing"])
    def test_bad_reference_grid_is_input_error(self, capsys, tmp_path, body, where):
        ref = tmp_path / "ref.csv"
        if body is not None:
            ref.write_text("# hdw-forge grid v1\n# scheme = rk4\n" + body)
        status, _, err = run(
            capsys, "compare", str(MODELS / "oscillator.hdw"),
            "--against", str(ref), "--out", str(tmp_path))
        assert status == 2
        assert err.startswith("error: ") and where in err and str(ref) in err
        assert "Traceback" not in err


class TestContract:
    def test_missing_model_is_input_error(self, capsys, tmp_path):
        status, _, err = run(
            capsys, "check", str(tmp_path / "nope.hdw"), "--out", str(tmp_path))
        assert status == 2
        assert "error:" in err

    def test_malformed_model_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.hdw"
        bad.write_text("[bundle]\nm = 1\nn = 1\n[hamiltonian]\nh = q^2\n")
        status, _, err = run(capsys, "check", str(bad), "--out", str(tmp_path))
        assert status == 2
        assert "line 5" in err

    @pytest.mark.parametrize("command", ["derive", "check"])
    @pytest.mark.parametrize("h", ["p1_1^2/0", "p1_1^(1/0) + y1"])
    def test_division_by_zero_is_input_error(self, capsys, tmp_path, command, h):
        bad = tmp_path / "bad.hdw"
        bad.write_text(f"[bundle]\nm = 1\nn = 1\n[hamiltonian]\nh = {h}\n")
        status, out, err = run(capsys, command, str(bad), "--out", str(tmp_path))
        assert status == 2 and out == ""
        assert "line 5, column" in err and "not finite" in err
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("text,line,message", [
        (OSC_H + "[solve]\nkind ode\n", 7, "expected 'key = value'"),
        ("[bundle]\nm = 1\n[hamiltonian]\nh = p1_1^2/2\n", 2, "missing required key 'n'"),
        (OSC_H + "lag = 1\n", 6, "unexpected key 'lag' in [hamiltonian]"),
        (LAG_1 + "h = 1\n", 6, "unexpected key 'h' in [lagrangian]"),
        ("[bundle]\nm = 1\nn = 1\n[lagrangian]\n", 4,
         "[lagrangian] needs a 'lag = ...' entry"),
        (OSC_H + "[gauge]\nmode = free\n", 7, "unknown gauge mode 'free'"),
        (OSC_H + "[solve]\nkind = pde\n", 7, "unknown solve kind 'pde'"),
        (OSC_H + "[solve]\nkind = ode\nextended = yes\n", 8,
         "extended must be true or false"),
        (WAVE_H + "[solve]\nkind = field1p1\npoints = 1.5\n", 8, "points must be an integer"),
        (OSC_H + "[solve]\nt0 = 0\nt1 = 1\n", 7, "[solve] needs kind = ode | field1p1"),
        (OSC_H + "[submanifold]\nx1 = u1\nparams = u1\n", 7,
         "declare params before embedding entries"),
        (OSC_H + "[submanifold]\nparams = u1\nh_P = 0\n", 7,
         "[submanifold] needs params, h_P, and samples"),
        # lambdify would refuse the repeated argument with a SyntaxError
        (OSC_H + "[submanifold]\nparams = u1 u1 u2\nx1 = u1\ny1 = u2\np1_1 = u1\nh_P = 0\n"
         "samples = 1 1 1\n", 7, "repeated parameter 'u1' in [submanifold]"),
        # refused at params, not at the first sample that has entries
        (OSC_H + "[submanifold]\nparams =\nx1 = 1\ny1 = 1\np1_1 = 1\nh_P = 0\nsamples = 1\n", 7,
         "[submanifold] needs at least one parameter"),
    ], ids=["key-value", "missing-key", "hamiltonian-key", "lagrangian-key", "lagrangian-lag",
            "gauge-mode", "solve-kind", "solve-extended", "solve-points", "solve-no-kind",
            "submanifold-order", "submanifold-incomplete", "submanifold-repeat",
            "submanifold-empty"])
    def test_model_input_error_exits_2_at_its_line(self, capsys, tmp_path, text, line,
                                                   message):
        model = tmp_path / "bad.hdw"
        model.write_text(text)
        status, out, err = run(capsys, "check", str(model), "--out", str(tmp_path / "out"))
        assert status == 2 and out == "" and not (tmp_path / "out").exists()
        assert err == f"error: line {line}: {message}\n"

    @pytest.mark.parametrize("text,message", [
        (WAVE_H + "[solve]\nkind = ode\nt0 = 0\nt1 = 1\ndt = 0.1\ny1 = 1.0\np1_1 = 0.0\n",
         "kind ode needs a chart with m = 1"),
        ("[bundle]\nm = 1\nn = 2\n[hamiltonian]\nh = (p1_1^2 + p2_1^2)/2\n"
         "[solve]\nkind = field1p1\nt0 = 0\nt1 = 1\ndt = 0.01\nxmin = 0\nxmax = 6.28\n"
         "points = 16\ny1 = sin(x2)\n", "kind field1p1 needs a chart with m = 2, n = 1"),
    ], ids=["ode-on-m2", "field1p1-on-1-2"])
    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_run_kind_on_the_wrong_chart_exits_2_at_its_kind_line(self, capsys, tmp_path,
                                                                  command, text, message):
        # the rule the solver applies, refused where the model states the kind
        model = tmp_path / "kind.hdw"
        model.write_text(text)
        status, out, err = run(capsys, command, str(model), "--out", str(tmp_path / "out"))
        assert status == 2 and out == "" and not (tmp_path / "out").exists()
        assert err == f"error: line 7: {message}\n"

    @pytest.mark.parametrize("p,sample,problem", [
        ("1/u1", "0 0.3", "cannot be evaluated there (ZeroDivisionError)"),
        ("exp(u1)", "1000 0.3", "is not finite and real there"),
    ], ids=["division", "overflow"])
    @pytest.mark.parametrize("command", ["check", "legendre"])
    def test_sample_outside_the_domain_exits_2_at_its_line(self, capsys, tmp_path, command,
                                                           p, sample, problem):
        model = tmp_path / "domain.hdw"
        model.write_text(LAG_1 + f"[submanifold]\nparams = u1 u2\nx1 = u1\ny1 = u2\n"
                         f"p1_1 = {p}\nh_P = 0\nsamples = 1 0.3\nsamples = {sample}\n")
        status, out, err = run(capsys, command, str(model), "--out", str(tmp_path / "out"))
        assert status == 2 and out == "" and not (tmp_path / "out").exists()
        point = tuple(float(v) for v in sample.split())
        assert err == (f"error: line 13: sample {point} is outside the embedding's domain: "
                       f"the contraction matrix {problem}\n")

    def test_reports_are_deterministic(self, capsys, tmp_path):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            _, out, _ = run(
                capsys, "derive", str(MODELS / "oscillator.hdw"), "--out", str(d))
            outs.append(strip_timestamp(out))
        assert outs[0] == outs[1]

    def test_env_var_default_out_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HDW_FORGE_OUT", str(tmp_path))
        status, _, _ = run(capsys, "derive", str(MODELS / "oscillator.hdw"))
        assert status == 0
        assert (tmp_path / "oscillator.derive.json").exists()

    def test_csv_format_is_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["derive", str(MODELS / "oscillator.hdw"),
                  "--format", "csv", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    def test_gauge_override_flag(self, capsys, tmp_path):
        status, report, _ = run_json(
            capsys, "check", str(MODELS / "wave.hdw"),
            "--gauge", "equal-split", "--out", str(tmp_path))
        assert status == 0
        assert report["gauge"]["mode"] == "equal-split"

    def test_traced_check_calls_every_verdict_span(self, capsys, tmp_path, monkeypatch):
        """The benchmark's traced runs require these spans to be called."""
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        tracing = importlib.import_module("tracer")
        inject = tmp_path / "inject.json"
        inject.write_text(json.dumps({"F[1][1]": "p1_1 + 1"}))
        argv = ["check", str(MODELS / "oscillator.hdw"), "--out", str(tmp_path)]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            main(argv)
            main(argv + ["--debug-inject", str(inject)])
        finally:
            tracer.detach()
        capsys.readouterr()
        calls = {name: row["calls"]
                 for name, row in tracing.aggregate(tracer.payload()).items()}
        required = ["forms.CoordForm.is_zero", "forms.hamilton_cartan",
                    "forms.interior_product"]
        required += [name for name, _, _ in tracing.FUNCTIONS if name.startswith("hdw.")]
        assert [name for name in required if not calls.get(name)] == []
