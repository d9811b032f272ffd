import json
import pathlib
import re

import numpy as np
import pytest

from hdw_forge.cli import SCHEMA_VERSION, main, read_grid_csv, write_grid_csv
from hdw_forge.errors import ModelFileError
from hdw_forge.solver import SectionGrid

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


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

    def test_bad_injection_key(self, capsys, tmp_path):
        inject = tmp_path / "inject.json"
        inject.write_text(json.dumps({"Q[1]": "0"}))
        status, _, err = run(
            capsys, "check", str(MODELS / "oscillator.hdw"),
            "--debug-inject", str(inject), "--out", str(tmp_path))
        assert status == 2
        assert "injection" in err


class TestLegendre:
    def test_wave_round_trip(self, capsys, tmp_path):
        status, report, _ = run_json(
            capsys, "legendre", str(MODELS / "wave.hdw"), "--out", str(tmp_path))
        assert status == 0
        assert report["classification"] == "hyper-regular-closed-form"
        assert report["round_trip"]["passed"] is True
        assert report["induced_h"]["text"] == "p1_1^2/2 - p1_2^2/2"

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

    def test_grid_csv_round_trip(self, tmp_path, capsys):
        status, report, _ = run_json(
            capsys, "solve", str(MODELS / "oscillator.hdw"), "--out", str(tmp_path))
        assert status == 0
        grid = read_grid_csv(report["outputs"]["grid_csv"])
        odd = np.array([-0.0, 1e-05, 1e16, 5e-324, 0.1])
        rng = np.random.default_rng(7)
        grids = [
            grid,
            SectionGrid("ode", np.arange(5) * 0.1, {"y1": odd, "p1_1": -odd[::-1]},
                        meta={"scheme": "rk4", "warnings": ["dropped"]}),
            SectionGrid("field1p1", np.linspace(0.0, 1.0, 4),
                        {"y1": rng.standard_normal((4, 5)),
                         "p1_1": np.tile(odd, (4, 1)), "p1_2": rng.random((4, 5))},
                        x=2 * np.pi * np.arange(5) / 5, meta={"dx": 0.2}),
        ]
        for k, g in enumerate(grids):
            path = tmp_path / f"copy{k}.csv"
            write_grid_csv(g, str(path))
            assert path.read_bytes() == reference_grid_csv(g).encode()
            again = read_grid_csv(str(path))
            assert again.kind == g.kind
            assert_bit_identical(again.t, g.t)
            if g.x is not None:
                assert_bit_identical(again.x, g.x)
            for nm in g.fields:
                assert_bit_identical(again.fields[nm], g.fields[nm])

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
