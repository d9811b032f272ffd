"""Command-line front end: the only module that does I/O.

Commands:
    derive <model>     print the derived field equations
    check <model>      run the structural identity battery (exit 1 on failure)
    legendre <model>   momentum maps, classification, induced Hamiltonian
    solve <model>      numerical run; writes a CSV grid and a JSON report
    compare <model> --against <grid.csv>   solve and diff against a saved grid

Reports are JSON (schema_version 1); grids are CSV with a '#' metadata
preamble.  Exit status: 0 ok, 1 check failure, 2 input error.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import itertools
import json
import os
import re
import sys

import numpy as np
import sympy as sp

from . import __version__
from .coords import BundleChart
from .errors import HdwForgeError, ModelFileError, RegularityError
from .exprparse import parse_expression, render_latex, render_plain
from .forms import extended_alpha, hamilton_cartan
from .hdw import (GaugeChoice, HamiltonianModel, HdwField, derive_extended,
                  derive_restricted, dof_count, standard_checks)
from .legendre import (LagrangianModel, euler_lagrange,
                       hamiltonian_from_lagrangian, hdw_momentum_elimination,
                       legendre_maps, rank_diagnostics)
from .modelfile import ModelFile, parse_model
from .solver import (SectionGrid, conservation_diagnostics,
                     discrete_field_energy, max_discrepancy, project_extended,
                     solve_field_1p1, solve_ode)
from .symbolic import simplify

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _base_report(command: str, model: ModelFile, gauge: GaugeChoice) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "hdw-forge",
        "version": __version__,
        "command": command,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "model": {
            "path": model.path,
            "hash": hashlib.sha256(model.text.encode()).hexdigest(),
            "physics": model.physics,
        },
        "bundle": {"m": model.chart.m, "n": model.chart.n},
        "gauge": {
            "mode": gauge.mode,
            "off_trace": {f"G[{a}][{r}][{nu}]": render_plain(e)
                          for (a, r, nu), e in sorted(gauge.off_trace.items())},
            "redistribution": {f"psi[{a}][{nu}]": render_plain(e)
                               for (a, nu), e in sorted(gauge.redistribution.items())},
        },
    }


def _equation_entry(text: str, latex: str) -> dict:
    return {"text": text, "latex": latex}


def _field_equations(X: HdwField) -> list:
    chart = X.chart
    eqs = []
    for a in range(1, chart.n + 1):
        for nu in range(1, chart.m + 1):
            lhs = f"d(y{a})/d(x{nu})"
            eqs.append(_equation_entry(
                f"{lhs} = {render_plain(X.F[(a, nu)])}",
                rf"\partial y^{{{a}}}/\partial x^{{{nu}}} = {render_latex(X.F[(a, nu)])}"))
    for a in range(1, chart.n + 1):
        for rho in range(1, chart.m + 1):
            for nu in range(1, chart.m + 1):
                eqs.append(_equation_entry(
                    f"d(p{a}_{rho})/d(x{nu}) = {render_plain(X.G[(a, rho, nu)])}",
                    rf"\partial p^{{{rho}}}_{{{a}}}/\partial x^{{{nu}}} = "
                    + render_latex(X.G[(a, rho, nu)])))
    if X.kind == "extended":
        for nu in range(1, chart.m + 1):
            eqs.append(_equation_entry(
                f"d(pe)/d(x{nu}) = {render_plain(X.g[nu])}",
                rf"\partial p/\partial x^{{{nu}}} = {render_latex(X.g[nu])}"))
    return eqs


def _emit(report: dict, out_dir: str, stem: str, fmt: str):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{stem}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if fmt == "json":
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    elif fmt == "latex":
        for eq in report.get("equations", []):
            print(eq["latex"])
    return path


def _floats(values) -> list:
    return np.asarray(values, dtype=float).tolist()


def write_grid_csv(grid: SectionGrid, path: str):
    """Write every value as its shortest round-trip `repr`, one row per point."""
    names = list(grid.fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# hdw-forge grid v{SCHEMA_VERSION}\n")
        for k in sorted(grid.meta):
            if k != "warnings":
                fh.write(f"# {k} = {grid.meta[k]}\n")
        if grid.kind == "ode":
            fh.write(",".join(["x1"] + names) + "\n")
            cols = [_floats(grid.t)] + [_floats(grid.fields[nm]) for nm in names]
            fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*cols))
        else:
            fh.write(",".join(["x1", "x2"] + names) + "\n")
            xs = [repr(v) for v in _floats(grid.x)]
            for i, tv in enumerate(_floats(grid.t)):
                vals = [map(repr, _floats(grid.fields[nm][i])) for nm in names]
                rows = zip(itertools.repeat(repr(tv)), xs, *vals)
                fh.write("\n".join(map(",".join, rows)) + "\n")


def _first_bad_line(path: str):
    """Line number of the first row below the header that is not one number
    per header column, or None."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        rows = ((n, line.split(",")) for n, line in enumerate(fh, 1)
                if not line.startswith("#") and line != "\n")
        _, header = next(rows, (None, []))
        for lineno, words in rows:
            try:
                if len([float(w) for w in words]) == len(header):
                    continue
            except ValueError:
                pass
            return lineno
    return None


def read_grid_csv(path: str) -> SectionGrid:
    meta = {}
    header = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#"):
                    if "=" in line:
                        k, v = line[1:].split("=", 1)
                        meta[k.strip()] = v.strip()
                elif line != "\n":
                    if header is not None:
                        break
                    header = line.rstrip("\n").split(",")
            else:
                raise ModelFileError(f"{path}: empty grid file")
            # numpy's C parser rounds correctly: the same doubles as float()
            data = np.loadtxt(itertools.chain([line], fh), delimiter=",", ndmin=2)
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc}") from exc
    except ValueError:
        data = None
    if data is None or data.shape[1] != len(header) or "x1" not in header:
        raise ModelFileError(f"{path}: malformed grid, need an x1 column and one "
                             "number per header column", line=_first_bad_line(path))
    cols = {nm: data[:, i] for i, nm in enumerate(header)}
    if "x2" in cols:
        x = np.unique(cols["x2"])
        t = np.unique(cols["x1"])
        nt, nx = len(t), len(x)

        def x1_major():
            return (np.array_equal(cols["x1"], np.repeat(t, nx))
                    and np.array_equal(cols["x2"], np.tile(x, nt)))

        if nt * nx == len(data) and not x1_major():
            data = data[np.lexsort((cols["x2"], cols["x1"]))]
            cols = {nm: data[:, i] for i, nm in enumerate(header)}
        if nt * nx != len(data) or not x1_major():
            raise ModelFileError(f"{path}: malformed grid, rows do not fill x1 by x2")
        fields = {nm: cols[nm].reshape(nt, nx)
                  for nm in header if nm not in ("x1", "x2")}
        return SectionGrid("field1p1", t, fields, x=x, meta=meta)
    t = cols["x1"]
    fields = {nm: cols[nm] for nm in header if nm != "x1"}
    return SectionGrid("ode", t, fields, meta=meta)


# ---------------------------------------------------------------------------
# model helpers
# ---------------------------------------------------------------------------

def _hamiltonian_of(model: ModelFile) -> HamiltonianModel:
    if model.hamiltonian is not None:
        return HamiltonianModel(model.chart, model.hamiltonian)
    res = legendre_maps(LagrangianModel(model.chart, model.lagrangian))
    return hamiltonian_from_lagrangian(res)


_INJECT_RE = re.compile(r"^(F|G|g)((?:\[\d+\])+)$")


def _apply_injection(X: HdwField, path: str) -> HdwField:
    """Overwrite coefficient entries from a debug JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        table = json.load(fh)
    F, G, g = dict(X.F), dict(X.G), dict(X.g)
    for key, text in table.items():
        m = _INJECT_RE.match(key)
        if not m:
            raise ModelFileError(f"bad injection key {key!r}")
        idx = tuple(int(t) for t in re.findall(r"\d+", m.group(2)))
        expr = parse_expression(text, X.chart, X.level)
        if m.group(1) == "F":
            F[idx] = expr
        elif m.group(1) == "G":
            G[idx] = expr
        else:
            g[idx[0]] = expr
    return HdwField(X.kind, X.chart, F, G, g, X.gauge, X.f)


def _select_gauge(model: ModelFile, args) -> GaugeChoice:
    if getattr(args, "gauge", "file") == "equal-split":
        return GaugeChoice()
    return model.gauge


def _add_rank_diagnostics(report: dict, model: ModelFile):
    sub = model.submanifold
    if sub is not None:
        dims = rank_diagnostics(model.chart, sub["embedding"], sub["h_P"],
                                sub["samples"], params=sub["params"])
        report["rank_diagnostics"] = {"kernel_dims": dims}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_derive(model: ModelFile, args) -> tuple[dict, int]:
    gauge = _select_gauge(model, args)
    ham = _hamiltonian_of(model)
    Xe = derive_extended(ham, gauge)
    report = _base_report("derive", model, gauge)
    report["hamiltonian"] = _equation_entry(render_plain(ham.h), render_latex(ham.h))
    report["dof_count"] = dof_count(model.chart)
    report["equations"] = _field_equations(Xe)
    return report, 0


def cmd_check(model: ModelFile, args) -> tuple[dict, int]:
    gauge = _select_gauge(model, args)
    report = _base_report("check", model, gauge)
    try:
        ham = _hamiltonian_of(model)
    except RegularityError as exc:
        if model.submanifold is None:
            raise
        # no induced Hamiltonian; the rank diagnostics still apply
        report["checks"] = []
        report["note"] = str(exc)
        _add_rank_diagnostics(report, model)
        return report, 0
    inject = getattr(args, "debug_inject", None)
    if inject:
        from .forms import build_omega
        Xr = _apply_injection(derive_restricted(ham, gauge), inject)
        Xe = _apply_injection(derive_extended(ham, gauge), inject)
        _, omega_h = hamilton_cartan(model.chart, ham.h)
        H, alpha = extended_alpha(model.chart, ham.h)
        from .hdw import residual_extended, residual_restricted
        rr = residual_restricted(Xr, omega_h)
        re_ = residual_extended(Xe, build_omega(model.chart), alpha)
        results = {
            "restricted residual i(X)omega_h = 0": (rr.is_zero(), repr(rr)),
            "extended residual i(X)omega = (-1)^(m+1) alpha": (re_.is_zero(), repr(re_)),
        }
    else:
        results = standard_checks(ham, gauge)
    checks = []
    failed = False
    for name, (ok, detail) in results.items():
        diagnostic = "diagnostic" in name
        checks.append({"name": name, "passed": bool(ok),
                       "diagnostic": diagnostic, "detail": detail})
        if not ok and not diagnostic:
            failed = True
    report["checks"] = checks
    _add_rank_diagnostics(report, model)
    return report, (1 if failed else 0)


def cmd_legendre(model: ModelFile, args) -> tuple[dict, int]:
    if model.lagrangian is None:
        raise ModelFileError("legendre command needs a [lagrangian] model")
    gauge = _select_gauge(model, args)
    lag = LagrangianModel(model.chart, model.lagrangian)
    res = legendre_maps(lag)
    report = _base_report("legendre", model, gauge)
    report["lagrangian"] = _equation_entry(render_plain(lag.lag), render_latex(lag.lag))
    report["momenta"] = {
        f"p{a}_{nu}": _equation_entry(render_plain(e), render_latex(e))
        for (a, nu), e in sorted(res.momenta.items())}
    report["extended_momentum"] = _equation_entry(
        render_plain(res.extended), render_latex(res.extended))
    report["classification"] = res.classification
    el = euler_lagrange(lag)
    report["euler_lagrange"] = [
        _equation_entry(render_plain(e), render_latex(e)) for e in el]
    if res.classification == "hyper-regular-closed-form" and res.inverse_velocities:
        ham = hamiltonian_from_lagrangian(res)
        report["induced_h"] = _equation_entry(render_plain(ham.h), render_latex(ham.h))
        elim = hdw_momentum_elimination(lag)
        ok = all(simplify(a - b) == 0 for a, b in zip(el, elim))
        report["round_trip"] = {"passed": ok}
        status = 0 if ok else 1
    else:
        report["round_trip"] = {
            "passed": None,
            "detail": "no closed-form inverse; supply a Hamiltonian directly"}
        status = 0
    _add_rank_diagnostics(report, model)
    return report, status


def _run_solve(model: ModelFile, args) -> tuple[dict, SectionGrid, HamiltonianModel]:
    if model.solve is None:
        raise ModelFileError("model has no [solve] section")
    gauge = _select_gauge(model, args)
    ham = _hamiltonian_of(model)
    run_block = dict(model.solve)
    if getattr(args, "dt", None):
        run_block["dt"] = float(args.dt)
    if getattr(args, "grid", None):
        run_block["points"] = int(args.grid)
    report = _base_report("solve", model, gauge)
    chart = model.chart

    if run_block["kind"] == "ode":
        extended = run_block.get("extended", False)
        X = (derive_extended if extended else derive_restricted)(ham, gauge)
        init = {k: float(v) for k, v in run_block["init"].items()}
        if extended and "pe" not in init:
            # start on the zero level set of the total Hamiltonian
            point = {chart.x(1).name: run_block["t0"], **init}
            init["pe"] = -float(sp.lambdify(
                [sp.Symbol(nm) for nm in point], ham.h, "numpy")(*point.values()))
        grid = solve_ode(X, init, (run_block["t0"], run_block["t1"]), run_block["dt"])
        report["metrics"] = {
            "final": {nm: grid.fields[nm][-1] for nm in grid.fields},
            "steps": grid.meta["steps"], "dt": run_block["dt"],
        }
        if extended:
            H, _ = extended_alpha(chart, ham.h)
            cons = conservation_diagnostics(grid, H)
            report["metrics"]["H_drift"] = cons.drift
            report["metrics"]["trajectory_residual"] = cons.trajectory_residual
    else:
        X = derive_restricted(ham, gauge)
        npoints = run_block["points"]
        dx = (run_block["xmax"] - run_block["xmin"]) / npoints
        x = run_block["xmin"] + dx * np.arange(npoints)
        xsym = chart.x(2)

        def profile(name):
            e = run_block["init"].get(name, sp.Integer(0))
            return np.broadcast_to(
                np.asarray(sp.lambdify([xsym], e, "numpy")(x), dtype=float),
                (npoints,)).copy()

        grid = solve_field_1p1(X, profile("y1"), profile("p1_1"),
                               (run_block["t0"], run_block["t1"]), run_block["dt"],
                               (run_block["xmin"], run_block["xmax"]), npoints)
        energy = discrete_field_energy(grid)
        scale = abs(energy[0]) if energy[0] else 1.0
        report["metrics"] = {
            "steps": grid.meta["steps"], "dt": run_block["dt"], "dx": dx,
            "energy_drift_rel": float(np.max(np.abs(energy - energy[0])) / scale),
            "warnings": grid.meta.get("warnings", []),
        }
    report["scheme"] = grid.meta["scheme"]
    return report, grid, ham


def cmd_solve(model: ModelFile, args) -> tuple[dict, int]:
    report, grid, _ = _run_solve(model, args)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    stem = _stem(model, args)
    csv_path = os.path.join(out_dir, f"{stem}.grid.csv")
    try:
        write_grid_csv(grid, csv_path)
    except Exception:
        if os.path.exists(csv_path):
            os.unlink(csv_path)
        raise
    report["outputs"] = {"grid_csv": csv_path}
    return report, 0


def cmd_compare(model: ModelFile, args) -> tuple[dict, int]:
    report, grid, _ = _run_solve(model, args)
    ref = read_grid_csv(args.against)
    disc = max_discrepancy(grid, ref)
    report["command"] = "compare"
    report["comparison"] = {"against": args.against, "max_discrepancy": disc}
    return report, 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _stem(model: ModelFile, args) -> str:
    base = os.path.basename(model.path or "model")
    base = os.path.splitext(base)[0]
    return f"{base}.{args.command}"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hdw-forge",
        description="Derive, check, and integrate first-order Hamiltonian "
                    "field equations from a model file.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("model", help="path to the model file")
        p.add_argument("--gauge", choices=["equal-split", "file"], default="file",
                       help="override the gauge table (default: use the model file)")
        p.add_argument("--out", default=os.environ.get("HDW_FORGE_OUT", "."),
                       help="output directory (env HDW_FORGE_OUT)")
        p.add_argument("--format", choices=["json", "latex"], default="json")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for sampled (non-structural) zero checks")

    for name in ("derive", "check", "legendre", "solve", "compare"):
        p = sub.add_parser(name)
        common(p)
        if name == "check":
            p.add_argument("--debug-inject", default=None,
                           help="JSON file of coefficient overrides (sentinel testing)")
        if name in ("solve", "compare"):
            p.add_argument("--dt", type=float, default=None)
            p.add_argument("--grid", type=int, default=None,
                           help="override spatial point count")
        if name == "compare":
            p.add_argument("--against", required=True,
                           help="reference grid CSV to diff against")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        model = parse_model(args.model)
        handler = {"derive": cmd_derive, "check": cmd_check,
                   "legendre": cmd_legendre, "solve": cmd_solve,
                   "compare": cmd_compare}[args.command]
        report, status = handler(model, args)
    except HdwForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.out, _stem(model, args), args.format)
    return status


if __name__ == "__main__":
    sys.exit(main())
