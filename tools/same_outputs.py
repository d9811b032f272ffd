"""Fingerprint the package's observable outputs, one sha256 per group.

Run from any directory with the package to fingerprint first on the path
(this tree's `src/` when no other is):

    PYTHONPATH=<checkout>/src python3 tools/same_outputs.py

Two checkouts produce the same outputs when they print the same lines.
To compare this tree's package with another checkout's, run

    python3 tools/same_outputs.py --against <checkout>/src

which fingerprints the package from `<checkout>/src` and from this tree's
`src/`, each in a subprocess with that directory on `PYTHONPATH` (both
with this script, its models and its inputs), prints each group whose
digest differs or that only one side has, and exits 1 if any does (2 if
either side fails to run).

There are 52 groups:

- `fields`, `battery`, `curvature`, `forms`: the srepr and str of F, G and
  g of both derived fields, the verdicts and details of `standard_checks`
  of the derived field and of the two `tampered_fields` (F[1][1] + 1 and
  g[1] + y1, whose tangency fails, so that their pe rows are bracketed
  directly), the curvature brackets, and the repr of omega, omega_h,
  alpha and of the restricted residual of the field with F[1][1] + 1 (the
  tampered field the check-matrix benchmark rejects), and the
  `scaled_lines` of both fields (f = 2 and f = y1), over check-matrix
  seeds 7, 11 and 23 x 16 slots and over the two fields of `atom_fields`,
  whose exp and sin atoms have arguments that are multiples of each
  other; for those two fields also the repr of the `form_algebra` forms:
  wedges, `d`, contractions, `-F` and `F - G` of forms whose keys take odd
  permutations to sort;
- `offring`: the same F, G, g, battery, curvature and `scaled_lines` lines
  for the fields of `offring_fields`, whose Hamiltonians and gauge entries
  leave the coefficient ring (exp of both signs, `1/y1`, Floats, `log`),
  next to polynomial and sin/cos/exp ones, over the check-matrix charts;
- `structure`: the repr of `canonical_part` and `volume_form` at every
  level and of `build_theta` and `build_omega`, for each check-matrix
  chart, and the repr of theta_h and omega_h (`hamilton_cartan`) and of
  alpha with the srepr of H (`extended_alpha`) for every Hamiltonian of
  the `fields` and `offring` groups: the structure forms on their own,
  where the other groups see alpha of an off-ring h only through the
  tangency details; and for each embedding of `submanifold_cases` the
  repr of omega_P, Omega pulled back along (embedding, pe = -h_P), and
  the kernel dims `rank_diagnostics` reports, which no other group sees
  (degenerate.hdw's omega_P is identically 0);
- `legendre`: the srepr of every `LegendreResult` field, of the induced
  Hamiltonian, of the Euler-Lagrange residuals and of the momentum
  elimination (or the name of the error either raises), and whether sympy's
  `euler_equations`, an oracle that shares no code with the package,
  agrees with those residuals (`euler_equations_agree`), for the Lagrangians
  of `legendre_cases`: the `lag` inputs of check-matrix seeds 7, 11, 23 and
  31 over their first 64 slots (4 per chart) and 10 off-ring ones (sin,
  exp, `1/(1+y1^2)`, `log`, a Float, a cubic, a degenerate one, one whose
  Hessian is zero only by sin^2 + cos^2 = 1, one with a y-dependent
  Hessian and one whose y-dependent Hessian has determinant 1);
- `held arithmetic`: the kind, ring atoms and srepr of held sums of
  signed products (`forms.sum_of_products`, `forms.interior_product` and
  `CoordMultiVector.bracket`) over `held_pool`: atom-free values, sin, cos
  and exp ones whose rings unify (`exp(y1/2)` beside `exp(y1)`,
  `sin(2*y1)` beside `sin(y1)`), the +1, -1 and 0 of rings with and
  without atoms, a negated copy, so that totals cancel, and the off-ring
  `p1_1/y1` and `exp(-y1)`, so that some keys and entries leave the ring
  while others stay;
- `simplify`: the srepr of `symbolic.simplify` of the check-matrix
  Hamiltonians of seeds 7, 11 and 23 x 16 slots and of their first
  partials, of the `offring_fields` Hamiltonians, and of `OFF_FRAGMENT`, a
  list of expressions on and off the coefficient ring (a Float, `pi`,
  `1/y1`, `sqrt`, exp of both signs, exp of a sum, `sin(2*y1)` next to
  `sin(y1)`, unexpanded powers with atoms, a cancelling fraction);
- `cli ...`: exit status, stdout, stderr and written report of every
  command on the bundled models, with timestamps and paths stripped;
- `cli input errors`: exit status, stdout and stderr of `check` on each
  model of `SPELLINGS` and with the injection file `SPELLED_INJECTION`,
  each holding a key whose index has a leading zero, on `BASE_INIT` and
  `PE_INIT`, whose [solve] blocks give the base coordinate x1 and the
  scalar momentum pe as initial data, and on each model of
  `SUBMANIFOLDS`, whose [submanifold] block repeats a parameter, names
  none or has a sample outside the embedding's domain;
- `grid ...`: the sha256 of each grid CSV a `solve` wrote, including the
  800-point wave run the field-solve benchmark makes;
- `grid read`: the sha256 of the t, x and field bytes that `read_grid_csv`
  returns for that 800-point wave grid, for a copy with its rows shuffled,
  for a copy with CRLF line ends and for one copy per token of
  `OFF_CODEC`, which the CSV codec leaves to `np.loadtxt`, written into a
  p1_2 cell near the end (or the error message, if the copy is refused),
  and of the grid as written read in 3 blocks (`three_blocks`), once with
  every fork working and once with the second raising EAGAIN
  (`second_fork_fails`);
- `grid write`: the sha256 of the bytes `write_grid_csv` writes for
  `bit_pattern_grid`, 10**5 seeded random finite bit patterns next to the
  values where orjson's float notation differs from `repr`'s, written as
  the grid's size gives and in 3 blocks, with every fork working and with
  the second raising EAGAIN;
- `ode ...`: the bytes of every array of the `solve_ode` runs of
  `ode_runs`, whose right-hand sides are transcendental and time-dependent
  (restricted and extended, n = 1 and n = 2), or the message of the
  `SolverAbortError` of the two that fail, whose abort step the line names.

The check-matrix inputs come from `perfbench/inputs.py`, loaded read-only.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import tempfile

import sympy as sp
from sympy.calculus.euler import euler_equations
from sympy.polys.rings import PolyElement

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "src"))  # the package when none is on the path

from hdw_forge import (BundleChart, GaugeChoice, HamiltonianModel, cli, forms,  # noqa: E402
                       hdw, legendre, modelfile, solver, symbolic)
from hdw_forge.errors import HdwForgeError, SolverAbortError  # noqa: E402

MODELS = ROOT / "models"
SEEDS = (7, 11, 23)
SLOTS = 16
INJECTIONS = {
    "F": {"F[1][1]": "p1_1 + y1"},
    "g": {"g[1]": "pe"},
    "F-pe": {"F[1][1]": "p1_1 + pe"},
    "trig": {"F[1][1]": "p1_1*(sin(y1)^2+cos(y1)^2)"},
}
# model files, each with one key spelled with a leading zero after the same
# key spelled plainly, and an injection file that does the same
_OSC = "[bundle]\nm = 1\nn = 1\n[hamiltonian]\nh = (p1_1^2 + y1^2)/2\n"
_WAVE = "[bundle]\nm = 2\nn = 1\n[hamiltonian]\nh = (p1_1^2 - p1_2^2)/2\n"
SPELLINGS = {
    "G": _WAVE + "[gauge]\nG[1][1][2] = y1\nG[01][1][2] = x1\n",
    "psi": _WAVE + "[gauge]\npsi[1][1] = y1\npsi[1][01] = x1\n",
    "solve": _OSC + "[solve]\nkind = ode\nextended = true\nt0 = 0\nt1 = 1\ndt = 0.1\n"
    "y1 = 1.0\ny01 = 5.0\np1_1 = 0.0\n",
    "submanifold": _OSC + "[submanifold]\nparams = u1 u2 u3\nx1 = u1\nx01 = u2\n"
    "y1 = u2\np1_1 = u3\nh_P = 0\nsamples = 1 1 1\n",
}
SPELLED_INJECTION = {"F[1][1]": "p1_1 + y1", "F[01][1]": "p1_1"}
# a model whose [solve] block gives a base coordinate as initial data
BASE_INIT = (_OSC.replace("y1^2)/2", "y1^2)/2 + x1*y1")
             + "[solve]\nkind = ode\nextended = true\nt0 = 0\nt1 = 1\ndt = 0.1\n"
             "y1 = 1.0\nx1 = 7\np1_1 = 0.0\n")
# a model whose extended [solve] block gives pe, which a run sets to -h(t0)
PE_INIT = (_OSC + "[solve]\nkind = ode\nextended = true\nt0 = 0\nt1 = 1\ndt = 0.1\n"
           "y1 = 1.0\np1_1 = 0.0\npe = 3\n")
# [submanifold] blocks with a repeated parameter, with no parameter and
# with a sample at which the contraction matrix cannot be evaluated (1/u1 at
# u1 = 0)
SUBMANIFOLDS = {
    "submanifold-repeat": _OSC + "[submanifold]\nparams = u1 u1 u2\nx1 = u1\ny1 = u2\n"
    "p1_1 = u1\nh_P = 0\nsamples = 1 1 1\n",
    "submanifold-empty": _OSC + "[submanifold]\nparams =\nx1 = 1\ny1 = 1\np1_1 = 1\nh_P = 0\n"
    "samples = 1\n",
    "submanifold-domain": _OSC + "[submanifold]\nparams = u1 u2\nx1 = u1\ny1 = u2\n"
    "p1_1 = 1/u1\nh_P = 0\nsamples = 1 0.3\nsamples = 0 0.3\n",
}


def _frozen_inputs():
    """perfbench/inputs.py, loaded read-only: no sys.path entry, no bytecode."""
    path = ROOT / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _table_lines(X):
    for name in ("F", "G", "g"):
        for key, e in getattr(X, name).items():
            yield f"{X.kind} {name}{key} {sp.srepr(e)} {e}"


def _held_line(c, coords):
    """Kind (ring element or `Expr`) and srepr of the `Expr` of a held value."""
    if isinstance(c, PolyElement):
        return f"ring {sp.srepr(c.as_expr(*coords, *c.ring.symbols[len(coords):]))}"
    return f"expr {sp.srepr(c)}"


def held_pool():
    """(coords, {tag: held value}) of the `held arithmetic` group, on the
    restricted (2, 1) frame."""
    chart = BundleChart(2, 1)
    coords = chart.coords("J1")
    x, y, p, q = chart.x(1), chart.y(1), chart.p(1, 1), chart.p(1, 2)
    exprs = {
        "poly": x * p - y ** 2 / 3 + 2, "poly2": p ** 2 / 2 - x * y * q,
        "exp(y/2)": p * sp.exp(y / 2) + x, "exp(y)": sp.exp(y) * q - y ** 2,
        "sin(y)": sp.sin(y) * p + sp.cos(y), "sin(2y)": sp.sin(2 * y) * q - x * p,
        "exp(-y)": p * sp.exp(-y), "1/y": p / y,
    }
    held = {tag: forms.hold(e, coords) for tag, e in exprs.items()}
    held["-poly"] = -held["poly"]
    for tag in ("exp(y)", "sin(y)"):
        ring = held[tag].ring
        held[f"+1 {tag}"], held[f"-1 {tag}"], held[f"0 {tag}"] = ring.one, -ring.one, ring.zero
    held["+1"], held["-1"], held["0"] = forms.hold(1, coords), forms.hold(-1, coords), sp.Integer(0)
    return coords, held


def held_arithmetic_lines():
    """The `held arithmetic` group's lines: every third sum, form and
    multivector draws from the whole pool, the others from its ring values
    only."""
    coords, held = held_pool()
    every = sorted(held)
    ring = [tag for tag in every if tag not in ("1/y", "exp(-y)")]
    rng = random.Random("held arithmetic")

    def line(head, c):
        atoms = c.ring.symbols[len(coords):] if isinstance(c, PolyElement) else ()
        return f"{head} {atoms} {_held_line(c, coords)}"

    lines = []
    for k in range(60):
        tags = every if k % 3 == 0 else ring
        pairs = [(rng.choice(tags), rng.choice(tags)) for _ in range(rng.randint(1, 5))]
        total = forms.sum_of_products([(held[a], held[b]) for a, b in pairs], coords)
        lines.append(line(f"sum {pairs}", total))
    cancel = [("poly", "exp(y)"), ("-poly", "exp(y)"), ("sin(y)", "+1 exp(y)"),
              ("-1", "sin(y)")]
    lines.append(line(f"sum {cancel}", forms.sum_of_products(
        [(held[a], held[b]) for a, b in cancel], coords)))
    for k in range(12):
        tags = every if k % 3 == 0 else ring
        entries = [{i: held[rng.choice(tags)] for i in (2, 3, 4)} for _ in range(2)]
        X = forms.CoordMultiVector(coords, (0, 1), entries, f=rng.choice((1, 2, coords[2])))
        for degree in (2, 3):
            F = forms.CoordForm(coords, degree)
            for _ in range(6):
                F.add_term(tuple(rng.sample(range(5), degree)), held[rng.choice(tags)])
            out = forms.interior_product(X, F)
            lines += [line(f"i(X{k}) F{degree} {key}", c) for key, c in out._coeffs.items()]
        lines += [line(f"[X{k}1, X{k}2] {i}", c) for i, c in X.bracket(1, 2).items()]
    return lines


def _forms(model, Xr):
    chart = model.chart
    _, omega_h = forms.hamilton_cartan(chart, model.h)
    F = dict(Xr.F)
    F[(1, 1)] = F[(1, 1)] + 1
    tampered = hdw.HdwField(Xr.kind, chart, F, Xr.G, Xr.g, Xr.gauge, Xr.f)
    yield "omega", forms.build_omega(chart)
    yield "omega_h", omega_h
    yield "alpha", forms.extended_alpha(chart, model.h)[1]
    yield "tampered residual", hdw.residual_restricted(tampered, omega_h)


def form_algebra(model, Xr):
    """(name, form) of wedges, `d`, contractions, negation and differences
    of theta_h, omega_h and dh on the restricted chart: merged and
    contracted keys take odd permutations to sort, and the coefficients'
    atoms sit in different rings."""
    theta_h, omega_h = forms.hamilton_cartan(model.chart, model.h)
    dh = forms.CoordForm(theta_h.coords, 0, {(): model.h}).d()
    mv = Xr.multivector()
    dh_theta = dh.wedge(theta_h)
    yield "dh^theta_h", dh_theta
    yield "theta_h^dh", theta_h.wedge(dh)
    yield "d(dh^theta_h)", dh_theta.d()
    yield "d(h theta_h)", theta_h.scale(model.h).d()
    yield "i(X1) omega_h", omega_h.interior_vector(mv.vector(1))
    yield "i(X2) dh^theta_h", dh_theta.interior_vector(mv.vector(2))
    yield "-omega_h", -omega_h
    yield "omega_h - dh^theta_h", omega_h - dh_theta


def scaled_lines(tag, model, Xr, Xe):
    """For both fields scaled by f = 2 and by f = y1: the held multivector
    tables, the transversality and the residual."""
    chart = model.chart
    _, omega_h = forms.hamilton_cartan(chart, model.h)
    omega = forms.build_omega(chart)
    _, alpha = forms.extended_alpha(chart, model.h)
    for factor in (2, chart.y(1)):
        for X in (Xr.scaled(factor), Xe.scaled(factor)):
            head = f"{tag} {X.kind} f={factor}"
            mv = X.multivector()
            for nu in range(1, chart.m + 1):
                yield from (f"{head} X{nu}[{k}] {_held_line(c, mv.coords)}"
                            for k, c in mv.vector(nu).items())
            yield f"{head} transversality {sp.srepr(hdw.transversality(X))}"
            residual = (hdw.residual_restricted(X, omega_h) if X.kind == "restricted"
                        else hdw.residual_extended(X, omega, alpha))
            yield f"{head} residual {residual!r}"


def atom_fields():
    """(tag, model, gauge) of two (2, 1) fields: one with exp(y1/2) and
    exp(y1), one with sin(2*y1) and sin(y1)."""
    chart = BundleChart(2, 1)
    x1, x2, y1 = chart.x(1), chart.x(2), chart.y(1)
    p1, p2 = chart.p(1, 1), chart.p(1, 2)
    kinetic = (p1 ** 2 - p2 ** 2) / 2
    exps = kinetic + p1 * sp.exp(y1 / 2) + x1 * sp.exp(y1) + p2 * y1
    sins = kinetic + p2 * sp.sin(2 * y1) + x2 * p1 * sp.sin(y1) + sp.cos(y1)
    for tag, h, entry in (("exp", exps, p1 * sp.exp(y1 / 2)), ("sin", sins, sp.sin(2 * y1))):
        gauge = GaugeChoice("user-table", {(1, 2, 1): entry}, {})
        yield f"atoms/{tag}", HamiltonianModel(chart, h), gauge


def offring_fields(charts):
    """(tag, model, gauge) for each chart and each Hamiltonian below: the
    "zero" one, with zero F and G entries, under the equal-split gauge, the
    others under a gauge with `1/y1`, `sin(log(y1))` and `0.5*y1` entries
    where the chart has free slots."""
    for m, n in charts:
        chart = BundleChart(m, n)
        x, y, p = chart.x, chart.y, chart.p
        rest = sum(p(a, nu) ** 2 for a in range(1, n + 1) for nu in range(1, m + 1)
                   if (a, nu) != (1, 1)) / 2
        kinetic = rest + p(1, 1) ** 2 / 2
        hamiltonians = {
            "poly": kinetic + x(1) * y(1) ** 2 - x(m) * y(n) * p(n, m),
            "atoms": kinetic + sp.sin(y(1)) * p(1, m) + sp.cos(y(n)) * x(m)
            + sp.exp(y(1) / 2) * p(1, 1),
            "exp-both-signs": kinetic + sp.exp(y(1)) * p(1, 1) + x(1) * sp.exp(-y(1)),
            "rational": kinetic + p(n, 1) / y(1),
            "float": rest + sp.Float(0.5) * p(1, 1) ** 2,
            "log": kinetic + sp.log(y(1)) * p(1, m),
            "zero": x(1) * p(1, 1),
        }
        off_ring = GaugeChoice("user-table")
        if m > 1:
            off_ring = GaugeChoice("user-table",
                                   {(1, 2, 1): 1 / y(1), (n, 1, m): sp.sin(sp.log(y(1)))},
                                   {(1, 1): sp.Float(0.5) * y(1)})
        for kind, h in hamiltonians.items():
            gauge = GaugeChoice() if kind == "zero" else off_ring
            yield f"({m},{n})/{kind}", HamiltonianModel(chart, h), gauge


def submanifold_cases():
    """(tag, chart, embedding, h_P, samples, params) of 8 `[submanifold]`
    embeddings: degenerate.hdw's, whose omega_P is identically 0, the
    identity embeddings of the m = 1 and m = 2 charts, an m = 1 one whose
    momentum folds over the fiber (p = u2 u3), an m = 1 one whose base
    Jacobian vanishes at u1 = 0 at the scales 1 and 10**-9 of p and h_P,
    a transcendental m = 2 one (sin, cos and exp of the parameters) and an
    m = 3 one."""
    sub = modelfile.parse_model(MODELS / "degenerate.hdw").submanifold
    yield ("degenerate.hdw", BundleChart(2, 1), sub["embedding"], sub["h_P"],
           sub["samples"], sub["params"])
    chart = BundleChart(1, 1)
    u = sp.symbols("u1:4")
    samples = [(0.1, 0.3, 0.7), (1.0, -0.5, 0.2), (0.4, 0.0, 0.0), (-0.3, 0.8, 0.0)]
    identity = dict(zip(chart.coords("J1"), u))
    yield "m1", chart, identity, (u[2] ** 2 + u[1] ** 2) / 2, samples, u
    yield "m1-folded", chart, {**identity, chart.p(1, 1): u[1] * u[2]}, u[2] ** 2, samples, u
    for tag, scale in (("m1-scale-1", sp.Integer(1)), ("m1-scale-1e-9", sp.Rational(1, 10 ** 9))):
        yield (tag, chart, {**identity, chart.x(1): u[0] ** 2, chart.p(1, 1): scale * u[2]},
               scale * (u[2] ** 2 + u[1] ** 2) / 2, [(0.0, 0.3, 0.7), (0.5, 0.3, 0.7)], u)
    chart = BundleChart(2, 1)
    u = sp.symbols("u1:6")
    yield ("m2", chart, dict(zip(chart.coords("J1"), u)), (u[3] ** 2 - u[4] ** 2) / 2,
           [(0.3, 0.1, 0.5, 0.7, 0.2)], u)
    u = u[:4]
    yield ("m2-transcendental", chart,
           dict(zip(chart.coords("J1"), (u[0], sp.sin(u[1]), sp.exp(u[2]) * u[0],
                                         sp.cos(u[3]) + u[1], u[3] * sp.exp(u[0])))),
           sp.sin(u[2]) * u[3], [(0.3, 0.2, 0.1, 0.5), (1.0, 0.0, 0.4, 0.3)], u)
    chart = BundleChart(3, 1)
    u = sp.symbols("u1:8")
    yield ("m3", chart,
           dict(zip(chart.coords("J1"), (u[0], u[1], u[2] * u[0], u[3], u[4] ** 2, u[5],
                                         u[6] * u[3]))),
           (u[4] ** 2 + u[5] ** 2 - u[6] ** 2) / 2 + u[3] ** 3,
           [(0.3, 0.2, 0.1, 0.5, 0.4, 0.6, 0.7)], u)


def structure_lines(inputs):
    """The `structure` group's lines."""
    lines = []
    for m, n in inputs.CHARTS:
        chart = BundleChart(m, n)
        for level in ("E", "J1", "M", "L"):
            lines.append(f"({m},{n}) {level} canonical {forms.canonical_part(chart, level)!r}")
            lines.append(f"({m},{n}) {level} volume {forms.volume_form(chart, level)!r}")
        lines.append(f"({m},{n}) theta {forms.build_theta(chart)!r}")
        lines.append(f"({m},{n}) omega {forms.build_omega(chart)!r}")
    cases = (check_matrix_cases(inputs) + list(atom_fields())
             + list(offring_fields(inputs.CHARTS)))
    for tag, model, _ in cases:
        theta_h, omega_h = forms.hamilton_cartan(model.chart, model.h)
        H, alpha = forms.extended_alpha(model.chart, model.h)
        lines += [f"{tag} theta_h {theta_h!r}", f"{tag} omega_h {omega_h!r}",
                  f"{tag} H {sp.srepr(H)}", f"{tag} alpha {alpha!r}"]
    for tag, chart, embedding, h_P, samples, params in submanifold_cases():
        omega_P = forms.build_omega(chart).pullback(params, {**embedding, chart.pe: -h_P})
        dims = legendre.rank_diagnostics(chart, embedding, h_P, samples, params=params)
        lines += [f"{tag} omega_P {omega_P!r}", f"{tag} kernel_dims {dims}"]
    return lines


def offring_lagrangians():
    """(tag, LagrangianModel) of 9 Lagrangians that leave the coefficient
    ring or the hyper-regular class, one of them with a Hessian that is
    zero only by sin^2 + cos^2 = 1, and one whose Hessian depends on y1
    with determinant 1, which is inverted by `LUsolve` as any Hessian that
    is not constant."""
    c11, c12, c21 = BundleChart(1, 1), BundleChart(1, 2), BundleChart(2, 1)
    x1, y1, y2 = c21.x(1), c21.y(1), c12.y(2)
    v, w = c21.v, c12.v
    wave = (v(1, 1) ** 2 - v(1, 2) ** 2) / 2
    lags = {
        "sin": (c21, wave + sp.sin(y1) * v(1, 1) - sp.cos(y1)),
        "exp": (c12, (w(1, 1) ** 2 + w(2, 1) ** 2) / 2 + sp.exp(y1) * w(2, 1)
                - sp.exp(y2 / 2)),
        "rational": (c21, wave + v(1, 1) / (1 + y1 ** 2)),
        "log": (c11, c11.v(1, 1) ** 2 / 2 + x1 * sp.log(y1) * c11.v(1, 1)),
        "float": (c21, sp.Float(0.5) * v(1, 1) ** 2 - v(1, 2) ** 2 / 2 + y1 ** 2),
        "cubic": (c21, v(1, 1) ** 3 / 3 + v(1, 1) * v(1, 2)),
        "degenerate": (c21, y1 * v(1, 1) + x1 * v(1, 2)),
        "zero-hessian": (c11, (sp.sin(y1) ** 2 + sp.cos(y1) ** 2 - 1)
                         * c11.v(1, 1) ** 2 / 2),
        "y-hessian": (c11, (1 + y1 ** 2) * c11.v(1, 1) ** 2 / 2 - y1 ** 2),
        "y-hessian-det1": (c21, v(1, 1) ** 2 / 2 + y1 * v(1, 1) * v(1, 2)
                           + (1 + y1 ** 2) * v(1, 2) ** 2 / 2),
    }
    for tag, (chart, lag) in lags.items():
        yield f"lag/{tag}", legendre.LagrangianModel(chart, lag)


def euler_equations_residuals(lm) -> list:
    """The Euler-Lagrange residuals of `lm` by sympy's `euler_equations`,
    which shares no code with `legendre`: y as Functions of x, v as their
    Derivatives, and the second derivatives mapped back to
    `legendre.second_order_symbol`.  sympy's residual is dlag/dy minus the
    divergence, the negative of `legendre.euler_lagrange`'s."""
    chart = lm.chart
    xs = [chart.x(nu) for nu in range(1, chart.m + 1)]
    ys = [sp.Function(f"Y{a}")(*xs) for a in range(1, chart.n + 1)]
    fields = {chart.y(a): y for a, y in enumerate(ys, 1)}
    fields.update({chart.v(a, nu): y.diff(x) for a, y in enumerate(ys, 1)
                   for nu, x in enumerate(xs, 1)})
    back = {f: s for s, f in fields.items()}
    back.update({y.diff(x, z): legendre.second_order_symbol(a, nu, eta)
                 for a, y in enumerate(ys, 1) for nu, x in enumerate(xs, 1)
                 for eta, z in enumerate(xs, 1)})
    lag = lm.lag.subs(fields, simultaneous=True)
    # one call per field: `euler_equations` drops an equation that reads 0 = 0
    return [next((eq.lhs.xreplace(back) for eq in euler_equations(lag, [y], xs)), sp.S.Zero)
            for y in ys]


def euler_equations_agree(lm) -> bool:
    """Whether `legendre.euler_lagrange` of `lm` is, residual by residual,
    the negative of `euler_equations_residuals` (`sp.expand` of the sum is
    0)."""
    ours, theirs = legendre.euler_lagrange(lm), euler_equations_residuals(lm)
    return len(ours) == len(theirs) and all(sp.expand(a + b) == 0
                                            for a, b in zip(ours, theirs))


def legendre_cases(inputs):
    """(tag, LagrangianModel) of the check-matrix `lag` inputs of seeds 7,
    11, 23 and 31 over 64 slots, then `offring_lagrangians`."""
    for seed in SEEDS + (31,):
        for slot in range(8 * len(inputs.CHARTS)):
            inp = inputs.check_input(seed, slot)
            if inp.kind == "lag":
                yield f"{seed}/{slot}", legendre.LagrangianModel(inp.chart, inp.lag)
    yield from offring_lagrangians()


def legendre_lines(tag, lm):
    """The `legendre` group's lines of one Lagrangian."""
    res = legendre.legendre_maps(lm)
    for name in ("momenta", "hessian", "inverse_velocities"):
        yield from (f"{tag} {name}{key} {sp.srepr(e)}"
                    for key, e in getattr(res, name).items())
    yield f"{tag} extended {sp.srepr(res.extended)}"
    yield f"{tag} classification {res.classification}"
    try:
        h = sp.srepr(legendre.hamiltonian_from_lagrangian(res).h)
    except Exception as exc:  # an error is an output too
        h = f"raised {type(exc).__name__}"
    yield f"{tag} h {h}"
    yield from (f"{tag} EL {sp.srepr(e)}" for e in legendre.euler_lagrange(lm))
    yield f"{tag} euler_equations agrees {euler_equations_agree(lm)}"
    try:
        elim = [sp.srepr(e) for e in legendre.hdw_momentum_elimination(lm)]
    except Exception as exc:  # an error is an output too
        elim = [f"raised {type(exc).__name__}"]
    yield from (f"{tag} elimination {line}" for line in elim)


def _symbolic_lines(tag, model, gauge, groups):
    """Append the fields, battery and curvature lines of one input to
    `groups`; returns its restricted and extended fields."""
    Xr = hdw.derive_restricted(model, gauge)
    Xe = hdw.derive_extended(model, gauge)
    groups["fields"] += [f"{tag} {line}" for X in (Xr, Xe) for line in _table_lines(X)]
    groups["battery"] += [f"{tag} {name} {ok} {detail}" for name, (ok, detail)
                          in hdw.standard_checks(model, gauge).items()]
    for field, X in tampered_fields(Xe):
        groups["battery"] += [f"{tag} {field} {name} {ok} {detail}" for name, (ok, detail)
                              in hdw.standard_checks(model, gauge, Xe=X).items()]
    groups["curvature"] += [f"{tag} {key} {sp.srepr(v)}"
                            for key, v in hdw.curvature(Xe).items()]
    return Xr, Xe


def tampered_fields(Xe):
    """(name, field) of the extended field with F[1][1] + 1 and with
    g[1] + y1: their tangency fails, so `standard_checks` brackets them
    directly."""
    chart = Xe.chart
    F, g = dict(Xe.F), dict(Xe.g)
    F[(1, 1)] += 1
    g[1] += chart.y(1)
    yield "F[1][1]+1", hdw.HdwField(Xe.kind, chart, F, Xe.G, Xe.g, Xe.gauge, Xe.f)
    yield "g[1]+y1", hdw.HdwField(Xe.kind, chart, Xe.F, Xe.G, g, Xe.gauge, Xe.f)


def check_matrix_cases(inputs) -> list:
    """(tag, model, gauge) of check-matrix seeds 7, 11 and 23 x 16 slots; a
    `lag` input gives its induced Hamiltonian."""
    cases = []
    for seed in SEEDS:
        for slot in range(SLOTS):
            inp = inputs.check_input(seed, slot)
            if inp.kind == "lag":
                model = legendre.hamiltonian_from_lagrangian(legendre.legendre_maps(
                    legendre.LagrangianModel(inp.chart, inp.lag)))
            else:
                model = HamiltonianModel(inp.chart, inp.h)
            cases.append((f"{seed}/{slot}", model, inp.gauge))
    return cases


_x1, _y1, _p1 = sp.symbols("x1 y1 p1_1")
OFF_FRAGMENT = [
    sp.Float(0.5) * _y1, sp.pi * _y1, 1 / _y1, sp.sqrt(_y1) + _p1,
    sp.exp(_y1) * _p1 + _x1 * sp.exp(-_y1), sp.exp(_y1 + _x1) * _p1,
    sp.sin(2 * _y1) * _p1 + sp.sin(_y1) ** 2, (sp.exp(_y1 / 2) + _x1) ** 2 * sp.exp(_y1),
    _p1 * sp.sin(_y1) + (_y1 + sp.cos(_y1)) ** 2, (_y1 + 1) / (_y1 ** 2 - 1) + _x1,
]


def simplify_lines(inputs):
    """The `simplify` group's lines."""
    exprs = []
    for tag, model, _ in check_matrix_cases(inputs):
        exprs.append((f"{tag} h", model.h))
        exprs += [(f"{tag} dh/d{s}", sp.diff(model.h, s)) for s in model.chart.coords("J1")]
    exprs += [(f"{tag} h", model.h) for tag, model, _ in offring_fields(inputs.CHARTS)]
    exprs += [(f"off/{i}", e) for i, e in enumerate(OFF_FRAGMENT)]
    return [f"{tag} {sp.srepr(symbolic.simplify(e))}" for tag, e in exprs]


def symbolic_groups(inputs) -> dict:
    cases = check_matrix_cases(inputs)
    groups = {"fields": [], "battery": [], "curvature": [], "forms": []}
    for tag, model, gauge in cases + list(atom_fields()):
        Xr, Xe = _symbolic_lines(tag, model, gauge, groups)
        groups["forms"] += [f"{tag} {name} {form!r}" for name, form in _forms(model, Xr)]
        groups["forms"] += scaled_lines(tag, model, Xr, Xe)
    for tag, model, gauge in atom_fields():
        Xr = hdw.derive_restricted(model, gauge)
        groups["forms"] += [f"{tag} {name} {form!r}" for name, form in form_algebra(model, Xr)]
    offring = {"fields": [], "battery": [], "curvature": [], "scaled": []}
    for tag, model, gauge in offring_fields(inputs.CHARTS):
        Xr, Xe = _symbolic_lines(tag, model, gauge, offring)
        offring["scaled"] += scaled_lines(tag, model, Xr, Xe)
    groups["offring"] = [line for lines in offring.values() for line in lines]
    groups["structure"] = structure_lines(inputs)
    groups["legendre"] = [line for tag, lm in legendre_cases(inputs)
                          for line in legendre_lines(tag, lm)]
    groups["held arithmetic"] = held_arithmetic_lines()
    groups["simplify"] = simplify_lines(inputs)
    return groups


def ode_runs():
    """(tag, field, initial values, t range, dt) of m = 1 runs: a forced
    pendulum, h = p1_1^2/2 - cos(y1) + x1*y1, restricted and extended; an
    n = 2 extended run with sin, exp and a time-dependent coupling; one run
    that blows up (y'' = y^3) and one that leaves the domain of sqrt."""
    c11, c12 = BundleChart(1, 1), BundleChart(1, 2)
    t, q, p = c11.x(1), c11.y(1), c11.p(1, 1)
    pendulum = HamiltonianModel(c11, p ** 2 / 2 - sp.cos(q) + t * q)
    for derive in (hdw.derive_restricted, hdw.derive_extended):
        X = derive(pendulum)
        yield f"pendulum/{X.kind}", X, {"y1": 1.0, "p1_1": 0.0, "pe": 0.5}, (0.0, 5.0), 0.01
    y1, y2, p1, p2 = c12.y(1), c12.y(2), c12.p(1, 1), c12.p(2, 1)
    coupled = HamiltonianModel(c12, (p1 ** 2 + p2 ** 2) / 2 + sp.sin(y1) * y2
                               + sp.exp(-c12.x(1)) * y1 ** 2 / 2 + p1 * y2 / 3)
    init = {"y1": 0.5, "y2": -0.25, "p1_1": 0.0, "p2_1": 1.0, "pe": 0.0}
    yield "coupled/extended", hdw.derive_extended(coupled), init, (0.0, 4.0), 0.005
    blowup = HamiltonianModel(c11, p ** 2 / 2 - q ** 4 / 4)
    yield "blowup", hdw.derive_restricted(blowup), {"y1": 1.0, "p1_1": 1.0}, (0.0, 10.0), 0.01
    domain = HamiltonianModel(c11, p ** 2 / 2 + sp.sqrt(q))
    yield "domain", hdw.derive_extended(domain), {"y1": 1.0, "p1_1": -1.0, "pe": 0.0}, \
        (0.0, 10.0), 0.01


def ode_groups() -> dict:
    groups = {}
    for tag, X, init, t_range, dt in ode_runs():
        try:
            grid = solver.solve_ode(X, init, t_range, dt)
        except SolverAbortError as exc:
            groups[f"ode {tag} (abort step {exc.last_step})"] = [str(exc)]
            continue
        lines = [repr(grid.meta), grid.t.tobytes().hex()]
        lines += [f"{nm} {v.tobytes().hex()}" for nm, v in grid.fields.items()]
        groups[f"ode {tag}"] = lines
    return groups


def _strip(text, tmp):
    """Drop what differs from run to run: timestamps and directory names."""
    text = text.replace(str(tmp), "<tmp>").replace(str(MODELS), "<models>")
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)


def _run_cli(argv, tmp):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except Exception as exc:  # a crash is an output too
            status = f"raised {type(exc).__name__}"
    return _strip(f"{status}\n{out.getvalue()}\n{err.getvalue()}", tmp)


def cli_groups(tmp) -> dict:
    groups = {}
    runs = []
    for model in sorted(MODELS.glob("*.hdw")):
        path = str(model)
        runs += [[cmd, path] for cmd in ("derive", "check", "legendre")]
        runs.append(["derive", path, "--format", "latex"])
        for name, table in INJECTIONS.items():
            inject = tmp / f"inject-{name}.json"
            inject.write_text(json.dumps(table), encoding="utf-8")
            runs.append(["check", path, "--debug-inject", str(inject)])
        runs.append(["solve", path])
        runs.append(["compare", path, "--against",
                     str(tmp / "out" / f"{model.stem}.solve.grid.csv")])
    wave = str(MODELS / "wave.hdw")
    wide = ["--grid", "800", "--dt", repr(2 * math.pi / 800)]
    runs.append(["solve", wave] + wide)
    runs.append(["compare", wave] + wide
                + ["--against", str(tmp / "out" / "wave.solve.grid.csv")])
    for argv in runs:
        argv = argv + ["--out", str(tmp / "out")]
        key = _strip(" ".join(argv), tmp)
        lines = [_run_cli(argv, tmp)]
        for report in sorted((tmp / "out").glob("*.json")):
            lines.append(report.name + "\n" + _strip(report.read_text(encoding="utf-8"), tmp))
            report.unlink()
        groups[f"cli {key}"] = lines
        grid = tmp / "out" / f"{pathlib.Path(argv[1]).stem}.solve.grid.csv"
        if argv[0] == "solve" and grid.exists():
            groups[f"grid {key}"] = [hashlib.sha256(grid.read_bytes()).hexdigest()]
    groups["grid read"] = grid_read_lines(tmp / "out" / "wave.solve.grid.csv", tmp)
    groups["grid write"] = grid_write_lines(tmp)
    groups["cli input errors"] = input_error_lines(tmp)
    return groups


def input_error_lines(tmp) -> list:
    """The `cli input errors` group's lines."""
    out = tmp / "input-errors"
    runs = {}
    for name, text in {**SPELLINGS, "solve-base": BASE_INIT, "solve-pe": PE_INIT,
                       **SUBMANIFOLDS}.items():
        (tmp / f"{name}.hdw").write_text(text, encoding="utf-8")
        runs[name] = ["check", str(tmp / f"{name}.hdw")]
    inject = tmp / "inject-spelled.json"
    inject.write_text(json.dumps(SPELLED_INJECTION), encoding="utf-8")
    runs["injection"] = ["check", str(MODELS / "oscillator.hdw"), "--debug-inject", str(inject)]
    return [f"{name} {_run_cli(argv + ['--out', str(out)], tmp)}" for name, argv in runs.items()]


@contextlib.contextmanager
def three_blocks():
    """Every grid CSV is read and written in 3 blocks, whatever its size
    and the host's CPU count."""
    saved = cli._BLOCK_FLOOR, cli._cpus
    cli._BLOCK_FLOOR, cli._cpus = 1, lambda: 3
    try:
        yield
    finally:
        cli._BLOCK_FLOOR, cli._cpus = saved


@contextlib.contextmanager
def second_fork_fails():
    """The second `os.fork` in the block raises EAGAIN, as under a pids
    limit."""
    real, forks = os.fork, []

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real()
    os.fork = fork
    try:
        yield
    finally:
        os.fork = real


def _grid_digest(g) -> str:
    """sha256 of the t, x and field bytes of grid `g`."""
    digest = hashlib.sha256()
    for arr in [g.t, g.x] + [g.fields[nm] for nm in sorted(g.fields)]:
        digest.update(arr.tobytes())
    return digest.hexdigest()


# cell values the grid CSV codec does not read, and a comment line
OFF_CODEC = ["-0", "true", "null", "nan", "inf", "+1.0", ".5", "1.", "1e400", " 0.5",
             "0.5\t", "# a comment line"]


def grid_read_lines(grid: pathlib.Path, tmp) -> list:
    """The `grid read` group's lines for the grid CSV `grid`."""
    import random
    text = grid.read_bytes()
    lines = text.splitlines(keepends=True)
    body = next(k for k, line in enumerate(lines) if not line.startswith(b"#")) + 1
    rows = lines[body:]
    random.Random(0).shuffle(rows)
    copies = {"as written": grid.read_bytes,
              "rows shuffled": lambda: b"".join(lines[:body] + rows),
              "crlf": lambda: text.replace(b"\n", b"\r\n")}

    def holding(token):
        """The grid with `token` in the last cell of its next-to-last row, or
        a comment line `token` before that row."""
        if token.startswith("#"):
            return b"".join(lines[:-2] + [token.encode() + b"\n"] + lines[-2:])
        cells = lines[-2].split(b",")[:-1] + [token.encode() + b"\n"]
        return b"".join(lines[:-2] + [b",".join(cells)] + lines[-1:])
    copies.update((f"token {token!r}", functools.partial(holding, token))
                  for token in OFF_CODEC)
    out = []
    path = tmp / "copy.csv"
    for name, copy in copies.items():
        path.write_bytes(copy())
        try:
            g = cli.read_grid_csv(str(path))
        except HdwForgeError as exc:
            out.append(f"{name} {_strip(str(exc), tmp)}")
            continue
        out.append(f"{name} {_grid_digest(g)}")
    path.unlink()
    with three_blocks():
        out.append(f"as written, 3 blocks {_grid_digest(cli.read_grid_csv(str(grid)))}")
        with second_fork_fails():
            out.append("as written, 3 blocks, second fork fails "
                       f"{_grid_digest(cli.read_grid_csv(str(grid)))}")
    return out


def bit_pattern_grid():
    """An `ode` grid of 10**5 rows: y1 holds seeded random finite bit
    patterns, pe values on both sides of 1e-5, 1e-4 and 1e16 (where
    orjson's notation differs from `repr`'s), subnormals, +-0.0, every
    power of ten from 1e-308 to 1e308, values holding 0.0000 after a
    first digit, nan and +-inf."""
    import numpy as np
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
    edges = np.concatenate([edges, -edges, [np.nan]])
    return solver.SectionGrid("ode", np.arange(n) * 0.25,
                              {"y1": y1, "pe": np.resize(edges, n)}, meta={"scheme": "rk4"})


def grid_write_lines(tmp) -> list:
    """The `grid write` group's lines."""
    path, grid = tmp / "bit-patterns.csv", bit_pattern_grid()
    cli.write_grid_csv(grid, str(path))
    out = [hashlib.sha256(path.read_bytes()).hexdigest()]
    with three_blocks():
        cli.write_grid_csv(grid, str(path))
        out.append(f"3 blocks {hashlib.sha256(path.read_bytes()).hexdigest()}")
        with second_fork_fails():
            cli.write_grid_csv(grid, str(path))
        out.append(f"3 blocks, second fork fails {hashlib.sha256(path.read_bytes()).hexdigest()}")
    return out


def fingerprint() -> dict:
    """{group: sha256 of its lines} of the package on the path."""
    groups = symbolic_groups(_frozen_inputs())
    groups.update(ode_groups())
    with tempfile.TemporaryDirectory() as tmp:
        groups.update(cli_groups(pathlib.Path(tmp)))
    return {name: hashlib.sha256("\n".join(lines).encode()).hexdigest()
            for name, lines in groups.items()}


def _start(src) -> subprocess.Popen:
    """This script, fingerprinting the package in `src`, in a subprocess."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, __file__], env=dict(os.environ, PYTHONPATH=path),
                            stdout=subprocess.PIPE, text=True)


def against(src) -> int:
    """Print the groups whose digests differ between the package in `src`
    and this tree's: 1 if any does, 2 if either fingerprint fails, else 0."""
    here = ROOT / "src"
    if not (src / "hdw_forge" / "__init__.py").is_file():
        print(f"no hdw_forge package in {src}", file=sys.stderr)
        return 2
    runs = [(path, _start(path)) for path in (src, here)]
    outs = [proc.communicate()[0] for _, proc in runs]
    failed = [f"{path} exited {proc.returncode}" for path, proc in runs if proc.returncode]
    if failed:
        print(f"fingerprinting {'; '.join(failed)}", file=sys.stderr)
        return 2
    theirs, ours = ({name: digest for digest, name in (line.split("  ", 1)
                                                       for line in out.splitlines())}
                    for out in outs)
    differ = [name for name in {**theirs, **ours} if theirs.get(name) != ours.get(name)]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(set(theirs) | set(ours))} groups differ "
          f"between {src} and {here}")
    return 1 if differ else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="SRC",
                        help="compare this tree's src/ with the package in SRC")
    args = parser.parse_args()
    if args.against:
        return against(pathlib.Path(args.against).resolve())
    for name, digest in fingerprint().items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
