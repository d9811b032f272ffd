"""Line-oriented model files: [section] headers with key = value entries.

Sections: [bundle] (m, n), exactly one of [hamiltonian] / [lagrangian],
optional [gauge], [solve], [submanifold].  The full format is documented in
docs/model-format.md.  All expressions are parsed against the declared
bundle's coordinate names; every error carries the source line.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import sympy as sp

from .coords import BundleChart, read_slot
from .errors import GaugeError, ModelFileError
from .exprparse import parse_expression
from .hdw import GaugeChoice

_SECTION_RE = re.compile(r"^\[([a-z0-9_]+)\]$")

_KNOWN_SECTIONS = {"bundle", "hamiltonian", "lagrangian", "gauge", "solve",
                   "submanifold"}


@dataclass
class ModelFile:
    chart: BundleChart
    hamiltonian: sp.Expr | None = None
    lagrangian: sp.Expr | None = None
    gauge: GaugeChoice = field(default_factory=GaugeChoice)
    solve: dict | None = None
    submanifold: dict | None = None
    path: str | None = None
    text: str = ""

    @property
    def physics(self) -> str:
        return "hamiltonian" if self.hamiltonian is not None else "lagrangian"


def _split_sections(text: str):
    """[(section, header line_no, [(line_no, key, value), ...]), ...] in
    file order.  A key given twice in one section is an error at its
    second line; `samples` alone may repeat, its lines accumulating."""
    sections = []
    entries = None
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _SECTION_RE.match(line.strip())
        if m:
            name = m.group(1)
            if name not in _KNOWN_SECTIONS:
                raise ModelFileError(f"unknown section [{name}]", i)
            entries = []
            sections.append((name, i, entries))
            continue
        if entries is None:
            raise ModelFileError("entry before any [section] header", i)
        if "=" not in line:
            raise ModelFileError("expected 'key = value'", i)
        key, value = (part.strip() for part in line.split("=", 1))
        if key != "samples" and any(k == key for _, k, _ in entries):
            raise ModelFileError(f"repeated key {key!r} in [{name}]", i)
        entries.append((i, key, value))
    return sections


def _first_line(header, entries):
    """The line an error about a section's entries names: its first
    entry's, or its header's when it has none."""
    return entries[0][0] if entries else header


def _get_int(entries, key, line_hint):
    for ln, k, v in entries:
        if k == key:
            try:
                return int(v), ln
            except ValueError:
                raise ModelFileError(f"{key} must be an integer, got {v!r}", ln) from None
    raise ModelFileError(f"missing required key {key!r}", line_hint)


def _get_float(value, ln, key):
    try:
        return float(sp.Rational(value) if "/" in value else value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise ModelFileError(f"{key} must be numeric, got {value!r}", ln) from None


def parse_model_text(text: str, path: str | None = None) -> ModelFile:
    # name -> (header line, entries); a duplicate or conflicting section is
    # reported at its header
    by_name = {}
    for name, header, entries in _split_sections(text):
        if name in by_name:
            raise ModelFileError(f"duplicate section [{name}]", header)
        by_name[name] = header, entries

    if "bundle" not in by_name:
        raise ModelFileError("missing [bundle] section", 1)
    header, entries = by_name["bundle"]
    for ln, k, _ in entries:
        if k not in ("m", "n"):
            raise ModelFileError(f"unexpected key {k!r} in [bundle]", ln)
    m, m_line = _get_int(entries, "m", _first_line(header, entries))
    n, n_line = _get_int(entries, "n", _first_line(header, entries))
    try:
        chart = BundleChart(m, n)
    except Exception as exc:
        raise ModelFileError(str(exc), m_line if m < 1 else n_line) from exc

    physics = [name for name in ("hamiltonian", "lagrangian") if name in by_name]
    if len(physics) != 1:
        raise ModelFileError("need exactly one of [hamiltonian] or [lagrangian]",
                             max(by_name[name][0] for name in physics) if physics else 1)

    model = ModelFile(chart, path=path, text=text)

    if physics == ["hamiltonian"]:
        header, entries = by_name["hamiltonian"]
        for ln, k, v in entries:
            if k != "h":
                raise ModelFileError(f"unexpected key {k!r} in [hamiltonian]", ln)
            model.hamiltonian = parse_expression(v, chart, "J1", line=ln)
        if model.hamiltonian is None:
            raise ModelFileError("[hamiltonian] needs an 'h = ...' entry", header)
    else:
        header, entries = by_name["lagrangian"]
        for ln, k, v in entries:
            if k != "lag":
                raise ModelFileError(f"unexpected key {k!r} in [lagrangian]", ln)
            model.lagrangian = parse_expression(v, chart, "L", line=ln)
        if model.lagrangian is None:
            raise ModelFileError("[lagrangian] needs a 'lag = ...' entry", header)

    if "gauge" in by_name:
        model.gauge = _parse_gauge(by_name["gauge"][1], chart)
    if "solve" in by_name:
        model.solve = _parse_solve(*by_name["solve"], chart)
    if "submanifold" in by_name:
        model.submanifold = _parse_submanifold(*by_name["submanifold"], chart)
    return model


def _parse_gauge(entries, chart) -> GaugeChoice:
    mode = "equal-split"
    off_trace = {}
    redistribution = {}
    for ln, k, v in entries:
        if k == "mode":
            if v not in ("equal-split", "user-table"):
                raise ModelFileError(f"unknown gauge mode {v!r}", ln)
            mode = v
            continue
        slot = read_slot(k, {"G": 3, "psi": 2})
        if slot is None:
            raise ModelFileError(
                f"unexpected gauge key {k!r} (use mode, G[A][rho][nu], psi[A][nu])", ln)
        head, slot = slot
        try:
            GaugeChoice.check_slot(chart, slot)
        except GaugeError as exc:
            raise ModelFileError(str(exc), ln) from exc
        table = off_trace if head == "G" else redistribution
        table[slot] = parse_expression(v, chart, "J1", line=ln)
    if (off_trace or redistribution) and mode == "equal-split":
        mode = "user-table"
    # each slot was checked at its line and each entry parsed on "J1"
    return GaugeChoice(mode, off_trace, redistribution)


def _parse_solve(header, entries, chart) -> dict:
    out = {"kind": None, "extended": False, "init": {}}
    scalar_keys = {"t0", "t1", "dt", "xmin", "xmax"}
    for ln, k, v in entries:
        if k == "kind":
            if v not in ("ode", "field1p1"):
                raise ModelFileError(f"unknown solve kind {v!r}", ln)
            out["kind"] = v
        elif k == "extended":
            if v not in ("true", "false"):
                raise ModelFileError("extended must be true or false", ln)
            out["extended"] = v == "true"
        elif k in scalar_keys:
            out[k] = _get_float(v, ln, k)
        elif k == "points":
            try:
                out[k] = int(v)
            except ValueError:
                raise ModelFileError(f"{k} must be an integer", ln) from None
        else:
            # initial value (number) or initial profile (expression of base coords)
            out["init"][k] = (ln, v)
    if out["kind"] is None:
        raise ModelFileError("[solve] needs kind = ode | field1p1",
                             _first_line(header, entries))
    kind = out["kind"]
    required = {"ode": ("t0", "t1", "dt"),
                "field1p1": ("t0", "t1", "dt", "xmin", "xmax", "points")}[kind]
    for key in required:
        if key not in out:
            raise ModelFileError(f"[solve] kind={kind} needs key {key!r}",
                                 _first_line(header, entries))
    problem = solve_problem(out, chart)
    if problem is not None:
        key, bound = problem
        raise ModelFileError(f"{key} must be {bound}, got {out[key]!r}",
                             next(ln for ln, k, _ in entries if k == key))

    init = {}
    state = [c for a in range(1, (chart.n if kind == "ode" else 1) + 1)
             for c in (chart.y(a), chart.p(a, 1))]
    for name, (ln, v) in out["init"].items():
        try:
            sym = chart.resolve(name)
        except Exception:
            raise ModelFileError(f"unknown coordinate {name!r} in [solve]", ln) from None
        if sym in chart.coords("E")[:chart.m]:
            raise ModelFileError(f"{name!r} is a base coordinate, not initial data, "
                                 "in [solve]", ln)
        if sym not in state:
            raise ModelFileError(f"{name!r} is not initial data in [solve]: kind = {kind} "
                                 f"takes {', '.join(c.name for c in state)}", ln)
        init[name] = (_get_float(v, ln, name) if kind == "ode"
                      else parse_expression(v, chart, "E", line=ln))
    return {**out, "init": init}


# The most values a run may store: (steps + 1) x values per time step, 8
# bytes each, about 160 MB per copy.  The 800-point wave stores 1.9 million.
MAX_RUN_VALUES = 20_000_000


def solve_problem(run: dict, chart: BundleChart):
    """(key, bound) for the first value of a [solve] block that no run can
    take, or None: the time and space bounds finite, t1 > t0, dt > 0 with
    at least one step, at least 5 points (the 4th-order stencil), and at
    most MAX_RUN_VALUES stored values.  A time step stores the 2n (or, with
    `extended`, 2n + 1) coordinates of an ode run, and y1, p1_1 and p1_2
    at every point of a field1p1 run."""
    for key in ("t0", "t1", "dt", "xmin", "xmax"):
        if key in run and not math.isfinite(run[key]):
            return key, "finite"
    t0, t1, dt = run["t0"], run["t1"], run["dt"]
    if t1 <= t0:
        return "t1", f"> t0 = {t0!r}"
    span = (t1 - t0) / dt if dt > 0 else 0.0   # inf when the quotient overflows
    steps = round(span) if span < math.inf else math.inf
    if steps < 1:
        return "dt", f"> 0 and give at least one step from t0 = {t0!r} to t1 = {t1!r}"
    if run.get("points", 5) < 5:
        return "points", "at least 5"
    if run["kind"] == "field1p1":
        per_step = 3 * run["points"]
        if 2 * per_step > MAX_RUN_VALUES:
            return "points", (f"at most {MAX_RUN_VALUES // 6}, 3 values per point "
                              f"over at least 2 time rows within {MAX_RUN_VALUES}")
    else:
        per_step = 2 * chart.n + run.get("extended", False)
    if (steps + 1) * per_step > MAX_RUN_VALUES:
        return "dt", (f"large enough for at most {MAX_RUN_VALUES} stored values, "
                      f"(steps + 1) x {per_step} per step")
    return None


def _parse_submanifold(header, entries, chart) -> dict:
    params = None
    embedding = {}
    h_P = None
    samples = []
    for ln, k, v in entries:
        if k == "params":
            names = v.split()
            if not names:
                raise ModelFileError("[submanifold] needs at least one parameter", ln)
            repeated = next((p for i, p in enumerate(names) if p in names[:i]), None)
            if repeated is not None:
                raise ModelFileError(f"repeated parameter {repeated!r} in [submanifold]", ln)
            params = tuple(sp.Symbol(p) for p in names)
        elif k == "h_P":
            if params is None:
                raise ModelFileError("declare params before h_P", ln)
            h_P = parse_expression(v, None, extra_names=[p.name for p in params],
                                   line=ln)
        elif k == "samples":
            for chunk in v.split(";"):
                chunk = chunk.strip()
                if chunk:
                    samples.append((ln, tuple(_get_float(w, ln, "sample")
                                              for w in chunk.split())))
        else:
            if params is None:
                raise ModelFileError("declare params before embedding entries", ln)
            try:
                sym = chart.resolve(k)
            except Exception:
                raise ModelFileError(f"unknown coordinate {k!r} in [submanifold]", ln) from None
            embedding[sym] = parse_expression(
                v, None, extra_names=[p.name for p in params], line=ln)
    first = _first_line(header, entries)
    if params is None or h_P is None or not samples:
        raise ModelFileError("[submanifold] needs params, h_P, and samples", first)
    missing = [s.name for s in chart.coords("J1") if s not in embedding]
    if missing:
        raise ModelFileError("[submanifold] embedding must cover every restricted-chart "
                             f"coordinate; missing: {', '.join(missing)}", first)
    for ln, pt in samples:
        if len(pt) != len(params):
            raise ModelFileError(
                f"sample {pt} has {len(pt)} entries, expected {len(params)}", ln)
    return {"params": params, "embedding": embedding, "h_P": h_P,
            "samples": [pt for _, pt in samples], "sample_lines": [ln for ln, _ in samples]}


def parse_model(path) -> ModelFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc}") from exc
    return parse_model_text(text, path=str(path))
