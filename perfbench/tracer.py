"""Span tracing of hdw_forge from outside the package.

`Tracer.install()` replaces every listed function in every hdw_forge module
namespace that binds it (and `sympy.lambdify`, and the `CoordForm` methods)
with a wrapper that records a span: name, start, end, parent span and op id.
Spans stay in memory and are written out once, when the run ends.  The
wrappers return exactly what the wrapped function returns; the few counters
below are computed from stashed results after each op, outside its spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (span name, defining module, attribute)
FUNCTIONS = (
    ("symbolic.simplify", "hdw_forge.symbolic", "simplify"),
    ("forms.interior_product", "hdw_forge.forms", "interior_product"),
    ("forms.hamilton_cartan", "hdw_forge.forms", "hamilton_cartan"),
    ("hdw.derive_restricted", "hdw_forge.hdw", "derive_restricted"),
    ("hdw.derive_extended", "hdw_forge.hdw", "derive_extended"),
    ("hdw.standard_checks", "hdw_forge.hdw", "standard_checks"),
    ("hdw.residual_restricted", "hdw_forge.hdw", "residual_restricted"),
    ("hdw.residual_extended", "hdw_forge.hdw", "residual_extended"),
    ("hdw.transversality", "hdw_forge.hdw", "transversality"),
    ("hdw.tangency_check", "hdw_forge.hdw", "tangency_check"),
    ("hdw.connection_equation_check", "hdw_forge.hdw", "connection_equation_check"),
    ("hdw.curvature", "hdw_forge.hdw", "curvature"),
    ("legendre.legendre_maps", "hdw_forge.legendre", "legendre_maps"),
    ("legendre.hamiltonian_from_lagrangian", "hdw_forge.legendre",
     "hamiltonian_from_lagrangian"),
    ("legendre.euler_lagrange", "hdw_forge.legendre", "euler_lagrange"),
    ("legendre.hdw_momentum_elimination", "hdw_forge.legendre",
     "hdw_momentum_elimination"),
    ("legendre.rank_diagnostics", "hdw_forge.legendre", "rank_diagnostics"),
    ("solver.solve_ode", "hdw_forge.solver", "solve_ode"),
    ("solver.solve_field_1p1", "hdw_forge.solver", "solve_field_1p1"),
    ("solver.discrete_field_energy", "hdw_forge.solver", "discrete_field_energy"),
    ("solver.conservation_diagnostics", "hdw_forge.solver",
     "conservation_diagnostics"),
    ("solver.max_discrepancy", "hdw_forge.solver", "max_discrepancy"),
    ("modelfile.parse_model", "hdw_forge.modelfile", "parse_model"),
    ("exprparse.parse_expression", "hdw_forge.exprparse", "parse_expression"),
    ("exprparse.render_plain", "hdw_forge.exprparse", "render_plain"),
    ("exprparse.render_latex", "hdw_forge.exprparse", "render_latex"),
    ("cli.cmd_derive", "hdw_forge.cli", "cmd_derive"),
    ("cli.cmd_check", "hdw_forge.cli", "cmd_check"),
    ("cli.cmd_legendre", "hdw_forge.cli", "cmd_legendre"),
    ("cli.cmd_solve", "hdw_forge.cli", "cmd_solve"),
    ("cli.cmd_compare", "hdw_forge.cli", "cmd_compare"),
    ("cli.write_grid_csv", "hdw_forge.cli", "write_grid_csv"),
    ("cli.read_grid_csv", "hdw_forge.cli", "read_grid_csv"),
)

COORDFORM_METHODS = ("add_term", "copy", "map_coeffs", "simplified", "__add__",
                     "__sub__", "__neg__", "scale", "wedge", "d",
                     "interior_vector", "coefficient", "is_zero",
                     "structurally_equal", "pullback")

# spans reported per layer: every listed function plus these
LAYER_SPANS = tuple(name for name, _, _ in FUNCTIONS) + (
    "forms.CoordForm.is_zero", "forms.CoordForm.d", "sympy.lambdify")

# exact counters, summed over the traced ops of a run
COUNTERS = ("hdw.coeff_ops", "hdw.flat_verdicts", "solver.rk4_steps",
            "solver.cells", "cli.write_grid_csv.bytes", "cli.read_grid_csv.bytes",
            "symbolic.simplify.with_denominator")


def _has_symbolic_denominator(expr) -> bool:
    """True when `expr` divides by something that is not a number.

    Only then can the together/cancel step of `simplify` do useful work;
    a rational coefficient such as x/2 does not count.
    """
    import sympy as sp
    expr = sp.sympify(expr)
    return any(node.is_Pow and node.exp.is_negative and node.base.free_symbols
               for node in sp.preorder_traversal(expr))


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []   # [name id, start, end, parent, op id]
        self._stack: list[int] = []
        self.op_id = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._bindings: list[tuple] = []   # (owner, attribute, original, wrapper)
        self._stash: dict[str, list] = {"simplify": [], "derived": [], "curvature": []}

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _after_hooks(self):
        c = self.counters
        st = self._stash

        def grid_steps(args, kwargs, grid):
            c["solver.rk4_steps"] += int(grid.meta["steps"])
            if grid.kind == "field1p1":
                c["solver.cells"] += int(grid.meta["steps"]) * int(grid.meta["npoints"])

        def file_bytes(key, pos):
            def hook(args, kwargs, out):
                c[key] += os.path.getsize(args[pos])
            return hook

        return {
            "symbolic.simplify": lambda a, k, out: st["simplify"].append(a[0] if a else k["e"]),
            "hdw.derive_restricted": lambda a, k, out: st["derived"].append(out),
            "hdw.derive_extended": lambda a, k, out: st["derived"].append(out),
            "hdw.curvature": lambda a, k, out: st["curvature"].append(out),
            "solver.solve_ode": grid_steps,
            "solver.solve_field_1p1": grid_steps,
            "cli.write_grid_csv": file_bytes("cli.write_grid_csv.bytes", 1),
            "cli.read_grid_csv": file_bytes("cli.read_grid_csv.bytes", 0),
        }

    def install(self):
        """Wrap every binding of the listed functions and attach the wrappers."""
        import sympy as sp
        from hdw_forge.forms import CoordForm
        hooks = self._after_hooks()
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == "hdw_forge" or key.startswith("hdw_forge."))]
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, key, original, wrapper))
        for meth in COORDFORM_METHODS:
            original = CoordForm.__dict__[meth]
            self._bindings.append(
                (CoordForm, meth, original, self._wrap(f"forms.CoordForm.{meth}", original)))
        self._bindings.append((sp, "lambdify", sp.lambdify,
                               self._wrap("sympy.lambdify", sp.lambdify)))
        self.attach()

    def attach(self):
        for owner, key, _, wrapper in self._bindings:
            setattr(owner, key, wrapper)

    def detach(self):
        for owner, key, original, _ in self._bindings:
            setattr(owner, key, original)

    def begin_op(self, op_id: int):
        self.op_id = op_id

    def end_op(self):
        """Fold the results stashed during the op into the counters."""
        import sympy as sp
        st, c = self._stash, self.counters
        c["symbolic.simplify.with_denominator"] += sum(
            _has_symbolic_denominator(e) for e in st["simplify"])
        for X in st["derived"]:
            c["hdw.coeff_ops"] += sum(
                int(sp.count_ops(e)) for table in (X.F, X.G, X.g) for e in table.values())
        c["hdw.flat_verdicts"] += sum(
            all(v == 0 for v in curv.values()) for curv in st["curvature"])
        for items in st.values():
            items.clear()

    # -- output ------------------------------------------------------------

    def payload(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counters": self.counters}

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.payload(), fh, separators=(",", ":"))


def merge(payloads) -> dict:
    """Concatenate trace payloads from several processes."""
    names, ids, spans = [], {}, []
    counters = dict.fromkeys(COUNTERS, 0)
    for p in payloads:
        remap = []
        for name in p["names"]:
            if name not in ids:
                ids[name] = len(names)
                names.append(name)
            remap.append(ids[name])
        base = len(spans)
        for nid, start, end, parent, op in p["spans"]:
            spans.append([remap[nid], start, end, parent + base if parent >= 0 else -1, op])
        for key, value in p["counters"].items():
            counters[key] += value
    return {"names": names, "spans": spans, "counters": counters}


def aggregate(payload) -> dict:
    """name -> {"calls", "s", "self_s"}.

    `s` is inclusive time summed over the outermost spans of a name (a span
    nested in a span of the same name is not counted twice); `self_s` is
    each span's duration minus the time its direct children cover.
    """
    names, spans = payload["names"], payload["spans"]
    child = [0.0] * len(spans)
    for nid, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names}
    for i, (nid, start, end, parent, _) in enumerate(spans):
        row = out[names[nid]]
        row["calls"] += 1
        row["self_s"] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != nid:
            p = spans[p][3]
        if p < 0:
            row["s"] += end - start
    return out
