"""Command-line front end: the only module that does I/O.

Commands:
    derive <model>     print the derived field equations
    check <model>      run the structural identity battery (exit 1 on failure)
    legendre <model>   momentum maps, classification, induced Hamiltonian
    solve <model>      numerical run; writes a CSV grid and a JSON report
    compare <model> --against <grid.csv>   solve and diff against a saved grid

Reports are JSON (schema_version 1); grids are CSV with a '#' metadata
preamble.  Exit status: 0 ok, 1 check failure, 2 input or output error.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import hashlib
import io
import json
import math
import os
import re
import shutil
import signal
import sys
import tempfile
import warnings

import sympy as sp

from . import __version__
from .coords import read_slot
from .errors import (HdwForgeError, ModelFileError, OutputError, RegularityError,
                     SampleDomainError, SolverAbortError)
from .exprparse import parse_expression, render_latex, render_plain
from .forms import HeldTable, HeldView, extended_alpha
from .hdw import (GaugeChoice, HamiltonianModel, HdwField, derive_extended,
                  derive_restricted, dof_count, standard_checks)
from .legendre import (LagrangianModel, euler_lagrange,
                       hamiltonian_from_lagrangian, hdw_momentum_elimination,
                       legendre_maps, rank_diagnostics)
from .modelfile import ModelFile, parse_model, solve_problem
from .solver import (SectionGrid, conservation_diagnostics,
                     discrete_field_energy, max_discrepancy, solve_field_1p1,
                     solve_ode)
from .symbolic import evaluate, is_structurally_zero

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
            F = X.F[(a, nu)]
            eqs.append(_equation_entry(
                f"d(y{a})/d(x{nu}) = {render_plain(F)}",
                rf"\partial y^{{{a}}}/\partial x^{{{nu}}} = {render_latex(F)}"))
    for a in range(1, chart.n + 1):
        for rho in range(1, chart.m + 1):
            for nu in range(1, chart.m + 1):
                G = X.G[(a, rho, nu)]
                eqs.append(_equation_entry(
                    f"d(p{a}_{rho})/d(x{nu}) = {render_plain(G)}",
                    rf"\partial p^{{{rho}}}_{{{a}}}/\partial x^{{{nu}}} = {render_latex(G)}"))
    if X.kind == "extended":
        for nu in range(1, chart.m + 1):
            g = X.g[nu]
            eqs.append(_equation_entry(
                f"d(pe)/d(x{nu}) = {render_plain(g)}",
                rf"\partial p/\partial x^{{{nu}}} = {render_latex(g)}"))
    return eqs


def _cannot_write(path: str, exc: OSError) -> OutputError:
    return OutputError(f"cannot write {path}: {exc.strerror or exc}")


def _emit(report: dict, out_dir: str, stem: str, fmt: str):
    path = os.path.join(out_dir, f"{stem}.json")
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _cannot_write(path, exc) from exc
    if fmt == "json":
        sys.stdout.write(text)
    elif fmt == "latex":
        for eq in report.get("equations", []):
            print(eq["latex"])
    return path


# A grid CSV's body is written and read in contiguous blocks of time rows:
# even with orjson's compiled float codec, formatting and parsing hold the
# interpreter for the whole body, so one process sets the floor.  A grid
# gets one block per CPU, but no more than one per `_BLOCK_FLOOR` values.
# Both directions run their blocks through `_in_blocks`, which gathers
# them into the caller's file in block order: the parent does block 0 while
# each later block is done by a forked child into a part file of its own,
# then copies each finished part in.  The parent also does every block
# without a finished part: one no child was started for, once no part file
# or child can be had, and one whose child failed, which raises the real
# error.  A smaller grid, or one on a host without `os.fork` or
# `os.sched_getaffinity`, is one block.
_BLOCK_FLOOR = 500_000   # values; about 10-16 MB of CSV
_CHUNK_VALUES = 1 << 10  # values a writer formats at a time
_CHUNK_BYTES = 1 << 16   # bytes of CSV a reader parses at a time

# orjson prints the shortest round-trip digits that `repr` prints, in its
# own notation; these turn it into `repr`'s.  Each pattern starts with a
# literal, which the regex engine scans for fast.
_EXPONENT = re.compile(rb"e(-?)(\d+)")       # 1e16 -> 1e+16, 1.5e-7 -> 1.5e-07
_FIXED_E05 = re.compile(rb"0\.0000(\d)(\d*)")  # 0.000012 -> 1.2e-05
# a chunk goes to orjson only if it is made of these bytes and holds no
# bare `-0`, which orjson reads as +0.0
_NUMBER_BYTES = b"0123456789.eE+-,\n"
_NEGATIVE_ZERO = re.compile(rb"-0(?:[,\n]|\Z)")


def _cpus() -> int:
    """Most blocks a grid is cut into."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _block_bounds(n: int, values: int) -> list:
    """Split range(n) into contiguous (start, stop) blocks: one per CPU, at
    most one per `_BLOCK_FLOOR` of `values`, at least one."""
    k = max(1, min(n, _cpus(), values // _BLOCK_FLOOR))
    return [(n * i // k, n * (i + 1) // k) for i in range(k)]


class _Forks:
    """Forked children that do not outlive the `with` block.  A child runs
    one job and ends with `os._exit`, status 0 if the job returned, so it
    never returns into the caller's stack and flushes none of its buffers.
    Leaving the block kills the children not yet waited for and reaps them.
    """

    def __init__(self):
        self._pids = []

    def __enter__(self):
        return self

    def start(self, job) -> int:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                job()
                status = 0
            finally:
                os._exit(status)
        self._pids.append(pid)
        return pid

    def ok(self, pid: int) -> bool:
        """Wait for child `pid`: whether its job returned."""
        _, status = os.waitpid(pid, 0)
        self._pids.remove(pid)
        return status == 0

    def __exit__(self, *exc):
        for pid in self._pids:
            os.kill(pid, signal.SIGKILL)
        for pid in self._pids:
            os.waitpid(pid, 0)
        self._pids.clear()


def _exponent(m) -> bytes:
    return b"e" + (m[1] or b"+") + m[2].rjust(2, b"0")


def _e05(m) -> bytes:
    """`repr`'s e-05 notation for a token orjson prints as 0.0000d...; a
    match inside a longer token (10.00001) is left as it is."""
    if m.string[m.start() - 1] not in b"[,-":
        return m[0]
    return m[1] + (b"." + m[2] if m[2] else b"") + b"e-05"


def _format_rows(rows) -> bytes:
    """CSV lines of the float (rows, ncols) array `rows`, every value as
    its shortest round-trip `repr`."""
    import numpy as np
    import orjson
    text = orjson.dumps(rows, option=orjson.OPT_SERIALIZE_NUMPY)
    finite = np.isfinite(rows)
    if not finite.all():  # orjson writes nan, inf and -inf as null
        text = text.replace(b"null", b"%b") % tuple(
            repr(v).encode() for v in rows[~finite].tolist())
    # each pattern needs its literal, so a pass without it is skipped
    if b"e" in text:
        text = _EXPONENT.sub(_exponent, text)
    if b"0.0000" in text:
        text = _FIXED_E05.sub(_e05, text)
    return text[2:-2].replace(b"],[", b"\n") + b"\n"


def _write_rows(fh, grid: SectionGrid, start: int, stop: int):
    """Write time rows start..stop-1 of `grid` to binary `fh`: a time row
    of an `ode` grid is one CSV line, of a field grid one line per x node."""
    import numpy as np
    x = None if grid.kind == "ode" else np.asarray(grid.x, dtype=float)
    nx = 1 if x is None else len(x)
    t = np.asarray(grid.t, dtype=float)
    cols = [np.asarray(grid.fields[nm], dtype=float) for nm in grid.fields]
    step = max(1, _CHUNK_VALUES // (nx * (len(cols) + 1 + (x is not None))))
    for a in range(start, stop, step):
        b = min(a + step, stop)
        xs = [] if x is None else [np.tile(x, b - a)]
        fh.write(_format_rows(np.column_stack(
            [np.repeat(t[a:b], nx)] + xs + [c[a:b].ravel() for c in cols])))


def _fill_part(job, fh, start: int, stop: int):
    with fh:
        job(fh, start, stop)


def _in_blocks(blocks: list, job, out, **where):
    """Run `job(fh, start, stop)`, which writes the output of block
    (start, stop) to binary file `fh`, for every block of `blocks`, and
    gather the outputs into binary `out` in block order.

    Each block after the first goes to a forked child, which writes it to a
    part file of its own made by `tempfile.mkstemp(suffix=".part",
    **where)`; once a part file or a child cannot be had, no further child
    is started, and those already started run on.  The parent does block 0
    into `out` meanwhile, then, in block order, copies each finished part
    into `out` or does the block itself.  `out` may hold buffered bytes at
    the forks: a child ends with `os._exit` (`_Forks`) and never flushes
    them.  Every child is reaped, and every part removed, on every path.
    """
    parts, pids = [], []
    try:
        with _Forks() as forks:
            with contextlib.suppress(OSError):
                for block in blocks[1:]:
                    fd, part = tempfile.mkstemp(suffix=".part", **where)
                    parts.append(part)
                    with open(fd, "wb") as fh:
                        pids.append(forks.start(
                            functools.partial(_fill_part, job, fh, *block)))
            job(out, *blocks[0])
            for i, block in enumerate(blocks[1:]):
                if i < len(pids) and forks.ok(pids[i]):
                    # in the default 64 KiB pieces: 1 MiB pieces raised the
                    # peak of a later read by 9 MB (docs/conventions.md)
                    with open(parts[i], "rb") as fh:
                        shutil.copyfileobj(fh, out)
                else:
                    job(out, *block)
    finally:
        for part in parts:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(part)


def write_grid_csv(grid: SectionGrid, path: str):
    """Write every value as its shortest round-trip `repr`, one row per point.

    The preamble is written first, then the body's blocks go through
    `_in_blocks` into the grid, with part files made next to `path`.  Once
    `path` is open, a failure removes it.
    """
    nt = len(grid.t)
    header = (["x1"] if grid.kind == "ode" else ["x1", "x2"]) + list(grid.fields)
    nx = 1 if grid.kind == "ode" else len(grid.x)
    with open(path, "wb") as fh:
        try:
            preamble = [f"# hdw-forge grid v{SCHEMA_VERSION}"]
            preamble += [f"# {k} = {grid.meta[k]}"
                         for k in sorted(grid.meta) if k != "warnings"]
            fh.write("\n".join(preamble + [",".join(header), ""]).encode())
            _in_blocks(_block_bounds(nt, nt * nx * len(header)),
                       lambda out, a, b: _write_rows(out, grid, a, b), fh,
                       prefix=os.path.basename(path) + ".",
                       dir=os.path.dirname(path) or ".")
        except BaseException:
            os.unlink(path)
            raise


def _line_chunks(fh, size: int):
    """The next `size` bytes of binary `fh`, about `_CHUNK_BYTES` at a time,
    each piece cut after its last LF, or after its last CR where it holds no
    LF (a file with bare CR line ends).  A line longer than a read is joined
    from its reads once."""
    rest = []
    while size > 0:
        data = fh.read(min(size, _CHUNK_BYTES))
        if not data:
            break
        size -= len(data)
        cut = len(data) if size <= 0 else (data.rfind(b"\n") + 1 or data.rfind(b"\r") + 1)
        if cut:
            yield b"".join(rest + [data[:cut]])
            rest = []
        rest.append(data[cut:])
    rest = b"".join(rest)
    if rest:
        yield rest


def _parse_chunk(data: bytes):
    """The rows of CSV bytes `data`, whole lines, as a 2-d float array.

    orjson reads a chunk of plain numbers as one JSON array of rows, with
    the doubles `np.loadtxt` reads.  A chunk holding any other byte (words,
    spaces, comments, bare CR line ends) or a bare `-0`, or one orjson
    refuses (`.5`, `+1.0`, `1e400`, ragged rows), goes to `np.loadtxt`,
    which gives its doubles or its error.
    """
    import numpy as np
    import orjson
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    if not data.translate(None, _NUMBER_BYTES) and not _NEGATIVE_ZERO.search(data):
        try:
            return np.array(orjson.loads(
                b"[[" + data.rstrip(b"\n").replace(b"\n", b"],[") + b"]]"), dtype=float)
        except ValueError:
            pass
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a piece of comment lines has no data
        return np.loadtxt(io.StringIO(data.decode("utf-8"), newline=""),
                          delimiter=",", ndmin=2)


def _parse_block(path: str, start: int, stop: int, ncols: int, out):
    """Parse bytes start..stop of grid CSV `path`, whole lines of `ncols`
    numbers, and write the doubles of its rows to binary `out` as each
    chunk is parsed."""
    with open(path, "rb") as fh:
        fh.seek(start)
        for data in _line_chunks(fh, stop - start):
            rows = _parse_chunk(data)
            if rows.size and rows.shape[1] != ncols:
                raise ValueError(f"{rows.shape[1]} columns, not {ncols}")
            out.write(rows.tobytes())


def _read_body(path: str, start: int, ncols: int, first: int):
    """The rows of grid CSV `path` from byte `start`, a line start, to its
    end, as one (rows, ncols) float array.  `first` is the byte length of
    the first row, which sets the estimate of the values held.

    The doubles are gathered in block order by `_in_blocks` into one
    buffer, which the array then views.
    """
    import numpy as np
    size = os.path.getsize(path)
    cuts = [start]
    with open(path, "rb") as fh:
        for a, _ in _block_bounds(size - start, (size - start) * ncols // first)[1:]:
            fh.seek(start + a - 1)
            cuts.append(max(cuts[-1], start + a - 1 + len(fh.readline())))
    # a block holding no line start is merged with the one before it
    cuts = list(dict.fromkeys(cuts + [size]))
    out = io.BytesIO()
    _in_blocks(list(zip(cuts, cuts[1:])),
               lambda fh, a, b: _parse_block(path, a, b, ncols, fh), out,
               prefix=os.path.basename(path) + ".")
    return np.frombuffer(out.getbuffer()).reshape(-1, ncols)


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
    import numpy as np
    meta = {}
    header = None
    try:
        # lines keep their line ends, so `start` counts the bytes before the body
        with open(path, "r", encoding="utf-8", newline="") as fh:
            start = 0
            for line in fh:
                if line.startswith("#"):
                    if "=" in line:
                        k, v = line[1:].split("=", 1)
                        meta[k.strip()] = v.strip()
                elif line.rstrip("\r\n"):
                    if header is not None:
                        break
                    header = line.rstrip("\r\n").split(",")
                start += len(line.encode("utf-8"))
            else:
                raise ModelFileError(f"{path}: empty grid file")
        data = _read_body(path, start, len(header), len(line.encode("utf-8")))
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc}") from exc
    except ValueError:
        data = None
    if data is None or "x1" not in header:
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

def _hamiltonian_of(model: ModelFile, seed: int) -> HamiltonianModel:
    if model.hamiltonian is not None:
        return HamiltonianModel(model.chart, model.hamiltonian)
    res = legendre_maps(LagrangianModel(model.chart, model.lagrangian), seed=seed)
    return hamiltonian_from_lagrangian(res)


def _apply_injection(X: HdwField, path: str) -> HdwField:
    """A new extended field: `X` with coefficient entries replaced from a
    debug JSON file; F and G entries live on the restricted chart, g
    entries on the extended one.  `X` itself is unchanged."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            table = json.load(fh)
    except OSError as exc:
        raise ModelFileError(f"cannot read injection file {path}: {exc}") from exc
    except ValueError as exc:
        raise ModelFileError(f"{path}: injection file is not valid JSON: {exc}") from exc
    if not isinstance(table, dict):
        raise ModelFileError(f"{path}: injection file must hold a JSON object")
    injected = {"F": {}, "G": {}, "g": {}}
    for key, text in table.items():
        slot = read_slot(key, {"F": 2, "G": 3, "g": 1})
        if slot is None:
            raise ModelFileError(f"{path}: bad injection key {key!r}")
        name, idx = slot
        idx = idx[0] if name == "g" else idx
        if idx not in getattr(X, name):
            raise ModelFileError(f"{path}: injection key {key!r} names no coefficient "
                                 f"of an (m, n) = ({X.chart.m}, {X.chart.n}) chart")
        if not isinstance(text, str):
            raise ModelFileError(f"{path}: injection value of {key!r} is not a string")
        try:
            injected[name][idx] = parse_expression(text, X.chart, "M" if name == "g" else "J1")
        except ModelFileError as exc:
            raise ModelFileError(f"{path}: injection value of {key!r} at {exc}") from exc
    coords = X.chart.coords("J1")
    F, G, g = (HeldView(coords, {**getattr(X, name).held, **HeldTable(coords, values).held})
               for name, values in injected.items())
    return HdwField(X.kind, X.chart, F, G, g, X.gauge, X.f)


def _select_gauge(model: ModelFile, args) -> GaugeChoice:
    if args.gauge == "equal-split":
        return GaugeChoice()
    return model.gauge


def _add_rank_diagnostics(report: dict, model: ModelFile):
    sub = model.submanifold
    if sub is not None:
        try:
            dims = rank_diagnostics(model.chart, sub["embedding"], sub["h_P"],
                                    sub["samples"], params=sub["params"])
        except SampleDomainError as exc:
            raise ModelFileError(str(exc), sub["sample_lines"][exc.index]) from exc
        report["rank_diagnostics"] = {"kernel_dims": dims}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_derive(model: ModelFile, args) -> tuple[dict, int]:
    gauge = _select_gauge(model, args)
    ham = _hamiltonian_of(model, args.seed)
    Xe = derive_extended(ham, gauge)
    report = _base_report("derive", model, gauge)
    report["hamiltonian"] = _equation_entry(render_plain(ham.h), render_latex(ham.h))
    report["dof_count"] = dof_count(model.chart)
    report["equations"] = _field_equations(Xe)
    return report, 0


def cmd_check(model: ModelFile, args) -> tuple[dict, int]:
    gauge = _select_gauge(model, args)
    report = _base_report("check", model, gauge)
    failed = False
    try:
        ham = _hamiltonian_of(model, args.seed)
    except RegularityError as exc:
        if model.submanifold is None:
            raise
        # no induced Hamiltonian; the rank diagnostics still apply
        report["checks"] = []
        report["note"] = str(exc)
    else:
        Xe = None
        if args.debug_inject:
            Xe = _apply_injection(derive_extended(ham, gauge), args.debug_inject)
        checks = []
        for name, (ok, detail) in standard_checks(ham, gauge, Xe=Xe, seed=args.seed).items():
            diagnostic = "diagnostic" in name
            checks.append({"name": name, "passed": bool(ok),
                           "diagnostic": diagnostic, "detail": detail})
            failed |= not ok and not diagnostic
        report["checks"] = checks
    _add_rank_diagnostics(report, model)
    return report, (1 if failed else 0)


def cmd_legendre(model: ModelFile, args) -> tuple[dict, int]:
    if model.lagrangian is None:
        raise ModelFileError("legendre command needs a [lagrangian] model")
    gauge = _select_gauge(model, args)
    lag = LagrangianModel(model.chart, model.lagrangian)
    res = legendre_maps(lag, seed=args.seed)
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
        elim = hdw_momentum_elimination(res)
        ok = all(is_structurally_zero(a - b, args.seed)[0] for a, b in zip(el, elim))
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
    import numpy as np
    if model.solve is None:
        raise ModelFileError("model has no [solve] section")
    run_block = dict(model.solve)
    if args.dt is not None:
        run_block["dt"] = float(args.dt)
    if args.grid is not None:
        run_block["points"] = int(args.grid)
    problem = solve_problem(run_block, model.chart)
    if problem is not None:
        key, bound = problem
        if key == "dt" and args.dt is None:
            # the model's dt passed when read: --grid broke the stored-value bound
            key, bound = "points", bound.replace("large enough", "small enough", 1)
        flag = {"dt": "--dt", "points": "--grid"}.get(key, key)
        raise ModelFileError(f"{flag} must be {bound}, got {run_block[key]!r}")
    gauge = _select_gauge(model, args)
    ham = _hamiltonian_of(model, args.seed)
    report = _base_report("solve", model, gauge)
    chart = model.chart

    if run_block["kind"] == "ode":
        extended = run_block.get("extended", False)
        X = (derive_extended if extended else derive_restricted)(ham, gauge)
        init = {k: float(v) for k, v in run_block["init"].items()}
        if extended:
            # start on the zero level set of the total Hamiltonian
            init["pe"] = -evaluate(ham.h, {"x1": run_block["t0"], **init})
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
                np.asarray(sp.lambdify([xsym], e, [np])(x), dtype=float),
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
    metrics = report["metrics"]
    values = {f"final {nm}": v for nm, v in metrics.get("final", {}).items()}
    values.update((k, metrics[k]) for k in ("energy_drift_rel", "H_drift", "trajectory_residual")
                  if k in metrics)
    for name, value in values.items():
        if not math.isfinite(value):
            # the states stayed finite, but the run is no solution: refuse it
            # before a grid or a report, which strict JSON could not hold
            raise SolverAbortError(f"{name} is {value}, not finite: the run blew up", None)
    report["scheme"] = grid.meta["scheme"]
    return report, grid, ham


def cmd_solve(model: ModelFile, args) -> tuple[dict, int]:
    report, grid, _ = _run_solve(model, args)
    csv_path = os.path.join(args.out, f"{_stem(model, args)}.grid.csv")
    try:
        os.makedirs(args.out, exist_ok=True)
        write_grid_csv(grid, csv_path)
    except OSError as exc:
        raise _cannot_write(csv_path, exc) from exc
    report["outputs"] = {"grid_csv": csv_path}
    return report, 0


def cmd_compare(model: ModelFile, args) -> tuple[dict, int]:
    report, grid, _ = _run_solve(model, args)
    ref = read_grid_csv(args.against)
    disc = max_discrepancy(grid, ref)
    if not math.isfinite(disc):
        raise ModelFileError(f"{args.against}: max_discrepancy is {disc}, not finite: "
                             "the grid holds a nan or an infinity")
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
        _emit(report, args.out, _stem(model, args), args.format)
    except HdwForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
