"""Symbolic scalar layer: simplification, differentiation, evaluation.

Expressions are plain sympy expressions over chart coordinate symbols, with
exact rational literals throughout the symbolic pipeline; floats only appear
at evaluation time.  `simplify` fixes a canonical form that makes zero-testing
a structural check for the rational-function fragment; transcendental
identities fall back to numeric sampling (see `is_structurally_zero`).

Canonical form.  The polynomial fragment -- sums and products of symbols and
Integer/Rational numbers, raised only to non-negative integer powers, with no
function, no constant such as pi and no Float -- is canonicalized exactly in
the polynomial ring QQ[frame] (`to_poly`) and converted back to its expanded
`Expr`.  Every other input (Float, constant, transcendental, denominator, or
a symbol outside the given frame) takes the `sp.expand` / `sp.cancel` path.
Both paths give the same `Expr` on the fragment, so the choice is invisible
to callers.
"""

from __future__ import annotations

import functools
import math
import random

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.rings import PolyRing

from .coords import CoordId
from .errors import EvaluationDomainError, IncompleteAssignmentError

Expr = sp.Expr

_TRANSCENDENTAL = (sp.sin, sp.cos, sp.exp, sp.log)


def _as_symbol(wrt) -> sp.Symbol:
    if isinstance(wrt, CoordId):
        return wrt.symbol
    if isinstance(wrt, sp.Symbol):
        return wrt
    return CoordId.from_name(str(wrt)).symbol


@functools.lru_cache(maxsize=32)
def _ring(ngens: int) -> PolyRing:
    """QQ[_0, ..., _{ngens-1}], shared by every frame of that size.

    Keying on the size, not the symbols, keeps the number of rings (each
    costs milliseconds to build) small when frames vary per expression.  An
    element carries no frame: whoever holds it also holds its frame.
    """
    return PolyRing([f"_{i}" for i in range(ngens)], QQ)


class _OffFragment(Exception):
    pass


def _rebuild(e, ring, index):
    if e.is_Symbol:
        try:
            return index[e]
        except KeyError:
            raise _OffFragment from None
    if e.is_Rational:           # Integer or Rational; a Float is not
        return ring.ground_new(QQ(e.p, e.q))
    if e.is_Add:
        out = ring.zero
        for arg in e.args:
            out += _rebuild(arg, ring, index)
        return out
    if e.is_Mul:
        out = ring.one
        for arg in e.args:
            out *= _rebuild(arg, ring, index)
        return out
    if e.is_Pow and e.exp.is_Integer and e.exp.p >= 0:
        return _rebuild(e.base, ring, index) ** int(e.exp)
    raise _OffFragment


def to_poly(e, gens):
    """`e` as an element of QQ[gens], or None off the polynomial fragment.

    Floats are rejected rather than rationalized, so `0.5*x` stays on the
    Expr path, and so are non-commuting symbols.  Convert back with
    `poly.as_expr(*gens)`.
    """
    e = sp.sympify(e)
    if not e.is_commutative:
        return None
    ring = _ring(len(gens))
    index = dict(zip(gens, ring.gens))
    try:
        return _rebuild(e, ring, index)
    except _OffFragment:
        return None


def simplify(e) -> Expr:
    """Canonicalize: expanded numerator over a common denominator.

    Idempotent, and a rational expression simplifies to the literal 0 iff it
    is identically zero.  On the polynomial fragment the result is the exact
    canonical form in QQ[free symbols of e]; `together`/`cancel` run only off
    it.  Expressions containing transcendental functions are only expanded
    (full zero-recognition is limited to the rational fragment; identity
    checks on transcendental expressions fall back to numeric sampling, see
    `is_structurally_zero`).
    """
    e = sp.sympify(e)
    gens = tuple(e.free_symbols)
    poly = to_poly(e, gens)
    if poly is not None:
        return poly.as_expr(*gens)
    e = sp.expand(e)
    if has_transcendental(e):
        return e
    num, den = sp.fraction(sp.together(e))
    if den != 1:
        e = sp.expand(sp.cancel(e))
    return e


def differentiate(e, wrt, chart=None) -> Expr:
    """Partial derivative treating all other coordinates as independent."""
    s = _as_symbol(wrt)
    if chart is not None:
        chart.resolve(s)
    return simplify(sp.diff(sp.sympify(e), s))


@functools.lru_cache(maxsize=512)
def _compiled(e: Expr):
    """Compile an expression to a float-valued callable (cached)."""
    args = tuple(sorted(e.free_symbols, key=lambda s: s.name))
    return args, sp.lambdify(args, e, "math")


def evaluate(e, assignment) -> float:
    """IEEE-double evaluation with a full variable assignment."""
    e = sp.sympify(e)
    subs = {_as_symbol(k): float(v) for k, v in assignment.items()}
    missing = sorted((s for s in e.free_symbols if s not in subs),
                     key=lambda s: s.name)
    if missing:
        names = ", ".join(s.name for s in missing)
        raise IncompleteAssignmentError(
            f"assignment missing variables: {names}", missing)
    args, fn = _compiled(e)
    try:
        val = fn(*(subs[s] for s in args))
        val_c = complex(val)
    except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
        raise EvaluationDomainError(
            f"cannot evaluate {sp.srepr(e)[:80]}: {exc}", e) from exc
    if not math.isfinite(val_c.real) or abs(val_c.imag) > 1e-12 * (1 + abs(val_c.real)):
        raise EvaluationDomainError(
            f"non-finite or non-real result {val} while evaluating", e)
    return float(val_c.real)


def fd_check(e, wrt, point, step: float = 1e-6):
    """Compare the symbolic derivative against a central difference.

    Returns (symbolic, numeric, relerr); relerr uses max(1, |symbolic|) in
    the denominator.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    s = _as_symbol(wrt)
    sym_val = evaluate(differentiate(e, s), point)
    hi = dict(point)
    lo = dict(point)
    for key in point:
        if _as_symbol(key) == s:
            hi[key] = float(point[key]) + step
            lo[key] = float(point[key]) - step
    num_val = (evaluate(e, hi) - evaluate(e, lo)) / (2.0 * step)
    relerr = abs(sym_val - num_val) / max(1.0, abs(sym_val))
    return sym_val, num_val, relerr


def has_transcendental(e) -> bool:
    e = sp.sympify(e)
    return any(e.has(f) for f in _TRANSCENDENTAL)


def is_structurally_zero(e, seed: int = 0, samples: int = 20, tol: float = 1e-10):
    """Zero test: structural for rational expressions, sampled otherwise.

    A sample counts as zero when its value is within `tol` times the sum of
    the absolute values of the terms of the expanded expression there, so a
    small coefficient cannot pass for zero.  An expression that evaluates at
    none of the sample points is reported as not zero: an unevaluated value
    is no evidence.  Returns (verdict, method) with method in
    {"structural", "numeric"}.
    """
    e = sp.sympify(e)
    s = simplify(e)
    if s == 0:
        return True, "structural"
    if not has_transcendental(s):
        return False, "structural"
    rng = random.Random(seed)
    syms = sorted(s.free_symbols, key=lambda t: t.name)
    terms = sp.Add.make_args(s)
    evaluated = False
    for _ in range(samples):
        point = {t: rng.uniform(0.1, 2.0) for t in syms}
        try:
            values = [evaluate(term, point) for term in terms]
        except EvaluationDomainError:
            continue
        if abs(math.fsum(values)) > tol * sum(map(abs, values)):
            return False, "numeric"
        evaluated = True
    return evaluated, "numeric"
