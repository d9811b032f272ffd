"""Symbolic scalar layer: simplification, differentiation, evaluation.

Expressions are plain sympy expressions over chart coordinate symbols, with
exact rational literals throughout the symbolic pipeline; floats only appear
at evaluation time.  `simplify` fixes a canonical form that makes zero-testing
a structural check for the rational-function fragment; transcendental
identities fall back to seeded numeric sampling (see `is_structurally_zero`).

Canonical form.  `to_ring` holds sums and products of symbols, rationals
and sin, cos and exp atoms of polynomials, under non-negative integer
powers, in QQ[frame, atoms] (`to_poly` is its atom-free step); `ring_expr`
reads an element back as its expanded `Expr`.  `simplify` canonicalizes
whatever `to_ring` accepts over the expression's free symbols this way, and
only the rest (Floats, constants, denominators, log, dependent atoms)
through `sp.expand` / `sp.cancel`: one algorithm for one fragment, shared
with the `forms` coefficients.  `unify` lifts ring elements into the ring
over the union of their atoms, `ring_widen` into a frame with coordinates
appended, and `ring_diff` differentiates by the chain rule.  No relation
such as cos(u)^2 + sin(u)^2 = 1 is imposed, so the ring decides zero and
prints each element exactly as `sp.expand` does.
"""

from __future__ import annotations

import functools
import math
import operator
import random

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.rings import PolyElement, PolyRing

from .coords import CoordId, respelled
from .errors import EvaluationDomainError, IncompleteAssignmentError

Expr = sp.Expr

_TRANSCENDENTAL = (sp.sin, sp.cos, sp.exp, sp.log)


def _as_symbol(wrt) -> sp.Symbol:
    """A key as a symbol: a `CoordId`'s, a name's by the coordinate grammar,
    and a `Symbol` as it is (formal symbols and parameters are no
    coordinates), unless its name reads as another spelling of one
    (`coords.respelled`), which raises as that name does."""
    if isinstance(wrt, CoordId):
        return wrt.symbol
    if isinstance(wrt, sp.Symbol):
        if not respelled(wrt.name):
            return wrt
        wrt = wrt.name
    return CoordId.from_name(str(wrt)).symbol


@functools.lru_cache(maxsize=256)
def _ring(ngens: int, atoms: tuple = ()) -> PolyRing:
    """QQ[_0, ..., _{ngens-1}, *atoms]; without atoms, shared by every frame
    of that size.

    Keying on the size, not the symbols, keeps the number of rings (each
    costs milliseconds to build) small when frames vary per expression.  An
    element carries no frame: whoever holds it also holds its frame.  The
    atom generators (`to_ring`) follow the frame's and are their own
    symbols, so `poly.ring.symbols[len(frame):]` are the atoms.
    """
    return PolyRing([sp.Symbol(f"_{i}") for i in range(ngens)] + list(atoms), QQ)


class _OffFragment(Exception):
    pass


def _rebuild(e, ring, index):
    if e.is_Symbol or e.is_Function:
        try:
            return index[e]
        except KeyError:
            raise _OffFragment from None
    if e.is_Rational:           # Integer or Rational; a Float is not
        return ring.ground_new(QQ(e.p, e.q))
    if e.is_Add:
        return functools.reduce(operator.add, [_rebuild(arg, ring, index) for arg in e.args])
    if e.is_Mul:
        # sympy puts a rational coefficient first: it scales the product of
        # the other factors, so no ring product is by a constant or by +-1
        c, factors = (e.args[0], e.args[1:]) if e.args[0].is_Rational else (1, e.args)
        out = functools.reduce(operator.mul, [_rebuild(arg, ring, index) for arg in factors])
        if c == 1 or c == -1:
            return out if c == 1 else -out
        return out.mul_ground(QQ(c.p, c.q))
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
    ring = _ring(len(gens), ())
    index = dict(zip(gens, ring.gens))
    try:
        return _rebuild(e, ring, index)
    except _OffFragment:
        return None


# ---------------------------------------------------------------------------
# Transcendental atoms
# ---------------------------------------------------------------------------
#
# An atom is sin(u), cos(u) or exp(u) with u a non-constant expanded
# polynomial of the frame.  `to_ring` holds an expression polynomial in the
# frame and such atoms in QQ[frame, generators], where
#
#   * sin(u) and cos(u) are both generators when either occurs, so that the
#     chain rule stays in the ring;
#   * exp(c*t), with c rational and t a monomial, is the k-th power of the
#     generator exp(s*t), s the signed rational gcd of every c seen with
#     that t.  sympy merges exp(a*t)*exp(b*t) into exp((a+b)*t) on its own,
#     so this keeps the ring's products equal to sympy's.  exp(t) next to
#     exp(-t) (sympy's product is 1) and exp of a sum (which `sp.expand`
#     splits) stay off the ring.

_ATOMS = (sp.sin, sp.cos, sp.exp)


def _atom_images(atoms, coords):
    """{atom: (generator, power)} for `atoms` and the partners of its sin and
    cos atoms, or None when one of them is off the fragment."""
    images = {}
    exps = {}
    for atom in atoms:
        u = atom.args[0]
        poly = to_poly(u, coords)
        if poly is None or poly.is_ground or poly.as_expr(*coords) != u:
            return None
        if isinstance(atom, sp.exp):
            c, t = u.as_coeff_Mul()
            if t.is_Add:
                return None
            exps.setdefault(t, []).append((c, atom))
            continue
        for partner in (sp.sin(u), sp.cos(u)):
            images[partner] = (partner, 1)
    for t, pairs in exps.items():
        cs = [c for c, _ in pairs]
        if min(cs) < 0 < max(cs):
            return None
        step = sp.Rational(math.gcd(*(c.p for c in cs)), math.lcm(*(c.q for c in cs)))
        step = step if cs[0] > 0 else -step
        gen = sp.exp(step * t)
        images.update((atom, (gen, int(c / step))) for c, atom in pairs)
    return images


@functools.lru_cache(maxsize=1024)
def _atom_frame(atoms: frozenset, coords: tuple):
    """(ring, index) for expressions in `coords` and `atoms`: the ring over
    the atoms' generators and a map from each coordinate and atom to its
    ring element; None when an atom is off the fragment."""
    images = _atom_images(atoms, coords)
    if images is None:
        return None
    gens = tuple(sorted({g for g, _ in images.values()}, key=sp.default_sort_key))
    ring = _ring(len(coords), gens)
    of = dict(zip(ring.symbols, ring.gens))
    index = dict(zip(coords, ring.gens))
    index.update((atom, of[g] ** k) for atom, (g, k) in images.items())
    return ring, index


def to_ring(e, coords):
    """`e` as an element of QQ[coords, atoms], or None off that fragment.

    On the polynomial fragment this is `to_poly(e, coords)`.  Convert back
    with `ring_expr`.
    """
    e = sp.sympify(e)
    coords = tuple(coords)
    poly = to_poly(e, coords)
    if poly is not None or not e.is_commutative:
        return poly
    atoms = frozenset(e.atoms(*_ATOMS))
    frame = _atom_frame(atoms, coords) if atoms else None
    if frame is None:
        return None
    try:
        return _rebuild(e, *frame)
    except _OffFragment:
        return None


def ring_expr(poly, coords):
    """The expanded `Expr` of an element of `to_ring`'s rings."""
    return poly.as_expr(*coords, *poly.ring.symbols[len(coords):])


def ring_widen(c, coords, wider):
    """`c` over `coords` taken into `wider`, a frame that appends coordinates
    to `coords`: an element of `to_ring`'s rings gains a zero exponent for
    each in every monomial, and an `Expr` that names an appended coordinate
    is held over `wider` when `to_ring` accepts it there; any other value
    is returned as it is."""
    n, zeros = len(coords), (0,) * (len(wider) - len(coords))
    if not isinstance(c, PolyElement):
        poly = None if c.free_symbols.isdisjoint(wider[n:]) else to_ring(c, wider)
        return c if poly is None else poly
    if not zeros:
        return c
    ring = _ring(len(wider), tuple(c.ring.symbols[n:]))
    return ring.dtype({m[:n] + zeros + m[n:]: v for m, v in c.items()})


def _names(coords) -> tuple:
    """The cache key of a frame: its coordinates' names, which a lookup
    compares as strings, where equal symbols that are not the same object
    would be compared as sympy trees."""
    return tuple(s.name for s in coords)


def _frame(names: tuple, atoms) -> tuple:
    """The frame named `names`: a coordinate that occurs in `atoms` is that
    atom's own symbol, any other a `Symbol` of its name, which no atom
    holds.  Atoms are polynomials in the frame they were held over, so what
    is computed from them over this frame is what that frame gives."""
    found = {s.name: s for atom in atoms for s in atom.free_symbols}
    return tuple(found.get(name) or sp.Symbol(name) for name in names)


@functools.lru_cache(maxsize=1024)
def _lifts(rings: tuple, names: tuple):
    """{ring: lift} taking the elements of each ring into the ring over the
    union of their atoms, over the frame named `names`; None when those
    atoms depend on each other."""
    n = len(names)
    atoms = frozenset(a for ring in rings for a in ring.symbols[n:])
    frame = _atom_frame(atoms, _frame(names, atoms))
    if frame is None:
        return None
    target, index = frame

    def lifter(ring):
        # generator i goes to generator j to the power k
        moves = [(i, i, 1) for i in range(n)]
        for i, atom in enumerate(ring.symbols[n:], n):
            (monom,) = index[atom].keys()
            j = next(j for j, k in enumerate(monom) if k)
            moves.append((i, j, monom[j]))

        def lift(poly):
            out = {}
            for monom, coeff in poly.items():
                new = [0] * target.ngens
                for i, j, k in moves:
                    new[j] += monom[i] * k
                out[tuple(new)] = coeff
            return target.dtype(out)
        return lift

    return {ring: lifter(ring) for ring in rings}


def unify(polys, coords):
    """Elements of `to_ring`'s rings, lifted into the one ring over the union
    of their atoms; None when those atoms depend on each other.  Elements
    of one ring are returned as they are."""
    first = polys[0].ring
    if all(p.ring is first for p in polys):
        return polys
    rings = tuple(dict.fromkeys(p.ring for p in polys))
    if len(rings) == 1:   # equal rings built apart
        return polys
    lifts = _lifts(rings, _names(coords))
    return None if lifts is None else [lifts[p.ring](p) for p in polys]


@functools.lru_cache(maxsize=1024)
def _chain(ring, names: tuple, idx: int):
    """[(generator position, its derivative along coordinate idx)] for the
    atom generators of `ring`, over the frame named `names`, that depend on
    that coordinate."""
    n = len(names)
    coords = _frame(names, ring.symbols[n:])
    of = dict(zip(ring.symbols, ring.gens))
    index = dict(zip(coords, ring.gens))
    out = []
    for j, atom in enumerate(ring.symbols[n:], n):
        u = atom.args[0]
        du = _rebuild(sp.diff(u, coords[idx]), ring, index)
        if not du:
            continue
        if atom.func is sp.exp:
            out.append((j, of[atom] * du))
        elif atom.func is sp.sin:
            out.append((j, of[sp.cos(u)] * du))
        else:
            out.append((j, -of[sp.sin(u)] * du))
    return out


def ring_diff(poly, idx, coords):
    """Derivative of an element of `to_ring`'s rings along coords[idx], by
    the chain rule: D sin u = cos u Du, D cos u = -sin u Du,
    D exp u = exp u Du.  A ring without atoms has no chain to follow."""
    ring = poly.ring
    out = poly.diff(idx)  # by position: naming the generator costs a search
    if ring.ngens == len(coords):
        return out
    for j, factor in _chain(ring, _names(coords), idx):
        out += poly.diff(j) * factor
    return out


def simplify(e) -> Expr:
    """Canonicalize: expanded numerator over a common denominator.

    Idempotent; a rational expression simplifies to 0 iff it is identically
    zero.  What `to_ring` accepts over the free symbols of `e` is read back
    from its ring element; anything else is expanded, and cancelled when a
    term has a denominator and no transcendental function occurs.
    """
    e = sp.sympify(e)
    gens = tuple(sorted(e.free_symbols, key=str))
    poly = to_ring(e, gens)
    if poly is not None:
        return ring_expr(poly, gens)
    return simplify_off_ring(e)


def simplify_off_ring(e) -> Expr:
    """`simplify` of an expression that `to_ring` rejects over a frame
    holding its free symbols (so over those symbols too), without trying
    the ring again: expanded, and cancelled when a term has a denominator
    and no transcendental function occurs."""
    e = sp.expand(e)
    if has_transcendental(e):
        return e
    # per term: y/(y+1) + 1/(y+1) has no denominator once put `together`
    if any(sp.fraction(term)[1] != 1 for term in sp.Add.make_args(e)):
        e = sp.expand(sp.cancel(e))
    return e


def exact(e) -> Expr:
    """`e` with each Float held as the Rational of its repr, as a decimal parses."""
    e = sp.sympify(e)
    return e.xreplace({f: sp.Rational(repr(float(f))) for f in e.atoms(sp.Float)})


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


# a zero verdict by sampling needs this many points at which the expression
# evaluates; boxes of both signs and these widths are sampled until it has
_MIN_POINTS = 5
_WIDER = (20.0, 200.0, 2000.0)
_SAMPLES = 20
_TOL = 1e-10


def _point(syms, rng, width=None):
    """A point in the box [0.1, 2.0], or with `width` in [-width, -0.1] u
    [0.1, width] in every coordinate."""
    if width is None:
        return {t: rng.uniform(0.1, 2.0) for t in syms}
    return {t: rng.choice((-1, 1)) * rng.uniform(0.1, width) for t in syms}


def is_structurally_zero(e, seed: int = 0):
    """Zero test: structural for rational expressions, sampled otherwise.

    A sample counts as zero when its value is within `_TOL` times the sum of
    the absolute values of the terms of the expanded expression there, so a
    small coefficient cannot pass for zero.  `_SAMPLES` points are drawn
    with `random.Random(seed)` in the box [0.1, 2.0]; while fewer than
    `_MIN_POINTS` of the points drawn so far evaluate, `_SAMPLES` more are
    drawn from each of the boxes [-w, -0.1] u [0.1, w], w = 20, 200, 2000, in
    turn.  The expression is zero when no point is nonzero and at least
    `_MIN_POINTS` evaluated: an unevaluated value is no evidence.  Returns
    (verdict, method) with method in {"structural", "numeric"}.
    """
    s = simplify(e)
    if s == 0:
        return True, "structural"
    if not has_transcendental(s):
        return False, "structural"
    rng = random.Random(seed)
    syms = sorted(s.free_symbols, key=lambda t: t.name)
    terms = sp.Add.make_args(s)
    evaluated = 0
    for width in (None,) + _WIDER:
        if evaluated >= _MIN_POINTS:
            break
        for _ in range(_SAMPLES):
            point = _point(syms, rng, width)
            try:
                values = [evaluate(term, point) for term in terms]
            except EvaluationDomainError:
                continue
            if abs(math.fsum(values)) > _TOL * sum(map(abs, values)):
                return False, "numeric"
            evaluated += 1
    return evaluated >= _MIN_POINTS, "numeric"
