"""Coordinate identities and bundle charts.

A chart is a single global coordinate system for one of the bundles in the
tower E -> M, its restricted momentum space, and its extended momentum space
(one extra scalar coordinate).  The Lagrangian-side chart carries velocity
coordinates instead of momenta.  Everything downstream (forms, field
derivations, solvers) works over the ordered coordinate tuples defined here.

Naming convention, shared with the expression grammar and `read_slot`; an
index is [1-9][0-9]*, so a name has one spelling, the one `CoordId` prints:

    x1..xm        base coordinates
    y1..yn        fiber coordinates
    pA_nu         momentum conjugate to y^A along x^nu
    pe            the extended scalar momentum coordinate
    vA_nu         velocity of y^A along x^nu
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import sympy as sp

from .errors import ChartMismatchError, WrongBundleError

_ROLES = ("x", "y", "p", "pe", "v")

_INDEX = "([1-9][0-9]*)"
_NAME_RE = re.compile(rf"x{_INDEX}|y{_INDEX}|p{_INDEX}_{_INDEX}|pe|v{_INDEX}_{_INDEX}")
_ANY_INDEX = r"(\d+)"
_SPELLING_RE = re.compile(
    rf"x{_ANY_INDEX}|y{_ANY_INDEX}|p{_ANY_INDEX}_{_ANY_INDEX}|v{_ANY_INDEX}_{_ANY_INDEX}")


@functools.lru_cache(maxsize=4096)
def respelled(name: str) -> bool:
    """True when `name` is no coordinate name but reads as one spelled
    another way: each index a number from 1 up, written with a leading
    zero or other digits, as `y01` reads as `y1`."""
    m = _SPELLING_RE.fullmatch(name)
    return (m is not None and _NAME_RE.fullmatch(name) is None
            and all(int(i) >= 1 for i in m.groups() if i is not None))


def read_slot(key: str, arity: dict):
    """(head, indices) of a key `head[i][j]...` with `arity[head]` indices, or None."""
    m = re.fullmatch(rf"(\w+)((?:\[{_INDEX}\])+)", key)
    indices = tuple(map(int, m[2][1:-1].split("]["))) if m else ()
    return (m[1], indices) if m and len(indices) == arity.get(m[1]) else None


@dataclass(frozen=True, order=True)
class CoordId:
    """One coordinate of a bundle chart: role plus index pair.

    `a` is the fiber index (1..n, roles y/p/v); `nu` the base index
    (1..m, roles x/p/v).  Unused indices are 0.
    """

    role: str
    a: int = 0
    nu: int = 0

    def __post_init__(self):
        if self.role not in _ROLES:
            raise ChartMismatchError(f"unknown coordinate role {self.role!r}")
        need_a = self.role in ("y", "p", "v")
        need_nu = self.role in ("x", "p", "v")
        if need_a != (self.a > 0) or need_nu != (self.nu > 0):
            raise ChartMismatchError(
                f"bad indices (a={self.a}, nu={self.nu}) for role {self.role!r}"
            )

    @property
    def name(self) -> str:
        if self.role == "x":
            return f"x{self.nu}"
        if self.role == "y":
            return f"y{self.a}"
        if self.role == "p":
            return f"p{self.a}_{self.nu}"
        if self.role == "v":
            return f"v{self.a}_{self.nu}"
        return "pe"

    @classmethod
    def from_name(cls, name: str) -> "CoordId":
        m = _NAME_RE.fullmatch(name)
        if m is None:
            raise ChartMismatchError(f"{name!r} is not a coordinate name")
        if name == "pe":
            return cls("pe")
        if name[0] == "x":
            return cls("x", nu=int(m.group(1)))
        if name[0] == "y":
            return cls("y", a=int(m.group(2)))
        if name[0] == "p":
            return cls("p", a=int(m.group(3)), nu=int(m.group(4)))
        return cls("v", a=int(m.group(5)), nu=int(m.group(6)))

    @property
    def symbol(self) -> sp.Symbol:
        return sp.Symbol(self.name)


@functools.lru_cache(maxsize=None)
def _chart_levels(m: int, n: int):
    """({level: CoordIds}, {level: symbols}) of the (m, n) chart, built once:
    every chart of that size shares each level's tuples and symbols, so the
    frames of two such charts are one tuple."""
    base = tuple(CoordId("x", nu=nu) for nu in range(1, m + 1))
    fiber = tuple(CoordId("y", a=a) for a in range(1, n + 1))
    slots = [(a, nu) for a in range(1, n + 1) for nu in range(1, m + 1)]
    momenta = tuple(CoordId("p", a=a, nu=nu) for a, nu in slots)
    velocities = tuple(CoordId("v", a=a, nu=nu) for a, nu in slots)
    levels = {"E": base + fiber, "J1": base + fiber + momenta,
              "M": base + fiber + momenta + (CoordId("pe"),), "L": base + fiber + velocities}
    return levels, {level: tuple(c.symbol for c in ids) for level, ids in levels.items()}


class BundleChart:
    """Chart data for base dimension m and fiber dimension n.

    Levels:
        "E"  : (x, y)                      m + n coordinates
        "J1" : (x, y, p)                   m + n + n*m
        "M"  : (x, y, p, pe)               m + n + n*m + 1
        "L"  : (x, y, v)                   m + n + n*m (velocity side)
    """

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise ChartMismatchError("need m >= 1 and n >= 1")
        self.m = m
        self.n = n
        self._levels, self._coords = _chart_levels(m, n)

    def ids(self, level: str) -> tuple[CoordId, ...]:
        try:
            return self._levels[level]
        except KeyError:
            raise ChartMismatchError(f"unknown bundle level {level!r}") from None

    def coords(self, level: str) -> tuple[sp.Symbol, ...]:
        self.ids(level)  # an unknown level raises ChartMismatchError
        return self._coords[level]

    # convenience symbols
    def x(self, nu: int) -> sp.Symbol:
        return CoordId("x", nu=nu).symbol

    def y(self, a: int) -> sp.Symbol:
        return CoordId("y", a=a).symbol

    def p(self, a: int, nu: int) -> sp.Symbol:
        return CoordId("p", a=a, nu=nu).symbol

    def v(self, a: int, nu: int) -> sp.Symbol:
        return CoordId("v", a=a, nu=nu).symbol

    @property
    def pe(self) -> sp.Symbol:
        return self._coords["M"][-1]

    def coord_names(self, level: str) -> tuple[str, ...]:
        return tuple(c.name for c in self.ids(level))

    def resolve(self, name_or_id) -> sp.Symbol:
        """Map a name, CoordId, or Symbol to the chart symbol, validating it."""
        cid = (name_or_id if isinstance(name_or_id, CoordId)
               else CoordId.from_name(str(name_or_id)))
        if cid not in self._levels["M"] and cid not in self._levels["L"]:
            raise ChartMismatchError(
                f"coordinate {cid.name} out of range for chart (m={self.m}, n={self.n})"
            )
        return cid.symbol

    def validate_on(self, expr: sp.Expr, level: str) -> sp.Expr:
        """Check that every free symbol of `expr` belongs to `level`."""
        allowed = set(self.coords(level))
        offending = sorted(
            (s for s in sp.sympify(expr).free_symbols if s not in allowed),
            key=lambda s: s.name,
        )
        if offending:
            names = ", ".join(s.name for s in offending)
            raise WrongBundleError(
                f"expression uses coordinates outside level {level!r}: {names}",
                offending,
            )
        return sp.sympify(expr)
