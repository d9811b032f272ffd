"""Seeded input generators for the benchmark, frozen here on purpose.

The polynomial Hamiltonian and gauge generators are copies of the ones in
tests/conftest.py; they live here so that an edit to the test fixtures can
never change what a benchmark workload runs.

Each check-matrix input draws from two streams.  The shape stream is seeded
by the input's slot in the run alone: it picks which terms, coordinates and
gauge slots appear, and so sets how much work the input is.  The coefficient
stream is seeded by the run's --seed and the slot: it picks every rational
coefficient.  Different seeds therefore give different inputs of the same
size, which keeps op times comparable from seed to seed.  Without a
`coeff_rng` the copied generators draw everything from `rng`, exactly as the
test fixtures do.
"""

from __future__ import annotations

import random

import sympy as sp

from hdw_forge import BundleChart, GaugeChoice

# (m, n) charts of the check-matrix workload, in the order one round runs them
CHARTS = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2))

# kind of each op in round 0; round r rotates this pattern by 3*r places so
# that every chart meets every kind over the rounds of a run
KINDS = ("poly", "poly", "trans", "poly", "lag", "poly", "trans", "poly")


def random_polynomial_h(chart, rng, n_terms=5, p_degree=3, y_degree=2,
                        coeff_rng=None):
    """Random polynomial Hamiltonian: degree <= 3 in p, <= 2 in y,
    coefficients possibly base-coordinate dependent."""
    crng = coeff_rng or rng
    terms = []
    for _ in range(n_terms):
        coeff = sp.Rational(crng.randint(-4, 4), crng.randint(1, 3))
        if coeff == 0:
            coeff = sp.Integer(1)
        mon = coeff
        if rng.random() < 0.4:
            mon *= chart.x(rng.randint(1, chart.m)) ** rng.randint(1, 2)
        for _ in range(rng.randint(0, p_degree)):
            mon *= chart.p(rng.randint(1, chart.n), rng.randint(1, chart.m))
        for _ in range(rng.randint(0, y_degree)):
            mon *= chart.y(rng.randint(1, chart.n))
        terms.append(mon)
    return sp.Add(*terms)


def random_gauge(chart, rng, density=0.5, coeff_rng=None):
    """Random gauge table filling a random subset of the free slots."""
    off = {}
    red = {}
    for a in range(1, chart.n + 1):
        for rho in range(1, chart.m + 1):
            for nu in range(1, chart.m + 1):
                if rho != nu and rng.random() < density:
                    off[(a, rho, nu)] = random_polynomial_h(
                        chart, rng, n_terms=2, p_degree=1, y_degree=1,
                        coeff_rng=coeff_rng)
        for nu in range(1, chart.m):
            if rng.random() < density:
                red[(a, nu)] = random_polynomial_h(
                    chart, rng, n_terms=2, p_degree=1, y_degree=1,
                    coeff_rng=coeff_rng)
    mode = "user-table" if (off or red) else "equal-split"
    return GaugeChoice(mode, off, red)


def random_transcendental_h(chart, rng, coeff_rng):
    """A random polynomial Hamiltonian plus two or three sin/cos/exp terms.

    Each extra term is a rational coefficient times a function of one fiber
    or base coordinate, times at most one momentum, so `simplify` takes its
    expand-only branch on every coefficient derived from it.
    """
    h = random_polynomial_h(chart, rng, n_terms=3, coeff_rng=coeff_rng)
    for _ in range(rng.randint(2, 3)):
        coeff = sp.Rational(coeff_rng.choice([-3, -2, -1, 1, 2, 3]),
                            coeff_rng.randint(1, 3))
        if rng.random() < 0.7:
            arg = chart.y(rng.randint(1, chart.n))
        else:
            arg = chart.x(rng.randint(1, chart.m))
        fn = rng.choice([sp.sin, sp.cos, sp.exp])
        term = coeff * fn(arg if fn is not sp.exp else arg / 2)
        if rng.random() < 0.6:
            term *= chart.p(rng.randint(1, chart.n), rng.randint(1, chart.m))
        h += term
    return h


def random_quadratic_lagrangian(chart, rng, coeff_rng):
    """Quadratic Lagrangian L = v.A.v/2 + b.v - V with A constant.

    A is symmetric and strictly diagonally dominant, so the Legendre map is
    hyper-regular with a closed-form inverse.  b is affine in the base and
    fiber coordinates, V a polynomial of degree <= 2 in the fibers.  Returns
    (L, A, b, V) so that the induced Hamiltonian
    h = (p - b).A^-1.(p - b)/2 + V can be formed without the package.
    """
    slots = [(a, nu) for a in range(1, chart.n + 1) for nu in range(1, chart.m + 1)]
    k = len(slots)
    A = sp.zeros(k, k)
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.3:
                A[i, j] = A[j, i] = sp.Rational(coeff_rng.choice([-1, 1]), 4)
    for i in range(k):
        off = sum(abs(A[i, j]) for j in range(k) if j != i)
        A[i, i] = off + sp.Rational(coeff_rng.randint(1, 3), coeff_rng.randint(1, 2))
    b = []
    for _ in slots:
        bi = sp.Integer(0)
        if rng.random() < 0.5:
            bi += (sp.Rational(coeff_rng.choice([-2, -1, 1, 2]), 2)
                   * chart.y(rng.randint(1, chart.n)))
        if rng.random() < 0.3:
            bi += chart.x(rng.randint(1, chart.m))
        b.append(bi)
    V = sp.Integer(0)
    for a in range(1, chart.n + 1):
        V += sp.Rational(coeff_rng.randint(1, 3), coeff_rng.randint(1, 2)) * chart.y(a) ** 2
        if rng.random() < 0.5:
            V -= chart.x(rng.randint(1, chart.m)) * chart.y(a)
    v = sp.Matrix([chart.v(*s) for s in slots])
    bvec = sp.Matrix(b)
    lag = sp.expand((v.T * A * v)[0, 0] / 2 + (bvec.T * v)[0, 0] - V)
    return lag, A, bvec, V


def expected_lagrangian_h(chart, A, b, V):
    """Induced Hamiltonian of `random_quadratic_lagrangian`'s output."""
    slots = [(a, nu) for a in range(1, chart.n + 1) for nu in range(1, chart.m + 1)]
    q = sp.Matrix([chart.p(*s) for s in slots]) - b
    return sp.expand((q.T * A.inv() * q)[0, 0] / 2 + V)


class CheckMatrixInput:
    """One check-matrix op: a Hamiltonian (or Lagrangian) and a gauge."""

    def __init__(self, slot, chart, kind, gauge, h=None, lag=None, A=None,
                 b=None, V=None):
        self.slot = slot
        self.chart = chart
        self.kind = kind
        self.gauge = gauge
        self.h = h
        self.lag = lag
        self.A = A
        self.b = b
        self.V = V

    def fingerprint(self) -> str:
        parts = [f"{self.slot}:{self.chart.m},{self.chart.n}:{self.kind}",
                 sp.srepr(self.h if self.lag is None else self.lag),
                 self.gauge.mode]
        for key, e in sorted(self.gauge.off_trace.items()):
            parts.append(f"G{key}={sp.srepr(e)}")
        for key, e in sorted(self.gauge.redistribution.items()):
            parts.append(f"psi{key}={sp.srepr(e)}")
        return "|".join(parts)


def check_input(seed, slot, twin=False) -> CheckMatrixInput:
    """Input of op `slot` (0, 1, 2, ...) of a check-matrix run.

    Round r = slot // 8 runs the charts in CHARTS order; the kind pattern
    shifts by three places per round so every chart meets every kind.  The
    twin of a slot has the same shape and other coefficients: a distinct
    input of the same size, used as the untraced partner of a traced op.
    """
    rnd, i = divmod(slot, len(CHARTS))
    m, n = CHARTS[i]
    kind = KINDS[(i + 3 * rnd) % len(KINDS)]
    coeff_key = f"check-matrix coeff {seed} {slot}" + (" twin" if twin else "")
    return make_check_input(random.Random(f"check-matrix shape {slot}"),
                            random.Random(coeff_key), slot, m, n, kind)


def make_check_input(rng, coeff_rng, slot, m, n, kind) -> CheckMatrixInput:
    chart = BundleChart(m, n)
    if kind == "lag":
        lag, A, b, V = random_quadratic_lagrangian(chart, rng, coeff_rng)
        return CheckMatrixInput(slot, chart, kind,
                                random_gauge(chart, rng, coeff_rng=coeff_rng),
                                lag=lag, A=A, b=b, V=V)
    if kind == "trans":
        h = random_transcendental_h(chart, rng, coeff_rng)
    else:
        h = random_polynomial_h(chart, rng, coeff_rng=coeff_rng)
    return CheckMatrixInput(slot, chart, kind,
                            random_gauge(chart, rng, coeff_rng=coeff_rng), h=h)


def warmup_input() -> CheckMatrixInput:
    """Fixed input of the untimed warm-up op, from streams of its own."""
    return make_check_input(random.Random("check-matrix warm-up shape"),
                            random.Random("check-matrix warm-up coeff"),
                            -1, 2, 1, "lag")
