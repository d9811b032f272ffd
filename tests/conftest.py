"""Shared fixtures and seeded random generators for the test suite."""

import random

import pytest
import sympy as sp

from hdw_forge import BundleChart, GaugeChoice


@pytest.fixture
def chart11():
    return BundleChart(1, 1)


@pytest.fixture
def chart21():
    return BundleChart(2, 1)


@pytest.fixture
def chart22():
    return BundleChart(2, 2)


# the (m, n) charts the random-polynomial generators are exercised on
MN_MATRIX = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]


def random_polynomial_h(chart, rng, n_terms=5, p_degree=3, y_degree=2):
    """Random polynomial Hamiltonian: degree <= 3 in p, <= 2 in y,
    coefficients possibly base-coordinate dependent."""
    terms = []
    for _ in range(n_terms):
        coeff = sp.Rational(rng.randint(-4, 4), rng.randint(1, 3))
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


def random_gauge(chart, rng, density=0.5):
    """Random gauge table filling a random subset of the free slots."""
    off = {}
    red = {}
    for a in range(1, chart.n + 1):
        for rho in range(1, chart.m + 1):
            for nu in range(1, chart.m + 1):
                if rho != nu and rng.random() < density:
                    off[(a, rho, nu)] = random_polynomial_h(
                        chart, rng, n_terms=2, p_degree=1, y_degree=1)
        for nu in range(1, chart.m):
            if rng.random() < density:
                red[(a, nu)] = random_polynomial_h(
                    chart, rng, n_terms=2, p_degree=1, y_degree=1)
    mode = "user-table" if (off or red) else "equal-split"
    return GaugeChoice(mode, off, red)


_SAFE_DENOMS = None


def random_expr(symbols, rng, depth=4):
    """Random expression over `symbols`: polynomial/trig with safe domains.

    Division only by manifestly positive denominators and log only of
    manifestly positive arguments, so any point with positive coordinates
    is in the domain.
    """
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return sp.Rational(rng.randint(-3, 3), rng.randint(1, 3))
        return rng.choice(symbols)
    op = rng.choice(["add", "mul", "pow", "sin", "cos", "exp", "log", "div", "neg"])
    a = random_expr(symbols, rng, depth - 1)
    if op == "add":
        return a + random_expr(symbols, rng, depth - 1)
    if op == "mul":
        return a * random_expr(symbols, rng, depth - 1)
    if op == "pow":
        return a ** rng.randint(2, 3)
    if op == "sin":
        return sp.sin(a)
    if op == "cos":
        return sp.cos(a)
    if op == "exp":
        # keep the argument small so higher derivatives stay tame
        return sp.exp(a / 4)
    if op == "log":
        return sp.log(1 + a ** 2)
    if op == "div":
        return a / (1 + random_expr(symbols, rng, depth - 1) ** 2)
    return -a


def random_point(symbols, rng, lo=0.2, hi=1.2):
    return {s: rng.uniform(lo, hi) for s in symbols}


@pytest.fixture
def rng():
    return random.Random(20260823)
