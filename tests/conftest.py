"""Shared fixtures and seeded random generators for the test suite."""

import functools
import importlib.util
import json
import pathlib
import random
import sys

import pytest
import sympy as sp

from hdw_forge import BundleChart


def _not_strict_json(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.fixture(autouse=True)
def reports_are_strict_json(request):
    """Every report a test leaves under its `tmp_path` parses as strict
    JSON, which has no NaN or Infinity."""
    yield
    tmp = request.node.funcargs.get("tmp_path")
    if tmp is None:
        return
    for command in ("derive", "check", "legendre", "solve", "compare"):
        for path in tmp.rglob(f"*.{command}.json"):
            json.loads(path.read_text(encoding="utf-8"), parse_constant=_not_strict_json)


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


ROOT = pathlib.Path(__file__).resolve().parent.parent


def _read_only(relpath, name):
    """The module at `relpath` under the repository root, loaded read-only:
    no sys.path entry, no bytecode."""
    spec = importlib.util.spec_from_file_location(name, ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@functools.cache
def same_outputs_tool():
    """tools/same_outputs.py, loaded read-only once."""
    return _read_only("tools/same_outputs.py", "_same_outputs")


# the seeded generators the benchmark freezes; without `coeff_rng` they draw
# every number from `rng`
_inputs = _read_only("perfbench/inputs.py", "_perfbench_inputs")
random_polynomial_h = _inputs.random_polynomial_h
random_gauge = _inputs.random_gauge
random_quadratic_lagrangian = _inputs.random_quadratic_lagrangian
make_check_input = _inputs.make_check_input
check_input = _inputs.check_input


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
