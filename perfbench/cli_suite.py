"""The cli-suite workload: every hdw-forge command on the bundled models.

Each op is one fresh child process, `entry.py <command>`, run one after
another.  The seed shuffles the order of each suite (compare always runs
after the solve it compares against) and picks the injected perturbation
and the malformed model.  Known answers are exit statuses plus facts that
do not come from the code under test: the classification of each bundled
Lagrangian, cos(10) for the oscillator, and an exact zero for comparing a
deterministic run with itself.

This module does not import the package; the parent reads the reports the
children write.
"""

from __future__ import annotations

import json
import math
import os
import random

OSC = os.path.join("models", "oscillator.hdw")
WAVE = os.path.join("models", "wave.hdw")
DEGEN = os.path.join("models", "degenerate.hdw")

_MALFORMED = (
    "[bundle]\nm = 1\nn = 1\n[hamiltonian]\nh = (p1_1^2 + y1^{k}\n",
    "[bundle]\nm = 1\nn = 1\n[hamiltonain]\nh = p1_1^{k}\n",
    "[bundle]\nm = 1\nn = 1\n[hamiltonian]\nh = p1_2^{k} + y1\n",
    "[bundle]\nn = 1\n[hamiltonian]\nh = p1_1^{k}\n",
)


def _report(out, name):
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return json.load(fh)


def _legendre_wave(out):
    rep = _report(out, "wave.legendre.json")
    fails = []
    if rep["classification"] != "hyper-regular-closed-form":
        fails.append(f"wave classified {rep['classification']!r}")
    if rep["round_trip"].get("passed") is not True:
        fails.append("wave Legendre round trip did not pass")
    return fails


def _legendre_degenerate(out):
    rep = _report(out, "degenerate.legendre.json")
    return ([] if rep["classification"] == "degenerate"
            else [f"degenerate classified {rep['classification']!r}"])


def _solve_oscillator(out):
    y1 = _report(out, "oscillator.solve.json")["metrics"]["final"]["y1"]
    err = abs(y1 - math.cos(10.0))
    return [] if err < 1e-6 else [f"oscillator y1(10) off cos(10) by {err:.3g}"]


def _compare_oscillator(out):
    disc = _report(out, "oscillator.compare.json")["comparison"]["max_discrepancy"]
    return [] if disc == 0.0 else [f"oscillator compare max_discrepancy {disc!r}"]


def suite(seed, number, out):
    """The 12 ops of suite `number`: (name, argv, expected status, check)."""
    rng = random.Random(f"cli-suite {seed} {number}")
    inject = os.path.join(out, "inject.json")
    with open(inject, "w", encoding="utf-8") as fh:
        json.dump({"F[1][1]": f"p1_1 + {rng.randint(1, 9)}"}, fh)
    malformed = os.path.join(out, "malformed.hdw")
    with open(malformed, "w", encoding="utf-8") as fh:
        fh.write(rng.choice(_MALFORMED).format(k=rng.randint(2, 5)))
    grid = os.path.join(out, "oscillator.solve.grid.csv")
    ops = [
        ("derive oscillator", ["derive", OSC], 0, None),
        ("derive wave", ["derive", WAVE], 0, None),
        ("check oscillator", ["check", OSC], 0, None),
        ("check wave", ["check", WAVE], 0, None),
        ("legendre wave", ["legendre", WAVE], 0, _legendre_wave),
        ("legendre degenerate", ["legendre", DEGEN], 0, _legendre_degenerate),
        ("check degenerate", ["check", DEGEN], 0, None),
        ("solve oscillator", ["solve", OSC], 0, _solve_oscillator),
        ("compare oscillator", ["compare", OSC, "--against", grid], 0, _compare_oscillator),
        ("solve wave", ["solve", WAVE], 0, None),
        ("check injected", ["check", OSC, "--debug-inject", inject], 1, None),
        ("check malformed", ["check", malformed], 2, None),
    ]
    rng.shuffle(ops)
    names = [op[0] for op in ops]
    i, j = names.index("solve oscillator"), names.index("compare oscillator")
    if j < i:
        ops[i], ops[j] = ops[j], ops[i]
    return [(name, argv + ["--out", out], status, check)
            for name, argv, status, check in ops]


def fingerprint(ops, out):
    """Inputs of a suite, independent of where its files live."""
    parts = []
    for name, argv, status, _ in ops:
        parts.append(f"{name}|{status}|" + " ".join(a.replace(out, "<out>") for a in argv))
    for fname in ("inject.json", "malformed.hdw"):
        with open(os.path.join(out, fname), encoding="utf-8") as fh:
            parts.append(fh.read())
    return "\n".join(parts)


def verify(name, status, expected, check, out):
    """Failures of one op: wrong exit status, or a wrong known answer."""
    if status != expected:
        return [f"{name}: exit {status}, expected {expected}"]
    if check is None:
        return []
    try:
        return [f"{name}: {msg}" for msg in check(out)]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"{name}: unreadable report ({type(exc).__name__}: {exc})"]
