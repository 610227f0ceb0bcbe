"""Seeded inputs for the benchmark workloads, each with the verdict it must get.

A workload is an endless stream of calls drawn from a fixed cycle of strata
(subcommand, m, degree, size).  The seed picks only the coefficients,
witnesses and grids inside each stratum, so every seed gives the same cost
profile and runs with different seeds are comparable.  Every expectation
follows from how the inputs were built, never from running the program.

Coefficient lists are passed as ``--h=<coeffs>``: ``--h -1,2`` is read by
argparse as an option and exits 2 (see README.md).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

WORK = "{work}"  # stands for the run's scratch directory in argv and file names

COEFF_DENOMS = (1, 1, 1, 2, 3)
WITNESSES = tuple(Fraction(s * a, b) for a, b in ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3))
                  for s in (1, -1))
# Ratios with no rational cube or fifth root: pairs that differ by one of them
# at a single pivot p in {1, 2} are equivalent over the reals only.
NON_POWERS = tuple(Fraction(v) for v in ("2", "-2", "3", "-3", "4", "5",
                                         "1/2", "-1/3", "2/3", "-3/2", "6", "7/2"))


@dataclass
class Step:
    """One CLI invocation: its argv, the exit code it must return, and the
    verdict its ``--json`` output must carry (checked per ``check`` kind)."""

    check: str
    argv: list[str]
    exit_code: int
    expect: dict


@dataclass
class Call:
    """One client request: one CLI invocation, or two for a certificate
    round trip.  ``files`` are JSON documents written before the call."""

    kind: str
    steps: list[Step]
    files: dict[str, object] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"kind": self.kind, "files": self.files,
                "steps": [[s.check, s.argv, s.exit_code, s.expect] for s in self.steps]}


def q(value: Fraction) -> str:
    """A rational in the CLI's text form: "-3/4", "7"."""
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def poly_arg(coeffs: list[Fraction]) -> str:
    return ",".join(q(c) for c in coeffs)


def poly_json(coeffs: list[Fraction]) -> list[dict]:
    """The CLI's JSON for a polynomial: ascending, up to the degree."""
    top = max((j for j, c in enumerate(coeffs) if c), default=-1)
    return [{"re": q(c)} for c in coeffs[:top + 1]]


def scaled(coeffs: list[Fraction], r: Fraction) -> list[Fraction]:
    """Coefficients of r * h(r^2 T)."""
    return [c * r ** (2 * j + 1) for j, c in enumerate(coeffs)]


def class_key(coeffs: list[Fraction], m: int) -> tuple:
    """A complete invariant of h under c_j -> r^(2j+1) c_j, restricted below
    T^m: the support and the ratios c_j^(2p+1) / c_p^(2j+1), p = min support.
    Used only to keep generated classes apart."""
    support = [j for j, c in enumerate(coeffs[:m]) if c]
    if not support:
        return ()
    p = support[0]
    return tuple((j, coeffs[j] ** (2 * p + 1) / coeffs[p] ** (2 * j + 1)) for j in support)


def _coeff(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        c = Fraction(rng.randint(-4, 4), rng.choice(COEFF_DENOMS))
        if c or not nonzero:
            return c


def _poly(rng: random.Random, degree: int) -> list[Fraction]:
    """Random coefficients with a nonzero leading term when degree >= 1;
    the constant term may be zero or negative."""
    coeffs = [_coeff(rng) for _ in range(degree + 1)]
    if degree:
        coeffs[-1] = coeffs[-1] or _coeff(rng, nonzero=True)
    return coeffs


def _retail(rng: random.Random, coeffs: list[Fraction], m: int) -> list[Fraction]:
    """Fresh random coefficients at T^j, j >= m, keeping the degree."""
    out = coeffs[:m] + [_coeff(rng) for _ in coeffs[m:]]
    if len(out) > m:
        out[-1] = out[-1] or _coeff(rng, nonzero=True)
    return out


def _with_support(rng: random.Random, m: int, support: set[int]) -> list[Fraction]:
    """Degree m-1..5 polynomial whose support below T^m is exactly `support`."""
    coeffs = [_coeff(rng, nonzero=True) if j in support else Fraction(0) for j in range(m)]
    return _retail(rng, coeffs + [Fraction(0)] * rng.randint(0, 6 - m), m)


def _pair_args(m: int, h: list[Fraction], h2: list[Fraction]) -> list[str]:
    return ["--m", str(m), f"--h={poly_arg(h)}", f"--hp={poly_arg(h2)}"]


# --- verify ---------------------------------------------------------------

VERIFY_CYCLE = tuple((m, d) for d in range(4) for m in (1, 2, 3))


def verify_calls(rng: random.Random) -> Iterator[Call]:
    """verify-form over m in {1,2,3} x deg h in 0..3, plus one quotient call
    per cycle of twelve."""
    for cycle in itertools.count():
        for m, d in VERIFY_CYCLE:
            h = _poly(rng, d)
            argv = ["verify-form", "--m", str(m), f"--h={poly_arg(h)}", "--json"]
            yield Call("verify-form", [Step("verify-form", argv, 0, {"m": m, "h": poly_json(h)})])
        m = cycle % 3 + 1
        yield Call("quotient", [Step("quotient", ["quotient", "--m", str(m), "--json"], 0, {"m": m})])


# --- equiv ----------------------------------------------------------------

CLASSIFY_SIZES = ((2, 40), (3, 80), (2, 160))


def _certified(rng: random.Random, m: int, d: int) -> Call:
    """(a) h2 = h scaled by 1/w, with a fresh tail above T^m: witness w."""
    h = _poly(rng, d)
    low = min(m, d + 1)
    if not any(h[:low]):
        h[rng.randrange(low)] = _coeff(rng, nonzero=True)
    w = rng.choice(WITNESSES)
    h2 = _retail(rng, scaled(h, 1 / w), m)
    cert = f"{WORK}/cert.json"
    pair = _pair_args(m, h, h2)
    return Call("certified", [
        Step("equiv-certified", ["equiv", *pair, "--out", cert, "--json"], 0,
             {"witness": q(w), "file": cert}),
        Step("verify-certificate", ["verify-certificate", *pair, "--file", cert, "--json"], 0,
             {"r": q(w)}),
    ])


def _inequivalent(rng: random.Random, m: int) -> Call:
    """(b) different supports below T^m."""
    subsets = [set(s) for k in range(m + 1) for s in itertools.combinations(range(m), k)]
    s1, s2 = rng.sample(subsets, 2)
    h, h2 = _with_support(rng, m, s1), _with_support(rng, m, s2)
    return Call("inequivalent", [Step("decision", ["equiv", *_pair_args(m, h, h2), "--json"], 1,
                                      {"equivalent": False, "witness_exists_over_reals": False})])


def _real_only(rng: random.Random, m: int, p: int) -> Call:
    """(c) single pivot p with a ratio that has no rational (2p+1)-th root."""
    h = _with_support(rng, m, {p})
    k = rng.choice(NON_POWERS)
    h2 = _retail(rng, [c / k for c in h[:m]] + h[m:], m)
    return Call("real-only", [Step("decision", ["equiv", *_pair_args(m, h, h2), "--json"], 0,
                                   {"equivalent": True, "witness_exists_over_reals": True})])


def classify_forms(rng: random.Random, m: int, size: int) -> tuple[list[list[Fraction]], list[list[int]]]:
    """`size` forms from four scaling orbits plus size/5 singletons, shuffled,
    and the partition classify must return (classes ordered by first index)."""
    keys: set = set()

    def fresh_base() -> list[Fraction]:
        while True:
            h = _poly(rng, rng.randint(m - 1, 5))
            key = class_key(h, m)
            if key not in keys:
                keys.add(key)
                return h

    singles = size // 5
    labelled = [(c, fresh_base()) for c in range(singles)]
    for c in range(singles, singles + 4):
        base = fresh_base()
        count = (size - singles) // 4 + (c - singles < (size - singles) % 4)
        labelled.extend((c, _retail(rng, scaled(base, rng.choice(WITNESSES)), m)) for _ in range(count))
    rng.shuffle(labelled)
    classes: dict[int, list[int]] = {}
    for i, (c, _) in enumerate(labelled):
        classes.setdefault(c, []).append(i)
    return [h for _, h in labelled], sorted(classes.values())


def _classify(rng: random.Random, m: int, size: int) -> Call:
    forms, classes = classify_forms(rng, m, size)
    path = f"{WORK}/forms.json"
    return Call("classify",
                [Step("classify", ["classify", "--m", str(m), "--file", path, "--json"], 0,
                      {"m": m, "classes": classes, "forms": size})],
                files={path: {"forms": [[q(c) for c in h] for h in forms]}})


def equiv_calls(rng: random.Random) -> Iterator[Call]:
    """Per cycle: 18 certificate round trips (m in {1,2,3} x deg h in 0..5),
    three inequivalent pairs, three real-only pairs and three classify calls
    of 40, 80 and 160 forms."""
    while True:
        for m in (1, 2, 3):
            for d in range(6):
                yield _certified(rng, m, d)
        for m in (1, 2, 3):
            yield _inequivalent(rng, m)
        for m, p in ((2, 1), (3, 1), (3, 2)):
            yield _real_only(rng, m, p)
        for m, size in CLASSIFY_SIZES:
            yield _classify(rng, m, size)


# --- search ---------------------------------------------------------------

# (m, --deg, grid size, deg h); each stratum is run once with an in-grid
# witness and once with an inequivalent pair.  Weighted towards --deg 4 so
# that a run holds enough calls for a p90 latency.  The cost of an oracle
# call follows the sizes of the rationals in its systems, so the seed picks
# only signs and orders: the magnitudes of h and of the grid are fixed.
SEARCH_CYCLE = ((1, 4, 4, 1), (2, 4, 5, 2), (1, 4, 6, 2), (2, 4, 4, 1),
                (1, 5, 4, 2), (2, 5, 5, 1), (2, 6, 4, 1), (1, 4, 5, 1))
SEARCH_H = {1: (1, 2), 2: (2, 1, 1)}
SEARCH_GRID = tuple(Fraction(v) for v in ("1", "2", "1/2", "3", "1/3", "3/2"))


def _signed(rng: random.Random, magnitudes) -> list[Fraction]:
    return [Fraction(rng.choice((1, -1)) * v) for v in magnitudes]


def _oracle(rng: random.Random, m: int, deg: int, size: int, hdeg: int, equivalent: bool) -> Call:
    grid = _signed(rng, SEARCH_GRID[:size])
    rng.shuffle(grid)
    h = _signed(rng, SEARCH_H[hdeg])
    if equivalent:
        w: Optional[Fraction] = next(r for r in grid if abs(r) == 2)
        h2 = scaled(h, 1 / w)
    else:
        # zero constant term against a nonzero one: supports differ below T^m
        w = None
        h2 = [Fraction(0), *_signed(rng, SEARCH_H[hdeg][1:])]
    argv = ["oracle", *_pair_args(m, h, h2), "--deg", str(deg), f"--r-grid={poly_arg(grid)}", "--json"]
    return Call("oracle", [Step("oracle", argv, 0, {"witness": None if w is None else q(w)})])


def search_calls(rng: random.Random) -> Iterator[Call]:
    """oracle calls at m in {1,2}, --deg 4..6, grids of 4..6 rationals; half
    the pairs have a witness inside the grid, half are inequivalent."""
    while True:
        for stratum in SEARCH_CYCLE:
            for equivalent in (True, False):
                yield _oracle(rng, *stratum, equivalent)


GENERATORS = {"verify": verify_calls, "equiv": equiv_calls, "search": search_calls}
# Calls per cycle of each stream: every cycle has the same mix of strata.
CYCLE_CALLS = {"verify": len(VERIFY_CYCLE) + 1, "equiv": 18 + 3 + 3 + len(CLASSIFY_SIZES),
               "search": 2 * len(SEARCH_CYCLE)}


def calls(workload: str, seed: str) -> Iterator[Call]:
    """The endless call stream of a workload; the same seed gives the same calls."""
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"))
