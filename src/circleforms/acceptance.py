"""The release gate: every top-level guarantee of the package as one
executable criterion.

Each criterion returns (passed, detail) and is registered in CRITERIA; the
CLI selftest and the pytest acceptance module both run this registry, so
there is exactly one definition of "done".  All checks are exact; the only
tolerances anywhere are structural equalities.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable

from .equivalence import build_certificate, classify, decide_equiv, verify_certificate
from .forms import (
    CASE12_WEIGHTS,
    FormSpec,
    case12_checks,
    case12_twist,
    family_checks,
    linear_circle_form,
    make_circle_form,
    make_twist,
    verify_cocycle,
)
from .gaussian import GaussianRational, RationalLike
from .laurent import LaurentPoly
from .matrices import StructuredMatrix
from .oracle import search_conjugator
from .polymaps import compose, expand, is_involution, weight_check
from .quotient import verify_relation

GRID_VALUES = (-2, -1, 0, 1, 2)
GRID_MS = (1, 2, 3)


def twist_family_suite() -> tuple[bool, str]:
    """Every (m, h) in the coefficient grid passes family_checks: M_h is a
    unit-determinant cocycle split by K_h, and mu_h is a weight-graded
    involution.  family_checks reads the cocycle in closed form and derives
    the last two from M_h; here the product M_h * gamma(M_h) and mu_h are
    built on every case, and verify_cocycle, is_involution and weight_check
    computed on them must give the same values."""
    cases = 0
    for m in GRID_MS:
        for coeffs in itertools.product(GRID_VALUES, repeat=4):
            spec = FormSpec(m, LaurentPoly.from_coeffs(coeffs))
            checks = family_checks(spec)
            twist = make_twist(spec)
            mu = make_circle_form(twist)
            computed = {"cocycle": verify_cocycle(twist),
                        "involution": is_involution(mu),
                        "weight_grading": weight_check(mu, spec.weights())}
            differ = [name for name, ok in computed.items() if ok != checks[name]]
            if differ:
                return False, (f"derived and computed differ at m={m}, h={spec.h}: "
                               + ", ".join(differ))
            failed = [name for name, ok in checks.items() if not ok]
            if failed:
                return False, f"failed at m={m}, h={spec.h}: " + ", ".join(failed)
            cases += 1
    return True, f"{cases} (m, h) cases exact"


def linear_vs_twisted() -> tuple[bool, str]:
    """h = 0 versus h = 1 at m = 1: the decision says inequivalent and the
    bounded brute-force search agrees (finds nothing)."""
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    decision = decide_equiv(zero, one, 1)
    if decision.equivalent:
        return False, "decision claims the linear and twisted forms agree"
    grid = [Fraction(v) for v in (1, -1, 2, -2, 3, -3)]
    grid += [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3)]
    found = search_conjugator(zero, one, 1, 6, grid)
    if found:
        return False, f"search found {len(found)} conjugators against the verdict"
    return True, "inequivalent by decision, search empty at degree 6 over 10 rescalings"


def case_m2_conditions(c0: RationalLike, c1: RationalLike,
                       c0p: RationalLike, c1p: RationalLike) -> bool:
    """Direct transcription of the four m=2 equivalence disjuncts for
    h = c0 + c1*T versus h' = c0' + c1'*T; an independent re-derivation
    that m2_condition_grid checks decide_equiv against."""
    c0, c1, c0p, c1p = (Fraction(v) for v in (c0, c1, c0p, c1p))
    if c0 == c0p == c1 == c1p == 0:
        return True
    if c0 == c0p == 0 and c1 * c1p != 0:
        return True
    if c1 == c1p == 0 and c0 * c0p != 0:
        return True
    if c0 * c0p * c1 * c1p != 0 and (c0p / c0) ** 3 == c1p / c1:
        return True
    return False


def m2_condition_grid() -> tuple[bool, str]:
    """The direct four-case transcription for m = 2 agrees with the decision
    procedure on a full coefficient grid, and the (1+T, 2+8T) instance has
    rational witness exactly 1/2 with a verified certificate."""
    values = [Fraction(v) for v in (-2, -1, 0, 1, 2, 8)]
    checked = 0
    for c0, c1, c0p, c1p in itertools.product(values, repeat=4):
        expect = case_m2_conditions(c0, c1, c0p, c1p)
        got = decide_equiv(LaurentPoly.from_coeffs([c0, c1]),
                           LaurentPoly.from_coeffs([c0p, c1p]), 2).equivalent
        if expect != got:
            return False, f"disagreement at ({c0},{c1}) vs ({c0p},{c1p})"
        checked += 1
    h, h2 = LaurentPoly.from_coeffs([1, 1]), LaurentPoly.from_coeffs([2, 8])
    r = decide_equiv(h, h2, 2).rational_witness
    if r != Fraction(1, 2):
        return False, f"witness for (1+T, 2+8T) is {r}"
    if not verify_certificate(h, h2, 2, r, build_certificate(h, h2, 2, r)):
        return False, "certificate for (1+T, 2+8T) fails re-verification"
    return True, f"{checked} grid points agree; witness 1/2 certified"


def ten_singletons() -> tuple[bool, str]:
    """1 + cT for c = 1..10 at m = 2 fall into ten distinct classes."""
    forms = [LaurentPoly.from_coeffs([1, c]) for c in range(1, 11)]
    classes = classify(forms, 2)
    if len(classes) != 10:
        return False, f"{len(classes)} classes instead of 10"
    return True, "10 pairwise inequivalent forms"


def case12_suite() -> tuple[bool, str]:
    """The weight-(1,2) twist defines an orthogonal-bundle involution and its
    circle form linearizes through the stored non-real conjugator: every
    check of case12_checks, the list the case12 subcommand shows.  Its
    bundle_conditions is read in closed form and its involution_relations
    derived from the twist; here the product Phi * gamma(Phi) and the
    circle form are built, and verify_cocycle, is_involution and
    weight_check computed on them must agree."""
    checks = case12_checks()
    twist = case12_twist()
    mu = make_circle_form(twist)
    computed = {"bundle_conditions": verify_cocycle(twist),
                "involution_relations": (is_involution(mu)
                                         and weight_check(mu, CASE12_WEIGHTS))}
    differ = [name for name, ok in computed.items() if ok != checks[name]]
    if differ:
        return False, "derived and computed differ: " + ", ".join(differ)
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        return False, "failed: " + ", ".join(failed)
    return True, "linearization, bundle conditions and twist relations exact"


def quotient_relation() -> tuple[bool, str]:
    """U*V - T^n*W^2 expands to zero for m = 1, 2, 3."""
    for m in GRID_MS:
        if not verify_relation(m):
            return False, f"relation fails at m={m}"
    return True, "hypersurface relation exact for m in {1, 2, 3}"


ORACLE_R_GRID = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
                 Fraction(1, 2), Fraction(-1, 2))


def oracle_agreement_grid() -> tuple[bool, str]:
    """Exhaustive m = 2 grid of linear h, h2 with coefficients in {-1,0,1}:
    the bounded search finds a conjugator whenever the decision procedure
    reports a rational witness inside the rescaling grid, and never finds
    one against an inequivalence verdict."""
    values = (-1, 0, 1)
    pairs = 0
    witnesses_found = 0
    for hc in itertools.product(values, repeat=2):
        for h2c in itertools.product(values, repeat=2):
            h = LaurentPoly.from_coeffs(hc)
            h2 = LaurentPoly.from_coeffs(h2c)
            decision = decide_equiv(h, h2, 2)
            found = search_conjugator(h, h2, 2, 6, ORACLE_R_GRID)
            if decision.equivalent and decision.rational_witness in ORACLE_R_GRID:
                if not found:
                    return False, f"search missed a certified pair {hc} vs {h2c}"
                witnesses_found += 1
            if found and not decision.equivalent:
                return False, f"search contradicts inequivalence at {hc} vs {h2c}"
            pairs += 1
    return True, f"{pairs} pairs, {witnesses_found} witnessed equivalences recovered"


def _random_poly(rng: random.Random, degree: int, nonzero_c0: bool = False) -> LaurentPoly:
    coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(degree + 1)]
    if nonzero_c0 and not coeffs[0]:
        coeffs[0] = Fraction(rng.choice((1, -1, 2, 3)))
    return LaurentPoly.from_coeffs(coeffs)


def _random_scale(rng: random.Random) -> Fraction:
    r = Fraction(rng.choice((1, -1, 2, -2, 3, -3)), rng.choice((1, 2, 3)))
    return r


def equivalence_relation_properties() -> tuple[bool, str]:
    """1000 random triples: reflexivity, witness inversion under symmetry,
    witness multiplication along transitive chains, scaling coherence, and
    verdict consistency on unrelated inputs."""
    rng = random.Random(90125)
    for trial in range(1000):
        m = rng.choice(GRID_MS)
        h = _random_poly(rng, rng.randint(0, 3), nonzero_c0=True)

        ref = decide_equiv(h, h, m)
        if not ref.equivalent or ref.rational_witness != 1:
            return False, f"reflexivity fails at trial {trial}"

        r1, r2 = _random_scale(rng), _random_scale(rng)
        h2 = h.apply_scaling(r1)
        h3 = h2.apply_scaling(r2)

        d12 = decide_equiv(h, h2, m)
        if not d12.equivalent or d12.rational_witness != 1 / r1:
            return False, f"scaling coherence fails at trial {trial}"
        d21 = decide_equiv(h2, h, m)
        if not d21.equivalent or d21.rational_witness != r1:
            return False, f"witness inversion fails at trial {trial}"
        d23 = decide_equiv(h2, h3, m)
        d13 = decide_equiv(h, h3, m)
        if not (d23.equivalent and d13.equivalent):
            return False, f"transitive chain not equivalent at trial {trial}"
        if (d12.rational_witness is not None and d23.rational_witness is not None
                and d13.rational_witness != d12.rational_witness * d23.rational_witness):
            return False, f"witness multiplication fails at trial {trial}"

        # unrelated triple: verdicts must still form an equivalence relation
        g1 = _random_poly(rng, rng.randint(0, 2))
        g2 = _random_poly(rng, rng.randint(0, 2))
        e12 = decide_equiv(g1, g2, m).equivalent
        e13 = decide_equiv(g1, h, m).equivalent
        e23 = decide_equiv(g2, h, m).equivalent
        if e12 and e23 and not e13:
            return False, f"transitivity violated at trial {trial}"
        if e12 != decide_equiv(g2, g1, m).equivalent:
            return False, f"symmetry violated at trial {trial}"
    return True, "1000 random triples consistent"


def _random_matrix(rng: random.Random, e: int) -> StructuredMatrix:
    def poly():
        terms = {}
        for exp in range(rng.randint(1, 3)):
            re = rng.randint(-2, 2)
            im = rng.randint(-1, 1) if rng.random() < 0.4 else 0
            terms[exp] = GaussianRational(re, im)
        return LaurentPoly(terms)

    return StructuredMatrix(e, poly(), poly(), poly(), poly())


def representation_coherence() -> tuple[bool, str]:
    """Expanding to four variables is a homomorphism for products and turns
    the Galois twist into conjugation by the linear circle form, on 200
    random structured matrices."""
    rng = random.Random(5150)
    mu0 = linear_circle_form()
    checked = 0
    for _ in range(100):
        e = rng.choice((3, 4, 5, 7))
        m1 = _random_matrix(rng, e)
        m2 = _random_matrix(rng, e)
        if expand(m1 * m2) != compose(expand(m1), expand(m2)):
            return False, f"product expansion mismatch at e={e}"
        for matrix in (m1, m2):
            if expand(matrix.galois()) != compose(mu0, compose(expand(matrix), mu0)):
                return False, f"galois expansion mismatch at e={e}"
        checked += 2
    return True, f"{checked} random matrices coherent"


Criterion = tuple[str, str, Callable[[], tuple[bool, str]]]

CRITERIA: list[Criterion] = [
    ("twist-family", "split unit-det cocycles and weight-graded involutions on the full grid",
     twist_family_suite),
    ("linear-vs-twisted", "smallest inequivalent pair: decision and empty search agree",
     linear_vs_twisted),
    ("m2-conditions", "four-case m=2 transcription matches the decision on a full grid",
     m2_condition_grid),
    ("ten-singletons", "1 + cT for c = 1..10 gives ten classes at m = 2",
     ten_singletons),
    ("case12", "weight-(1,2) twist linearizes via the stored non-real conjugator",
     case12_suite),
    ("quotient-relation", "invariant-ring relation U*V - T^n*W^2 = 0 for m = 1..3",
     quotient_relation),
    ("oracle-agreement", "bounded search agrees with the decision on the m=2 grid",
     oracle_agreement_grid),
    ("equivalence-properties", "decision behaves as an equivalence relation with witnesses",
     equivalence_relation_properties),
    ("representation-coherence", "matrix shortcuts match the four-variable expansion",
     representation_coherence),
]


def run_all() -> bool:
    """Run every criterion, print one PASS/FAIL line each, return overall."""
    all_ok = True
    for key, _description, func in CRITERIA:
        ok, detail = func()
        print(f"{'PASS' if ok else 'FAIL'} {key}: {detail}")
        all_ok = all_ok and ok
    return all_ok
