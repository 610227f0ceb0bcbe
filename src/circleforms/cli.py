"""Command-line front end.

Subcommands: verify-form, equiv, verify-certificate, classify, oracle,
case12, quotient, selftest.  Exit codes are a stable contract: 0 for
success or a positive verdict, 1 for a verified negative (inequivalent,
check failed, certificate invalid), 2 for usage errors, 3 for internal
errors.  Usage errors are caught before any kernel computation runs, with
three found afterwards: an unwritable --out path, a closed stdout ("error:
cannot write to stdout"), and a result holding a rational longer than
sys.get_int_max_str_digits() digits, which is refused before anything is
printed or written.  Any other exception is a bug: it is reported as
"internal error:" with its traceback on stderr, so it can never be
mistaken for a verdict or for bad input.

Polynomials are entered as ascending comma-separated rational coefficient
lists ("2,8" is 2 + 8T); a numerator or denominator longer than
sys.get_int_max_str_digits() digits is refused.  JSON schemas are
documented in the README; all JSON output is canonical (sorted keys,
compact separators), so re-serializing a parsed document reproduces it byte
for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .equivalence import build_certificate, classify, decide_equiv, verify_certificate
from .forms import FormSpec, case12_checks, family_checks, linear_circle_form
from .gaussian import DigitLimitError, format_rational, json_rational, parse_rational
from .laurent import LaurentPoly
from .matrices import StructuredMatrix
from .oracle import MAX_DEG_BOUND, search_conjugator
from .quotient import induced_images, make_invariants, verify_relation


class UsageError(Exception):
    """Invalid input; reported on stderr with exit status 2."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# What reading a JSON input document can raise on bad content: a missing or
# unreadable file, malformed or too deeply nested JSON, a wrong shape, and
# numbers such as "1/0" or Infinity that have no rational value.
_LOAD_ERRORS = (OSError, KeyError, ValueError, TypeError, ArithmeticError, RecursionError)

_GAUSSIAN_TOKEN = re.compile(r"^[0-9+/\- ]*i[0-9+/\- ]*$")


def parse_rational_token(token: str) -> Fraction:
    token = token.strip()
    try:
        return parse_rational(token)
    except OverflowError as exc:
        raise UsageError(f"rational coefficient too long: {exc}")
    except (ValueError, ZeroDivisionError):
        if _GAUSSIAN_TOKEN.match(token):
            raise UsageError(f"non-real coefficient not allowed here: {token!r}")
        raise UsageError(f"cannot parse rational coefficient: {token!r}")


def parse_poly(text: str) -> LaurentPoly:
    """Ascending comma-separated rational coefficients -> real polynomial."""
    if not text.strip():
        raise UsageError("empty coefficient list")
    return LaurentPoly.from_coeffs(map(parse_rational_token, text.split(",")))


def parse_r_grid(text: str) -> list[Fraction]:
    if not text.strip():
        raise UsageError("empty rescaling grid")
    grid = list(map(parse_rational_token, text.split(",")))
    if any(not r for r in grid):
        raise UsageError("rescaling grid entries must be nonzero")
    return grid


# Largest --m the command line accepts (FormSpec takes any m).  With h = 1 + T
# on 2 cores under CPython 3.11, verify-form takes about 0.25 s and equiv about
# 0.2 s at m = 64, process start included, and decide_equiv about 1.8 s at
# m = 200.
MAX_M = 64


def _require_m(m: int) -> int:
    if m < 1:
        raise UsageError("--m must be a positive integer")
    if m > MAX_M:
        raise UsageError(f"--m must be at most {MAX_M}")
    return m


def _write_json(path: str, obj) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(obj))
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}")


def _load_file(path: Optional[str], what: str, read):
    """read(document) of the --file JSON document; a missing flag and any
    failure to open, parse or read the document are usage errors."""
    if not path:
        raise UsageError(f"--file with a {what} JSON document is required")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return read(json.load(fh))
    except _LOAD_ERRORS as exc:
        raise UsageError(f"cannot load {what}: {exc}")


def _certificate(r: Fraction, conjugator: StructuredMatrix) -> dict:
    """The certificate document: `equiv --json` shows it, `equiv --out`
    writes it, each `oracle` finding is one, and _read_certificate reads it
    back for `verify-certificate --file`."""
    return {"r": format_rational(r), "N": conjugator.to_json()}


def _read_certificate(doc) -> tuple[Fraction, StructuredMatrix]:
    return json_rational(doc["r"]), StructuredMatrix.from_json(doc["N"])


def _read_forms(doc) -> list[LaurentPoly]:
    """{"forms": [...]} or the bare list of ascending coefficient lists."""
    raw_forms = doc["forms"] if isinstance(doc, dict) else doc
    if not isinstance(raw_forms, list) or not all(isinstance(c, list) for c in raw_forms):
        raise ValueError("forms must be a list of coefficient lists")
    return [LaurentPoly.from_coeffs([json_rational(c) for c in coeffs]) for coeffs in raw_forms]


def _emit(args, human_lines: Sequence[str], payload) -> None:
    if args.json:
        print(canonical_json(payload))
    else:
        for line in human_lines:
            print(line)


def cmd_verify_form(args) -> int:
    m = _require_m(args.m)
    h = parse_poly(args.h)
    checks = family_checks(FormSpec(m, h))
    ok = all(checks.values())
    lines = [f"{'ok' if v else 'FAIL'}  {k}" for k, v in checks.items()]
    lines.append(f"verdict: {'real circle form verified' if ok else 'verification FAILED'}")
    _emit(args, lines, {"m": m, "h": h.to_json(), "checks": checks, "ok": ok})
    return 0 if ok else 1


def cmd_equiv(args) -> int:
    m = _require_m(args.m)
    h = parse_poly(args.h)
    h2 = parse_poly(args.hp)
    result = decide_equiv(h, h2, m)
    r = result.rational_witness
    # Every rational witness has its certificate built, and so re-checked.  It
    # is formatted only to be printed or written: one too long to print is
    # refused, and text mode does not print it.
    conjugator = None if r is None else build_certificate(h, h2, m, r)
    cert = _certificate(r, conjugator) if conjugator and (args.json or args.out) else None
    lines = []
    if result.equivalent:
        if r is not None:
            lines.append(f"equivalent, rational witness r = {format_rational(r)}")
        else:
            lines.append("equivalent over the reals, no rational witness")
    else:
        lines.append("inequivalent")
    if args.out:
        if cert is not None:
            _write_json(args.out, cert)
            lines.append(f"certificate written to {args.out}")
        else:
            lines.append("no certificate to write (no rational witness)")
    _emit(args, lines, {
        "equivalent": result.equivalent,
        # a real r exists exactly when the forms are equivalent
        "witness_exists_over_reals": result.equivalent,
        "rational_witness": None if cert is None else cert["r"],
        "certificate": cert,
    })
    return 0 if result.equivalent else 1


def cmd_verify_certificate(args) -> int:
    m = _require_m(args.m)
    h = parse_poly(args.h)
    h2 = parse_poly(args.hp)
    r, conj = _load_file(args.file, "certificate", _read_certificate)
    if conj.e != 2 * m + 1:
        raise UsageError(f"certificate matrix has e = {conj.e}, expected {2 * m + 1} for m = {m}")
    ok = verify_certificate(h, h2, m, r, conj)
    _emit(args, [f"certificate {'valid' if ok else 'INVALID'}"],
          {"valid": ok, "r": format_rational(r)})
    return 0 if ok else 1


def cmd_classify(args) -> int:
    m = _require_m(args.m)
    forms = _load_file(args.file, "forms", _read_forms)
    classes = classify(forms, m)
    lines = [f"{len(forms)} forms fall into {len(classes)} classes"]
    if not args.json:
        for idx, members in enumerate(classes):
            shown = ", ".join(str(forms[i]) for i in members)
            lines.append(f"  class {idx}: indices {members}  ({shown})")
    _emit(args, lines, {"m": m, "classes": classes, "count": len(classes)})
    return 0


def cmd_oracle(args) -> int:
    m = _require_m(args.m)
    if not 0 <= args.deg <= MAX_DEG_BOUND:
        raise UsageError(f"--deg must be an integer from 0 to {MAX_DEG_BOUND}")
    h = parse_poly(args.h)
    h2 = parse_poly(args.hp)
    grid = parse_r_grid(args.r_grid)
    found = search_conjugator(h, h2, m, args.deg, grid)
    payload = [_certificate(r, conj) for r, conj in found]
    lines = [f"{len(found)} verified conjugator(s) at degree <= {args.deg} "
             f"over {len(grid)} rescaling(s)"]
    if not args.json:
        for r, conj in found:
            lines.append(f"  r = {format_rational(r)}: N = {conj}")
    if not found:
        lines.append("  none found at this bound (not a proof of inequivalence)")
    if args.out:
        _write_json(args.out, payload)
        lines.append(f"findings written to {args.out}")
    _emit(args, lines, payload)
    return 0


def cmd_case12(args) -> int:
    checks = case12_checks()
    ok = all(checks.values())
    lines = [f"{'ok' if v else 'FAIL'}  {k}" for k, v in checks.items()]
    lines.append("weight-(1,2) circle form linearizes" if ok else "case12 verification FAILED")
    _emit(args, lines, {"checks": checks, "ok": ok})
    return 0 if ok else 1


def cmd_quotient(args) -> int:
    m = _require_m(args.m)
    relation = verify_relation(m)
    images, expressible = induced_images(linear_circle_form(), m)
    names = ("T", "W", "U", "V")
    lines = [f"relation U*V - T^n*W^2 = 0: {'ok' if relation else 'FAIL'}"]
    if not args.json:
        for name, gen in zip(names, make_invariants(m)):
            lines.append(f"  {name} = {gen}")
        lines.append("images under the linear circle form (polynomial part):")
        for name, img, expr in zip(names, images, expressible):
            status = "invariant subring" if expr else "NOT expressible"
            lines.append(f"  {name} -> {img}   [{status}]")
    payload = {
        "m": m,
        "relation_holds": relation,
        "induced_expressible": list(expressible),
    }
    _emit(args, lines, payload)
    return 0 if relation and all(expressible) else 1


def cmd_selftest(args) -> int:
    from . import acceptance  # imported here: no other subcommand needs it

    ok = acceptance.run_all()
    print("selftest: all criteria passed" if ok else "selftest: FAILURES above")
    return 0 if ok else 1


# Each option as argparse takes it: its flag and its add_argument keywords.
OPTIONS = {
    "--m": dict(type=int, required=True,
                help=f"family parameter m, 1..{MAX_M} (fiber weight 2m+1)"),
    "--h": dict(required=True, help="ascending rational coefficients of h, e.g. '1,2'"),
    "--hp": dict(required=True, help="ascending rational coefficients of the second form"),
    "--file": dict(help="input JSON document"),
    "--deg": dict(type=int, default=6,
                  help=f"degree bound for conjugator entries, 0..{MAX_DEG_BOUND} (default 6)"),
    "--r-grid": dict(default="1,-1", help="comma-separated nonzero rationals (default '1,-1')"),
    "--out": dict(help="write JSON result to this path"),
    "--json": dict(action="store_true", help="print canonical JSON instead of text"),
}

# Each subcommand: its name, handler, help line and options, in help order;
# every subcommand also takes --json.
COMMANDS = (
    ("verify-form", cmd_verify_form, "verify that h defines a real circle form", ("--m", "--h")),
    ("equiv", cmd_equiv, "decide equivalence of two forms; exit 0 iff equivalent",
     ("--m", "--h", "--hp", "--out")),
    ("verify-certificate", cmd_verify_certificate, "re-verify a stored conjugation certificate",
     ("--m", "--h", "--hp", "--file")),
    ("classify", cmd_classify, "partition a JSON list of forms into equivalence classes",
     ("--m", "--file")),
    ("oracle", cmd_oracle, "brute-force bounded-degree conjugator search",
     ("--m", "--h", "--hp", "--deg", "--r-grid", "--out")),
    ("case12", cmd_case12, "verify the weight-(1,2) linearization", ()),
    ("quotient", cmd_quotient, "invariant generators and quotient relation", ("--m",)),
    ("selftest", cmd_selftest, "run the full acceptance criteria registry", ()),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every main() call shares it."""
    parser = argparse.ArgumentParser(
        prog="circleforms",
        description="Exact verification and classification of equivariant "
                    "real circle forms on affine four-space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, options in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in (*options, "--json"):
            p.add_argument(flag, **OPTIONS[flag])
        p.set_defaults(func=func)
    return parser


def _discard_stdout() -> None:
    """Point the process's stdout at the null device, so the flush at
    interpreter exit cannot fail on a closed pipe again."""
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    except (OSError, ValueError):  # no file descriptor behind sys.stdout
        pass


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except (UsageError, DigitLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        _discard_stdout()
        print("error: cannot write to stdout", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
