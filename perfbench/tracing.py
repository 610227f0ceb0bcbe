"""Per-layer tracing of circleforms, done from outside the package.

For the life of a ``Tracer`` context every binding of a traced function --
the attribute on its defining class or module, and the name in each
circleforms module that imported it -- is replaced by a wrapper.  A span
wrapper records calls, total time and self time (total minus the time of
the spans it encloses); a count wrapper only counts calls, for the scalar
operations that run millions of times.  On exit every binding is restored
to the original object.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable, Optional

PACKAGE = "circleforms"

# (span name, module, class or None, attribute).  Names are the layer and
# the operation; metrics are "<name>.calls" and "<name>.self_s".
SPANS = (
    ("laurent.mul", "laurent", "LaurentPoly", "__mul__"),
    ("matrices.mul", "matrices", "StructuredMatrix", "__mul__"),
    ("matrices.inverse", "matrices", "StructuredMatrix", "inverse"),
    ("matrices.det", "matrices", "StructuredMatrix", "det"),
    ("polymaps.substitute", "polymaps", "MultiPoly", "substitute"),
    ("polymaps.compose", "polymaps", None, "compose"),
    ("polymaps.expand", "polymaps", None, "expand"),
    ("forms.make_twist", "forms", None, "make_twist"),
    ("forms.make_splitting", "forms", None, "make_splitting"),
    ("forms.make_circle_form", "forms", None, "make_circle_form"),
    ("equivalence.decide_equiv", "equivalence", None, "decide_equiv"),
    ("equivalence.build_certificate", "equivalence", None, "build_certificate"),
    ("equivalence.verify_certificate", "equivalence", None, "verify_certificate"),
    ("equivalence.classify", "equivalence", None, "classify"),
    ("oracle.nullspace", "oracle", None, "nullspace"),
    ("oracle.conjugators_between", "oracle", None, "conjugators_between"),
    ("oracle.verify_conjugation", "oracle", None, "verify_conjugation"),
    ("quotient.in_invariant_subring", "quotient", None, "in_invariant_subring"),
    ("quotient.verify_relation", "quotient", None, "verify_relation"),
    ("cli.main", "cli", None, "main"),
)
COUNTS = (
    ("gaussian.mul", "gaussian", "GaussianRational", "__mul__"),
    ("gaussian.add", "gaussian", "GaussianRational", "__add__"),
)
# Work counters recorded at the span boundaries, by the hooks below.
EXTRA_COUNTS = ("laurent.mul.term_products", "equivalence.classify.decisions",
                "oracle.nullspace.rows", "oracle.nullspace.cols", "oracle.nullspace.nullity",
                "oracle.found")


def _laurent_mul(tracer: "Tracer", args, result, _token) -> None:
    a, b = args
    tracer.extra["laurent.mul.term_products"] += len(a.items()) * (
        len(b.items()) if isinstance(b, type(a)) else 1)


def _nullspace(tracer: "Tracer", args, result, _token) -> None:
    (system,) = args
    tracer.extra["oracle.nullspace.rows"] += len(system.rows)
    tracer.extra["oracle.nullspace.cols"] += len(system.labels)
    tracer.extra["oracle.nullspace.nullity"] += len(result)


def _conjugators(tracer: "Tracer", args, result, _token) -> None:
    tracer.extra["oracle.found"] += len(result)


def _classify(tracer: "Tracer", args, result, token) -> None:
    tracer.extra["equivalence.classify.decisions"] += tracer.calls("equivalence.decide_equiv") - token


HOOKS: dict[str, tuple[Optional[Callable], Callable]] = {
    "laurent.mul": (None, _laurent_mul),
    "oracle.nullspace": (None, _nullspace),
    "oracle.conjugators_between": (None, _conjugators),
    "equivalence.classify": (lambda tracer: tracer.calls("equivalence.decide_equiv"), _classify),
}


def layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = [(f"{name}.calls", "count") for name, *_ in COUNTS]
    for name, *_ in SPANS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(name, "count") for name in EXTRA_COUNTS]
    out += [("oracle.found_per_verify", "ratio"), ("oracle.nullspace.share", "ratio"),
            ("trace_overhead_frac", "ratio")]
    return out


def bindings() -> dict[tuple[str, str], object]:
    """Every attribute of the package's modules and of their classes, by
    (owner, attribute): the state a traced run must leave as it found it."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for attr, value in vars(module).items():
            out[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for cls_attr, member in vars(value).items():
                    out[(f"{mod_name}.{attr}", cls_attr)] = member
    return out


class Tracer:
    """Context manager that installs the wrappers on entry and restores every
    original binding on exit; the statistics add up over repeated entries.
    ``stats[name]`` is [calls, total_s, self_s]."""

    def __init__(self):
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for name, *_ in SPANS}
        self.counts: dict[str, list] = {name: [0] for name, *_ in COUNTS}
        self.extra: dict[str, int] = dict.fromkeys(EXTRA_COUNTS, 0)
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def __enter__(self) -> "Tracer":
        try:
            for name, module, cls, attr in SPANS:
                self._install(module, cls, attr, self._span(name, *HOOKS.get(name, (None, None))))
            for name, module, cls, attr in COUNTS:
                self._install(module, cls, attr, self._count(name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _install(self, module: str, cls: Optional[str], attr: str, make: Callable) -> None:
        home = sys.modules[f"{PACKAGE}.{module}"]
        owner = getattr(home, cls) if cls else home
        original = vars(owner)[attr]
        wrapper = make(original)
        if cls:
            owners = [owner]  # aliases such as __rmul__ = __mul__ live in the class
        else:
            owners = [mod for name, mod in list(sys.modules.items())
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for target in owners:
            for name, value in list(vars(target).items()):
                if value is original:
                    self._patched.append((target, name, original))
                    setattr(target, name, wrapper)

    def _span(self, name: str, enter: Optional[Callable], observe: Optional[Callable]):
        stats, stack = self.stats[name], self._stack

        def make(fn):
            def span(*args, **kwargs):
                token = enter(self) if enter else None
                frame = [0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += elapsed
                    stats[0] += 1
                    stats[1] += elapsed
                    stats[2] += elapsed - frame[0]
                if observe:
                    observe(self, args, result, token)
                return result
            return span
        return make

    def _count(self, name: str):
        cell = self.counts[name]

        def make(fn):
            def count(*args):
                cell[0] += 1
                return fn(*args)
            return count
        return make

    def metrics(self, untraced_s: float, traced_s: float) -> dict[str, float]:
        """The per-layer metrics, given the time the same calls took without
        and with tracing."""
        out: dict[str, float] = {f"{name}.calls": cell[0] for name, cell in self.counts.items()}
        for name, (calls, _total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.extra)
        verified = self.calls("oracle.verify_conjugation")
        out["oracle.found_per_verify"] = self.extra["oracle.found"] / verified if verified else 0.0
        out["oracle.nullspace.share"] = self.stats["oracle.nullspace"][2] / traced_s
        out["trace_overhead_frac"] = traced_s / untraced_s - 1
        return out
