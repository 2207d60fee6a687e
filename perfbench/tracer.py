"""Runtime tracing of coordline's public functions, installed from outside the package.

Tracer.install() replaces every binding of the functions and methods in SPANS
and COUNTS with a wrapper: each module attribute that refers to the function
(``coordline.codec.staircase_map`` and ``coordline.probability.staircase_map``
are separate bindings of one function) and the class attribute for methods.
Wrappers record only while ``tracer.request`` is set, so work the benchmark
does between requests (reference checks) is never traced. uninstall() puts
the original objects back.

A span is (name, start, end, parent index, request id); self time is a span's
duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict


def _run_scheme_after(tracer, args, kwargs, result, token):
    tracer.counts["codec.trials"] += int(kwargs.get("trials", args[2] if len(args) > 2 else 0))
    tracer.counts["codec.degenerate_trials"] += int(getattr(result, "degenerate_trials", 0))
    tracer.counts["codec.budget_violations"] += len(getattr(result, "budget_violations", ()))


def _build_codebooks_after(tracer, args, kwargs, result, token):
    for family in ("a", "b", "c"):
        for book in getattr(result, family, {}).values():
            tracer.counts["codebooks.stored_symbols"] += int(book.words.size)
            tracer.counts["codebooks.parent_blocks"] += int(book.parents.size)


def _exact_induced_after(tracer, args, kwargs, result, token):
    # computed from the realized sizes, not counted: |X1|^n times every index range
    cb = args[0]
    paths = cb.spec.network.alphabets[0].size ** cb.n
    for size in cb.sizes.values():
        paths *= int(size)
    tracer.counts["evalharness.enum_paths"] += paths


def _thm1_after(tracer, args, kwargs, result, token):
    tracer.counts["rates.thm1_check.constraints"] += len(result.constraints)


def _fme_after(tracer, args, kwargs, result, token):
    tracer.counts["fme.rows_in"] += len(args[0].rows)
    tracer.counts["fme.rows_out"] += len(result.rows)


def _node1_before(tracer, args, kwargs):
    return tracer.counts["codec.x1_likelihood.calls"]


def _node1_after(tracer, args, kwargs, result, token):
    # a cached posterior is returned without evaluating any likelihood
    if tracer.counts["codec.x1_likelihood.calls"] == token:
        tracer.counts["codec.node1_posterior.hits"] += 1


# (span name, module, attribute, hooks); "Class.method" targets a method. hooks is
# None or (before, after): before(tracer, args, kwargs) returns a token passed to
# after(tracer, args, kwargs, result, token).
# Several functions may share one span name (the five region checks).
SPANS = [
    ("cli.run_command", "coordline.cli", "run_command", None),
    ("cli.Experiment", "coordline.cli", "Experiment.__init__", None),
    ("linestruct.build_aux_joint", "coordline.linestruct", "build_aux_joint", None),
    ("linestruct.from_joint", "coordline.linestruct", "AuxSpec.from_joint", None),
    ("linestruct.validate_aux", "coordline.linestruct", "validate_aux", None),
    ("probability.staircase_map", "coordline.probability", "staircase_map", None),
    ("probability.info_measure", "coordline.probability", "info_measure", None),
    ("probability.product_extend", "coordline.probability", "product_extend", None),
    ("rates.thm1_check", "coordline.rates", "thm1_check", (None, _thm1_after)),
    ("rates.thm2_check_all", "coordline.rates", "thm2_check_all", None),
    ("rates.region_check", "coordline.rates", "large_cr_region_check", None),
    ("rates.region_check", "coordline.rates", "deterministic_region_check", None),
    ("rates.region_check", "coordline.rates", "zero_local_region_check", None),
    ("rates.region_check", "coordline.rates", "functional_region_check", None),
    ("rates.region_check", "coordline.rates", "markov_region_check", None),
    ("fme.fme_project", "coordline.fme", "fme_project", (None, _fme_after)),
    ("codebooks.build_codebooks", "coordline.codebooks", "build_codebooks", (None, _build_codebooks_after)),
    ("codec.Scheme", "coordline.codec", "Scheme.__init__", None),
    ("codec.node1_posterior", "coordline.codec", "Scheme.node1_posterior", (_node1_before, _node1_after)),
    ("codec.k_posterior", "coordline.codec", "Scheme.k_posterior", None),
    ("codec.selection", "coordline.codec", "Scheme.selection", None),
    ("codec.run_scheme", "coordline.codec", "run_scheme", (None, _run_scheme_after)),
    ("evalharness.exact_induced", "coordline.evalharness", "exact_induced", (None, _exact_induced_after)),
    ("evalharness.coordination_tv", "coordline.evalharness", "coordination_tv", None),
    ("evalharness.cr_independence", "coordline.evalharness", "cr_independence", None),
    ("evalharness.piecing_check", "coordline.evalharness", "piecing_check", None),
    ("evalharness.mc_coordination_tv", "coordline.evalharness", "mc_coordination_tv", None),
]

# Calls too frequent for a span each: counted only, their time stays with the caller.
COUNTS = [
    ("codec.x1_likelihood.calls", "coordline.codec", "Scheme.x1_likelihood"),
    ("codebooks.lookups", "coordline.codebooks", "Codebook.a_codeword"),
    ("codebooks.lookups", "coordline.codebooks", "Codebook.b_codeword"),
    ("codebooks.lookups", "coordline.codebooks", "Codebook.c_codeword"),
]

LAYERS = ("cli", "linestruct", "probability", "rates", "fme", "codebooks", "codec", "evalharness")


class Tracer:
    """Span and count recorder for the traced benchmark run."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = None
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, hooks):
        tracer = self
        before, after = hooks or (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            token = before(tracer, args, kwargs) if before else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.request)
            if after:
                try:
                    after(tracer, args, kwargs, result, token)
                except (AttributeError, IndexError, TypeError) as exc:
                    # the program's internals moved; report it instead of failing the request
                    tracer.missing.add(f"{name} counter: {exc!r}")
            return result

        return wrapper

    def _count(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.request is not None:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        targets = [(n, m, a, "span", hooks) for n, m, a, hooks in SPANS]
        targets += [(n, m, a, "count", None) for n, m, a in COUNTS]
        for name, module, attr, kind, hooks in targets:
            owner_name, _, member = attr.rpartition(".")
            owner = sys.modules.get(module)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            if owner is None or member not in vars(owner):
                self.missing.add(f"{module}.{attr}")
            elif owner_name:
                self._patch_method(owner, member, name, kind, hooks)
            else:
                self._patch_function(vars(owner)[member], name, kind, hooks)

    def _make(self, fn, name, kind, hooks):
        return self._span(name, fn, hooks) if kind == "span" else self._count(name, fn)

    def _patch_function(self, original, name, kind, hooks) -> None:
        wrapper = self._make(original, name, kind, hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "coordline" or mod_name.startswith("coordline.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, method, name, kind, hooks) -> None:
        raw = vars(cls)[method]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._make(raw.__func__, name, kind, hooks))
        else:
            new = self._make(raw, name, kind, hooks)
        self._undo.append((cls, method, raw))
        setattr(cls, method, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and inclusive seconds, summed."""
        self_time = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        totals: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        for (name, start, end, _, _), own in zip(self.spans, self_time):
            row = totals[name]
            row["calls"] += 1
            row["self_s"] += own
            row["incl_s"] += end - start
        return dict(totals)

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, request id."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
