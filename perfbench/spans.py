"""Span tracing of the scmech layers from outside the package.

``Tracer.install`` wraps the public functions of every ``scmech`` module,
and the methods the per-layer metrics name, in place: each binding of a
wrapped function in any ``scmech`` module is replaced, because several
modules import names from each other (``scmech.optimize`` binds
``from_range``, ``expected_revenue`` and ``verify_mechanism`` itself).
``uninstall`` puts the originals back.  The package itself is not edited.

A span is (name, start, end, parent span, job id, exception code).  Spans
live in flat arrays while the traced work runs; ``aggregate`` reduces them
to exact call counts and self times, and ``save`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

MODULES = ("domain", "measure", "mechanism", "optimize", "verify",
           "multibuyer", "serialize", "cli")

# Methods wrapped in addition to the module-level public functions.
METHODS = {
    "domain": {"PreferenceDomain": ("special_preference", "canonical_payment",
                                    "canonical_payment_many", "curve_payment",
                                    "prefers")},
    "measure": {"TypeDistribution": ("cdf", "pdf", "ppf")},
    # TailRule.bundle is where a countable range's best bundles on the line
    # are computed, lazily, on first use.
    "mechanism": {"FiniteMechanism": ("evaluate",),
                  "CountableMechanism": ("evaluate",),
                  "TailRule": ("bundle",)},
}

# Exception codes stored per span.
OK, DOMAIN_ERROR, SCMECH_ERROR, OTHER_ERROR = 0, 1, 2, 3

SOLVE_SPAN = "optimize.solve_finite"
OBJECTIVE_SPAN = "optimize.payments_from_breakpoints"


class Tracer:
    """Records one span per call of a wrapped scmech function."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counters: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.clear()

    def clear(self):
        self.start, self.end = array("q"), array("q")
        self.parent, self.name = array("i"), array("i")
        self.job_of, self.exc = array("i"), array("b")
        self.counters = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        tr = self
        if name == "domain.PreferenceDomain.special_preference":
            # closed form unless the family has none, as the method decides
            closed, bisect = (tr._id("domain.special_preference.closed"),
                              tr._id("domain.special_preference.bisect"))

            def pick(args):
                return bisect if args[0].family.special is None else closed
        else:
            nid = tr._id(name)

            def pick(args):
                return nid
        after = None
        if name == "verify.check_strategy_proof":
            def after(args, kwargs, result):
                tr.counters["verify.pairs_checked"] += result.grid_size ** 2
                tr.counters["verify.violations"] += len(result.violations)
        elif name in ("verify.check_individual_rationality", "verify.check_shape"):
            def after(args, kwargs, result):
                tr.counters["verify.violations"] += len(result.violations)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tr.start)
            tr.parent.append(tr._stack[-1] if tr._stack else -1)
            tr.name.append(pick(args))
            tr.job_of.append(tr.job)
            tr.exc.append(OK)
            tr.end.append(0)
            tr._stack.append(sid)
            tr.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tr.exc[sid] = _exc_code(exc)
                raise
            finally:
                tr.end[sid] = perf_counter_ns()
                tr._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every binding of the traced functions in loaded scmech modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"scmech.{m}") for m in MODULES}
        targets = []  # (original, span name, [(owner, attr)])
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                targets.append((fn, f"{short}.{attr}", []))
            for cls_name, meths in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in meths:
                    targets.append((vars(cls)[meth], f"{short}.{cls_name}.{meth}",
                                    [(cls, meth)]))
        by_obj = {id(fn): bindings for fn, _, bindings in targets}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "scmech" and not mod_name.startswith("scmech."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in by_obj and inspect.isfunction(val):
                    by_obj[id(val)].append((mod, attr))
        for fn, name, bindings in targets:
            wrapper = self._wrap(fn, name)
            for owner, attr in bindings:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        return self

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def arrays(self) -> dict:
        return {
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "job": np.frombuffer(self.job_of, dtype=np.int32),
            "exc": np.frombuffer(self.exc, dtype=np.int8),
        }

    def aggregate(self) -> dict:
        """Exact per-span-name totals of this tracer's spans.

        ``spans[name] = [calls, self_s, domain_errors, other_errors]``; a
        span's self time is its duration minus the durations of its direct
        children (one thread, so children never overlap).
        """
        a = self.arrays()
        n, k = len(a["name"]), len(self.names)
        dur = (a["end_ns"] - a["start_ns"]).astype(float)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=n)
        self_s = np.bincount(a["name"], weights=dur - child, minlength=k) * 1e-9
        calls = np.bincount(a["name"], minlength=k)
        dom = np.bincount(a["name"][a["exc"] == DOMAIN_ERROR], minlength=k)
        other = np.bincount(a["name"][a["exc"] > DOMAIN_ERROR], minlength=k)
        spans = {nm: [int(calls[i]), float(self_s[i]), int(dom[i]), int(other[i])]
                 for i, nm in enumerate(self.names) if calls[i]}
        counters = dict(self.counters)
        counters["optimize.objective_evals"] = self._objective_evals(a)
        counters["trace.spans"] = n
        return {"spans": spans, "counters": counters}

    def _objective_evals(self, a) -> int:
        """Calls of the profile objective made inside ``solve_finite``."""
        if SOLVE_SPAN not in self._ids or OBJECTIVE_SPAN not in self._ids:
            return 0
        inside = a["name"] == self._ids[SOLVE_SPAN]
        parent = a["parent"]
        has_parent = parent >= 0
        while True:  # propagate down the span tree, one level per round
            grown = inside.copy()
            grown[has_parent] |= inside[parent[has_parent]]
            if np.array_equal(grown, inside):
                break
            inside = grown
        return int(np.count_nonzero(inside & (a["name"] == self._ids[OBJECTIVE_SPAN])))

    def save(self, path):
        np.savez(path, names=np.asarray(self.names), **self.arrays())


def _exc_code(exc: BaseException) -> int:
    from scmech.errors import DomainError, ScmechError

    if isinstance(exc, DomainError):
        return DOMAIN_ERROR
    if isinstance(exc, ScmechError):
        return SCMECH_ERROR
    return OTHER_ERROR


def merge(aggs) -> dict:
    """Sum aggregates of several traced processes or passes."""
    spans: dict = {}
    counters: Counter = Counter()
    for agg in aggs:
        for nm, row in agg["spans"].items():
            acc = spans.setdefault(nm, [0, 0.0, 0, 0])
            for i, v in enumerate(row):
                acc[i] += v
        counters.update(agg["counters"])
    return {"spans": spans, "counters": dict(counters)}
