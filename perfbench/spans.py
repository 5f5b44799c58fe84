"""Outside-in tracing of resfin's layers, from the benchmark's own files.

``Tracer.install`` wraps the public functions of every ``resfin`` module and
a few methods.  A wrapper is patched into every module global and package
attribute that names the original, because callers such as ``chevalley``
bind ``mat_mul_mod`` by name.  Functions called millions of times
(``HOT``) get a call counter only; the rest record a span
``[name, start, end, parent]`` kept in memory.  ``self_times`` turns spans
into per-name self time: a span's duration minus its children's durations.

Pool workers forked by ``growth.farb_growth`` inherit the wrappers, but
their spans stay in the child; the parent's wait for them is in
``growth.farb_growth`` self time.

Nothing is patched until ``install`` is called, and ``uninstall`` restores
every original.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

MODULES = ("arith", "matgrp", "chevalley", "growth", "numring", "counterexamples", "cli")

# Millions of calls per pass: counted, never spanned.
HOT = frozenset({
    "arith.is_prime", "arith.lcm_valuation",
    "matgrp.mat", "matgrp.identity", "matgrp.elementary", "matgrp.mat_mul",
    "matgrp.mat_mul_mod", "matgrp.mat_inv_mod", "matgrp.reduce_mod", "matgrp.det",
    "matgrp.adjugate", "matgrp.detection_gcd", "matgrp.is_central_mod",
    "chevalley.graded_image", "chevalley.random_element_mod",
    "chevalley.GroupSpec.order_mod",
    "numring.reduce_element",
    "counterexamples.delta", "counterexamples.lamp_fold", "counterexamples.folded_mul",
    "counterexamples.semidirect_fold",
})

# Public functions left untraced: argparse set-up is part of cli.main's
# parse + dispatch + format self time.
UNTRACED = frozenset({"cli.build_parser", "cli.entry"})

# Methods traced besides the public module functions.
METHODS = (
    ("growth", "CandidateSeq", "r_log2"),
    ("chevalley", "GroupSpec", "order_mod"),
)

# Work items summed per call: name -> (stat, fn(args, kwargs, result) -> int).
ITEMS = {
    "arith.primes_up_to": ("sieved", lambda a, kw, r: max(a[0] if a else kw["limit"], 0)),
    "chevalley.enumerate_group": ("elements", lambda a, kw, r: len(r)),
    "growth.word_ball": ("elements", lambda a, kw, r: len(r)),
    "growth.evaluate_word": ("tokens", lambda a, kw, r: len(a[1] if len(a) > 1 else kw["word"])),
    "cli.emit": ("bytes", lambda a, kw, r: len(r)),
}

# Calls of these open a "detection" for matgrp.q_tested_per_detection.
DETECTIONS = frozenset({"matgrp.congruence_D", "growth.candidate_D_analytic"})


def self_times(spans) -> tuple[dict[str, float], float]:
    """Per-name self time of ``[name, start, end, parent]`` spans, and the
    total duration of root spans (parent -1).  A parent's self time is its
    duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    roots = 0.0
    for name, start, end, parent in spans:
        if parent < 0:
            roots += end - start
        else:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out, roots


def inclusive_time(spans, names: frozenset[str]) -> float:
    """Summed duration of spans named in ``names`` that have no ancestor
    named in ``names`` (so nested calls are not counted twice)."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.q_tested = 0
        self.checks = 0
        self.sampled_checks = 0
        self._detecting = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _counter(self, name: str, fn):
        calls = self.calls
        if name == "chevalley.GroupSpec.order_mod":
            @functools.wraps(fn)
            def wrapper(*a, **kw):
                calls[name] += 1
                if self._detecting:
                    self.q_tested += 1
                return fn(*a, **kw)
        else:
            @functools.wraps(fn)
            def wrapper(*a, **kw):
                calls[name] += 1
                return fn(*a, **kw)
        return wrapper

    def _spanner(self, name: str, fn):
        spans, stack, calls, clock = self.spans, self.stack, self.calls, time.perf_counter
        item = ITEMS.get(name)
        detection = name in DETECTIONS
        module = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(len(spans) - 1)
            if detection:
                self._detecting += 1
            rec[1] = clock()
            try:
                out = fn(*a, **kw)
            finally:
                rec[2] = clock()
                stack.pop()
                if detection:
                    self._detecting -= 1
            calls[name] += 1
            if item is not None:
                self.items[name + "." + item[0]] += item[1](a, kw, out)
            if module == "chevalley" and type(out).__name__ == "CheckResult":
                self.checks += 1
                if "sampled" in out.mode or "probabilistic" in out.mode:
                    self.sampled_checks += 1
            return out
        return wrapper

    def _wrap(self, name: str, fn):
        if name in HOT or inspect.isgeneratorfunction(fn):
            return self._counter(name, fn)
        return self._spanner(name, fn)

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import importlib

        import resfin

        mods = {m: importlib.import_module(f"resfin.{m}") for m in MODULES}
        namespaces = [resfin, *mods.values()]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or f"{short}.{attr}" in UNTRACED):
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:  # every module global that names fn
                    for other, val in list(vars(ns).items()):
                        if val is fn:
                            self._patch(ns, other, wrapped)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            self._patch(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", vars(cls)[meth]))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()
