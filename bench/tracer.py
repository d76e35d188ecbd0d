"""Per-layer spans recorded from outside chainlat.

Each hook replaces a public callable at the place the caller looks it up:
``latency`` imports with ``from .interference import ...``, so patching
``chainlat.interference.collect_overlap_set`` alone would record nothing
for the analysis.  A span's self time is its duration minus the time
covered by its direct child spans.  A hooked name that no longer exists
is reported as missing, and every metric that depends on it reads null.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter_ns


def _arg(a, k, index, name):
    return k[name] if name in k else a[index]


def _on_classify(tr, a, k, res):
    tr.count["fixpoint_passes"] += res.l1_passes + res.l2_passes


def _on_prepare(tr, a, k, res):
    tr.count["jobs"] += len(res.jobs)


def _on_overlap(tr, a, k, res):
    tr.count["overlap_decided." + res.decided_at] += 1
    tr.count["overlap_positive"] += bool(res)


def _on_collect(tr, a, k, res):
    tr.count["candidates"] += len(_arg(a, k, 2, "blocks"))


def _on_mwis(tr, a, k, res):
    n = len(_arg(a, k, 0, "graph").weights)
    cap = _arg(a, k, 1, "exact_cap") if len(a) > 1 or "exact_cap" in k else tr.mwis_cap
    tr.count["mwis_fallbacks"] += n > cap
    tr.count["mwis_max_vertices"] = max(tr.count["mwis_max_vertices"], n)


def _on_simulate(tr, a, k, res):
    tr.count["l2_lookups"] += sum(1 for e in res.accesses if e.level != "L1")
    tr.count["block_occurrences"] += len(res.blocks)


def _mode_label(a, k):
    return "analyze_instance." + _arg(a, k, 2, "mode")


# Spans whose per-call durations are kept for percentiles.
SAMPLED = ("analyze_instance.TSC",)

# (module, attribute path, span name or labeller, observer)
HOOKS = (
    ("chainlat.latency", "prepare", "prepare", _on_prepare),
    ("chainlat.latency", "classify_task", "classify_task", _on_classify),
    ("chainlat.latency", "contract_task", "contract_task", None),
    ("chainlat.latency", "TaskContext", "TaskContext", None),
    ("chainlat.latency", "analyze_instance", _mode_label, None),
    ("chainlat.latency", "collect_overlap_set", "collect_overlap_set", _on_collect),
    ("chainlat.latency", "job_contribution", "job_contribution", None),
    ("chainlat.latency", "analyze_bundle", "analyze_bundle", None),
    ("chainlat.interference", "hierarchical_overlap", "hierarchical_overlap", _on_overlap),
    ("chainlat.interference", "mwis_bound", "mwis_bound", _on_mwis),
    ("chainlat.context", "JobContext.block_view", "block_view", None),
    ("chainlat.sim", "simulate", "simulate", _on_simulate),
    ("chainlat.sim", "check_safety", "check_safety", None),
)


class Tracer:
    """Installs the hooks while active; sums the spans and counters of one pass."""

    def __init__(self):
        self.missing = []
        self._saved = []
        self.mwis_cap = getattr(importlib.import_module("chainlat.interference"), "MWIS_EXACT_CAP", None)
        if self.mwis_cap is None:
            self._mark_missing("chainlat.interference.MWIS_EXACT_CAP", "not found")
        self.total = defaultdict(int)  # span name -> ns
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self.durations = defaultdict(list)  # sampled span name -> per-call ns
        self._stack = []  # child-time accumulator per open span

    def _mark_missing(self, full, why):
        if full not in self.missing:
            self.missing.append(full)
            print("bench: warning: hook %s %s; its metrics read null" % (full, why), file=sys.stderr)

    def _wrap(self, fn, full, label, observe):
        tracer = self

        def hooked(*a, **k):
            name = label(a, k) if callable(label) else label
            stack = tracer._stack
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                res = fn(*a, **k)
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                tracer.total[name] += dt
                tracer.self_ns[name] += dt - child
                tracer.calls[name] += 1
                if name in SAMPLED:
                    tracer.durations[name].append(dt)
            if observe is not None and full not in tracer.missing:
                try:
                    observe(tracer, a, k, res)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    tracer._mark_missing(full, "returned an unexpected result (%r)" % exc)
            return res

        return hooked

    def __enter__(self):
        for mod_name, path, label, observe in HOOKS:
            owner = importlib.import_module(mod_name)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            full = "%s.%s" % (mod_name, path)
            if fn is None:
                self._mark_missing(full, "not found")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, full, label, observe))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def has(self, *paths) -> bool:
        return not any(p in self.missing for p in paths)
