"""Outside-in benchmark of chainlat: time to a verified report.

Run from the repository root:

    python3 bench/run.py --workload rung4 --seed 5 --seconds 20 --trace 0

The benchmark generates the workload's bundles from ``--seed`` and writes
them as input files (untimed).  It repeats the user's whole path on the
files, in passes over every bundle, until ``--seconds`` have been measured
and at least three passes made: parse_workload -> prepare -> analyze_bundle
(all modes, jobs=1) -> simulate -> check_safety.  Every pass is checked:
the oracle must report no violation, TSC <= TLT <= NCT must hold for every
chain, and reports, tightness and counters must be identical in every pass.

An untimed warm-up pass runs over the workload's anchor bundles, the first
bundles of its default seed.  Their reports, tightness and downgrade counts
must equal the ones recorded in baseline.json, and so must every exact
value of a seed recorded there: a run whose output differs fails, whatever
the seed.  A change that means to change the reports records them anew.

Timings are medians over passes, in reference-speed seconds (see
hostspeed.py); the measured seconds are printed beside them.  With
``--trace 0`` the last stdout line reports the end-to-end metrics.  With
``--trace 1`` one plain pass is followed by at least three passes with hooks
installed (see tracer.py), and the last line reports the per-layer split.
Metric names, units and bounds are listed in BENCHMARK.json at the
repository root; seed-commit numbers are in baseline.json.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Least number of measured passes of each kind (plain, traced) a run compares.
MIN_PASSES = 3
# Units of metrics that are exact: identical in every run of one code version.
EXACT_UNITS = ("count", "ratio", "percentile")
# Candidates for the tail percentile of per-instance analysis time.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def _import_chainlat():
    sys.path.insert(0, SRC)
    try:
        import chainlat
    except ImportError as exc:
        sys.exit("bench: cannot import chainlat from %s (%s)" % (SRC, exc))
    if not os.path.abspath(chainlat.__file__).startswith(SRC + os.sep):
        sys.exit("bench: chainlat imported from %s, not from %s" % (chainlat.__file__, SRC))


class Tightness:
    """Exact outputs of one pass: report digest, mean RMEL, hit ratio, downgrades."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.rmel = {"TSC": [], "TLT": []}
        self.hits = []
        self.down = {"TSC": 0, "TLT": 0}

    def add(self, latency, bundle, setup, report):
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows(latency.report_to_csv_rows(report))
        self.digest.update(latency.report_to_json(report, bundle).encode() + buf.getvalue().encode())
        for (cid, mode), r in sorted(report.chain_results.items()):
            if mode in self.rmel:
                self.rmel[mode].append(r.rmel)
            if mode == "TSC" and r.predicted_hit_ratio is not None:
                self.hits.append(r.predicted_hit_ratio)
        for (mode, *_), res in report.instances.items():
            if mode in self.down:
                base = setup.tasks[res.task_id].classification.accesses
                self.down[mode] += sum(
                    1 for aid, chmc in res.refined.items()
                    if chmc == "NC" and base[aid].l2_chmc in ("AH", "PS")
                )

    def values(self) -> dict:
        if not self.rmel["TSC"]:
            return {}
        return {
            "digest": self.digest.hexdigest(),
            "rmel_tsc": statistics.fmean(self.rmel["TSC"]),
            "rmel_tlt": statistics.fmean(self.rmel["TLT"]),
            "hit_ratio_tsc": statistics.fmean(self.hits),
            "downgrades_tsc": self.down["TSC"],
            "downgrades_tlt": self.down["TLT"],
        }


class Pass:
    """One run of the whole path over every bundle of the workload."""

    def __init__(self):
        self.seconds = dict.fromkeys(("parse", "prepare", "analyze", "verify", "total"), 0.0)
        self.scale = 1.0  # measured -> reference-speed seconds
        self.loops = []  # calibration loop times
        self.attempted = self.failed = 0
        self.tight = {}

    def ref(self, key) -> float:
        return self.seconds[key] * self.scale


def run_pass(w, inputs) -> Pass:
    from chainlat import AnalysisOptions, ingest, latency, sim
    from hostspeed import HostProbe

    p = Pass()
    configs = [sim.SimConfig(policy="random", seed=s) for s in range(w.random_paths)]
    configs.append(sim.SimConfig(policy="worst", seed=0))
    tight = Tightness()
    host = HostProbe()
    for gen_seed, (system, tasks, chains) in inputs:
        p.attempted += 1 + len(configs)
        t0 = perf_counter()
        try:
            bundle = ingest.parse_workload(system, tasks, chains)
            t1 = perf_counter()
            setup = latency.prepare(bundle)
            t2 = perf_counter()
            report = latency.analyze_bundle(bundle, AnalysisOptions(jobs=1), setup=setup)
            t3 = perf_counter()
        except Exception as exc:  # counted as failed operations
            print("bench: bundle %d failed: %r" % (gen_seed, exc), file=sys.stderr)
            p.failed += 1 + len(configs)
            continue
        found = []
        for cfg in configs:
            try:
                found.append(sim.check_safety(sim.simulate(bundle, cfg, setup=setup), report, setup))
            except Exception as exc:
                found.append([exc])
        t4 = perf_counter()
        for key, dt in (("parse", t1 - t0), ("prepare", t2 - t1), ("analyze", t3 - t2),
                        ("verify", t4 - t3), ("total", t4 - t0)):
            p.seconds[key] += dt
        for cfg, f in zip(configs, found):
            if f:
                print("bench: bundle %d %s path %d: %r" % (gen_seed, cfg.policy, cfg.seed, f[0]), file=sys.stderr)
                p.failed += 1
        for cid in sorted(setup.chains):
            if not report.mel(cid, "TSC") <= report.mel(cid, "TLT") <= report.mel(cid, "NCT"):
                print("bench: bundle %d chain %s breaks TSC <= TLT <= NCT" % (gen_seed, cid), file=sys.stderr)
                p.failed += 1
                break
        tight.add(latency, bundle, setup, report)
        host.probe()
    p.scale, p.loops = host.scale(), host.loops
    p.tight = tight.values()
    return p


def measure(w, inputs, seconds, trace):
    """Whole passes for about `seconds`, and at least MIN_PASSES of each kind.

    Traced runs make one plain pass first, then the traced passes.
    Returns (plain passes, [(tracer, traced pass)]).
    """
    from tracer import Tracer

    plain, traced = [], []
    begin = perf_counter()
    while True:
        if trace and plain:
            tracer = Tracer()
            with tracer:
                traced.append((tracer, run_pass(w, inputs)))
        else:
            plain.append(run_pass(w, inputs))
        measured = traced if trace else plain
        # Stop once less than half a pass of the budget is left.
        last = traced[-1][1] if traced else plain[-1]
        if perf_counter() - begin + last.seconds["total"] / 2 >= seconds and len(measured) >= MIN_PASSES:
            return plain, traced


def _med(xs):
    return statistics.median(xs) if xs else None


def e2e_metrics(passes, rss_mb):
    tight = passes[0].tight
    return {
        "total_s": (_med([p.ref("total") for p in passes]), "s"),
        "setup_s": (_med([p.ref("parse") + p.ref("prepare") for p in passes]), "s"),
        "analyze_s": (_med([p.ref("analyze") for p in passes]), "s"),
        "verify_s": (_med([p.ref("verify") for p in passes]), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "rmel_tsc": (tight.get("rmel_tsc"), "ratio"),
        "rmel_tlt": (tight.get("rmel_tlt"), "ratio"),
        "hit_ratio_tsc": (tight.get("hit_ratio_tsc"), "ratio"),
    }


def _tail(samples):
    """(value, percentile): the highest percentile with >= 10 samples beyond it."""
    xs = sorted(samples)
    for pct in TAIL_PERCENTILES:
        if len(xs) * (100.0 - pct) / 100.0 >= 10 or pct == TAIL_PERCENTILES[-1]:
            return xs[min(len(xs) - 1, round(pct / 100.0 * (len(xs) - 1)))], pct


def layer_metrics(traced, plain):
    """Per-layer split: medians over traced passes of reference-speed span times.

    Counters are exact, so the first traced pass stands for all of them.
    """
    L, I, C, S = "chainlat.latency.", "chainlat.interference.", "chainlat.context.", "chainlat.sim."
    t0, p0 = traced[0]

    def span(name, hook, self_time=False):
        if not t0.has(hook):
            return None
        return _med([(tr.self_ns if self_time else tr.total)[name] / 1e9 * p.scale for tr, p in traced])

    def count(key, hook, table=None):
        return (t0.count if table is None else table)[key] if t0.has(hook) else None

    ovl, ai = I + "hierarchical_overlap", L + "analyze_instance"
    tests = t0.calls["hierarchical_overlap"]
    tsc = [ns / 1e6 * p0.scale for ns in t0.durations["analyze_instance.TSC"]]
    tail_ms, tail_pct = _tail(tsc) if tsc and t0.has(ai) else (None, None)
    traced_s = _med([p.ref("total") for _, p in traced])
    plain_s = _med([p.ref("total") for p in plain])
    rows = [
        ("ingest.parse_s", _med([p.ref("parse") for _, p in traced]), "s"),
        ("latency.prepare_s", span("prepare", L + "prepare"), "s"),
        ("cache_ai.classify_s", span("classify_task", L + "classify_task"), "s"),
        ("cache_ai.fixpoint_passes", count("fixpoint_passes", L + "classify_task"), "count"),
        ("context.task_ctx_s", span("TaskContext", L + "TaskContext"), "s"),
        ("latency.jobs", count("jobs", L + "prepare"), "count"),
        ("cost.contract_s", span("contract_task", L + "contract_task"), "s"),
        ("cost.contract_calls", count("contract_task", L + "contract_task", t0.calls), "count"),
        ("overlap.s", span("hierarchical_overlap", ovl), "s"),
        ("overlap.tests", count("hierarchical_overlap", ovl, t0.calls), "count"),
        ("overlap.decided_job", count("overlap_decided.job", ovl), "count"),
        ("overlap.decided_outer_loop", count("overlap_decided.outer-loop", ovl), "count"),
        ("overlap.decided_block", count("overlap_decided.block", ovl), "count"),
        ("overlap.positive_ratio",
         (t0.count["overlap_positive"] / tests if tests else 0.0) if t0.has(ovl) else None, "ratio"),
        ("context.block_view_s", span("block_view", C + "JobContext.block_view"), "s"),
        ("context.block_views", count("block_view", C + "JobContext.block_view", t0.calls), "count"),
        ("interference.collect_s", span("collect_overlap_set", L + "collect_overlap_set"), "s"),
        ("interference.candidates", count("candidates", L + "collect_overlap_set"), "count"),
        ("interference.contrib_s", span("job_contribution", L + "job_contribution"), "s"),
        ("interference.mwis_s", span("mwis_bound", I + "mwis_bound"), "s"),
        ("interference.mwis_calls", count("mwis_bound", I + "mwis_bound", t0.calls), "count"),
        ("interference.mwis_fallbacks",
         t0.count["mwis_fallbacks"] if t0.has(I + "mwis_bound", I + "MWIS_EXACT_CAP") else None, "count"),
        ("interference.mwis_max_vertices", count("mwis_max_vertices", I + "mwis_bound"), "count"),
        ("latency.tsc_self_s", span("analyze_instance.TSC", ai, self_time=True), "s"),
        ("latency.tlt_self_s", span("analyze_instance.TLT", ai, self_time=True), "s"),
        ("latency.nct_self_s", span("analyze_instance.NCT", ai, self_time=True), "s"),
        ("latency.tsc_instance_p50_ms", _med(tsc) if t0.has(ai) else None, "ms"),
        ("latency.tsc_instance_tail_ms", tail_ms, "ms"),
        ("latency.tsc_instance_tail_pct", tail_pct, "percentile"),
        ("latency.tsc_instances", len(tsc) if t0.has(ai) else None, "count"),
        ("latency.assembly_s", span("analyze_bundle", L + "analyze_bundle", self_time=True), "s"),
        ("cache_ai.downgrades_tsc", p0.tight.get("downgrades_tsc"), "count"),
        ("cache_ai.downgrades_tlt", p0.tight.get("downgrades_tlt"), "count"),
        ("sim.simulate_s", span("simulate", S + "simulate"), "s"),
        ("sim.check_s", span("check_safety", S + "check_safety"), "s"),
        ("sim.paths", count("simulate", S + "simulate", t0.calls), "count"),
        ("sim.l2_lookups", count("l2_lookups", S + "simulate"), "count"),
        ("sim.block_occurrences", count("block_occurrences", S + "simulate"), "count"),
        ("host.loop_ms", 1e3 * _med([x for _, p in traced for x in p.loops]), "ms"),
        ("trace.total_s", traced_s, "s"),
        ("trace.untraced_total_s", plain_s, "s"),
        ("trace.overhead_pct", 100.0 * (traced_s / plain_s - 1.0), "%"),
    ]
    return {name: (value, unit) for name, value, unit in rows}


def _check_recorded(what, recorded, exact, failures, required=False) -> str:
    """Compare exact values with the ones recorded in baseline.json; a difference fails."""
    if not recorded:
        if required:
            failures.append("%s: no values recorded in baseline.json" % what)
        return "%s: no values recorded" % what
    differ = sorted(k for k in exact if k in recorded and recorded[k] != exact[k])
    if not differ:
        return "%s: matches baseline.json" % what
    failures.append("%s: %s differ from baseline.json" % (what, ", ".join(differ)))
    return "%s: DIFFERS from baseline.json in %s" % (what, ", ".join(differ))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's default seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_chainlat()
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (have %s)" % (args.workload, ", ".join(WORKLOADS)))
    w = WORKLOADS[args.workload]
    seed = w.default_seed if args.seed is None else args.seed

    workdir = os.path.join(HERE, ".work", "%s-%d-%d" % (w.name, seed, os.getpid()))
    try:
        anchors = make_inputs(w, w.default_seed, os.path.join(workdir, "anchors"), w.anchors)
        inputs = make_inputs(w, seed, workdir, w.bundles)
        # Warm-up: the first seconds of work in a fresh process run slower.
        warm = run_pass(w, anchors)
        plain, traced = measure(w, inputs, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    passes = plain + [p for _, p in traced]
    failures = []
    if len({json.dumps(p.tight, sort_keys=True) for p in passes}) > 1 \
            or len({json.dumps([sorted(t.count.items()), sorted(t.calls.items())]) for t, _ in traced}) > 1:
        failures.append("reports, tightness or counters differ between passes")
    attempted = sum(p.attempted for p in [warm] + passes)
    failed = sum(p.failed for p in [warm] + passes)
    if args.trace:
        metrics = layer_metrics(traced, plain)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = e2e_metrics(plain, rss_mb)
    exact = {name: v for name, (v, unit) in metrics.items() if unit in EXACT_UNITS}
    exact["report_sha256"] = passes[0].tight.get("digest")
    with open(os.path.join(HERE, "baseline.json")) as fh:
        recorded = json.load(fh)["workloads"].get(w.name, {})
    anchor_status = _check_recorded("anchor bundles", recorded.get("anchors"), warm.tight, failures,
                                    required=True)
    status = _check_recorded("seed %d" % seed, recorded.get("exact", {}).get(str(seed)), exact, failures)

    print("workload %s seed %d: %d bundles (generator seeds %s), %d anchor bundles, %d passes"
          % (w.name, seed, len(inputs), ",".join(str(s) for s, _ in inputs), len(anchors), len(passes)))
    print("measured seconds per pass: %s; host scale %s" % (
        " ".join("%.3f" % p.seconds["total"] for p in passes), " ".join("%.3f" % p.scale for p in passes)))
    print("%s; report sha256 %s, %s" % (anchor_status, exact["report_sha256"], status))
    print("anchor values: %s" % json.dumps(warm.tight, sort_keys=True))
    for f in failures:
        print("bench: FAILED: %s" % f, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print("  %-34s %s %s" % (name, "null" if value is None else "%.6g" % value, unit))
    print("exact values: %s" % json.dumps(exact, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
