"""End-to-end latency analysis over one hyperperiod.

Per job instance the interference bounds refine the exclusive-use CHMC,
block costs are recomputed, and a structural longest path yields the
instance's refined WCET.  Three modes share the machinery:

  TSC  block-level reuse windows bound the interference per access;
  TLT  interference from every foreign job whose lifetime overlaps;
  NCT  every shared-cache access charged as a miss (the baseline).

Refined bounds are capped by the next-coarser mode's bound, so the
dominance TSC <= TLT <= NCT holds per instance by construction (all three
are sound upper bounds on the same quantity, so the minimum is sound).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from . import ingest
from .cache_ai import AH, NC, PS, classify_task, refine_chmc
from .context import BlockView, JobContext, TaskContext, compute_prs_time
from .cost import INIT_WORST, WORST, contract_task
from .interference import (
    COUNT_DISTINCT,
    ET_RULE_SUM,
    collect_overlap_set,
    interference_bound,
    job_contribution,
    job_set_weight,
)
from .model import Interval, JobInstance, ValidationError, WorkloadBundle

MODES = ("TSC", "TLT", "NCT")

MAX_HYPERPERIOD = 1 << 62


@dataclass
class AnalysisOptions:
    modes: tuple = MODES
    counting: str = COUNT_DISTINCT
    et_rule: str = ET_RULE_SUM
    refinement_passes: int = 1
    jobs: int = 1


@dataclass
class TaskAnalysis:
    task_id: str
    classification: object
    contracted_init: object
    ctx: TaskContext
    cip_wcet: int
    bcet: int


@dataclass
class ChainSetup:
    chain: object
    cips: tuple
    bcets: tuple


@dataclass
class Setup:
    bundle: WorkloadBundle
    tasks: dict  # task id -> TaskAnalysis
    chains: dict  # chain id -> ChainSetup
    hyper: int
    jobs: dict  # (chain id, period index, task index) -> JobInstance
    set_candidates: dict = field(default_factory=dict, repr=False)

    def job_ctx(self, key) -> JobContext:
        job = self.jobs[key]
        return JobContext(job, self.tasks[job.task_id].ctx)


@dataclass
class InstanceResult:
    chain_id: str
    period_index: int
    task_index: int
    task_id: str
    mode: str
    wcet: int
    refined: dict = field(default_factory=dict)  # access id -> CHMC after refinement
    mc: dict = field(default_factory=dict)  # access id -> interference bound
    debug: dict = field(default_factory=dict)  # access id -> (raw sum, after MWIS)


@dataclass
class ChainModeResult:
    chain_id: str
    mode: str
    mel: int
    instance_latencies: tuple
    rmel: Optional[float] = None
    predicted_hit_ratio: Optional[float] = None
    simulated_hit_ratio: Optional[float] = None


@dataclass
class AnalysisReport:
    hyperperiod: int
    chain_results: dict  # (chain id, mode) -> ChainModeResult
    instances: dict  # (mode, chain id, k, task index) -> InstanceResult
    setup: Setup = None

    def mel(self, chain_id, mode):
        return self.chain_results[(chain_id, mode)].mel


def hyperperiod(periods) -> int:
    h = 1
    for p in periods:
        if p <= 0:
            raise ValidationError("non-positive period %r" % p)
        h = math.lcm(h, p)
        if h > MAX_HYPERPERIOD:
            raise ValidationError("hyperperiod overflow beyond %d" % MAX_HYPERPERIOD)
    return h


def prepare(bundle: WorkloadBundle) -> Setup:
    """Per-task init analysis, period/offset completion, job enumeration."""
    tasks = {}
    for tid in sorted(bundle.tasks):
        task = bundle.tasks[tid]
        cls = classify_task(task, bundle.system)
        con = contract_task(task, cls, bundle.system, worst_mode=INIT_WORST)
        tasks[tid] = TaskAnalysis(tid, cls, con, TaskContext(con), con.wcet, con.bcet)

    chains = {}
    for cid in sorted(bundle.chains):
        chain = bundle.chains[cid]
        cips = tuple(tasks[t].cip_wcet for t in chain.tasks)
        bcets = tuple(tasks[t].bcet for t in chain.tasks)
        if chain.period is None:
            chain = replace(chain, period=ingest.assign_period(cips, bundle.system.period_table))
        if sum(cips) > chain.period:
            raise ValidationError(
                "chain %s unschedulable: total CIP-WCET %d > period %d" % (cid, sum(cips), chain.period)
            )
        if chain.trigger == "TT" and chain.offsets is None:
            chain = replace(chain, offsets=ingest.assign_tt_offsets(cips))
        chains[cid] = ChainSetup(chain, cips, bcets)

    hyper = hyperperiod([cs.chain.period for cs in chains.values()])
    jobs = {}
    for cid, cs in chains.items():
        for k in range(hyper // cs.chain.period):
            for i, tid in enumerate(cs.chain.tasks):
                release = compute_prs_time(cs.chain, i, k, cs.bcets, cs.cips)
                jobs[(cid, k, i)] = JobInstance(
                    cid, i, tid, k, release, Interval(release.lo, release.hi + cs.cips[i])
                )
    return Setup(bundle, tasks, chains, hyper, jobs)


# ---------------------------------------------------------------------------
# Interference per instance


def _foreign_chains(setup: Setup, core: int):
    return [
        cs for cs in setup.chains.values() if cs.chain.core != core
    ]


def _tlt_pressure(setup: Setup, target_job: JobInstance, sets_of_interest, counting: str) -> dict:
    """Foreign same-set pressure per set at job-lifetime scope."""
    h = setup.hyper
    out = {s: 0 for s in sets_of_interest}
    for fcs in _foreign_chains(setup, setup.chains[target_job.chain_id].chain.core):
        fcid = fcs.chain.id
        for k in range(setup.hyper // fcs.chain.period):
            for i in range(len(fcs.chain.tasks)):
                fj = setup.jobs[(fcid, k, i)]
                fcls = setup.tasks[fj.task_id].classification
                # Hyperperiod-shifted copies are distinct executions; a
                # window may straddle the boundary and meet two of them.
                for shift in (-h, 0, h):
                    if target_job.lifetime.overlaps(fj.lifetime.shift(shift)):
                        for s in out:
                            out[s] += job_set_weight(fcls, s, counting)
    return out


def _set_candidates(setup: Setup, task_id: str, l2_set: int):
    """Foreign-task blocks carrying shared-cache visible accesses to one set."""
    key = (task_id, l2_set)
    if key not in setup.set_candidates:
        cls = setup.tasks[task_id].classification
        setup.set_candidates[key] = tuple(
            sorted({c.block_id for c in cls.visible() if c.l2_set == l2_set})
        )
    return setup.set_candidates[key]


def _tsc_mc(setup: Setup, jctx: JobContext, options: AnalysisOptions) -> dict:
    """Interference bound per AH/PS access of one job under block-level windows."""
    job = jctx.job
    core = setup.chains[job.chain_id].chain.core
    cls_table = setup.tasks[job.task_id].classification
    h = setup.hyper

    targets = [c for c in cls_table.visible() if c.l2_chmc in (AH, PS)]
    mc, debug = {}, {}
    fjctx_cache = {}
    for cls in sorted(targets, key=lambda c: c.access_id):
        tv = jctx.target_view(cls.access_id)
        # Hyperperiod-shifted foreign jobs are met by shifting the one-interval
        # target view the other way; overlap is translation-invariant.
        (window,), = tv.window_levels
        shifted = [(shift, BlockView(tv.job_lifetime.shift(-shift), None, ((window.shift(-shift),),)))
                   for shift in (-h, 0, h)]
        total = raw_total = mwis_total = 0
        for fcs in _foreign_chains(setup, core):
            fcid = fcs.chain.id
            per_job = []
            for k in range(h // fcs.chain.period):
                for i in range(len(fcs.chain.tasks)):
                    fj = setup.jobs[(fcid, k, i)]
                    fcls = setup.tasks[fj.task_id].classification
                    candidates = _set_candidates(setup, fj.task_id, cls.l2_set)
                    if not candidates:
                        continue
                    for shift, view in shifted:
                        if not view.job_lifetime.overlaps(fj.lifetime):
                            continue
                        key = (fcid, k, i)
                        if key not in fjctx_cache:
                            fjctx_cache[key] = setup.job_ctx(key)
                        blocks = collect_overlap_set(view, fjctx_cache[key], candidates)
                        raw, contrib = job_contribution(
                            fcls, setup.bundle.tasks[fj.task_id], blocks, cls.l2_set, options.counting
                        )
                        raw_total += raw
                        mwis_total += contrib
                        if contrib:
                            per_job.append((fj.release.shift(shift), contrib))
            total += interference_bound(per_job, fcs.chain.trigger, options.et_rule)
        mc[cls.access_id] = total
        debug[cls.access_id] = (raw_total, mwis_total)
    return mc, debug


def _refine_and_bound(setup: Setup, task_id: str, mc: dict) -> tuple:
    """Apply the eviction condition and recompute the structural WCET."""
    cls_table = setup.tasks[task_id].classification
    ways = setup.bundle.system.l2.ways
    refined = {}
    for aid, cls in cls_table.accesses.items():
        if cls.l2_chmc in (AH, PS):
            refined[aid] = refine_chmc(cls, mc.get(aid, 0), ways)
        else:
            refined[aid] = cls.l2_chmc
    con = contract_task(setup.bundle.tasks[task_id], cls_table, setup.bundle.system,
                        refined=refined, worst_mode=WORST)
    return refined, con.wcet


def analyze_instance(setup: Setup, key, mode: str, options: AnalysisOptions = None,
                     tlt_result: InstanceResult = None) -> InstanceResult:
    """Refined classifications and TSC-WCET of one job instance in one mode."""
    options = options or AnalysisOptions()
    job = setup.jobs[key]
    ta = setup.tasks[job.task_id]
    cid, k, i = key

    if mode == "NCT":
        refined = {aid: (c.l2_chmc if c.l2_chmc == "BYPASS" else NC) for aid, c in ta.classification.accesses.items()}
        return InstanceResult(cid, k, i, job.task_id, mode, ta.cip_wcet, refined, {})

    if mode == "TLT":
        sets = {c.l2_set for c in ta.classification.visible() if c.l2_chmc in (AH, PS)}
        pressure = _tlt_pressure(setup, job, sets, options.counting)
        mc = {
            c.access_id: pressure[c.l2_set]
            for c in ta.classification.visible()
            if c.l2_chmc in (AH, PS)
        }
        refined, wcet = _refine_and_bound(setup, job.task_id, mc)
        return InstanceResult(cid, k, i, job.task_id, mode, min(wcet, ta.cip_wcet), refined, mc)

    if mode == "TSC":
        passes = options.refinement_passes
        jctx = setup.job_ctx(key)
        refined, mc, debug, wcet = {}, {}, {}, None
        for p in range(passes):
            mc, debug = _tsc_mc(setup, jctx, options)
            refined, bound = _refine_and_bound(setup, job.task_id, mc)
            wcet = bound if wcet is None else min(wcet, bound)
            if p + 1 < passes:
                # Later passes tighten the intra-task windows with the costs
                # the refined classifications imply; release windows keep
                # their initialization-phase bounds.
                con = contract_task(setup.bundle.tasks[job.task_id], ta.classification,
                                    setup.bundle.system, refined=refined, worst_mode=WORST)
                jctx = JobContext(job, TaskContext(con))
        if tlt_result is None:
            tlt_result = analyze_instance(setup, key, "TLT", options)
        return InstanceResult(cid, k, i, job.task_id, mode, min(wcet, tlt_result.wcet), refined, mc, debug)

    raise ValidationError("unknown mode %r" % mode)


# ---------------------------------------------------------------------------
# Chain metrics


def mel_et(instance_wcets) -> tuple:
    """Per-instance latency = sum of task WCETs; MEL is their maximum."""
    lat = tuple(sum(ws) for ws in instance_wcets)
    return max(lat), lat


def mel_tt(instance_wcets, offsets) -> tuple:
    """Per-instance latency = tail offset + tail WCET."""
    lat = tuple(offsets[-1] + ws[-1] for ws in instance_wcets)
    return max(lat), lat


def predicted_hit_ratio(setup: Setup, chain_id: str, results: dict) -> Optional[float]:
    """Loop-bound weighted hit fraction over all shared-cache visible accesses."""
    cs = setup.chains[chain_id]
    hits = total = 0
    n = setup.hyper // cs.chain.period
    for k in range(n):
        for i, tid in enumerate(cs.chain.tasks):
            res = results[(chain_id, k, i)]
            task = setup.bundle.tasks[tid]
            for cls in setup.tasks[tid].classification.visible():
                weight = 1
                for lid in task.loop_ancestors(cls.block_id):
                    weight *= task.loops[lid].max_bound
                total += weight
                chmc = res.refined.get(cls.access_id, cls.l2_chmc)
                if chmc == AH:
                    hits += weight
                elif chmc == PS:
                    hits += weight - 1
    if total == 0:
        return None
    return hits / total


def _analyze_kernel(args):
    setup, options, keys, modes = args
    out = {}
    for key in keys:
        tlt = analyze_instance(setup, key, "TLT", options) if ("TLT" in modes or "TSC" in modes) else None
        for mode in modes:
            if mode == "TLT":
                out[(mode,) + key] = tlt
            else:
                out[(mode,) + key] = analyze_instance(setup, key, mode, options, tlt_result=tlt)
    return out


def analyze_bundle(bundle: WorkloadBundle, options: AnalysisOptions = None,
                   setup: Setup = None) -> AnalysisReport:
    options = options or AnalysisOptions()
    setup = setup or prepare(bundle)
    modes = tuple(m for m in MODES if m in options.modes)
    if not modes:
        raise ValidationError("no analysis modes selected")

    keys = sorted(setup.jobs)
    instances = {}
    if options.jobs > 1 and len(keys) > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [keys[i::options.jobs] for i in range(options.jobs)]
        with ProcessPoolExecutor(max_workers=options.jobs) as pool:
            for part in pool.map(_analyze_kernel, [(setup, options, c, modes) for c in chunks if c]):
                instances.update(part)
    else:
        instances.update(_analyze_kernel((setup, options, keys, modes)))

    chain_results = {}
    for cid in sorted(setup.chains):
        cs = setup.chains[cid]
        n = setup.hyper // cs.chain.period
        for mode in modes:
            wcets = tuple(
                tuple(instances[(mode, cid, k, i)].wcet for i in range(len(cs.chain.tasks)))
                for k in range(n)
            )
            if cs.chain.trigger == "ET":
                mel, lat = mel_et(wcets)
            else:
                mel, lat = mel_tt(wcets, cs.chain.offsets)
            per_instance = {
                (cid, k, i): instances[(mode, cid, k, i)]
                for k in range(n)
                for i in range(len(cs.chain.tasks))
            }
            chain_results[(cid, mode)] = ChainModeResult(
                chain_id=cid,
                mode=mode,
                mel=mel,
                instance_latencies=lat,
                predicted_hit_ratio=predicted_hit_ratio(setup, cid, per_instance),
            )
        if "NCT" in modes:
            base = chain_results[(cid, "NCT")].mel
            for mode in modes:
                chain_results[(cid, mode)].rmel = chain_results[(cid, mode)].mel / base

    return AnalysisReport(setup.hyper, chain_results, instances, setup)


# ---------------------------------------------------------------------------
# Report emission


def report_to_doc(report: AnalysisReport, bundle: WorkloadBundle) -> dict:
    chains = []
    for cid in sorted({c for c, _ in report.chain_results}):
        cs = report.setup.chains[cid]
        modes = {}
        for mode in MODES:
            r = report.chain_results.get((cid, mode))
            if r is None:
                continue
            modes[mode] = {
                "mel": r.mel,
                "rmel": r.rmel,
                "predicted_hit_ratio": r.predicted_hit_ratio,
                "simulated_hit_ratio": r.simulated_hit_ratio,
                "instance_latencies": list(r.instance_latencies),
                "instance_wcets": [
                    [report.instances[(mode, cid, k, i)].wcet for i in range(len(cs.chain.tasks))]
                    for k in range(report.setup.hyper // cs.chain.period)
                ],
            }
        chains.append(
            {
                "chain": cid,
                "core": cs.chain.core,
                "trigger": cs.chain.trigger,
                "period": cs.chain.period,
                "offsets": None if cs.chain.offsets is None else list(cs.chain.offsets),
                "tasks": list(cs.chain.tasks),
                "cip_wcets": list(cs.cips),
                "modes": modes,
            }
        )
    return {"hyperperiod": report.hyperperiod, "chains": chains}


def report_to_json(report: AnalysisReport, bundle: WorkloadBundle) -> str:
    return json.dumps(report_to_doc(report, bundle), sort_keys=True, indent=2) + "\n"


def report_to_csv_rows(report: AnalysisReport):
    rows = [["chain", "mode", "mel", "rmel", "predicted_hit_ratio", "simulated_hit_ratio"]]
    for cid in sorted({c for c, _ in report.chain_results}):
        for mode in MODES:
            r = report.chain_results.get((cid, mode))
            if r is None:
                continue
            rows.append(
                [
                    cid,
                    mode,
                    r.mel,
                    "" if r.rmel is None else "%.6f" % r.rmel,
                    "" if r.predicted_hit_ratio is None else "%.6f" % r.predicted_hit_ratio,
                    "" if r.simulated_hit_ratio is None else "%.6f" % r.simulated_hit_ratio,
                ]
            )
    return rows


def write_report_csv(path, report: AnalysisReport):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(report_to_csv_rows(report))
