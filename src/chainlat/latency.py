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

Only foreign jobs whose lifetime overlaps the target job's can interfere.
The job phase of the paper's cheap-to-precise overlap hierarchy is a
lifetime index per chain, applied once per foreign job rather than per
block pair: it holds the chain's job lifetimes sorted by start, and per
hyperperiod shift d in (-h, 0, +h) a bisection on
[target.lo - d - longest lifetime, target.hi - d] followed by an exact
overlap test yields the overlapping (job, shift) pairs; a shift whose
query lies wholly outside the index's start range is skipped before it
bisects.  TLT and TSC scan only those pairs, so the per-instance cost grows
with the overlapping jobs rather than with all jobs of the hyperperiod.
A foreign block is tested in its own task's time: each task's relative
windows are one shared set of views (TaskAnalysis.task_views), and a
foreign job released within (rlo, rhi) under shift d meets the target
window (lo, hi) exactly where its relative window meets the query
(lo - d - rhi, hi - d - rlo).  Overlap is translation-invariant, so every
verdict, phase included, is the one the job's absolute views give.

An instance pays only for its targets and for the foreign jobs that touch
their sets.  Each task's option-free tables are built once, by the first
instance that reads them (TaskAnalysis): its AH/PS targets, their
shared-cache sets, the base refinement map (each access's own CHMC, which
is what refinement leaves on every access but a target) and the hit-ratio
weights.  A TSC instance
groups each overlapping foreign job once, under every target set its task
touches, and each target then reads only the group of its own set; a job
that touches no target set is never looked at again.  A foreign job's
contribution is a pure function of its task, the counting unit, the set
and its overlapping blocks, so the weights and exclusion graph of each
distinct overlap are built once per task (TaskAnalysis.contributions) and
shared by every instance; only the MWIS bound runs per contribution.  A
chain whose jobs the combination rule does not group adds each
contribution as it comes, the sum interference_bound would return.
Refinement copies the base map and refines the targets alone.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

from . import ingest
from .cache_ai import AH, PS, all_miss, classify_task, refine_chmc
from .context import JobContext, TaskContext, compute_prs_time
from .cost import ContractionPlan, contract_task
from .interference import (
    COUNT_DISTINCT,
    COUNTINGS,
    ET_RULE_SUM,
    ET_RULES,
    collect_overlap_set,
    groups_jobs,
    interference_bound,
    job_contribution,
    set_weights,
)
from .model import Interval, JobInstance, ValidationError, WorkloadBundle

MODES = ("TSC", "TLT", "NCT")

MAX_HYPERPERIOD = 1 << 62
# Jobs one hyperperiod may hold over all chains; prepare refuses more
# before it enumerates any.
MAX_JOBS = 100_000


@dataclass
class AnalysisOptions:
    modes: tuple = MODES
    counting: str = COUNT_DISTINCT
    et_rule: str = ET_RULE_SUM
    refinement_passes: int = 1
    jobs: int = 1

    def __post_init__(self):
        """Refuse a value the analysis cannot run, naming the field, the value and the allowed values."""
        for name, allowed in (("counting", COUNTINGS), ("et_rule", ET_RULES)):
            value = getattr(self, name)
            if value not in allowed:
                raise ValidationError("AnalysisOptions.%s: %r is not one of %s"
                                      % (name, value, ", ".join(map(repr, allowed))))
        choices = ", ".join(map(repr, MODES))
        unknown = [m for m in self.modes if m not in MODES]
        if unknown:
            raise ValidationError("AnalysisOptions.modes: %s not among %s" % (", ".join(map(repr, unknown)), choices))
        if not self.modes:
            raise ValidationError("AnalysisOptions.modes: %r selects none of %s" % (self.modes, choices))
        for name in ("refinement_passes", "jobs"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValidationError("AnalysisOptions.%s: %r is not a positive integer" % (name, value))


@dataclass
class TaskAnalysis:
    """One task's option-free analysis material.

    Beside the classification, contractions and weight tables it holds the
    per-instance tables, each O(accesses) and built once, at the first
    instance that reads it, so an instance pays only for its targets.
    One of them is task_views, the task's relative windows, which
    every TSC instance reads for every foreign job of the task through a
    task-time query.  Another is contributions, job_contribution's memo
    per counting unit and set, filled by the TSC instances that read the
    task's jobs and freed with the Setup.
    prepare builds none of them: setup keeps exactly its work and its
    allocations.  all_miss and base_refined, the maps every instance's
    refined map starts from, name every access of the task, so each
    InstanceResult.refined does too and its readers index it directly.
    """

    task_id: str
    classification: object
    all_miss: dict  # the NCT refinement: access id -> CHMC
    contracted_init: object  # contraction under all_miss
    ctx: TaskContext
    cip_wcet: int
    bcet: int
    weights: dict  # counting unit -> {set: (job weight, {block: weight})}
    plan: ContractionPlan  # shared by every contraction of the task

    @cached_property
    def targets(self) -> tuple:
        """The AH/PS visible accesses, in access order."""
        return tuple(c for c in self.classification.visible() if c.l2_chmc in (AH, PS))

    @cached_property
    def target_sets(self) -> frozenset:
        """The targets' shared-cache sets."""
        return frozenset(c.l2_set for c in self.targets)

    @cached_property
    def base_refined(self) -> dict:
        """Access id -> own CHMC: what refine_chmc gives every access but a target."""
        return {aid: c.l2_chmc for aid, c in self.classification.accesses.items()}

    @cached_property
    def task_views(self) -> JobContext:
        """The task's relative windows as block views: those of a job
        released at cycle 0."""
        return JobContext(Interval(0, 0), self.ctx)

    @cached_property
    def contributions(self) -> dict:
        """(counting unit, set) -> job_contribution's memo for the task's
        jobs: overlapping blocks -> (raw sum, ExclusionGraph).  A memo is
        added by the first TSC instance that reads the task's jobs in the
        set, so a set no target reads holds none."""
        return {}

    @cached_property
    def hit_weights(self) -> tuple:
        """(access id, loop-bound weight) per visible access, in access order."""
        visits = self.ctx.task.max_visits
        return tuple((c.access_id, visits[c.block_id]) for c in self.classification.visible())


class LifetimeIndex:
    """One chain's job lifetimes sorted by start, queried under the shifts -h, 0, +h.

    A foreign lifetime shifted by +d meets the target exactly when the
    unshifted one meets the target shifted by -d, so each shift is one
    bisection over the same sorted list.  Lifetimes need not be monotone
    in (k, i): the bisection window is widened by the longest lifetime,
    and an exact test follows.
    """

    def __init__(self, lifetimes: dict, hyper: int):
        # lifetimes: job key -> Interval
        self.hyper = hyper
        self.entries = sorted((lt.lo, lt.hi, key) for key, lt in lifetimes.items())
        self.starts = [e[0] for e in self.entries]
        self.maxlen = max((lt.hi - lt.lo for lt in lifetimes.values()), default=0)

    def overlapping(self, lifetime: Interval) -> list:
        """(job key, shift) pairs whose shifted lifetime meets `lifetime`, in key then shift order."""
        out = []
        starts = self.starts
        for shift in (-self.hyper, 0, self.hyper):
            lo, hi = lifetime.lo - shift, lifetime.hi - shift
            # A query wholly outside the start range meets nothing: most
            # -h/+h probes end here, and an empty index always does.
            if not starts or hi < starts[0] or lo - self.maxlen > starts[-1]:
                continue
            first = bisect_left(starts, lo - self.maxlen)
            last = bisect_right(starts, hi)
            # Each of these starts at or before hi, so it meets [lo, hi] when it ends at or after lo.
            out += [(key, shift) for _, ehi, key in self.entries[first:last] if ehi >= lo]
        out.sort()
        return out


def lifetime_indexes(jobs: dict, hyper: int) -> dict:
    """One LifetimeIndex per chain id over the enumerated jobs."""
    by_chain = {}
    for key, job in jobs.items():
        by_chain.setdefault(key[0], {})[key] = job.lifetime
    return {cid: LifetimeIndex(lifetimes, hyper) for cid, lifetimes in by_chain.items()}


@dataclass
class Setup:
    bundle: WorkloadBundle
    tasks: dict  # task id -> TaskAnalysis
    chains: dict  # chain id -> ChainSpec, its period and TT offsets filled in
    hyper: int
    jobs: dict  # (chain id, period index, task index) -> JobInstance
    lifetimes: dict  # chain id -> LifetimeIndex
    # Caches filled lazily by the analysis (the first) and by the simulator
    # and its oracle (the last two), like each TaskAnalysis's tables.  Each
    # value depends on nothing but the fields above, never on options or a
    # report, so a Setup reused across options never reads a stale one.
    # Every absolute window, the oracle's and a block view's level alike,
    # comes from TaskContext.bba_times(nodes, release); the oracle keeps
    # one block id -> window map per job, over all of its task's blocks.
    # Edit a task's contexts or classification (fault injection) before the
    # first check_safety on the Setup, not after.  Without each, the bench's
    # default seeds ran slower: overlaps longhyper analysis +8 %, walks
    # verify2 verify_s 0.76 -> 1.34 s, oracle_windows (the maps rebuilt by
    # every check) verify2 verify_s 0.76 -> 0.85 s.
    overlaps: dict = field(default_factory=dict, repr=False)  # job key -> foreign pairs
    walks: dict = field(default_factory=dict, repr=False)  # task id -> simulator walk table
    oracle_windows: dict = field(default_factory=dict, repr=False)  # job key -> {block id: (lo, hi) pairs}


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
    instance_wcets: tuple  # per instance k, the WCET of each task i
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
        plan = ContractionPlan(task, bundle.system)
        miss = all_miss(cls)
        con = contract_task(task, cls, bundle.system, refined=miss, plan=plan)
        tasks[tid] = TaskAnalysis(tid, cls, miss, con, TaskContext(con), con.wcet, con.bcet, set_weights(cls), plan)

    chains = {}
    for cid in sorted(bundle.chains):
        chain = bundle.chains[cid]
        cips = tuple(tasks[t].cip_wcet for t in chain.tasks)
        if chain.period is None:
            chain = replace(chain, period=ingest.assign_period(cips, bundle.system.period_table))
        if sum(cips) > chain.period:
            raise ValidationError(
                "chain %s unschedulable: total CIP-WCET %d > period %d" % (cid, sum(cips), chain.period)
            )
        if chain.trigger == "TT" and chain.offsets is None:
            chain = replace(chain, offsets=ingest.assign_tt_offsets(cips))
        if chain.trigger == "TT":
            # A TT job must end by the chain's next release: the next task's
            # offset, or the next instance's for the last task (offsets start at 0).
            ends = chain.offsets[1:] + (chain.period,)
            for t, offset, cip, end in zip(chain.tasks, chain.offsets, cips, ends):
                if offset + cip > end:
                    raise ValidationError(
                        "chain %s unschedulable: task %s at offset %d may run %d cycles, "
                        "past the next release at %d" % (cid, t, offset, cip, end)
                    )
        chains[cid] = chain

    hyper = hyperperiod([chain.period for chain in chains.values()])
    per_chain = {cid: hyper // chain.period * len(chain.tasks) for cid, chain in chains.items()}
    n_jobs = sum(per_chain.values())
    if n_jobs > MAX_JOBS:
        raise ValidationError(
            "hyperperiod %d needs %d jobs, over the limit of %d: %s"
            % (hyper, n_jobs, MAX_JOBS,
               ", ".join("chain %s period %d (%d jobs)" % (cid, chains[cid].period, n)
                         for cid, n in per_chain.items()))
        )
    jobs = {}
    for cid, chain in chains.items():
        cips = tuple(tasks[t].cip_wcet for t in chain.tasks)
        bcets = tuple(tasks[t].bcet for t in chain.tasks)
        for k in range(hyper // chain.period):
            for i, tid in enumerate(chain.tasks):
                release = compute_prs_time(chain, i, k, bcets, cips)
                jobs[(cid, k, i)] = JobInstance(
                    cid, i, tid, k, release, Interval(release.lo, release.hi + cips[i])
                )
    return Setup(bundle, tasks, chains, hyper, jobs, lifetime_indexes(jobs, hyper))


# ---------------------------------------------------------------------------
# Interference per instance


def _foreign_overlaps(setup: Setup, key) -> list:
    """Per foreign chain, the (job key, shift) pairs whose lifetime overlaps job `key`'s.

    Hyperperiod-shifted copies are distinct executions; a window may
    straddle the boundary and meet two of them.  Returns [(ChainSpec,
    pairs)] in chain order, the pairs in (k, i, shift) order.
    """
    if key not in setup.overlaps:
        lifetime = setup.jobs[key].lifetime
        core = setup.chains[key[0]].core
        setup.overlaps[key] = [
            (chain, setup.lifetimes[cid].overlapping(lifetime))
            for cid, chain in setup.chains.items() if chain.core != core
        ]
    return setup.overlaps[key]


def _tlt_pressure(setup: Setup, key, sets_of_interest, counting: str) -> dict:
    """Foreign same-set pressure per set at job-lifetime scope."""
    out = {s: 0 for s in sets_of_interest}
    for _, pairs in _foreign_overlaps(setup, key):
        for fkey, _ in pairs:
            weights = setup.tasks[setup.jobs[fkey].task_id].weights[counting]
            for s in out:
                if s in weights:
                    out[s] += weights[s][0]
    return out


def _tsc_mc(setup: Setup, key, line_window: dict, options: AnalysisOptions) -> dict:
    """Interference bound per AH/PS access of one job under block-level windows.

    line_window maps each target access to its reuse window relative to the
    job's release.
    """
    job = setup.jobs[key]
    ta = setup.tasks[job.task_id]
    sets = ta.target_sets
    # Per foreign chain, each overlapping job that touches a target set,
    # grouped once under every such set, in pair order: its weight table
    # entry and contribution memo, task graph, task-time views and shifted
    # release.
    foreign = []
    for fchain, pairs in _foreign_overlaps(setup, key):
        by_set = {}
        for fkey, shift in pairs:
            fj = setup.jobs[fkey]
            fta = setup.tasks[fj.task_id]
            weights = fta.weights[options.counting]
            common = sets.intersection(weights)
            if not common:
                continue
            memos = fta.contributions
            rlo, rhi = fj.release
            release = (rlo + shift, rhi + shift)
            entry = (setup.bundle.tasks[fj.task_id], fta.task_views, release)
            for s in common:
                memo = memos.get((options.counting, s))
                if memo is None:
                    memo = memos[options.counting, s] = {}
                by_set.setdefault(s, []).append((weights[s], memo, *entry))
        if by_set:
            foreign.append((groups_jobs(fchain.trigger, options.et_rule), fchain.trigger, by_set))

    rlo, rhi = job.release
    mc, debug = {}, {}
    for cls in ta.targets:
        lo, hi = line_window[cls.access_id]
        lo, hi = lo + rlo, hi + rhi
        total = raw_total = mwis_total = 0
        for grouped, trigger, by_set in foreign:
            fjobs = by_set.get(cls.l2_set)
            if fjobs is None:
                continue
            per_job = []
            for table, memo, graph, fviews, release in fjobs:
                # A view interval (a, b) moved to (a + flo, b + fhi) by the
                # shifted release meets (lo, hi) exactly when (a, b) meets
                # this one-interval query.
                flo, fhi = release
                blocks = collect_overlap_set((((lo - fhi, hi - flo),),), fviews, table[1])
                if not blocks:
                    continue
                raw, contrib = job_contribution(table, graph, blocks, memo)
                raw_total += raw
                mwis_total += contrib
                if not grouped:
                    total += contrib  # what interference_bound sums for this chain
                elif contrib:
                    per_job.append((release, contrib))
            if per_job:
                total += interference_bound(per_job, trigger, options.et_rule)
        mc[cls.access_id] = total
        debug[cls.access_id] = (raw_total, mwis_total)
    return mc, debug


def _refine_and_bound(setup: Setup, task_id: str, mc: dict) -> tuple:
    """Apply the eviction condition; returns the refined map and its contraction.

    mc holds every AH/PS access, so each other access keeps its own CHMC,
    which is what refine_chmc gives it: only mc's accesses are refined.
    """
    ta = setup.tasks[task_id]
    accesses = ta.classification.accesses
    ways = setup.bundle.system.l2.ways
    refined = dict(ta.base_refined)
    for aid, interference in mc.items():
        refined[aid] = refine_chmc(accesses[aid], interference, ways)
    con = contract_task(setup.bundle.tasks[task_id], ta.classification, setup.bundle.system,
                        refined=refined, plan=ta.plan)
    return refined, con


def analyze_instance(setup: Setup, key, mode: str, options: AnalysisOptions = None,
                     tlt_result: InstanceResult = None) -> InstanceResult:
    """Refined classifications and TSC-WCET of one job instance in one mode."""
    options = options or AnalysisOptions()
    job = setup.jobs[key]
    ta = setup.tasks[job.task_id]
    cid, k, i = key

    if mode == "NCT":
        return InstanceResult(cid, k, i, job.task_id, mode, ta.cip_wcet, dict(ta.all_miss), {})

    if mode == "TLT":
        pressure = _tlt_pressure(setup, key, ta.target_sets, options.counting)
        mc = {c.access_id: pressure[c.l2_set] for c in ta.targets}
        refined, con = _refine_and_bound(setup, job.task_id, mc)
        return InstanceResult(cid, k, i, job.task_id, mode, min(con.wcet, ta.cip_wcet), refined, mc)

    if mode == "TSC":
        passes = options.refinement_passes
        line_window = ta.ctx.line_window
        refined, mc, debug, wcet = {}, {}, {}, None
        for p in range(passes):
            mc, debug = _tsc_mc(setup, key, line_window, options)
            refined, con = _refine_and_bound(setup, job.task_id, mc)
            wcet = con.wcet if wcet is None else min(wcet, con.wcet)
            if p + 1 < passes:
                # Later passes tighten the intra-task windows with the costs
                # the refined classifications imply; release windows keep
                # their initialization-phase bounds.
                line_window = TaskContext(con).line_window
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
    chain = setup.chains[chain_id]
    n = setup.hyper // chain.period
    total = hits = 0
    for i, tid in enumerate(chain.tasks):
        table = setup.tasks[tid].hit_weights
        total += n * sum(weight for _, weight in table)
        for k in range(n):
            refined = results[(chain_id, k, i)].refined
            for aid, weight in table:
                chmc = refined[aid]
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

    keys = sorted(setup.jobs)
    instances = {}
    workers = min(options.jobs, len(keys))  # a pool starts all its workers, so never more than chunks
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [keys[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_analyze_kernel, [(setup, options, c, modes) for c in chunks]):
                instances.update(part)
    else:
        instances.update(_analyze_kernel((setup, options, keys, modes)))

    chain_results = {}
    for cid in sorted(setup.chains):
        chain = setup.chains[cid]
        n, width = setup.hyper // chain.period, len(chain.tasks)
        for mode in modes:
            per_instance = {(cid, k, i): instances[mode, cid, k, i] for k in range(n) for i in range(width)}
            wcets = tuple(tuple(per_instance[cid, k, i].wcet for i in range(width)) for k in range(n))
            mel, lat = mel_et(wcets) if chain.trigger == "ET" else mel_tt(wcets, chain.offsets)
            chain_results[(cid, mode)] = ChainModeResult(
                cid, mode, mel, lat, wcets, predicted_hit_ratio=predicted_hit_ratio(setup, cid, per_instance))
        if "NCT" in modes:
            base = chain_results[(cid, "NCT")].mel
            for mode in modes:
                chain_results[(cid, mode)].rmel = chain_results[(cid, mode)].mel / base

    return AnalysisReport(setup.hyper, chain_results, instances, setup)


# ---------------------------------------------------------------------------
# Report emission


def report_to_doc(report: AnalysisReport, bundle: WorkloadBundle) -> dict:
    """The report's JSON document; `bundle` must be the one it analyzed."""
    if bundle is not report.setup.bundle and bundle != report.setup.bundle:
        raise ValueError("report_to_doc: the bundle differs from the one the report analyzed")
    chains = []
    for cid in sorted({c for c, _ in report.chain_results}):
        chain = report.setup.chains[cid]
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
                "instance_wcets": [list(ws) for ws in r.instance_wcets],
            }
        chains.append(
            {
                "chain": cid,
                "core": chain.core,
                "trigger": chain.trigger,
                "period": chain.period,
                "offsets": None if chain.offsets is None else list(chain.offsets),
                "tasks": list(chain.tasks),
                "cip_wcets": [report.setup.tasks[t].cip_wcet for t in chain.tasks],
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
