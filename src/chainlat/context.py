"""Relative and absolute execution-time windows.

Every block gets an offset-time sequence relative to its innermost loop
(one interval per iteration), loops get start-time sequences relative to
their parent and, recursively, to the program, and jobs get release windows
relative to the system start.  Composing the three with the pairwise
interval sum yields the absolute window (BBATime) used by the overlap and
interference stages.

Upper bounds account for one-time persistence misses: the first iteration
carries the surcharges reachable up to the block, later iterations carry
the full scope surcharge, since an early miss delays everything after it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

from .cache_ai import AH, PS
from .cost import ContractedTask, virtual_id
from .model import ChainSpec, Interval, JobInstance
from .overlap import normalize, seq_merge


def compute_bbo_time(contracted: ContractedTask, node: str, loop_id: str) -> tuple:
    """Offset-time sequence of a node relative to its enclosing loop's head."""
    s = contracted.summaries[loop_id]
    own = contracted.node_worst[node]
    out = []
    for i in range(1, s.max_bound + 1):
        late_ps = s.ps_prefix_incl[node] if i == 1 else s.ps_surcharge
        out.append(
            Interval(
                (i - 1) * s.lpsc + s.bbsc[node],
                (i - 1) * s.lplc + s.bblc[node] + own + late_ps,
            )
        )
    return tuple(out)


def compute_lpr_time(contracted: ContractedTask, loop_id: str) -> tuple:
    """Start-time sequence of an inner loop relative to its parent loop."""
    parent = contracted.task.loops[loop_id].parent_loop
    if parent is None:
        raise ValueError("outermost loop %s has no relative time" % loop_id)
    s = contracted.summaries[parent]
    vid = virtual_id(loop_id)
    out = []
    for i in range(1, s.max_bound + 1):
        late_ps = s.ps_prefix_excl[vid] if i == 1 else s.ps_surcharge
        out.append(
            Interval(
                s.lpsc * (i - 1) + s.bbsc[vid],
                s.lplc * (i - 1) + s.bblc[vid] + late_ps,
            )
        )
    return tuple(out)


def compute_lpb_time(contracted: ContractedTask, loop_id: str, lpb_cache: dict) -> tuple:
    """Start-time sequence of a loop relative to the program start."""
    if loop_id in lpb_cache:
        return lpb_cache[loop_id]
    loop = contracted.task.loops[loop_id]
    vid = virtual_id(loop_id)
    if loop.parent_loop is None:
        out = (Interval(contracted.bbesot[vid], contracted.bblsot[vid]),)
    else:
        out = seq_merge(compute_lpr_time(contracted, loop_id),
                        compute_lpb_time(contracted, loop.parent_loop, lpb_cache))
    lpb_cache[loop_id] = out
    return out


def compute_prs_time(chain: ChainSpec, task_index: int, period_index: int,
                     bcets, cip_wcets) -> Interval:
    """Release window of one job: fixed for TT, response-time bounded for ET."""
    base = period_index * chain.period
    if chain.trigger == "TT":
        t = base + chain.offsets[task_index]
        return Interval(t, t)
    lo = base + sum(bcets[:task_index])
    hi = base + sum(cip_wcets[:task_index])
    return Interval(lo, hi)


def compute_bba_time(release: Interval, bbrp: tuple) -> tuple:
    """Absolute window: release window composed with the program-relative one."""
    return normalize(seq_merge((release,), bbrp))


@dataclass
class BlockView:
    """One block occurrence context as seen by the overlap phases."""

    job_lifetime: Interval
    outer_envelope: Optional[Interval]
    window_levels: tuple  # absolute sequences, finest first

    def window_within(self, threshold: int) -> tuple:
        for w in self.window_levels:
            if len(w) <= threshold:
                return w
        return self.window_levels[-1]


class TaskContext:
    """All release-independent window material for one task."""

    def __init__(self, contracted: ContractedTask):
        self.task = contracted.task
        self.classification = contracted.classification
        t = self.task

        self.bbo = {}
        for lid in t.loops:
            level = contracted.levels[lid]
            for node in level.members:
                self.bbo[node] = compute_bbo_time(contracted, node, lid)

        lpb_cache = {}
        self.lpb = {lid: compute_lpb_time(contracted, lid, lpb_cache) for lid in t.loops}

        # Program-relative window per node (code blocks and virtual nodes).
        self.bbrp = {}
        for node in contracted.levels[None].members:
            self.bbrp[node] = (Interval(contracted.bbesot[node], contracted.bbleot[node]),)
        for lid in t.loops:
            base = self.lpb[lid]
            for node in contracted.levels[lid].members:
                self.bbrp[node] = seq_merge(base, self.bbo[node])

        # Envelope of the outermost enclosing loop, for the middle phase.
        self.outer_env = {}
        for bid in t.blocks:
            v = contracted.outermost_virtual(bid)
            if v is None:
                self.outer_env[bid] = None
            else:
                self.outer_env[bid] = Interval(
                    contracted.bbesot[v], contracted.bblsot[v] + contracted.node_worst[v]
                )

        # Coarsening ladder per block: own window, then enclosing virtual nodes.
        self.window_ladder = {}
        for bid in t.blocks:
            levels = [self.bbrp[bid]]
            for lid in t.loop_ancestors(bid):
                levels.append(self.bbrp[virtual_id(lid)])
            self.window_ladder[bid] = tuple(levels)

        # Reuse windows for interference targets: an always-hit access is
        # vulnerable from the earliest point its line can be loaded until its
        # own latest end; a persistent access is vulnerable across its whole
        # scope occupancy.
        self.line_window = {}
        for cls in self.classification.visible():
            if cls.l2_chmc == AH:
                sources = self.classification.same_line_blocks(cls.l2_line)
                lo = min(min(iv.lo for iv in self.bbrp[b]) for b in sources)
                hi = max(iv.hi for iv in self.bbrp[cls.block_id])
                self.line_window[cls.access_id] = Interval(lo, hi)
            elif cls.l2_chmc == PS:
                lid = t.blocks[cls.block_id].enclosing_loop
                base = self.lpb[lid]
                vid = virtual_id(lid)
                self.line_window[cls.access_id] = Interval(
                    min(iv.lo for iv in base),
                    max(iv.hi for iv in base) + contracted.node_worst[vid],
                )


class JobContext:
    """Absolute views of one job instance of a task."""

    def __init__(self, job: JobInstance, task_ctx: TaskContext):
        self.job = job
        self.task_ctx = task_ctx
        self.release = job.release
        self.lifetime = job.lifetime
        self._views = {}
        self._bba = {}

    def bba_time(self, block_id: str) -> tuple:
        if block_id not in self._bba:
            self._bba[block_id] = compute_bba_time(self.release, self.task_ctx.bbrp[block_id])
        return self._bba[block_id]

    def block_view(self, block_id: str) -> BlockView:
        if block_id not in self._views:
            ctx = self.task_ctx
            env = ctx.outer_env[block_id]
            if env is not None:
                env = Interval(env.lo + self.release.lo, env.hi + self.release.hi)
            levels = tuple(
                normalize(seq_merge((self.release,), w)) for w in ctx.window_ladder[block_id]
            )
            self._views[block_id] = BlockView(self.lifetime, env, levels)
        return self._views[block_id]

    def target_view(self, access_id: str) -> BlockView:
        """Single-interval view of an access's reuse window."""
        w = self.task_ctx.line_window[access_id]
        abs_w = Interval(w.lo + self.release.lo, w.hi + self.release.hi)
        return BlockView(self.lifetime, None, ((abs_w,),))


def covers(seq_abs: tuple, lo: int, hi: int) -> bool:
    """True when [lo, hi] lies inside a single interval of the sequence."""
    return any(iv.lo <= lo and hi <= iv.hi for iv in seq_abs)


def write_context_csv(path, jobs_with_ctx):
    """Debug dump: absolute windows, one row per (job, block, interval)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["chain", "period", "task", "block", "index", "lo", "hi"])
        for job, jctx in jobs_with_ctx:
            for bid in sorted(jctx.task_ctx.task.blocks):
                for idx, iv in enumerate(jctx.bba_time(bid)):
                    w.writerow([job.chain_id, job.period_index, job.task_id, bid, idx, iv.lo, iv.hi])
