"""Relative and absolute execution-time windows.

Every level of a task is a loop: the program is one that runs once and
starts at cycle 0.  TaskContext walks the levels from the outermost
inward.  Each node of a level has one window per iteration of it, its
offset within the iteration (BBOTime), and the level's start sequence is
added to it with the pairwise interval sum; a child loop's start is built
the same way from its virtual node, without the node's own cost.  So a
block's program-relative window composes its offset, each enclosing
loop's start relative to its parent (LPRTime) and the outermost loop's
start relative to the program (LPBTime).  Windows summed from costs are
plain (lo, hi) pairs.  Every window is normalized where it is built, and a
pairwise sum distributes over union, so normalizing a start before adding
to it covers the same cycles, and a block's window costs the sum of its
loops' bounds, not their product.

One rule makes every absolute window: a job's release window relative to
the system start (PRSTime) plus a block's program-relative window is the
block's absolute window (BBATime), normalize(release + bbrp[block]).
Normalizing commutes with a shift, so with w the release window's width
that equals the release's start plus TaskContext.window(block, w), the
relative window widened by w.  The task context memoizes it per (node, w);
JobContext.bba_time shifts it for the analysis, and the simulator's oracle
shifts the same window.

A block's view for the overlap phases is a ladder of absolute windows:
its own, then that of each enclosing loop's virtual node, innermost
first.  The coarsest rung of a block inside a loop is the one-interval
envelope of its outermost loop, [earliest start, latest end], which the
middle overlap phase compares.

Upper bounds account for one-time persistence misses: the first iteration
carries the surcharges reachable up to the node, later iterations carry
the level's full surcharge, since an early miss delays everything after it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .cache_ai import AH, PS
from .cost import ContractedTask, virtual_id
from .model import ChainSpec, Interval, JobInstance
from .overlap import hull, normalize, seq_merge


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


@dataclass
class BlockView:
    """One block occurrence context as seen by the overlap phases.

    window_levels runs from the block's own absolute window out to that of
    its outermost loop's virtual node, so a block inside a loop has more
    than one level and its coarsest is the one-interval loop envelope; a
    top-level block has one level.
    """

    job_lifetime: tuple  # (lo, hi)
    window_levels: tuple  # normalized absolute sequences, finest first

    def window_within(self, threshold: int) -> tuple:
        for w in self.window_levels:
            if len(w) <= threshold:
                return w
        return self.window_levels[-1]


def _iterations(s, node: str, own: int, first_ps: int) -> tuple:
    """One window per iteration of level s for a node costing `own`, relative
    to the level's start; the first carries `first_ps`, the later ones the
    level's whole surcharge."""
    lo, hi = s.bbsc[node], s.bblc[node] + own
    return ((lo, hi + first_ps),) + tuple((lo + i * s.lpsc, hi + i * s.lplc + s.ps_surcharge)
                                          for i in range(1, s.max_bound))


class TaskContext:
    """All release-independent window material for one task."""

    def __init__(self, contracted: ContractedTask):
        self.task = t = contracted.task
        self.classification = contracted.classification
        node_worst = contracted.node_worst
        loop_of = {virtual_id(lid): lid for lid in t.loops}

        # One walk over the levels, outermost first: each node's window is
        # its level's start plus its per-iteration windows, and a child
        # loop's start is its virtual node's, without the node's own cost.
        self.lpb = {}  # loop id -> start sequence relative to the program
        self.bbrp = {}  # node -> program-relative window (code blocks and virtual nodes)
        for lid, s in reversed(contracted.summaries.items()):
            start = ((0, 0),) if lid is None else self.lpb[lid]
            for node in s.bbsc:
                first_ps = s.ps_prefix_incl[node]
                self.bbrp[node] = normalize(seq_merge(start, _iterations(s, node, node_worst[node], first_ps)))
                child = loop_of.get(node)
                if child is not None:
                    # A virtual node holds no persistent access of its own,
                    # so the surcharge reached at it is the one before it.
                    self.lpb[child] = normalize(seq_merge(start, _iterations(s, node, 0, first_ps)))

        # Reuse windows for interference targets: an always-hit access is
        # vulnerable from the earliest point its line can be loaded until its
        # own latest end; a persistent access is vulnerable across its whole
        # scope occupancy.
        self.line_window = {}
        for cls in self.classification.visible():
            if cls.l2_chmc == AH:
                sources = self.classification.same_line_blocks(cls.l2_line)
                lo = min(hull(self.bbrp[b]).lo for b in sources)
                self.line_window[cls.access_id] = Interval(lo, hull(self.bbrp[cls.block_id]).hi)
            elif cls.l2_chmc == PS:
                lid = t.blocks[cls.block_id].enclosing_loop
                lo, hi = hull(self.lpb[lid])
                self.line_window[cls.access_id] = Interval(lo, hi + node_worst[virtual_id(lid)])
        self._windows = {}  # (node, release width) -> (bbrp[node] it was built from, window)

    def window(self, node: str, width: int) -> tuple:
        """The node's window relative to a release's start, for a release
        window `width` cycles wide: its program-relative window with each
        interval's end widened by `width`, normalized.

        An entry serves only the bbrp[node] object it was built from, so a
        window replaced after its first use is seen without clearing
        anything.
        """
        relative = self.bbrp[node]
        hit = self._windows.get((node, width))
        if hit is not None and hit[0] is relative:
            return hit[1]
        window = normalize([(lo, hi + width) for lo, hi in relative])
        self._windows[node, width] = (relative, window)
        return window


class JobContext:
    """Absolute views of one job instance of a task."""

    def __init__(self, job: JobInstance, task_ctx: TaskContext):
        self.job = job
        self.task_ctx = task_ctx
        self.lifetime = job.lifetime
        self._views = {}
        self._bba = {}

    def bba_time(self, node: str) -> tuple:
        """Absolute window of a code block or virtual node, computed once per
        job: the task's window for the release's width, shifted to its start."""
        bba = self._bba.get(node)
        if bba is None:
            rlo, rhi = self.job.release
            window = self.task_ctx.window(node, rhi - rlo)
            if len(window) == 1:  # most windows: no generator needed
                (lo, hi), = window
                bba = ((lo + rlo, hi + rlo),)
            else:
                bba = tuple((lo + rlo, hi + rlo) for lo, hi in window)
            self._bba[node] = bba
        return bba

    def block_view(self, block_id: str) -> BlockView:
        if block_id not in self._views:
            levels = [self.bba_time(block_id)]
            for lid in self.task_ctx.task.ancestry[block_id]:
                levels.append(self.bba_time(virtual_id(lid)))
            self._views[block_id] = BlockView(self.lifetime, tuple(levels))
        return self._views[block_id]


def write_context_csv(path, jobs_with_ctx):
    """Debug dump: absolute windows, one row per (job, block, interval)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["chain", "period", "task", "block", "index", "lo", "hi"])
        for job, jctx in jobs_with_ctx:
            for bid in sorted(jctx.task_ctx.task.blocks):
                for idx, (lo, hi) in enumerate(jctx.bba_time(bid)):
                    w.writerow([job.chain_id, job.period_index, job.task_id, bid, idx, lo, hi])
