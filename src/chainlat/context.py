"""Relative and absolute execution-time windows.

Every level of a task is a loop: the program is one that runs once and
starts at cycle 0.  TaskContext walks the levels from the outermost
inward.  Each node of a level has a ladder, one window per iteration of
the level (its offset within the iteration, BBOTime), and its window is
the level's start plus its ladder, the pairwise interval sum.  A child
loop's start is its virtual node's ladder without the node's cost plus
the level's start; the virtual node's window is that start with every end
widened by the node's cost.  So a block's program-relative window
composes its offset, each enclosing loop's start relative to its parent
(LPRTime) and the outermost loop's start relative to the program (LPBTime).

Windows are plain (lo, hi) pairs, normalized where they are built by one
sort of the pairwise sum.  A pairwise sum distributes over union, and
widening every end by one constant commutes with normalizing, so this
covers the same cycles as the full enumeration, and a block's window
costs the sum of its loops' bounds, not their product.  A ladder's starts
and ends never decrease, so from the first iteration that touches the one
before it the rest merge into one tail.  A ladder of more than
MAX_WINDOW_INTERVALS distinct windows (a deterministic body has one per
iteration), or a sum of more pairs, is refused with a ValidationError.

One rule makes every absolute window: a job's release window relative to
the system start (PRSTime) plus a block's program-relative window is the
block's absolute window (BBATime), normalize(release + bbrp[block]).
TaskContext.bba_times computes it for many nodes of one job in one call,
from the current bbrp, for every reader: the block views (a block and its
loops' virtual nodes), the simulator's oracle and the contexts.csv dump
(all of a task's blocks).  A one-interval window, the common case, is
shifted without normalizing.

A code block's window holds at most PHASE3_THRESHOLD intervals: a longer
one bridges its narrowest gaps where it is built (cap_window).  Widening
a window by a release window never adds intervals, so every window read
in task time or in absolute time fits the cap.  Where a job's absolute
window fits it uncapped, every bridged gap is no wider than the release
and would have merged anyway, so that window is unchanged.

A block's view for the overlap phases is a plain tuple in its
JobContext's time: its window, then, for a block inside a loop, the
one-interval envelope of its outermost loop, [earliest start, latest
end], which the loop-envelope phase compares and which covers the capped
window.  A job released at cycle 0 sees the relative windows themselves,
and the TSC analysis reads each foreign task's through that one context
(latency.TaskAnalysis.task_views), moving the target into task time
instead of every foreign window into absolute time.  No view carries its
job's lifetime: the job phase is the lifetime index, applied once per
foreign job (latency.LifetimeIndex), and every view lies inside that
lifetime.

Upper bounds account for one-time persistence misses: the first iteration
carries the surcharges reachable up to the node, later iterations carry
the level's full surcharge, since an early miss delays everything after it.
"""

from __future__ import annotations

import csv

from .cache_ai import AH, PS
from .cost import ContractedTask, virtual_id
from .model import ChainSpec, Interval, ValidationError
from .overlap import normalize

# Most distinct windows one ladder may hold, and most pairs one window sum
# may add, before a task is refused as too large to analyze.
MAX_WINDOW_INTERVALS = 100_000
# Most intervals one code block's window holds once built; the block phase
# of the overlap test sweeps at most this many per side.
PHASE3_THRESHOLD = 1024


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


def _iterations(task_id: str, s, node: str, own: int) -> list:
    """The normalized ladder of a node costing `own` in level s, relative to
    the level's start: the first iteration carries the surcharge reached at
    the node, the later ones the level's whole surcharge."""
    lo, hi = s.bbsc[node], s.bblc[node] + own
    ladder = [(lo, hi + s.ps_prefix_incl[node])]
    for i in range(1, s.max_bound):
        start = lo + i * s.lpsc
        if start <= ladder[-1][1]:
            ladder[-1] = (ladder[-1][0], hi + (s.max_bound - 1) * s.lplc + s.ps_surcharge)
            break
        if len(ladder) == MAX_WINDOW_INTERVALS:
            raise ValidationError("loop %s: node %s has more than %d distinct windows over %d iterations"
                                  % (s.loop_id, node, MAX_WINDOW_INTERVALS, s.max_bound), task_id)
        ladder.append((start, hi + i * s.lplc + s.ps_surcharge))
    return ladder


def _window(task_id: str, s, node: str, own: int, start: tuple) -> tuple:
    """normalize(start + the node's ladder): the pairwise sum, sorted once."""
    ladder = _iterations(task_id, s, node, own)
    pairs = len(start) * len(ladder)
    if pairs > MAX_WINDOW_INTERVALS:
        raise ValidationError("loop %s: node %s sums %d start windows with %d iteration windows, "
                              "%d pairs over the limit of %d"
                              % (s.loop_id, node, len(start), len(ladder), pairs, MAX_WINDOW_INTERVALS), task_id)
    return normalize([(slo + lo, shi + hi) for slo, shi in start for lo, hi in ladder])


def cap_window(window: tuple, limit: int = PHASE3_THRESHOLD) -> tuple:
    """A normalized window of at most `limit` intervals covering `window`:
    all gaps but the limit - 1 widest are bridged, the earlier of equal
    gaps kept, so the hull stays and the cap commutes with translation."""
    if len(window) <= limit:
        return window
    # Gap i precedes interval i: the widest first, the earlier of equal ones.
    widest = sorted(range(1, len(window)), key=lambda i: (window[i - 1][1] - window[i][0], i))
    keep = sorted(widest[:limit - 1])
    return tuple((window[a][0], window[b - 1][1]) for a, b in zip((0, *keep), (*keep, len(window))))


class TaskContext:
    """All release-independent window material for one task."""

    def __init__(self, contracted: ContractedTask):
        self.task = t = contracted.task
        classification = contracted.classification
        node_worst = contracted.node_worst
        loop_of = {virtual_id(lid): lid for lid in t.loops}

        # One walk over the levels, outermost first: each node's window is
        # its level's start plus its ladder.  A virtual node holds no
        # persistent access of its own, so the surcharge reached at it is
        # the one before it, and its ladder without its cost is its loop's.
        self.lpb = {}  # loop id -> start sequence relative to the program
        self.bbrp = {}  # node -> program-relative window (code blocks and virtual nodes)
        for lid, s in reversed(contracted.summaries.items()):
            start = ((0, 0),) if lid is None else self.lpb[lid]
            for node in s.bbsc:
                child = loop_of.get(node)
                if child is None:
                    self.bbrp[node] = cap_window(_window(t.id, s, node, node_worst[node], start))
                else:
                    lpb = self.lpb[child] = _window(t.id, s, node, 0, start)
                    self.bbrp[node] = normalize([(lo, hi + node_worst[node]) for lo, hi in lpb])

        # Reuse windows for interference targets: an always-hit access is
        # vulnerable from the earliest start of a block accessing its line
        # until its own latest end; a persistent access is vulnerable across
        # its whole scope occupancy.
        visible = classification.visible()
        # A normalized window w is sorted and disjoint: its hull is (w[0][0], w[-1][1]).
        earliest = {}  # L2 line -> earliest start of a block accessing it
        for cls in visible:
            lo = self.bbrp[cls.block_id][0][0]
            earliest[cls.l2_line] = min(lo, earliest.get(cls.l2_line, lo))
        self.line_window = {}
        for cls in visible:
            if cls.l2_chmc == AH:
                self.line_window[cls.access_id] = Interval(earliest[cls.l2_line], self.bbrp[cls.block_id][-1][1])
            elif cls.l2_chmc == PS:
                w = self.bbrp[virtual_id(t.ancestry[cls.block_id][0])]
                self.line_window[cls.access_id] = Interval(w[0][0], w[-1][1])

    def bba_times(self, nodes, release) -> dict:
        """Absolute windows (BBATime) of code blocks or virtual nodes for a
        job released within `release`, node -> window: each interval of the
        node's program-relative window shifted by the release window, and
        only a window of more than one interval normalized (most have one)."""
        rlo, rhi = release
        bbrp = self.bbrp
        windows = {}
        for node in nodes:
            relative = bbrp[node]
            if len(relative) == 1:
                (lo, hi), = relative
                windows[node] = ((lo + rlo, hi + rhi),)
            else:
                windows[node] = normalize([(lo + rlo, hi + rhi) for lo, hi in relative])
        return windows


class JobContext:
    """Block views of a task's job released within `release`: absolute, or
    the task's relative windows at release (0, 0)."""

    def __init__(self, release, task_ctx: TaskContext):
        self.release = release
        self.task_ctx = task_ctx
        self._views = {}

    def block_view(self, block_id: str) -> tuple:
        """The block's window, then its outermost loop's envelope if it has one."""
        if block_id not in self._views:
            ctx = self.task_ctx
            nodes = (block_id, *map(virtual_id, ctx.task.ancestry[block_id][-1:]))
            self._views[block_id] = tuple(ctx.bba_times(nodes, self.release).values())
        return self._views[block_id]


def write_context_csv(path, setup):
    """Debug dump: absolute windows of a Setup's jobs, one row per (job,
    block, interval), jobs in key order."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["chain", "period", "task", "block", "index", "lo", "hi"])
        for key in sorted(setup.jobs):
            job = setup.jobs[key]
            ctx = setup.tasks[job.task_id].ctx
            for bid, window in ctx.bba_times(sorted(ctx.task.blocks), job.release).items():
                for idx, (lo, hi) in enumerate(window):
                    w.writerow([job.chain_id, job.period_index, job.task_id, bid, idx, lo, hi])
