"""Interval-sequence algebra and hierarchical temporal overlap detection.

An interval is a closed (lo, hi) pair; model.Interval, its validated form,
equals the pair.  Sequences are tuples sorted by lower bound.  A job's
absolute windows are normalized where they are built, by
context.TaskContext.bba_time; the overlap tests never normalize.  Overlap is inclusive: touching endpoints
overlap, so verdicts are invariant under translating both operands.

hierarchical_overlap sits in the TSC inner loop, so it allocates nothing:
it returns one of the six shared, frozen verdicts in VERDICTS, reads the
hulls of the coarsest window levels inline, and compares two
single-interval windows directly instead of sweeping them with seq_overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Interval

# Longest block window sequence the block-level phase expands; longer ones
# fall back to the window of an enclosing contracted loop.
PHASE3_THRESHOLD = 1024


def seq(*pairs) -> tuple:
    """Build a sorted interval sequence from (lo, hi) pairs."""
    return tuple(sorted(Interval(lo, hi) for lo, hi in pairs))


def hull(a: tuple) -> Interval:
    """Smallest single interval covering the sequence."""
    return Interval(min(lo for lo, _ in a), max(hi for _, hi in a))


def normalize(a) -> tuple:
    """Coalesce overlapping or touching intervals; coverage is unchanged."""
    out = []
    for lo, hi in sorted(a):
        if out and lo <= out[-1][1]:  # touching endpoints coalesce under closed semantics
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return tuple(out)


def seq_merge(a: tuple, b: tuple) -> tuple:
    """Pairwise sum {[a_lo+b_lo, a_hi+b_hi]}: sorted, not normalized, |a| * |b| long."""
    return tuple(sorted((alo + blo, ahi + bhi) for alo, ahi in a for blo, bhi in b))


def seq_overlap(a: tuple, b: tuple) -> bool:
    """Two-pointer sweep over lo-sorted sequences, O(|a| + |b|), no normalizing.

    Exact on any lo-sorted input: of two disjoint a[i] and b[j], the one with
    the smaller hi ends before every later interval of the other begins.
    """
    i = j = 0
    while i < len(a) and j < len(b):
        (alo, ahi), (blo, bhi) = a[i], b[j]
        if alo <= bhi and blo <= ahi:
            return True
        if ahi < bhi:
            i += 1
        else:
            j += 1
    return False


@dataclass(frozen=True)
class OverlapVerdict:
    result: bool
    decided_at: str  # "job" | "outer-loop" | "block"

    def __bool__(self):
        return self.result


# The six possible verdicts, shared by every test: (result, decided_at) -> verdict.
VERDICTS = {(r, d): OverlapVerdict(r, d) for d in ("job", "outer-loop", "block") for r in (False, True)}
_JOB_MISS = VERDICTS[False, "job"]
_LOOP_MISS = VERDICTS[False, "outer-loop"]
_BLOCK_MISS = VERDICTS[False, "block"]
_BLOCK_HIT = VERDICTS[True, "block"]


def hierarchical_overlap(a, b, threshold: int = PHASE3_THRESHOLD) -> OverlapVerdict:
    """Three-phase overlap judgment between two block occurrences.

    ``a`` and ``b`` are BlockView descriptors (see chainlat.context): each
    carries the job lifetime and normalized absolute window sequences,
    finest first, whose coarsest level is the outermost-loop envelope when
    the block sits inside a loop.  Phases reject from cheap to precise; a
    rejection at any phase is final because every phase tests a superset
    of the next.  The middle phase runs when either view has more than one
    level and compares the hulls of both coarsest levels.  The block phase
    compares the finest windows unless one is longer than ``threshold``,
    then that side's window_within; two single-interval windows are
    compared directly, others by seq_overlap.
    """
    alo, ahi = a.job_lifetime
    blo, bhi = b.job_lifetime
    if alo > bhi or blo > ahi:
        return _JOB_MISS

    la, lb = a.window_levels, b.window_levels
    if len(la) > 1 or len(lb) > 1:
        ca, cb = la[-1], lb[-1]
        if ca[0][0] > cb[-1][1] or cb[0][0] > ca[-1][1]:
            return _LOOP_MISS

    wa, wb = la[0], lb[0]
    if len(wa) > threshold:
        wa = a.window_within(threshold)
    if len(wb) > threshold:
        wb = b.window_within(threshold)
    if len(wa) == 1 and len(wb) == 1:
        (alo, ahi), = wa
        (blo, bhi), = wb
        return _BLOCK_HIT if alo <= bhi and blo <= ahi else _BLOCK_MISS
    return _BLOCK_HIT if seq_overlap(wa, wb) else _BLOCK_MISS
