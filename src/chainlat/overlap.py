"""Interval-sequence algebra and hierarchical temporal overlap detection.

An interval is a closed (lo, hi) pair; model.Interval, its validated form,
equals the pair.  Sequences are tuples sorted by lower bound.  A job's
windows are normalized where they are built, by
context.TaskContext.bba_times; the overlap tests never normalize.  Overlap
is inclusive: touching endpoints overlap, so verdicts are invariant under
translating both operands.  The TSC analysis leans on that: it tests a
foreign block in its task's time, against the relative window, with the
one-interval target moved by the foreign job's release window.  Moving
each interval (a, b) of a window to (a + rlo, b + rhi) and normalizing
keeps the first lo and the last hi, and a window meets the moved target
exactly where its widened form meets the target, so the verdict and the
phase that decides it are those of the absolute view.  The block phase
compares whole windows: context.TaskContext caps each where it is built.

hierarchical_overlap holds the loop-envelope and block phases; the job
phase is latency.LifetimeIndex, applied once per foreign job.  It sits in
the TSC inner loop, so it allocates nothing: it returns one of the four
shared, frozen verdicts in VERDICTS, reads the hulls of both views' last
levels inline, and compares two single-interval windows directly
instead of sweeping them with seq_overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Interval


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
    decided_at: str  # "outer-loop" | "block"

    def __bool__(self):
        return self.result


# The four possible verdicts, shared by every test: (result, decided_at) -> verdict.
VERDICTS = {(r, d): OverlapVerdict(r, d) for d in ("outer-loop", "block") for r in (False, True)}
_LOOP_MISS = VERDICTS[False, "outer-loop"]
_BLOCK_MISS = VERDICTS[False, "block"]
_BLOCK_HIT = VERDICTS[True, "block"]


def hierarchical_overlap(a: tuple, b: tuple) -> OverlapVerdict:
    """Loop-envelope then block-window overlap of two block occurrences.

    ``a`` and ``b`` are block views (see chainlat.context): a normalized
    window in one time, then the outermost-loop envelope when the block
    sits inside a loop.  The job phase already ran, once per foreign job,
    in latency.LifetimeIndex.  A rejection is final because the envelope
    covers the block window.  The envelope phase runs when either view has
    more than one level and compares the hulls of both last levels.  The
    block phase compares the windows: two single intervals directly,
    others by seq_overlap.
    """
    if len(a) > 1 or len(b) > 1:
        ca, cb = a[-1], b[-1]
        if ca[0][0] > cb[-1][1] or cb[0][0] > ca[-1][1]:
            return _LOOP_MISS

    wa, wb = a[0], b[0]
    if len(wa) == 1 and len(wb) == 1:
        (alo, ahi), = wa
        (blo, bhi), = wb
        return _BLOCK_HIT if alo <= bhi and blo <= ahi else _BLOCK_MISS
    return _BLOCK_HIT if seq_overlap(wa, wb) else _BLOCK_MISS
