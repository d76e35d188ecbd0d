"""Interval-sequence algebra and hierarchical temporal overlap detection.

Sequences are tuples of closed Interval sorted by lower bound.  Overlap is
inclusive: coinciding endpoints overlap, so every verdict is unchanged when
both operands are translated by the same delta.
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
    if not a:
        raise ValueError("empty sequence has no hull")
    return Interval(min(iv.lo for iv in a), max(iv.hi for iv in a))


def normalize(a: tuple) -> tuple:
    """Coalesce overlapping or touching intervals; coverage is unchanged."""
    if len(a) <= 1:
        return tuple(a)
    items = sorted(a, key=lambda iv: (iv.lo, iv.hi))
    out = [items[0]]
    for iv in items[1:]:
        last = out[-1]
        if iv.lo <= last.hi:  # touching endpoints coalesce under closed semantics
            if iv.hi > last.hi:
                out[-1] = Interval(last.lo, iv.hi)
        else:
            out.append(iv)
    return tuple(out)


def seq_merge(a: tuple, b: tuple) -> tuple:
    """Pairwise sum of two sequences: {[a_lo+b_lo, a_hi+b_hi]} over all pairs.

    The result is sorted but not normalized; its length is |a| * |b|.
    """
    out = [Interval(x.lo + y.lo, x.hi + y.hi) for x in a for y in b]
    out.sort(key=lambda iv: (iv.lo, iv.hi))
    return tuple(out)


def seq_overlap(a: tuple, b: tuple) -> bool:
    """Two-pointer sweep over both sequences, O(|a| + |b|)."""
    if not a or not b:
        return False
    a = normalize(a)
    b = normalize(b)
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i].lo, b[j].lo)
        hi = min(a[i].hi, b[j].hi)
        if lo <= hi:
            return True
        if a[i].hi < b[j].hi:
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


def hierarchical_overlap(a, b, threshold: int = PHASE3_THRESHOLD) -> OverlapVerdict:
    """Three-phase overlap judgment between two block occurrences.

    ``a`` and ``b`` are BlockView descriptors (see chainlat.context): each
    carries the job lifetime, the outermost-loop envelope when the block
    sits inside a loop, and a lazily expanded absolute window sequence with
    coarser fallbacks.  Phases reject from cheap to precise; a rejection at
    any phase is final because every phase tests a superset of the next.
    """
    if not a.job_lifetime.overlaps(b.job_lifetime):
        return OverlapVerdict(False, "job")

    a_env = a.outer_envelope
    b_env = b.outer_envelope
    if a_env is not None or b_env is not None:
        x = a_env if a_env is not None else hull(a.window_levels[-1])
        y = b_env if b_env is not None else hull(b.window_levels[-1])
        if not x.overlaps(y):
            return OverlapVerdict(False, "outer-loop")

    return OverlapVerdict(
        seq_overlap(a.window_within(threshold), b.window_within(threshold)),
        "block",
    )
