"""Interval-sequence algebra and hierarchical temporal overlap detection.

An interval is a closed (lo, hi) pair; model.Interval, its validated form,
equals the pair.  Sequences are tuples sorted by lower bound.  A job's
absolute windows are normalized once, by context.compute_bba_time; the
overlap tests never normalize.  Overlap is inclusive: touching endpoints
overlap, so verdicts are invariant under translating both operands.
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


def _span(view) -> tuple:
    """Outer-loop envelope, else the hull of the normalized coarsest window."""
    if view.outer_envelope is not None:
        return view.outer_envelope
    w = view.window_levels[-1]
    return w[0][0], w[-1][1]


def hierarchical_overlap(a, b, threshold: int = PHASE3_THRESHOLD) -> OverlapVerdict:
    """Three-phase overlap judgment between two block occurrences.

    ``a`` and ``b`` are BlockView descriptors (see chainlat.context): each
    carries the job lifetime, the outermost-loop envelope when the block
    sits inside a loop, and normalized absolute window sequences, finest
    first.  Phases reject from cheap to precise; a rejection at any phase
    is final because every phase tests a superset of the next.
    """
    alo, ahi = a.job_lifetime
    blo, bhi = b.job_lifetime
    if alo > bhi or blo > ahi:
        return OverlapVerdict(False, "job")

    if a.outer_envelope is not None or b.outer_envelope is not None:
        alo, ahi = _span(a)
        blo, bhi = _span(b)
        if alo > bhi or blo > ahi:
            return OverlapVerdict(False, "outer-loop")

    found = seq_overlap(a.window_within(threshold), b.window_within(threshold))
    return OverlapVerdict(found, "block")
