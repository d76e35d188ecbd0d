"""Invariants the overlap phases rely on, over generated tasks and bundles.

hierarchical_overlap takes the hull of a window as (w[0][0], w[-1][1]) and
sweeps windows without normalizing them, so every window must be
normalized where it is built.  Its job and outer-loop phases reject only
supersets of the block windows, so each level must lie inside the job
lifetime and each coarser level must cover the finer one.  The outer-loop
phase runs exactly when a view has more than one level, so a block inside
a loop must have one level per enclosing loop past its own, the coarsest a
single interval (the outermost loop's envelope) covering the finest, and a
top-level block exactly one level.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from chainlat import generate_workload
from chainlat.latency import prepare
from chainlat.model import Interval
from chainlat.overlap import normalize

from test_sim_reference import _bundle


def is_normalized(w):
    """Sorted, disjoint and not touching: no two intervals could coalesce."""
    return all(lo <= hi for lo, hi in w) and all(a_hi < b_lo for (_, a_hi), (b_lo, _) in zip(w, w[1:]))


def inside(w, outer):
    lo, hi = outer
    return all(lo <= a and b <= hi for a, b in w)


def covered(fine, coarse):
    return all(any(c_lo <= lo and hi <= c_hi for c_lo, c_hi in coarse) for lo, hi in fine)


def check_block_views(setup) -> int:
    """Assert the invariants on every block view of every job; return the intervals seen."""
    seen = 0
    for key in sorted(setup.jobs):
        jctx = setup.job_ctx(key)
        for bid in sorted(jctx.task_ctx.task.blocks):
            view = jctx.block_view(bid)
            levels = view.window_levels
            for w in levels:
                assert w and is_normalized(w), (key, bid, w)
                assert inside(w, view.job_lifetime), (key, bid, w, view.job_lifetime)
            ancestors = jctx.task_ctx.task.ancestry[bid]
            assert len(levels) == 1 + len(ancestors), (key, bid, ancestors)
            if ancestors:
                assert len(levels[-1]) == 1 and inside(levels[0], levels[-1][0]), (key, bid, levels[-1])
            for fine, coarse in zip(levels, levels[1:]):
                assert covered(fine, coarse), (key, bid, fine, coarse)
            seen += sum(map(len, levels))
    return seen


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(1, 10_000), shape=st.sampled_from(((2, 2, 8), (4, 4, 16), (2, 4, 12))),
       collision=st.sampled_from((0.5, 0.8)), trigger=st.sampled_from(("ET", "TT", "mix")))
def test_block_views_of_generated_bundles(seed, shape, collision, trigger):
    cores, tasks_per_chain, blocks = shape
    bundle = generate_workload(seed=seed, cores=cores, tasks_per_chain=tasks_per_chain,
                               blocks_per_task=blocks, collision=collision, trigger=trigger)
    assert check_block_views(prepare(bundle))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), trigger=st.sampled_from(("ET", "TT", "mix")),
       depth=st.integers(0, 3), collision=st.sampled_from((0.5, 0.8)), n_blocks=st.integers(2, 12),
       pad=st.sampled_from((0, 700)))
def test_block_views_of_builder_tasks(seed, trigger, depth, collision, n_blocks, pad):
    assert check_block_views(prepare(_bundle(seed, trigger, depth, collision, n_blocks, pad)))


intervals = st.builds(lambda lo, width: Interval(lo, lo + width),
                      st.integers(-30, 30), st.integers(0, 8))


@settings(max_examples=300, deadline=None)
@given(st.lists(intervals, max_size=8))
def test_normalize_is_idempotent_and_keeps_coverage(ivs):
    once = normalize(ivs)
    assert is_normalized(once)
    assert normalize(once) == once
    points = range(-31, 40)
    assert [any(lo <= t <= hi for lo, hi in ivs) for t in points] == \
        [any(lo <= t <= hi for lo, hi in once) for t in points]
