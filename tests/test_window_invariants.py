"""Invariants the overlap phases rely on, over generated tasks and bundles.

hierarchical_overlap takes the hull of a window as (w[0][0], w[-1][1]) and
sweeps windows without normalizing them, so every window must be
normalized where it is built.  The job phase is the lifetime index, which
drops a foreign job before any of its blocks is tested, and the
outer-loop phase rejects only supersets of the block windows; so each
level of a block view, and each TSC target's absolute reuse window, must
lie inside its job's lifetime.  The outer-loop phase runs exactly when a
view has more than one level, so a block inside a loop must have two, its
window and then a single interval (the outermost loop's envelope)
covering it, and a top-level block exactly one.  The block phase sweeps
whole windows, so none holds more than PHASE3_THRESHOLD intervals.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from chainlat import generate_workload
from chainlat.context import PHASE3_THRESHOLD, TaskContext
from chainlat.cost import contract_task
from chainlat.latency import analyze_instance, prepare
from chainlat.model import Interval
from chainlat.overlap import normalize

from conftest import job_context
from test_sim_reference import _bundle


def is_normalized(w):
    """Sorted, disjoint and not touching: no two intervals could coalesce."""
    return all(lo <= hi for lo, hi in w) and all(a_hi < b_lo for (_, a_hi), (b_lo, _) in zip(w, w[1:]))


def inside(w, outer):
    lo, hi = outer
    return all(lo <= a and b <= hi for a, b in w)


def check_block_views(setup) -> int:
    """Assert the invariants on every block view of every job; return the intervals seen."""
    seen = 0
    for key in sorted(setup.jobs):
        jctx, lifetime = job_context(setup, key), setup.jobs[key].lifetime
        for bid in sorted(jctx.task_ctx.task.blocks):
            levels = jctx.block_view(bid)
            for w in levels:
                assert w and is_normalized(w), (key, bid, w)
                assert inside(w, lifetime), (key, bid, w, lifetime)
            ancestors = jctx.task_ctx.task.ancestry[bid]
            assert len(levels) == 1 + bool(ancestors), (key, bid, ancestors)
            assert len(levels[0]) <= PHASE3_THRESHOLD, (key, bid)
            if ancestors:
                assert len(levels[-1]) == 1 and inside(levels[0], levels[-1][0]), (key, bid, levels[-1])
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


def check_target_windows(setup):
    """Assert that every TSC target's reuse window, widened by its job's
    release window, lies inside that job's lifetime, both the first pass's
    window and the one a second refinement pass reads."""
    for key in sorted(setup.jobs):
        job = setup.jobs[key]
        ta = setup.tasks[job.task_id]
        refined = analyze_instance(setup, key, "TSC").refined
        con = contract_task(setup.bundle.tasks[job.task_id], ta.classification, setup.bundle.system,
                            refined=refined, plan=ta.plan)
        for line_window in (ta.ctx.line_window, TaskContext(con).line_window):
            for cls in ta.targets:
                lo, hi = line_window[cls.access_id]
                window = ((lo + job.release.lo, hi + job.release.hi),)
                assert inside(window, job.lifetime), (key, cls.access_id, window, job.lifetime)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(1, 10_000), cores=st.sampled_from((2, 4)),
       collision=st.sampled_from((0.5, 0.8)), trigger=st.sampled_from(("ET", "TT", "mix")))
def test_target_windows_of_generated_bundles(seed, cores, collision, trigger):
    bundle = generate_workload(seed=seed, cores=cores, collision=collision, trigger=trigger)
    check_target_windows(prepare(bundle))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), trigger=st.sampled_from(("ET", "TT", "mix")),
       depth=st.integers(0, 3), collision=st.sampled_from((0.5, 0.8)), n_blocks=st.integers(2, 12),
       pad=st.sampled_from((0, 700)))
def test_target_windows_of_builder_tasks(seed, trigger, depth, collision, n_blocks, pad):
    check_target_windows(prepare(_bundle(seed, trigger, depth, collision, n_blocks, pad)))


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
