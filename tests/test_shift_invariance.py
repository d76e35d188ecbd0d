"""Overlap verdicts are translation-invariant.

The TSC analysis meets hyperperiod-shifted foreign jobs by shifting the
one-interval target view by -shift instead of shifting every foreign view by
+shift, and it tests a foreign block in its task's time: against the
task's relative window, with the target moved by the job's release window.
These properties check that each is the same judgment, phase included.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainlat import generate_workload
from chainlat.cache_ai import AH, PS
from chainlat.interference import collect_overlap_set
from chainlat.latency import prepare
from chainlat.model import Interval
from chainlat.context import PHASE3_THRESHOLD, cap_window
from chainlat.overlap import hierarchical_overlap, normalize

from conftest import boundary_bundle, job_context, shift_view, target_view
from oracles import reference_bba_time


def reference_collect(target_view, foreign, blocks, shift):
    """Overlap set against the foreign job moved by +shift."""
    return [
        bid for bid in blocks
        if hierarchical_overlap(target_view, shift_view(foreign.block_view(bid), shift))
    ]


def task_time_query(target_view, release, shift):
    """The one-interval target moved into the time of a foreign task whose
    job is released within `release` and shifted by `shift`."""
    ((lo, hi),), = target_view
    rlo, rhi = release
    return (((lo - shift - rhi, hi - shift - rlo),),)


intervals = st.builds(
    lambda lo, width: Interval(lo, lo + width),
    st.integers(-100, 300), st.integers(0, 80),
)
# Views hold normalized windows, as JobContext builds them.
sequences = st.lists(intervals, min_size=1, max_size=4).map(normalize)
target_views = intervals.map(lambda w: ((w,),))
foreign_views = st.lists(sequences, min_size=1, max_size=2).map(tuple)
views = target_views | foreign_views
deltas = st.integers(-10**6, 10**6)


def capped(view, limit):
    """A view with each level capped at `limit` intervals."""
    return tuple(cap_window(w, limit) for w in view)


@settings(max_examples=400, deadline=None)
@given(views, views, deltas, st.sampled_from((1, 2, PHASE3_THRESHOLD)))
def test_hierarchical_overlap_translation_invariant(a, b, delta, limit):
    # Capping before or after the move gives one verdict, phase included.
    before = hierarchical_overlap(capped(a, limit), capped(b, limit))
    after = hierarchical_overlap(capped(shift_view(a, delta), limit), capped(shift_view(b, delta), limit))
    assert (after.result, after.decided_at) == (before.result, before.decided_at)


def _shift_cases(setup, extra_delta):
    """(target view, foreign job context, candidate blocks, shift) over a bundle."""
    h = setup.hyper
    for key, job in sorted(setup.jobs.items()):
        core = setup.chains[job.chain_id].core
        cls_table = setup.tasks[job.task_id].classification
        for cls in cls_table.visible():
            if cls.l2_chmc not in (AH, PS):
                continue
            tv = target_view(setup, key, cls.access_id)
            for fkey, fjob in sorted(setup.jobs.items()):
                if setup.chains[fjob.chain_id].core == core:
                    continue
                fcls = setup.tasks[fjob.task_id].classification
                blocks = sorted({c.block_id for c in fcls.visible() if c.l2_set == cls.l2_set})
                if blocks:
                    for shift in (-h, 0, h, extra_delta):
                        yield tv, job_context(setup, fkey), blocks, shift


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 200), st.sampled_from(("ET", "TT", "mix")), deltas)
def test_shifted_target_matches_shifted_foreign_views(seed, trigger, delta):
    setup = prepare(generate_workload(seed=seed, cores=2, trigger=trigger, collision=0.8))
    for tv, fjctx, blocks, shift in _shift_cases(setup, delta):
        assert collect_overlap_set(shift_view(tv, -shift), fjctx, blocks) == \
            reference_collect(tv, fjctx, blocks, shift)


def test_shifted_target_matches_at_hyperperiod_boundary():
    setup = prepare(boundary_bundle())
    hits = 0
    for tv, fjctx, blocks, shift in _shift_cases(setup, 0):
        got = collect_overlap_set(shift_view(tv, -shift), fjctx, blocks)
        assert got == reference_collect(tv, fjctx, blocks, shift)
        hits += bool(got) and shift != 0
    assert hits  # the previous hyperperiod's copy of c1 meets c0's window


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 200), st.sampled_from(("ET", "TT", "mix")), st.integers(0, 2), deltas)
def test_task_time_test_matches_absolute_test_on_generated_bundles(seed, trigger, loop_depth, delta):
    # Per candidate block: the task-time query against the task's relative
    # window gives the verdict and phase of the shifted target against the
    # job's absolute window.
    bundle = generate_workload(seed=seed, cores=2, trigger=trigger, loop_depth=loop_depth, collision=0.8)
    setup = prepare(bundle)
    for tv, fjctx, blocks, shift in _shift_cases(setup, delta):
        relative = setup.tasks[fjctx.task_ctx.task.id].task_views
        query = task_time_query(tv, fjctx.release, shift)
        for bid in blocks:
            got = hierarchical_overlap(query, relative.block_view(bid))
            want = hierarchical_overlap(shift_view(tv, -shift), fjctx.block_view(bid))
            assert (got.result, got.decided_at) == (want.result, want.decided_at), (fjctx.release, bid, shift)


def _level(start, steps):
    """A normalized window from its first lo and (gap, width) steps."""
    out, lo = [], start
    for gap, width in steps:
        out.append((lo, lo + width))
        lo += width + gap
    return normalize(out)


# Gaps up to 2 * 10^5 under release windows up to 10^6 wide: several
# relative intervals often merge into one absolute interval.
levels = st.builds(_level, st.integers(-10**6, 10**6),
                   st.lists(st.tuples(st.integers(0, 200_000), st.integers(0, 5_000)),
                            min_size=1, max_size=8))
ladders = st.lists(levels, min_size=1, max_size=2).map(tuple)
releases = st.builds(lambda lo, width: (lo, lo + width), st.integers(0, 10**7), st.integers(0, 10**6))
targets = st.builds(lambda lo, width: ((Interval(lo, lo + width),),),
                    st.integers(-3 * 10**7, 3 * 10**7), st.integers(0, 10**5))
shifts = st.sampled_from((-52_000, 0, 52_000)) | deltas


# Two relative intervals that the release window merges into one absolute
# interval: the absolute block phase compares two single intervals, the
# task-time one sweeps the relative pair.
MERGED = ((((0, 10), (100, 110)), ((0, 110),)), (0, 1000), (((500, 500),),), 0)


@settings(max_examples=500, deadline=None)
@given(ladders, releases, targets, shifts)
@example(*MERGED)
def test_task_time_test_matches_absolute_test_on_drawn_ladders(relative, release, target, shift):
    assert all(len(w) <= PHASE3_THRESHOLD for w in relative)
    absolute = tuple(reference_bba_time(release, w) for w in relative)
    got = hierarchical_overlap(task_time_query(target, release, shift), relative)
    want = hierarchical_overlap(shift_view(target, -shift), absolute)
    assert (got.result, got.decided_at) == (want.result, want.decided_at)


def test_a_wide_release_merges_relative_intervals():
    relative, release, _, _ = MERGED
    assert reference_bba_time(release, relative[0]) == ((0, 1110),)


# (cores, tasks per chain, blocks per task, default seed) of the bench
# workloads rung4, longhyper and verify2, all generated at collision 0.8.
BENCH_SHAPES = ((4, 4, 16, 5), (2, 2, 8, 11), (2, 2, 8, 1))


def test_no_generated_window_reaches_the_cap():
    # Generated loops never give a window of PHASE3_THRESHOLD intervals, so
    # the cap bridges no gap of the bench's bundles.
    for cores, tasks_per_chain, blocks, seed in BENCH_SHAPES:
        for gen_seed in range(seed, seed + 3):
            bundle = generate_workload(seed=gen_seed, cores=cores, tasks_per_chain=tasks_per_chain,
                                       blocks_per_task=blocks, utilization=0.9, collision=0.8)
            setup = prepare(bundle)
            for ta in setup.tasks.values():
                assert all(len(w) < PHASE3_THRESHOLD for w in ta.ctx.bbrp.values()), (cores, gen_seed)
