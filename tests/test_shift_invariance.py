"""Overlap verdicts are translation-invariant.

The TSC analysis meets hyperperiod-shifted foreign jobs by shifting the
one-interval target view by -shift instead of shifting every foreign view by
+shift.  These properties check that the two are the same judgment.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from chainlat import generate_workload
from chainlat.cache_ai import AH, PS
from chainlat.context import BlockView
from chainlat.interference import collect_overlap_set
from chainlat.latency import prepare
from chainlat.model import Interval
from chainlat.overlap import PHASE3_THRESHOLD, hierarchical_overlap

from conftest import boundary_bundle


def shift_view(view, delta):
    """Every interval of a view moved by delta (the former foreign-view shift)."""
    return BlockView(
        view.job_lifetime.shift(delta),
        None if view.outer_envelope is None else view.outer_envelope.shift(delta),
        tuple(tuple(iv.shift(delta) for iv in level) for level in view.window_levels),
    )


def reference_collect(target_view, foreign_job_ctx, blocks, shift):
    """Overlap set against the foreign job moved by +shift."""
    return [
        bid for bid in blocks
        if hierarchical_overlap(target_view, shift_view(foreign_job_ctx.block_view(bid), shift))
    ]


intervals = st.builds(
    lambda lo, width: Interval(lo, lo + width),
    st.integers(-100, 300), st.integers(0, 80),
)
sequences = st.lists(intervals, min_size=1, max_size=4).map(lambda ivs: tuple(sorted(ivs)))
target_views = st.builds(lambda life, w: BlockView(life, None, ((w,),)), intervals, intervals)
foreign_views = st.builds(
    BlockView, intervals, st.none() | intervals, st.lists(sequences, min_size=1, max_size=3).map(tuple)
)
views = target_views | foreign_views
deltas = st.integers(-10**6, 10**6)


@settings(max_examples=400, deadline=None)
@given(views, views, deltas, st.sampled_from((1, 2, PHASE3_THRESHOLD)))
def test_hierarchical_overlap_translation_invariant(a, b, delta, threshold):
    before = hierarchical_overlap(a, b, threshold)
    after = hierarchical_overlap(shift_view(a, delta), shift_view(b, delta), threshold)
    assert (after.result, after.decided_at) == (before.result, before.decided_at)


def _shift_cases(setup, extra_delta):
    """(target view, foreign job context, candidate blocks, shift) over a bundle."""
    h = setup.hyper
    for key, job in sorted(setup.jobs.items()):
        jctx = setup.job_ctx(key)
        core = setup.chains[job.chain_id].chain.core
        cls_table = setup.tasks[job.task_id].classification
        for cls in cls_table.visible():
            if cls.l2_chmc not in (AH, PS):
                continue
            tv = jctx.target_view(cls.access_id)
            for fkey, fjob in sorted(setup.jobs.items()):
                if setup.chains[fjob.chain_id].chain.core == core:
                    continue
                fcls = setup.tasks[fjob.task_id].classification
                blocks = sorted({c.block_id for c in fcls.visible() if c.l2_set == cls.l2_set})
                if blocks:
                    for shift in (-h, 0, h, extra_delta):
                        yield tv, setup.job_ctx(fkey), blocks, shift


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
