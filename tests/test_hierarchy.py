"""Overlap hierarchy on worked context material: the lifetime index decides
the job phase, hierarchical_overlap the loop-envelope and block phases."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlat.cache_ai import classify_task
from chainlat.context import PHASE3_THRESHOLD, JobContext, TaskContext, cap_window
from chainlat.cost import contract_task
from chainlat.latency import LifetimeIndex
from chainlat.model import Interval, JobInstance
from chainlat.overlap import hierarchical_overlap, hull, normalize

from conftest import diamond_loop_task, make_system, shift_view, straight_task
from oracles import reference_hierarchical_overlap


def _job_ctx(task, system, release, jid="c"):
    """The block views of a job of `task` released at `release`, and the job."""
    con = contract_task(task, classify_task(task, system), system)
    job = JobInstance(jid, 0, task.id, 0, Interval(release, release),
                      Interval(release, release + con.wcet))
    return JobContext(job.release, TaskContext(con)), job


def test_lifetime_index_rejects_disjoint_jobs(system):
    # The job phase is the lifetime index: it never pairs jobs whose
    # lifetimes are disjoint under any hyperperiod shift, and their block
    # views, which lie inside those lifetimes, test as no overlap anyway.
    a, ja = _job_ctx(straight_task("pa", [100]), system, 0, "ca")
    b, jb = _job_ctx(straight_task("pb", [100]), system, 200, "cb")
    assert ja.lifetime.hi < jb.lifetime.lo
    for x, y in ((ja, jb), (jb, ja)):
        index = LifetimeIndex({(y.chain_id, 0, 0): y.lifetime}, 1000)
        assert index.overlapping(x.lifetime) == []
    v = hierarchical_overlap(a.block_view("pa_b0"), b.block_view("pb_b0"))
    assert not v.result and v.decided_at == "block"


def test_phase2_loop_envelope_rejects(system):
    # Diamond-loop job released at 0: outer envelope of the loop is [10, 52].
    # A foreign mid-block window [10, 40] shifted by release 50 gives [60, 90].
    diamond = diamond_loop_task()
    peer = straight_task("pr", [10, 30, 5])
    a, _ = _job_ctx(diamond, system, 0)
    b, _ = _job_ctx(peer, system, 50)
    assert a.block_view("dl_t")[-1] == (Interval(10, 52),)
    assert b.block_view("pr_b1")[0] == (Interval(60, 90),)
    v = hierarchical_overlap(a.block_view("dl_t"), b.block_view("pr_b1"))
    assert not v.result and v.decided_at == "outer-loop"


def test_phase3_block_windows_meet(system):
    # Post-loop block at release 100 gives [143, 158]; a first block of cost
    # 10 at release 150 gives [150, 160]; closed intervals meet at 150..158.
    diamond = diamond_loop_task()
    peer = straight_task("pr", [10, 30, 5])
    a, _ = _job_ctx(diamond, system, 100)
    b, _ = _job_ctx(peer, system, 150)
    assert a.block_view("dl_b3")[0] == (Interval(143, 158),)
    v = hierarchical_overlap(a.block_view("dl_b3"), b.block_view("pr_b0"))
    assert v.result and v.decided_at == "block"


def test_phase3_cap_bridges_the_narrowest_gaps(system):
    a, _ = _job_ctx(diamond_loop_task(), system, 0)
    view = a.block_view("dl_t")
    fine = view[0]
    assert len(fine) == 3 <= PHASE3_THRESHOLD  # one interval per iteration, under the cap
    assert cap_window(fine) == fine
    gaps = [b_lo - a_hi for (_, a_hi), (b_lo, _) in zip(fine, fine[1:])]
    two = cap_window(fine, 2)
    assert len(two) == 2 and two[1][0] - two[0][1] == max(gaps)
    assert cap_window(fine, 1) == (hull(fine),)
    (env_lo, env_hi), = view[-1]  # the loop envelope covers every cap of the window
    assert env_lo <= fine[0][0] and fine[-1][1] <= env_hi


def test_phase_rejection_implies_expanded_disjoint(system):
    # Every phase only rejects supersets, so a negative verdict must agree
    # with the brute-force comparison of the fully expanded windows.
    from chainlat.overlap import seq_overlap

    diamond = diamond_loop_task()
    peer = straight_task("pr", [10, 30, 5])
    for rel_a in range(0, 140, 11):
        a, _ = _job_ctx(diamond, system, rel_a)
        for rel_b in range(0, 140, 13):
            b, _ = _job_ctx(peer, system, rel_b)
            for blk_a in ("dl_t", "dl_h", "dl_b3"):
                for blk_b in ("pr_b0", "pr_b1", "pr_b2"):
                    verdict = hierarchical_overlap(a.block_view(blk_a), b.block_view(blk_b))
                    expanded = seq_overlap(a.block_view(blk_a)[0], b.block_view(blk_b)[0])
                    if not verdict.result:
                        assert not expanded, (rel_a, rel_b, blk_a, blk_b, verdict)
                    else:
                        assert expanded  # phases add no false positives either


def test_coarsening_never_flips_true_to_false(system):
    diamond = diamond_loop_task()
    peer = straight_task("pr", [10, 30, 5])
    for rel in range(0, 120, 7):
        a, _ = _job_ctx(diamond, system, rel)
        b, _ = _job_ctx(peer, system, 60)
        view = a.block_view("dl_t")
        fine = hierarchical_overlap(view, b.block_view("pr_b1"))
        coarse = hierarchical_overlap((cap_window(view[0], 1), *view[1:]), b.block_view("pr_b1"))
        if fine.result:
            assert coarse.result


def test_top_level_blocks_skip_the_loop_phase(system):
    # One level on each side: lifetimes overlap, windows are disjoint, and
    # the block phase decides, even for a top-level block of a task with loops.
    diamond = diamond_loop_task()
    peer = straight_task("pr", [10, 30, 5])
    a, _ = _job_ctx(diamond, system, 0)
    b, _ = _job_ctx(peer, system, 0)
    c, _ = _job_ctx(straight_task("pc", [10, 30, 5]), system, 0)
    for va, vb in ((a.block_view("dl_b3"), b.block_view("pr_b0")),
                   (b.block_view("pr_b2"), c.block_view("pc_b0"))):
        assert len(va) == len(vb) == 1
        for x, y in ((va, vb), (vb, va)):
            v = hierarchical_overlap(x, y)
            assert not v.result and v.decided_at == "block"


def test_loop_block_against_disjoint_top_level_block(system):
    # The loop envelope [10, 52] against [53, 63]: either side having more
    # than one level runs the loop phase, which rejects.
    diamond = diamond_loop_task()
    peer = straight_task("pr", [10, 30, 5])
    a, _ = _job_ctx(diamond, system, 0)
    b, _ = _job_ctx(peer, system, 53)
    loop_view, top_view = a.block_view("dl_h"), b.block_view("pr_b0")
    assert len(loop_view) == 2 and len(top_view) == 1
    assert top_view[0] == (Interval(53, 63),)
    for x, y in ((loop_view, top_view), (top_view, loop_view)):
        v = hierarchical_overlap(x, y)
        assert not v.result and v.decided_at == "outer-loop"


@st.composite
def _block_views(draw):
    """A view as a block's is: a normalized window of 1-6 intervals, then,
    for a loop block, a one-interval envelope covering it."""
    spans = st.tuples(st.integers(0, 30), st.integers(0, 12)).map(lambda t: (t[0], t[0] + t[1]))
    window = normalize(draw(st.lists(spans, min_size=1, max_size=6)))
    if not draw(st.booleans()):
        return (window,)
    lo, hi = window[0][0], window[-1][1]
    return window, ((lo - draw(st.integers(0, 5)), hi + draw(st.integers(0, 5))),)


@st.composite
def _view_pairs(draw):
    """Two views whose hulls (their last levels') are disjoint, touching
    or overlapping.

    A fourth relation places b's first window interval where a's last one
    ends, so the block phase often meets touching windows.
    """
    a, b = draw(_block_views()), draw(_block_views())
    (alo, ahi), (blo, bhi) = hull(a[-1]), hull(b[-1])
    relation = draw(st.sampled_from(("disjoint", "touching", "overlapping", "windows-touch")))
    if relation == "windows-touch":
        return a, shift_view(b, a[0][-1][1] - b[0][0][0])
    if relation == "overlapping":
        start = draw(st.integers(alo - (bhi - blo), ahi))
    else:
        gap = draw(st.integers(1, 20)) if relation == "disjoint" else 0
        start = ahi + gap if draw(st.booleans()) else alo - gap - (bhi - blo)
    return a, shift_view(b, start - blo)


@settings(max_examples=400, deadline=None)
@given(_view_pairs(), st.booleans())
def test_hierarchical_overlap_matches_reference(pair, swap):
    a, b = pair[::-1] if swap else pair
    verdict = hierarchical_overlap(a, b)
    assert (verdict.result, verdict.decided_at) == reference_hierarchical_overlap(a, b)
    assert bool(verdict) is verdict.result
    with pytest.raises(dataclasses.FrozenInstanceError):
        verdict.result = not verdict.result
