"""Three-phase overlap judgment on worked context material."""

from chainlat.cache_ai import classify_task
from chainlat.context import JobContext, TaskContext
from chainlat.cost import contract_task
from chainlat.model import Interval, JobInstance
from chainlat.overlap import hierarchical_overlap

from conftest import diamond_loop_task, make_system, straight_task


def _job_ctx(task, system, release, jid="c"):
    con = contract_task(task, classify_task(task, system), system)
    ctx = TaskContext(con)
    job = JobInstance(jid, 0, task.id, 0, Interval(release, release),
                      Interval(release, release + con.wcet))
    return JobContext(job, ctx), con


def test_phase1_disjoint_jobs(system):
    a_task = straight_task("pa", [100])
    b_task = straight_task("pb", [100])
    a, _ = _job_ctx(a_task, system, 0)
    b, _ = _job_ctx(b_task, system, 200)
    v = hierarchical_overlap(a.block_view("pa_b0"), b.block_view("pb_b0"))
    assert not v.result and v.decided_at == "job"


def test_phase2_loop_envelope_rejects(system):
    # Diamond-loop job released at 0: outer envelope of the loop is [10, 52].
    # A foreign mid-block window [10, 40] shifted by release 50 gives [60, 90].
    diamond = diamond_loop_task()
    peer = straight_task("pr", [10, 30, 5])
    a, con = _job_ctx(diamond, system, 0)
    b, _ = _job_ctx(peer, system, 50)
    assert a.block_view("dl_t").outer_envelope == Interval(10, 52)
    assert b.block_view("pr_b1").window_levels[0] == (Interval(60, 90),)
    v = hierarchical_overlap(a.block_view("dl_t"), b.block_view("pr_b1"))
    assert not v.result and v.decided_at == "outer-loop"


def test_phase3_block_windows_meet(system):
    # Post-loop block at release 100 gives [143, 158]; a first block of cost
    # 10 at release 150 gives [150, 160]; closed intervals meet at 150..158.
    diamond = diamond_loop_task()
    peer = straight_task("pr", [10, 30, 5])
    a, _ = _job_ctx(diamond, system, 100)
    b, _ = _job_ctx(peer, system, 150)
    assert a.block_view("dl_b3").window_levels[0] == (Interval(143, 158),)
    v = hierarchical_overlap(a.block_view("dl_b3"), b.block_view("pr_b0"))
    assert v.result and v.decided_at == "block"


def test_phase3_threshold_falls_back_to_virtual_node(system):
    diamond = diamond_loop_task()
    peer = straight_task("pr", [10, 30, 5])
    a, _ = _job_ctx(diamond, system, 0)
    b, _ = _job_ctx(peer, system, 0)
    view = a.block_view("dl_t")
    fine = view.window_within(1024)
    coarse = view.window_within(1)
    assert len(fine) == 3  # one interval per iteration
    assert len(coarse) == 1  # the contracted loop's whole window
    (coarse_lo, coarse_hi), = coarse
    assert coarse_lo <= fine[0][0] and fine[-1][1] <= coarse_hi


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
                    expanded = seq_overlap(a.block_view(blk_a).window_levels[0],
                                           b.block_view(blk_b).window_levels[0])
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
        fine = hierarchical_overlap(a.block_view("dl_t"), b.block_view("pr_b1"), threshold=1024)
        coarse = hierarchical_overlap(a.block_view("dl_t"), b.block_view("pr_b1"), threshold=1)
        if fine.result:
            assert coarse.result
