import random

import pytest

from chainlat.cache_ai import AH, BYPASS, NC, PS, classify_task, refine_chmc
from chainlat.model import CacheLevelConfig, LoopNode, SystemSpec

from conftest import acc, block, build_task, make_system, straight_task
from oracles import ReferenceLRU, enumerate_task_paths


def test_immediate_rereference_is_l1_hit(system):
    task = straight_task("t", [2], accesses={0: (acc("a0", 0), acc("a1", 0))})
    cls = classify_task(task, system)
    assert cls.accesses["a0"].l1_chmc == NC
    assert cls.accesses["a1"].l1_chmc == AH
    assert cls.accesses["a1"].l2_chmc == BYPASS


def test_cold_access_is_nc(system):
    task = straight_task("t", [1], accesses={0: (acc("a0", 0),)})
    cls = classify_task(task, system)
    assert cls.accesses["a0"].l1_chmc == NC
    assert cls.accesses["a0"].l2_chmc == NC


def test_thrashing_loop_all_nc():
    # Five distinct lines in one set of a 4-way cache, touched every
    # iteration: nothing can be guaranteed resident.
    system = make_system(l1_sets=1, l1_ways=1, l2_sets=4, l2_ways=4)
    stride = 4 * 32  # same set at both levels
    accesses = tuple(acc("a%d" % i, i * stride) for i in range(5))
    blocks = [block("b0", 1), block("h", 5, accesses), block("t", 1), block("x", 1)]
    edges = [("b0", "h"), ("h", "t"), ("t", "h"), ("t", "x")]
    loops = [LoopNode("l", "h", "t", ("t", "h"), 3, 3)]
    task = build_task("t", blocks, edges, loops)
    cls = classify_task(task, system)
    for i in range(5):
        assert cls.accesses["a%d" % i].l2_chmc == NC

    # Replay oracle: in steady state every access misses.
    ref = ReferenceLRU(4, 4)
    lines = [a.address // 32 for a in accesses]
    for _ in range(3):
        for ln in lines:
            ref.access(ln)
    assert all(not ref.access(ln) or True for ln in lines)  # state exercised
    hits = [ref.access(ln) for ln in lines]
    assert hits == [False] * 5


def test_l2_hit_after_sub_line_reuse():
    # Two addresses in one shared-cache line but different private lines:
    # both definitely miss the private level, so the second access finds the
    # line loaded in the shared cache with age 1.
    system = SystemSpec(
        core_count=1,
        l1=CacheLevelConfig(1, 1, 16, 1),
        l2=CacheLevelConfig(4, 4, 64, 6),
        mem_latency=30,
        base_cpi=1,
        period_table=(10000,),
    )
    task = straight_task("t", [1, 1], accesses={0: (acc("a0", 0),), 1: (acc("a1", 16),)})
    cls = classify_task(task, system)
    assert cls.accesses["a0"].l1_chmc == NC
    assert cls.accesses["a1"].l1_chmc == NC
    assert cls.accesses["a1"].l2_chmc == AH
    assert cls.accesses["a1"].l2_age == 1


def test_loop_resident_line_is_persistent(system):
    task_blocks = [block("b0", 1), block("h", 2, (acc("a0", 0),)), block("t", 1), block("x", 1)]
    edges = [("b0", "h"), ("h", "t"), ("t", "h"), ("t", "x")]
    loops = [LoopNode("l", "h", "t", ("t", "h"), 4, 4)]
    task = build_task("t", task_blocks, edges, loops)
    cls = classify_task(task, system)
    assert cls.accesses["a0"].l2_chmc == PS
    assert cls.accesses["a0"].l2_age == 1


def test_scope_pressure_above_ways_is_nc():
    system = make_system(l2_sets=4, l2_ways=2)
    stride = 4 * 32
    accesses = tuple(acc("a%d" % i, i * stride) for i in range(3))
    blocks = [block("b0", 1), block("h", 3, accesses), block("t", 1), block("x", 1)]
    edges = [("b0", "h"), ("h", "t"), ("t", "h"), ("t", "x")]
    loops = [LoopNode("l", "h", "t", ("t", "h"), 2, 2)]
    task = build_task("t", blocks, edges, loops)
    cls = classify_task(task, system)
    assert all(cls.accesses["a%d" % i].l2_chmc == NC for i in range(3))


def test_refine_chmc_downgrade():
    from chainlat.cache_ai import AccessClassification

    cls = AccessClassification("a", "b", NC, AH, 3, 0, 0)
    assert refine_chmc(cls, 2, 4) == NC


def test_refine_chmc_boundary_keeps():
    from chainlat.cache_ai import AccessClassification

    cls = AccessClassification("a", "b", NC, AH, 3, 0, 0)
    assert refine_chmc(cls, 1, 4) == AH


def test_refine_chmc_zero_interference():
    from chainlat.cache_ai import AccessClassification

    cls = AccessClassification("a", "b", NC, AH, 1, 0, 0)
    assert refine_chmc(cls, 0, 4) == AH


def test_refinement_only_downgrades(system):
    task = straight_task("t", [1, 1], accesses={0: (acc("a0", 0),), 1: (acc("a1", 0),)})
    cls = classify_task(task, system)
    for c in cls.accesses.values():
        for mc in range(0, 6):
            refined = refine_chmc(c, mc, system.l2.ways)
            assert refined in (c.l2_chmc, NC)


def test_monotonicity_adding_access(system):
    base = straight_task("t", [2, 1], accesses={0: (acc("a0", 0),), 1: (acc("a1", 0),)})
    more = straight_task("t", [2, 1], accesses={0: (acc("a0", 0), acc("ax", 32 * 64)), 1: (acc("a1", 0),)})
    cls_base = classify_task(base, system)
    cls_more = classify_task(more, system)
    rank = {BYPASS: 3, AH: 2, PS: 1, NC: 0}
    for aid in ("a0", "a1"):
        assert rank[cls_more.accesses[aid].l2_chmc] <= rank[cls_base.accesses[aid].l2_chmc] or \
            cls_more.accesses[aid].l2_chmc == cls_base.accesses[aid].l2_chmc


def test_fixpoint_pass_bound(system):
    rng = random.Random(9)
    from chainlat.ingest import generate_workload

    bundle = generate_workload(seed=11, cores=1, tasks_per_chain=2, blocks_per_task=8)
    for tid, task in bundle.tasks.items():
        cls = classify_task(task, bundle.system)
        bound = len(task.blocks) * bundle.system.l2.ways
        assert cls.l1_passes <= bound
        assert cls.l2_passes <= bound


def _standalone_levels(task, system, path):
    """Replay a fixed path through reference caches, cold start per job."""
    l1 = ReferenceLRU(system.l1.sets, system.l1.ways)
    l2 = ReferenceLRU(system.l2.sets, system.l2.ways)
    events = []
    for bid in path:
        for a in task.blocks[bid].accesses:
            if l1.access(a.address // system.l1.line_size):
                events.append((a.id, "L1"))
            elif l2.access(a.address // system.l2.line_size):
                events.append((a.id, "L2"))
            else:
                events.append((a.id, "MEM"))
    return events


def test_must_analysis_sound_standalone(system):
    # Any access classified always-hit must hit on every feasible path.
    from chainlat.ingest import generate_workload

    for seed in range(8):
        bundle = generate_workload(seed=seed, cores=1, tasks_per_chain=1, blocks_per_task=7)
        for tid, task in bundle.tasks.items():
            cls = classify_task(task, bundle.system)
            for path in enumerate_task_paths(task, cap=20000):
                for aid, level in _standalone_levels(task, bundle.system, path):
                    c = cls.accesses[aid]
                    if c.l1_chmc == AH:
                        assert level == "L1", (seed, tid, aid)
                    if c.l2_chmc == AH:
                        assert level in ("L1", "L2"), (seed, tid, aid)


def test_set_blocks_are_the_sorted_visible_blocks_of_each_set():
    # The blocks of each set's weight-table entry are its interference candidates.
    from chainlat import generate_workload
    from chainlat.interference import COUNT_ACCESS, COUNT_DISTINCT, set_weights

    for seed in range(1, 6):
        bundle = generate_workload(seed=seed, cores=2, collision=0.8)
        for task in bundle.tasks.values():
            cls = classify_task(task, bundle.system)
            for s in range(bundle.system.l2.sets):
                want = tuple(sorted({c.block_id for c in cls.visible() if c.l2_set == s}))
                for counting in (COUNT_DISTINCT, COUNT_ACCESS):
                    table = set_weights(cls)[counting].get(s, (0, {}))
                    assert tuple(table[1]) == want, (seed, task.id, s)
