import random

from chainlat.cache_ai import classify_task
from chainlat.interference import (
    ET_RULE_MAX,
    ExclusionGraph,
    block_contribution,
    interference_bound,
    job_contribution,
    job_set_weight,
    mwis_bound,
)
from chainlat.model import Interval

from conftest import acc, block, build_task, make_system
from oracles import brute_force_mwis


def test_mwis_two_exclusive_blocks():
    g = ExclusionGraph({"c2": 5, "c3": 8}, frozenset({frozenset({"c2", "c3"})}))
    assert mwis_bound(g) == 8


def test_mwis_path_graph():
    g = ExclusionGraph({"a": 3, "b": 10, "c": 3},
                       frozenset({frozenset({"a", "b"}), frozenset({"b", "c"})}))
    # Oracle: all 8 subsets; best independent set is {b} alone or {a, c}.
    assert mwis_bound(g) == brute_force_mwis(g.weights, g.edges) == 10


def test_mwis_edgeless_sums():
    g = ExclusionGraph({"a": 2, "b": 3, "c": 4}, frozenset())
    assert mwis_bound(g) == 9


def test_mwis_fallback_above_cap():
    weights = {"v%d" % i: 1 for i in range(50)}
    g = ExclusionGraph(weights, frozenset({frozenset({"v0", "v1"})}))
    assert mwis_bound(g) == 50  # safe sum above the exact cap


def test_mwis_matches_brute_force_random():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 12)
        verts = ["v%d" % i for i in range(n)]
        weights = {v: rng.randint(0, 9) for v in verts}
        edges = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    edges.add(frozenset({verts[i], verts[j]}))
        g = ExclusionGraph(weights, frozenset(edges))
        assert mwis_bound(g) == brute_force_mwis(weights, edges)


def _sub_line_system():
    # Private lines smaller than shared lines, so several distinct addresses
    # share one shared-cache line yet all reach the shared level.
    from chainlat.model import CacheLevelConfig, SystemSpec

    return SystemSpec(
        core_count=1,
        l1=CacheLevelConfig(1, 1, 16, 1, "private"),
        l2=CacheLevelConfig(4, 4, 64, 6, "shared"),
        mem_latency=30,
        base_cpi=1,
        period_table=(10000,),
    )


def _contribution_task(addresses):
    accesses = tuple(acc("a%d" % i, a) for i, a in enumerate(addresses))
    return build_task("t", [block("b0", max(1, len(accesses)), accesses), block("b1", 1)], [("b0", "b1")])


def test_block_contribution_same_line():
    system = _sub_line_system()
    task = _contribution_task([0, 16, 32])  # one shared line, three sites
    cls = classify_task(task, system)
    assert block_contribution(cls, "b0", 0, "distinct") == 1
    assert block_contribution(cls, "b0", 0, "access") == 3


def test_block_contribution_other_set():
    system = _sub_line_system()
    task = _contribution_task([0, 16])
    cls = classify_task(task, system)
    assert block_contribution(cls, "b0", 1, "distinct") == 0


def test_block_contribution_two_distinct():
    system = _sub_line_system()
    # Lines A, B, A within one set: addresses 0 and 4*64 share set 0.
    task = _contribution_task([0, 4 * 64, 16])
    cls = classify_task(task, system)
    assert block_contribution(cls, "b0", 0, "distinct") == 2


def test_job_contribution_caps_at_job_lines():
    # Two blocks touching the same line: block-wise sums would say 2.  The
    # one-line private cache plus the set-8 access in between keep both
    # same-line accesses visible at the shared level.
    system = make_system(l1_sets=1, l1_ways=1)
    a0, az, a1 = acc("a0", 7 * 32), acc("az", 8 * 32), acc("a1", 7 * 32)
    blocks = [block("b0", 2, (a0, az)), block("b1", 1, (a1,)), block("b2", 1)]
    task = build_task("t", blocks, [("b0", "b1"), ("b1", "b2")])
    cls = classify_task(task, system)
    s = 7 % system.l2.sets
    raw, bounded = job_contribution(cls, task, ["b0", "b1"], s, "distinct")
    assert raw == 2 and bounded == 1


def test_job_set_weight_counting_units():
    # Three sites on shared line 0 plus one on line 4, all in set 0.
    system = _sub_line_system()
    cls = classify_task(_contribution_task([0, 16, 32, 4 * 64]), system)
    assert job_set_weight(cls, 0, "distinct") == 2
    assert job_set_weight(cls, 0, "access") == 4
    assert job_set_weight(cls, 1, "access") == 0


def test_interference_bound_et_max_rule():
    per_job = [(Interval(0, 50), 5), (Interval(40, 90), 8)]
    assert interference_bound(per_job, "ET", et_rule=ET_RULE_MAX) == 8


def test_interference_bound_default_sums():
    # Sequential jobs can each insert their own lines inside one reuse
    # window, so the sound default adds them.
    per_job = [(Interval(0, 50), 5), (Interval(40, 90), 8)]
    assert interference_bound(per_job, "ET") == 13
    assert interference_bound(per_job, "TT") == 13


def test_interference_bound_et_max_disjoint_groups_sum():
    per_job = [(Interval(0, 10), 5), (Interval(100, 110), 8)]
    assert interference_bound(per_job, "ET", et_rule=ET_RULE_MAX) == 13


def test_interference_bound_empty():
    assert interference_bound([], "ET") == 0


def test_collect_overlap_set_matches_brute_force():
    # A looped task on one core against a straight-line peer on the other:
    # exactly the loop blocks whose expanded windows cross the peer's access
    # window are collected, verified by full expansion.
    from chainlat.interference import collect_overlap_set
    from chainlat.latency import prepare
    from chainlat.model import ChainSpec, LoopNode, WorkloadBundle
    from chainlat.overlap import seq_overlap

    stride = 4 * 32
    system = make_system(cores=2, l1_sets=1, l1_ways=1, l2_sets=4, l2_ways=4,
                         period_table=(2000,))
    dblocks = [
        block("b0", 10),
        block("h", 5, (acc("dh", 1 * stride),)),
        block("a", 4, (acc("da", 2 * stride),)),
        block("bb", 7, (acc("db", 3 * stride),)),
        block("t", 2, (acc("dt", 5 * stride),)),
        block("b3", 6, (acc("d3", 6 * stride),)),
    ]
    dedges = [("b0", "h"), ("h", "a"), ("h", "bb"), ("a", "t"), ("bb", "t"),
              ("t", "h"), ("t", "b3")]
    dloops = [LoopNode("l1", "h", "t", ("t", "h"), 3, 3)]
    diamond = build_task("d", dblocks, dedges, dloops)

    from conftest import straight_task

    # The re-read of line 0 is a guaranteed shared-cache hit, so it carries
    # a reuse window spanning from the first load to its own latest end.
    peer = straight_task("p", [1, 30, 1], accesses={0: (acc("m0", 0),),
                                                    1: (acc("mz", 32),),
                                                    2: (acc("m", 0),)})
    filler = straight_task("f", [75])
    bundle = WorkloadBundle(
        system, {"d": diamond, "p": peer, "f": filler},
        {"c0": ChainSpec("c0", "TT", ("p",), 0, 2000, (0,)),
         "c1": ChainSpec("c1", "TT", ("f", "d"), 1, 1000, (0, 75))},
    )
    setup = prepare(bundle)
    assert setup.tasks["p"].classification.accesses["m"].l2_chmc == "AH"
    jctx = setup.job_ctx(("c0", 0, 0))
    tv = jctx.target_view("m")
    foreign = setup.job_ctx(("c1", 0, 1))
    candidates = sorted(b.id for b in diamond.blocks.values() if b.accesses)

    got = collect_overlap_set(tv, foreign, candidates)
    window = tv.window_levels[0]
    expected = [bid for bid in candidates if seq_overlap(window, foreign.bba_time(bid))]
    assert got == expected
    assert 0 < len(got) < len(candidates)  # the window splits the blocks
