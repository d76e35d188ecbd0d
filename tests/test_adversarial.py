"""Hand-built workloads probing corners the random generator avoids."""

import pytest

from chainlat.latency import AnalysisOptions, analyze_bundle
from chainlat.model import (
    BasicBlock,
    CacheLevelConfig,
    ChainSpec,
    LoopNode,
    MemAccess,
    SystemSpec,
    TaskGraph,
    WorkloadBundle,
    validate_task_graph,
)
from chainlat.sim import SimConfig, check_safety, simulate, simulate_exhaustive

from conftest import acc, block, build_task, make_system, straight_task


def _assert_safe(bundle, seeds=8, exhaustive=False, options=None):
    report = analyze_bundle(bundle, options or AnalysisOptions())
    for cid in bundle.chains:
        assert report.mel(cid, "TSC") <= report.mel(cid, "TLT") <= report.mel(cid, "NCT")
    for s in range(seeds):
        trace = simulate(bundle, SimConfig("random", s), setup=report.setup)
        assert check_safety(trace, report) == [], ("random", s)
    trace = simulate(bundle, SimConfig("worst", 0), setup=report.setup)
    assert check_safety(trace, report) == [], "worst"
    if exhaustive:
        for trace in simulate_exhaustive(bundle, setup=report.setup):
            assert check_safety(trace, report) == []
    return report


def tiny_system(**kw):
    args = dict(cores=2, l1_sets=1, l1_ways=1, l2_sets=4, l2_ways=4,
                period_table=(2000, 4000))
    args.update(kw)
    return make_system(**args)


def test_shared_lines_across_cores():
    # Both cores touch the very same lines; interference may refresh or
    # evict, and the analysis must stay on the safe side either way.
    sys2 = tiny_system()
    stride = 4 * 32
    t0 = straight_task("t0", [1, 8, 1], accesses={0: (acc("p1", 0),),
                                                  1: (acc("p2", stride),),
                                                  2: (acc("p3", 0),)})
    t1 = straight_task("t1", [2, 8, 2], accesses={0: (acc("q1", 0),),
                                                  1: (acc("q2", 2 * stride),),
                                                  2: (acc("q3", 0),)})
    bundle = WorkloadBundle(
        sys2, {"t0": t0, "t1": t1},
        {"c0": ChainSpec("c0", "TT", ("t0",), 0, 2000, (0,)),
         "c1": ChainSpec("c1", "TT", ("t1",), 1, 2000, (0,))},
    )
    _assert_safe(bundle, exhaustive=True)


def test_hyperperiod_boundary_contact():
    # The first chain's pessimistic bound fills its period exactly, so its
    # windows touch the next hyperperiod's release; the shifted-copy overlap
    # tests keep those jobs in view.
    sys2 = tiny_system(period_table=(112,))
    t0 = straight_task("t0", [1, 20, 1], accesses={0: (acc("x1", 0),),
                                                   1: (acc("z", 32),),
                                                   2: (acc("x2", 0),)})
    t1 = straight_task("t1", [30, 2], accesses={1: (acc("y1", 4 * 32 * 1),
                                                    acc("y2", 4 * 32 * 2))})
    bundle = WorkloadBundle(
        sys2, {"t0": t0, "t1": t1},
        {"c0": ChainSpec("c0", "TT", ("t0",), 0, 112, (0,)),
         "c1": ChainSpec("c1", "TT", ("t1",), 1, 112, (0,))},
    )
    _assert_safe(bundle, exhaustive=True)


def test_min_bound_zero_loop():
    blocks = [block("b0", 2, (acc("a0", 0),)),
              block("h", 2, (acc("a1", 32),)),
              block("t", 1), block("x", 1)]
    edges = [("b0", "h"), ("h", "t"), ("t", "h"), ("t", "x")]
    loops = [LoopNode("l", "h", "t", ("t", "h"), 0, 3)]
    task = build_task("t0", blocks, edges, loops)
    bundle = WorkloadBundle(
        tiny_system(cores=1), {"t0": task},
        {"c0": ChainSpec("c0", "ET", ("t0",), 0)},
    )
    _assert_safe(bundle, exhaustive=True)


def nested_ps_task(tid, base_line):
    """Nested loops with persistent lines at both scopes."""
    stride = 4 * 32
    a = lambda i, ln: acc("%s_a%d" % (tid, i), ln * stride + (base_line % 4) * 32)
    blocks = [
        block("%s_b0" % tid, 1),
        block("%s_oh" % tid, 2, (acc("%s_a0" % tid, base_line * 32),)),
        block("%s_ih" % tid, 2, (acc("%s_a1" % tid, (base_line + 64) * 32),)),
        block("%s_it" % tid, 1),
        block("%s_ot" % tid, 1),
        block("%s_x" % tid, 1),
    ]
    b = lambda n: "%s_%s" % (tid, n)
    edges = [(b("b0"), b("oh")), (b("oh"), b("ih")), (b("ih"), b("it")),
             (b("it"), b("ih")), (b("it"), b("ot")), (b("ot"), b("oh")),
             (b("ot"), b("x"))]
    loops = [
        LoopNode("%s_lo" % tid, b("oh"), b("ot"), (b("ot"), b("oh")), 3, 3),
        LoopNode("%s_li" % tid, b("ih"), b("it"), (b("it"), b("ih")), 2, 4, parent_loop="%s_lo" % tid),
    ]
    return build_task(tid, blocks, edges, loops)


def test_nested_persistence_two_cores():
    t0 = nested_ps_task("t0", 8)
    t1 = nested_ps_task("t1", 9)
    bundle = WorkloadBundle(
        tiny_system(), {"t0": t0, "t1": t1},
        {"c0": ChainSpec("c0", "ET", ("t0",), 0),
         "c1": ChainSpec("c1", "ET", ("t1",), 1)},
    )
    _assert_safe(bundle, exhaustive=True)


def test_off_path_persistence_keeps_dominance():
    # The persistent access sits on the cheap arm while the expensive arm
    # dominates the loop; a one-time surcharge must not push the refined
    # bound above the coarser modes that classify the access as a miss.
    sys2 = tiny_system()
    stride = 4 * 32
    blocks = [
        block("b0", 1),
        block("h", 1),
        block("pa", 2, (acc("x", 0),)),   # cheap arm with the persistent line
        block("pb", 40),                  # dominant compute arm
        block("t", 1),
        block("ex", 1),
    ]
    edges = [("b0", "h"), ("h", "pa"), ("h", "pb"), ("pa", "t"), ("pb", "t"),
             ("t", "h"), ("t", "ex")]
    loops = [LoopNode("l", "h", "t", ("t", "h"), 6, 6)]
    t0 = build_task("t0", blocks, edges, loops)
    # Foreign pressure: four distinct lines through set 0 force the
    # job-lifetime mode to downgrade the persistent access.
    t1 = straight_task("t1", [8], accesses={0: (acc("y1", stride), acc("y2", 2 * stride),
                                                acc("y3", 3 * stride), acc("y4", 5 * stride))})
    bundle = WorkloadBundle(
        sys2, {"t0": t0, "t1": t1},
        {"c0": ChainSpec("c0", "ET", ("t0",), 0),
         "c1": ChainSpec("c1", "ET", ("t1",), 1)},
    )
    report = _assert_safe(bundle)
    tlt = report.instances[("TLT", "c0", 0, 0)]
    assert tlt.refined["x"] == "NC"  # the coarse mode indeed downgrades


def test_exclusive_arms_inside_loop():
    stride = 4 * 32
    blocks = [
        block("b0", 1),
        block("h", 1),
        block("pa", 2, (acc("xa", 0), acc("xb", stride))),
        block("pb", 2, (acc("ya", 2 * stride), acc("yb", 3 * stride))),
        block("t", 1),
        block("ex", 1),
    ]
    edges = [("b0", "h"), ("h", "pa"), ("h", "pb"), ("pa", "t"), ("pb", "t"),
             ("t", "h"), ("t", "ex")]
    loops = [LoopNode("l", "h", "t", ("t", "h"), 4, 4)]
    t0 = build_task("t0", blocks, edges, loops, exclusive=[("pa", "pb")])
    t1 = straight_task("t1", [1, 30, 1], accesses={0: (acc("m1", 0),),
                                                   1: (acc("z", 32),),
                                                   2: (acc("m2", 0),)})
    bundle = WorkloadBundle(
        tiny_system(), {"t0": t0, "t1": t1},
        {"c0": ChainSpec("c0", "ET", ("t0",), 0),
         "c1": ChainSpec("c1", "ET", ("t1",), 1)},
    )
    _assert_safe(bundle, exhaustive=True)


def test_sub_line_geometry_two_cores():
    sys2 = SystemSpec(
        core_count=2,
        l1=CacheLevelConfig(1, 1, 16, 1),
        l2=CacheLevelConfig(4, 2, 64, 6),
        mem_latency=30,
        base_cpi=1,
        period_table=(2000,),
    )
    t0 = straight_task("t0", [2, 2], accesses={0: (acc("a0", 0), acc("a1", 16)),
                                               1: (acc("a2", 32), acc("a3", 48))})
    t1 = straight_task("t1", [2, 2], accesses={0: (acc("b0", 256), acc("b1", 256 + 16)),
                                               1: (acc("b2", 64),)})
    bundle = WorkloadBundle(
        sys2, {"t0": t0, "t1": t1},
        {"c0": ChainSpec("c0", "TT", ("t0",), 0, 2000, (0,)),
         "c1": ChainSpec("c1", "TT", ("t1",), 1, 2000, (0,))},
    )
    _assert_safe(bundle, exhaustive=True)


def test_multipass_reports_stay_safe():
    from chainlat.ingest import generate_workload

    for seed in (21, 22):
        bundle = generate_workload(seed=seed, cores=2, tasks_per_chain=2, collision=0.8)
        report = analyze_bundle(bundle, AnalysisOptions(refinement_passes=3))
        for s in range(6):
            trace = simulate(bundle, SimConfig("random", s), setup=report.setup)
            assert check_safety(trace, report) == []
        trace = simulate(bundle, SimConfig("worst", 0), setup=report.setup)
        assert check_safety(trace, report) == []


def _address_of(bundle, access_id):
    for t in bundle.tasks.values():
        for b in t.blocks.values():
            for a in b.accesses:
                if a.id == access_id:
                    return a.address
    raise KeyError(access_id)


def _reuse_heavy_bundle(offset):
    # Re-reads reach the shared level thanks to the one-line private cache;
    # the foreign chain pushes set-0 lines through the gap.
    sys2 = tiny_system(l2_ways=4)
    stride = 4 * 32
    t0 = straight_task("t0", [1, 6, 1, 6, 1], accesses={0: (acc("x1", 0),),
                                                        1: (acc("z1", 32),),
                                                        2: (acc("x2", 0),),
                                                        3: (acc("z2", 32),),
                                                        4: (acc("x3", 0),)})
    t1 = straight_task("t1", [offset, 4], accesses={1: (acc("y1", stride), acc("y2", 2 * stride))})
    return WorkloadBundle(
        sys2, {"t0": t0, "t1": t1},
        {"c0": ChainSpec("c0", "TT", ("t0",), 0, 2000, (0,)),
         "c1": ChainSpec("c1", "TT", ("t1",), 1, 2000, (0,))},
    )


def test_interference_bound_covers_true_reuse_windows():
    # Direct check of the core quantity: between consecutive shared-level
    # touches of a target's line by its own core, the number of distinct
    # foreign lines pushed through the set never exceeds the bound.
    bundles = [_reuse_heavy_bundle(off) for off in (1, 10, 25, 40)]
    t0 = nested_ps_task("t0", 8)
    t1 = nested_ps_task("t1", 9)
    bundles.append(WorkloadBundle(
        tiny_system(l1_ways=1), {"t0": t0, "t1": t1},
        {"c0": ChainSpec("c0", "ET", ("t0",), 0),
         "c1": ChainSpec("c1", "ET", ("t1",), 1)},
    ))

    checked = 0
    for bno, bundle in enumerate(bundles):
        report = analyze_bundle(bundle)
        l2 = bundle.system.l2
        core_of = {cid: chain.core for cid, chain in report.setup.chains.items()}
        for s in range(10):
            trace = simulate(bundle, SimConfig("random", s), setup=report.setup)
            events = sorted(
                (e for e in trace.accesses if e.level in ("L2", "MEM")),
                key=lambda e: (e.cycle, e.core),
            )
            for idx, e in enumerate(events):
                res = report.instances.get(("TSC", e.chain_id, e.period_index, e.task_index))
                if res is None or e.access_id not in res.mc:
                    continue
                cls = report.setup.tasks[res.task_id].classification.accesses[e.access_id]
                job = (e.chain_id, e.period_index, e.task_index)
                line = l2.line_of(_address_of(bundle, e.access_id))
                target_set = line % l2.sets
                core = core_of[e.chain_id]
                # The hit guarantee protects the span since the preceding
                # same-line touch within the same job (always-hit) or within
                # the same scope entry (persistent).
                found = False
                foreign_lines = set()
                for prev in reversed(events[:idx]):
                    pline = l2.line_of(_address_of(bundle, prev.access_id))
                    if prev.core == core and pline == line:
                        pjob = (prev.chain_id, prev.period_index, prev.task_index)
                        if pjob == job and (cls.l2_chmc == "AH" or prev.scope == e.scope):
                            found = True
                        break
                    if prev.core != core and pline % l2.sets == target_set:
                        foreign_lines.add(pline)
                if not found:
                    continue  # no protected reuse span ends at this event
                assert len(foreign_lines) <= res.mc[e.access_id], (bno, s, e.access_id)
                checked += 1
    assert checked > 50


def test_et_release_uncertainty_two_tasks():
    # Event-triggered successor windows widen with the predecessor's path
    # spread; interference accounting must cover the whole window.
    stride = 4 * 32
    blocks = [block("b0", 1), block("ba", 2), block("bb", 30), block("j", 1, (acc("k1", 6 * stride),))]
    edges = [("b0", "ba"), ("b0", "bb"), ("ba", "j"), ("bb", "j")]
    t0 = build_task("t0", blocks, edges)
    t1 = straight_task("t1", [1, 10, 1], accesses={0: (acc("x1", 0),),
                                                   1: (acc("z", 32),),
                                                   2: (acc("x2", 0),)})
    t2 = straight_task("t2", [4], accesses={0: (acc("y1", stride), acc("y2", 2 * stride))})
    bundle = WorkloadBundle(
        tiny_system(), {"t0": t0, "t1": t1, "t2": t2},
        {"c0": ChainSpec("c0", "ET", ("t0", "t1"), 0),
         "c1": ChainSpec("c1", "ET", ("t2",), 1)},
    )
    _assert_safe(bundle, exhaustive=True)
