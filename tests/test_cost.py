import itertools
import random

import pytest

from chainlat.cache_ai import all_miss, classify_task
from chainlat.cost import ContractionPlan, block_cost, contract_task, virtual_id
from chainlat.model import LoopNode

from conftest import acc, block, build_task, diamond_loop_task, make_system, straight_task
from oracles import path_bounds, unrolled_window_oracle


def classified(task, system):
    return classify_task(task, system)


def test_block_cost_no_memory(system):
    task = straight_task("t", [3])
    cls = classified(task, system)
    b = task.blocks["t_b0"]
    for refined in (None, all_miss(cls)):
        assert block_cost(b, cls, system, refined) == 3
    assert ContractionPlan(task, system).node_best["t_b0"] == 3


def test_block_cost_l1_hit(system):
    # Two accesses to one line: the second is a guaranteed private-cache hit.
    task = straight_task("t", [2], accesses={0: (acc("a0", 0), acc("a1", 0))})
    cls = classified(task, system)
    assert cls.accesses["a1"].l1_chmc == "AH"
    b = task.blocks["t_b0"]
    # a0 worst: cold shared-cache miss; a1: private hit.
    assert block_cost(b, cls, system, all_miss(cls)) == 2 + 30 + 1


def test_block_cost_init_worst_is_mem(system):
    task = straight_task("t", [1], accesses={0: (acc("a0", 0),)})
    cls = classified(task, system)
    b = task.blocks["t_b0"]
    assert block_cost(b, cls, system, all_miss(cls)) == 1 + 30


def test_block_cost_best_floors_at_l1(system):
    # Lower bounds must hold for any concrete cache state, so best-flavored
    # costs charge the private-cache hit latency for every access.
    task = straight_task("t", [1], accesses={0: (acc("a0", 0),)})
    plan = ContractionPlan(task, system)
    assert plan.node_best["t_b0"] == 1 + 1


def test_loop_path_costs_diamond(system, diamond):
    cls = classified(diamond, system)
    con = contract_task(diamond, cls, system)
    s = con.summaries["dl_l1"]
    assert s.lpsc == 11
    assert s.lplc == 14
    assert s.bbsc["dl_t"] == 9
    assert s.bblc["dl_t"] == 12
    assert s.bbsc["dl_h"] == 0


def test_single_block_loop(system):
    blocks = [block("b0", 1), block("h", 5), block("x", 1)]
    edges = [("b0", "h"), ("h", "h"), ("h", "x")]
    loops = [LoopNode("l", "h", "h", ("h", "h"), 2, 2)]
    task = build_task("t", blocks, edges, loops)
    cls = classified(task, make_system())
    con = contract_task(task, cls, make_system())
    s = con.summaries["l"]
    assert s.lpsc == s.lplc == 5
    assert s.bbsc["h"] == 0


def test_contract_loop_diamond(system, diamond):
    cls = classified(diamond, system)
    con = contract_task(diamond, cls, system)
    vid = virtual_id("dl_l1")
    bbbc, bbwc = con.node_best[vid], con.node_worst[vid]
    # Oracle: enumerate all 2^3 arm choices of the unrolled loop.
    arm_costs = [(5 + a + 2) for a in (4, 7)]
    totals = [sum(c) for c in itertools.product(arm_costs, repeat=3)]
    assert bbbc == min(totals) == 33
    assert bbwc == max(totals) == 42


def test_contract_loop_min_bound_zero(system):
    blocks = [block("b0", 1), block("h", 5), block("t", 2), block("x", 1)]
    edges = [("b0", "h"), ("h", "t"), ("t", "h"), ("t", "x")]
    loops = [LoopNode("l", "h", "t", ("t", "h"), 0, 2)]
    task = build_task("t", blocks, edges, loops)
    cls = classified(task, system)
    con = contract_task(task, cls, system)
    assert con.node_best[virtual_id("l")] == 0


def test_ps_surcharge(system):
    # One persistent access in the loop body: per-entry extra is mem - hit.
    a = acc("a0", 0)
    blocks = [block("b0", 1), block("h", 2, (a,)), block("t", 1), block("x", 1)]
    edges = [("b0", "h"), ("h", "t"), ("t", "h"), ("t", "x")]
    loops = [LoopNode("l", "h", "t", ("t", "h"), 3, 3)]
    task = build_task("t", blocks, edges, loops)
    cls = classified(task, system)
    assert cls.accesses["a0"].l2_chmc == "PS"
    con = contract_task(task, cls, system)
    s = con.summaries["l"]
    assert s.ps_surcharge == 30 - 6
    # LPLC charges the access at the shared hit latency; the virtual node
    # carries the one-time surcharge.
    assert s.lplc == (2 + 6) + 1
    assert con.node_worst[virtual_id("l")] == s.lplc * 3 + 24


def test_program_bounds_diamond(system, diamond):
    cls = classified(diamond, system)
    con = contract_task(diamond, cls, system)
    costs = {bid: b.instruction_count for bid, b in diamond.blocks.items()}
    assert (con.bcet, con.wcet) == path_bounds(diamond, costs) == (49, 58)


def test_program_bounds_single_block(system):
    task = straight_task("t", [5])
    cls = classified(task, system)
    con = contract_task(task, cls, system)
    assert (con.bcet, con.wcet) == (5, 5)


def test_program_bounds_branch(system):
    blocks = [block("b0", 1), block("a", 4), block("b", 7), block("j", 1)]
    edges = [("b0", "a"), ("b0", "b"), ("a", "j"), ("b", "j")]
    task = build_task("t", blocks, edges)
    cls = classified(task, system)
    con = contract_task(task, cls, system)
    assert (con.bcet, con.wcet) == (6, 9)


def test_contraction_order_independent(system):
    # Two sibling loops: bounds are identical however the same-depth loops
    # are ordered, exercised indirectly through repeated construction.
    blocks = [
        block("b0", 1),
        block("h1", 2), block("t1", 1),
        block("h2", 3), block("t2", 1),
        block("x", 1),
    ]
    edges = [("b0", "h1"), ("h1", "t1"), ("t1", "h1"), ("t1", "h2"),
             ("h2", "t2"), ("t2", "h2"), ("t2", "x")]
    loops = [
        LoopNode("la", "h1", "t1", ("t1", "h1"), 2, 2),
        LoopNode("lb", "h2", "t2", ("t2", "h2"), 3, 3),
    ]
    task = build_task("t", blocks, edges, loops)
    cls = classified(task, system)
    cons = [contract_task(task, cls, system) for _ in range(3)]
    bounds = {(con.bcet, con.wcet) for con in cons}
    assert bounds == {(1 + 2 * 3 + 3 * 4 + 1, 1 + 2 * 3 + 3 * 4 + 1)}


def test_wcet_refined_not_above_init(system):
    rng = random.Random(3)
    from chainlat.ingest import generate_workload

    bundle = generate_workload(seed=5, cores=1, tasks_per_chain=2)
    for tid, task in bundle.tasks.items():
        cls = classify_task(task, bundle.system)
        init = contract_task(task, cls, bundle.system, refined=all_miss(cls))
        refined_all_nc = {a: ("NC" if c.l2_chmc != "BYPASS" else c.l2_chmc) for a, c in cls.accesses.items()}
        ref = contract_task(task, cls, bundle.system, refined=refined_all_nc)
        assert ref.wcet <= init.wcet
        assert contract_task(task, cls, bundle.system).wcet <= init.wcet


def test_unrolled_oracle_matches_top_windows(system, diamond):
    cls = classified(diamond, system)
    con = contract_task(diamond, cls, system)
    costs = {bid: b.instruction_count for bid, b in diamond.blocks.items()}
    lo, hi = unrolled_window_oracle(diamond, costs)
    program = con.summaries[None]
    assert program.bbsc["dl_b3"] == lo["dl_b3"] == 43
    assert program.bblc["dl_b3"] + con.node_worst["dl_b3"] == hi["dl_b3"] == 58

