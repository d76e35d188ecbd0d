"""The per-task contraction plan: equivalence, no aliasing, structural checks."""

import copy
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlat.cache_ai import AH, NC, PS, TaskClassification, all_miss, classify_task
from chainlat.context import TaskContext
from chainlat.cost import ContractedTask, ContractionPlan, contract_task
from chainlat.ingest import _TaskBuilder, default_system
from chainlat.model import BasicBlock, LoopNode, TaskGraph, ValidationError

from oracles import reference_contract_task


def _generated_task(seed, loop_depth, n_blocks, collision=0.5):
    system = default_system()
    task = _TaskBuilder(random.Random(seed), "t0", 0, system, n_blocks, loop_depth, 0.3, collision).build()
    return task, classify_task(task, system), system


def _assert_same(con, ref):
    for f in fields(ContractedTask):
        assert getattr(con, f.name) == getattr(ref, f.name), f.name


def test_generated_tasks_reach_three_nested_loops():
    # The property below draws from this generator; make sure it covers depth 3.
    depths = set()
    for seed in range(12):
        task, _, _ = _generated_task(seed, 3, 12)
        depths.add(max((task.loop_depth(lid) + 1 for lid in task.loops), default=0))
    assert 3 in depths


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 3), st.integers(2, 24), st.sampled_from((0.2, 0.8)),
       st.data())
def test_shared_plan_matches_per_call_contraction(seed, depth, n_blocks, collision, data):
    task, cls, system = _generated_task(seed, depth, n_blocks, collision)
    plan = ContractionPlan(task, system)
    refined_maps = [
        {aid: data.draw(st.sampled_from((AH, PS, NC))) for aid in sorted(cls.accesses)}
        for _ in range(3)
    ]
    # The all-miss map prices what the reference's "init_worst" mode does,
    # whatever map it is handed.
    calls = [(all_miss(cls), None, "init_worst"), (None, None, "worst")] \
        + [(r, r, "worst") for r in refined_maps] + [(all_miss(cls), refined_maps[0], "init_worst")]
    for refined, ref_refined, ref_mode in calls:
        ref = reference_contract_task(task, cls, system, ref_refined, ref_mode)
        _assert_same(contract_task(task, cls, system, refined=refined, plan=plan), ref)
        _assert_same(contract_task(task, cls, system, refined=refined), ref)


def test_contractions_from_one_plan_do_not_alias():
    task, cls, system = _generated_task(28, 3, 12)
    assert any(c.l2_chmc == PS for c in cls.accesses.values())
    plan = ContractionPlan(task, system)
    first = contract_task(task, cls, system, plan=plan)
    assert any(s.ps_surcharge for s in first.summaries.values())
    snapshot = {f.name: copy.deepcopy(getattr(first, f.name)) for f in fields(ContractedTask)
                if f.name not in ("task", "classification")}
    TaskContext(first)  # the windows read the shared best-case dicts
    all_nc = {aid: NC for aid in cls.accesses}
    second = contract_task(task, cls, system, refined=all_nc, plan=plan)
    contract_task(task, cls, system, refined=all_miss(cls), plan=plan)
    assert second.wcet > first.wcet
    assert not any(s.ps_surcharge for s in second.summaries.values())
    for name, value in snapshot.items():
        assert getattr(first, name) == value, name
    _assert_same(second, reference_contract_task(task, cls, system, all_nc, "worst"))


# Hand-built graphs below bypass ingest's validation, so only the
# contraction's own checks stand between them and a wrong bound.

def _raw_task(blocks, edges, loops=(), entry="a", exit_="b"):
    return TaskGraph("raw", {b.id: b for b in blocks}, tuple(edges), {l.id: l for l in loops},
                     entry_block=entry, exit_block=exit_)


def _contract(task, prebuilt):
    system = default_system()
    cls = TaskClassification(task.id, {}, 0, 0)
    return contract_task(task, cls, system, plan=ContractionPlan(task, system) if prebuilt else None)


@pytest.mark.parametrize("prebuilt", (False, True))
def test_contraction_rejects_cyclic_level_graph(prebuilt):
    task = _raw_task([BasicBlock("a", 1), BasicBlock("b", 1)], [("a", "b"), ("b", "a")])
    with pytest.raises(ValidationError, match="cyclic level graph"):
        _contract(task, prebuilt)


@pytest.mark.parametrize("prebuilt", (False, True))
@pytest.mark.parametrize("stray_edges", ((), (("c", "b"),)), ids=("isolated", "feeds-exit"))
def test_contraction_rejects_unreachable_member(prebuilt, stray_edges):
    blocks = [BasicBlock("a", 1), BasicBlock("b", 1), BasicBlock("c", 1)]
    task = _raw_task(blocks, [("a", "b"), *stray_edges])
    with pytest.raises(ValidationError, match="node c unreachable from a"):
        _contract(task, prebuilt)


@pytest.mark.parametrize("prebuilt", (False, True))
def test_contraction_rejects_unreachable_loop_member(prebuilt):
    loop = LoopNode("l", "h", "t", ("t", "h"), 1, 2, body_blocks=frozenset({"h", "t", "u"}))
    blocks = [BasicBlock("a", 1), BasicBlock("h", 1, enclosing_loop="l"),
              BasicBlock("t", 1, enclosing_loop="l"), BasicBlock("u", 1, enclosing_loop="l"),
              BasicBlock("b", 1)]
    task = _raw_task(blocks, [("a", "h"), ("h", "t"), ("t", "h"), ("u", "t"), ("t", "b")], [loop])
    with pytest.raises(ValidationError, match="node u unreachable from h"):
        _contract(task, prebuilt)
