"""The per-task contraction plan: equivalence, no aliasing, the memo, structural checks."""

import copy
import pickle
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlat.cache_ai import AH, BYPASS, NC, PS, TaskClassification, all_miss, classify_task
from chainlat.context import TaskContext
from chainlat.cost import ContractedTask, ContractionPlan, contract_task
from chainlat.ingest import _TaskBuilder, default_system, generate_workload
from chainlat.latency import AnalysisOptions, analyze_bundle, prepare
from chainlat.model import BasicBlock, LoopNode, TaskGraph, ValidationError

from conftest import make_system, shared_tail_task
from oracles import reference_contract_task


def _generated_task(seed, loop_depth, n_blocks, collision=0.5):
    system = default_system()
    task = _TaskBuilder(random.Random(seed), "t0", 0, system, n_blocks, loop_depth, collision).build()
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
    # Repeated and interleaved maps on one plan: memo hits equal the reference too.
    a, b = refined_maps[:2]
    miss = all_miss(cls)
    for refined, ref_refined, ref_mode in ((a, a, "worst"), (b, b, "worst"), (a, a, "worst"),
                                           (miss, None, "init_worst"), (a, a, "worst")):
        ref = reference_contract_task(task, cls, system, ref_refined, ref_mode)
        _assert_same(contract_task(task, cls, system, refined=dict(refined), plan=plan), ref)


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


def _snapshot(con):
    return {f.name: copy.deepcopy(getattr(con, f.name)) for f in fields(ContractedTask)
            if f.name not in ("task", "classification")}


def test_repeated_map_returns_the_memoized_contraction():
    task, cls, system = _generated_task(28, 3, 12)
    plan = ContractionPlan(task, system)
    first = contract_task(task, cls, system, plan=plan)
    # An explicit map with the same effective CHMCs is the same key.
    own = {aid: c.l2_chmc for aid, c in cls.accesses.items()}
    assert contract_task(task, cls, system, refined=own, plan=plan) is first
    assert contract_task(task, cls, system, refined=all_miss(cls), plan=plan) is not first
    assert contract_task(task, cls, system, plan=plan) is first
    # Without a plan nothing is memoized.
    assert contract_task(task, cls, system) is not contract_task(task, cls, system)


def test_other_classification_on_one_plan_never_gets_a_stale_entry():
    task, cls, system = _generated_task(28, 3, 12)
    ps = min(aid for aid, c in cls.accesses.items() if c.l2_chmc == PS)
    other = TaskClassification(cls.task_id, dict(cls.accesses, **{ps: cls.accesses[ps]._replace(l2_chmc=NC)}),
                               cls.l1_passes, cls.l2_passes)
    plan = ContractionPlan(task, system)
    # The map names the changed access, so both classifications give one key.
    refined = {aid: AH for aid in cls.accesses}
    for c in (cls, other, cls, other):
        for r in (None, refined):
            con = contract_task(task, c, system, refined=r, plan=plan)
            assert con.classification is c
            _assert_same(con, reference_contract_task(task, c, system, r, "worst"))
    assert contract_task(task, other, system, plan=plan).wcet > contract_task(task, cls, system, plan=plan).wcet


def test_memo_serves_only_maps_with_equal_effective_chmcs():
    # Every map names every access and is keyed by its values, so no map
    # may be served another's contraction.  A BYPASS access is priced by its
    # L1 CHMC whatever the map gives it, so its maps take entries of their
    # own with equal contractions; an unknown CHMC (None) is priced as a miss.
    task, cls, system = _generated_task(1, 2, 12, 0.8)
    bypass = min(aid for aid, c in cls.accesses.items() if c.l2_chmc == BYPASS)
    hit = min(aid for aid, c in cls.accesses.items() if c.l2_chmc in (AH, PS) and c.l1_chmc != AH)
    own = {aid: c.l2_chmc for aid, c in cls.accesses.items()}
    maps = [
        own,
        dict(own, **{bypass: NC}),
        dict(own, **{bypass: PS}),
        dict(own, extra=NC),  # an id the task does not have
        dict(own, **{hit: None}),
    ]
    for order in (maps, maps[::-1]):
        plan = ContractionPlan(task, system)
        for refined in order:
            _assert_same(contract_task(task, cls, system, refined=refined, plan=plan),
                         contract_task(task, cls, system, refined=refined))
        assert len(plan.memo) == len(maps) - 1  # the extra id leaves the key of `own`
    for refined in maps[1:4]:
        _assert_same(contract_task(task, cls, system, refined=refined), contract_task(task, cls, system))
    assert contract_task(task, cls, system).wcet < contract_task(task, cls, system, refined=maps[-1]).wcet


def test_contraction_refuses_a_partial_map():
    task, cls, system = _generated_task(1, 2, 12, 0.8)
    hit = min(aid for aid, c in cls.accesses.items() if c.l2_chmc in (AH, PS) and c.l1_chmc != AH)
    bypass = min(aid for aid, c in cls.accesses.items() if c.l2_chmc == BYPASS)
    own = {aid: c.l2_chmc for aid, c in cls.accesses.items()}
    # The key reads every access, a BYPASS one included, with or without a plan.
    for missing in (hit, bypass):
        partial = {aid: chmc for aid, chmc in own.items() if aid != missing}
        for plan in (ContractionPlan(task, system), None):
            with pytest.raises(KeyError, match=missing):
                contract_task(task, cls, system, refined=partial, plan=plan)


def test_analysis_leaves_memoized_contractions_unchanged():
    bundle = generate_workload(seed=1, cores=2, tasks_per_chain=4, trigger="ET", collision=0.8)
    setup = prepare(bundle)
    analyze_bundle(bundle, setup=setup)
    entries = [(ta.contracted_init, _snapshot(ta.contracted_init)) for ta in setup.tasks.values()]
    entries += [(con, _snapshot(con)) for ta in setup.tasks.values() for con in ta.plan.memo.values()]
    assert len(entries) > 2 * len(setup.tasks)
    analyze_bundle(bundle, AnalysisOptions(refinement_passes=2), setup=setup)
    for con, snapshot in entries:
        assert _snapshot(con) == snapshot


def test_pickled_setup_keeps_its_memo():
    # --jobs hands each worker a pickled Setup; its memo entries must still hit.
    bundle = generate_workload(seed=1, cores=2, tasks_per_chain=4, trigger="ET", collision=0.8)
    setup = pickle.loads(pickle.dumps(prepare(bundle)))
    for tid, ta in setup.tasks.items():
        assert list(ta.plan.memo.values()) == [ta.contracted_init]
        assert contract_task(bundle.tasks[tid], ta.classification, bundle.system,
                             refined=dict(ta.all_miss), plan=ta.plan) is ta.contracted_init


def test_loop_ending_on_a_child_loops_tail_contracts_like_the_reference():
    # The outer loop's exit at its own level is the inner loop's virtual node.
    task = shared_tail_task()
    system = make_system()
    cls = classify_task(task, system)
    plan = ContractionPlan(task, system)
    assert (plan.levels["lo"].entry, plan.levels["lo"].exit) == ("oh", "V:li")
    for refined, mode in ((None, "worst"), (all_miss(cls), "init_worst")):
        _assert_same(contract_task(task, cls, system, refined=refined, plan=plan),
                     reference_contract_task(task, cls, system, refined, mode))


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
    blocks = [BasicBlock(b, 1) for b in ("a", "h", "t", "u", "b")]
    task = _raw_task(blocks, [("a", "h"), ("h", "t"), ("t", "h"), ("u", "t"), ("t", "b")], [loop])
    with pytest.raises(ValidationError, match="node u unreachable from h"):
        _contract(task, prebuilt)
