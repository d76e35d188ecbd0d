"""Each task graph's structure is derived once, at validation.

Loop parents are derived from the natural-loop bodies, so a document may
leave them out, and one that declares a parent other than the innermost
enclosing loop fails at parse.  The topological order is one Kahn sort,
cached on the graph object and read by every later stage.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlat import cost, model, sim
from chainlat.cache_ai import classify_task
from chainlat.cost import ContractionPlan
from chainlat.ingest import _TaskBuilder, default_system, parse_task, task_to_doc
from chainlat.model import BasicBlock, LoopNode, TaskGraph, ValidationError, validate_task_graph

from conftest import block, build_task
from oracles import _o_level_graph, reference_loop_body


def _generated_task(seed, loop_depth, n_blocks):
    return _TaskBuilder(random.Random(seed), "t0", 0, default_system(), n_blocks, loop_depth, 0.5).build()


def _kahn(task):
    """Test-local Kahn sort over the forward edges, with the library's tie-breaking."""
    back = {loop.back_edge for loop in task.loops.values()}
    forward = [e for e in task.edges if e not in back]
    indeg = {b: 0 for b in task.blocks}
    for _, dst in forward:
        indeg[dst] += 1
    ready = sorted(b for b, d in indeg.items() if d == 0)
    order = []
    while ready:
        n = ready.pop()
        order.append(n)
        for d in sorted((dst for src, dst in forward if src == n), reverse=True):
            indeg[d] -= 1
            if indeg[d] == 0:
                ready.append(d)
    return tuple(order)


def _with_parents(doc, parents):
    """The task document with each named loop's parent replaced."""
    loops = [dict(l, parent=parents.get(l["id"], l["parent"])) for l in doc["loops"]]
    return dict(doc, loops=loops)


def test_generated_tasks_have_loops_with_grandparents():
    # The property below draws from this generator; make sure it covers them.
    tasks = [_generated_task(seed, 3, 12) for seed in range(12)]
    assert any(t.loop_depth(lid) >= 2 for t in tasks for lid in t.loops)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 3), st.integers(2, 24), st.data())
def test_parents_are_derived_and_checked_at_parse(seed, depth, n_blocks, data):
    doc = task_to_doc(_generated_task(seed, depth, n_blocks))
    task = parse_task(doc)

    nulled = _with_parents(doc, {lid: None for lid in task.loops})
    assert parse_task(nulled) == task
    absent = dict(doc, loops=[{k: v for k, v in l.items() if k != "parent"} for l in doc["loops"]])
    assert parse_task(absent) == task

    nested = sorted(lid for lid in task.loops if task.loop_depth(lid) >= 2)
    if nested:
        lid = data.draw(st.sampled_from(nested))
        parent = task.loops[lid].parent_loop
        grandparent = task.loops[parent].parent_loop
        with pytest.raises(ValidationError, match="loop %s: declared parent %s is not its innermost "
                                                  "enclosing loop \\(%s\\)" % (lid, grandparent, parent)):
            parse_task(_with_parents(doc, {lid: grandparent}))

    order = task.topo_order
    assert order == _kahn(task)
    assert sorted(order) == sorted(task.blocks)
    position = {b: i for i, b in enumerate(order)}
    assert all(position[src] < position[dst] for src, dst in task.forward_edges)


def _innermost(bodies, contains):
    """Test-local copy of the per-object nesting rule: the loop with the
    smallest body among those for which contains(body) holds, the first
    declared among equal bodies."""
    best = None
    for lid, body in bodies.items():
        if contains(body) and (best is None or body < bodies[best]):
            best = lid
    return best


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 3), st.integers(2, 24))
def test_one_pass_nesting_and_level_graphs_match_the_per_object_rules(seed, depth, n_blocks):
    task = parse_task(task_to_doc(_generated_task(seed, depth, n_blocks)))
    bodies = {lid: reference_loop_body(task.blocks, task.edges, loop.head_block, loop.tail_block)
              for lid, loop in task.loops.items()}
    for bid in task.blocks:
        holding = sorted((lid for lid, body in bodies.items() if bid in body), key=lambda lid: len(bodies[lid]))
        assert task.ancestry[bid] == tuple(holding), bid
    for lid, loop in task.loops.items():
        assert loop.body_blocks == bodies[lid], lid
        assert loop.parent_loop == _innermost(bodies, lambda body: bodies[lid] < body), lid
        assert task.loop_depth(lid) == sum(bodies[lid] < body for body in bodies.values()), lid

    # Validation builds no block record: the graph holds the input's own.
    raw = TaskGraph(task.id, {bid: BasicBlock(b.id, b.instruction_count, b.accesses) for bid, b in task.blocks.items()},
                    task.edges, {lid: LoopNode(l.id, l.head_block, l.tail_block, l.back_edge, l.min_bound, l.max_bound)
                                 for lid, l in task.loops.items()}, exclusive_pairs=task.exclusive_pairs)
    graph = validate_task_graph(raw)
    assert graph == task == validate_task_graph(task)
    assert all(graph.blocks[bid] is blk for bid, blk in raw.blocks.items())

    plan = ContractionPlan(task, default_system())
    assert set(plan.levels) == {*task.loops, None}
    for level, lp in plan.levels.items():
        ref = _o_level_graph(task, level)
        edges = {(p, n) for n, preds in lp.pred.items() for p in preds}
        assert (set(lp.order), edges, lp.entry, lp.exit) == (set(ref.members), set(ref.edges), ref.entry, ref.exit)
        # The level's order, projected from the task's, is topological.
        position = {n: i for i, n in enumerate(lp.order)}
        assert len(position) == len(lp.order)
        assert all(position[p] < position[n] for p, n in edges), level


def _three_nested_loops():
    """e -> l0(h0 .. l1(h1 .. l2(h2, t2) .. t1) .. t0) -> x."""
    blocks = [block(b, 1) for b in ("e", "h0", "h1", "h2", "t2", "t1", "t0", "x")]
    edges = [("e", "h0"), ("h0", "h1"), ("h1", "h2"), ("h2", "t2"), ("t2", "h2"), ("t2", "t1"),
             ("t1", "h1"), ("t1", "t0"), ("t0", "h0"), ("t0", "x")]
    loops = [LoopNode("l%d" % i, "h%d" % i, "t%d" % i, ("t%d" % i, "h%d" % i), 1, 2) for i in range(3)]
    return blocks, edges, loops


def test_nested_loops_without_parents_are_elaborated():
    task = build_task("n", *_three_nested_loops())
    assert [task.loops[l].parent_loop for l in ("l0", "l1", "l2")] == [None, "l0", "l1"]
    assert [task.loop_depth(l) for l in ("l0", "l1", "l2")] == [0, 1, 2]
    assert task.ancestry["h2"] == ("l2", "l1", "l0")


@pytest.mark.parametrize("loop,parent,innermost", [
    ("l2", "l0", "l1"),  # an enclosing loop, but not the innermost one
    ("l0", "l1", "none"),  # a loop nested in it
    ("l1", "zz", "l0"),  # an unknown loop
])
def test_declared_parent_must_be_innermost(loop, parent, innermost):
    blocks, edges, loops = _three_nested_loops()
    loops = [replace(l, parent_loop=parent) if l.id == loop else l for l in loops]
    with pytest.raises(ValidationError, match="loop %s: declared parent %s is not its innermost enclosing "
                                              "loop \\(%s\\)" % (loop, parent, innermost)):
        build_task("n", blocks, edges, loops)


@pytest.mark.parametrize("head,tail", [("zz", "t"), ("h", "zz")], ids=("head", "tail"))
def test_loop_with_unknown_endpoint_rejected(head, tail):
    blocks = [block(b, 1) for b in ("b0", "h", "t", "x")]
    edges = [("b0", "h"), ("h", "t"), ("t", "h"), ("t", "x")]
    loops = [LoopNode("l", head, tail, (tail, head), 1, 2)]
    with pytest.raises(ValidationError, match="loop l references unknown blocks"):
        build_task("bad", blocks, edges, loops)


def test_replace_derives_its_own_order():
    task = build_task("s", [block(b, 1) for b in "abc"], [("a", "b"), ("b", "c")])
    assert task.topo_order == ("a", "b", "c")
    rewired = replace(task, edges=(("a", "c"), ("c", "b")))
    assert rewired.topo_order == ("a", "c", "b")
    assert rewired.successors() == {"a": ("c",), "b": (), "c": ("b",)}
    assert task.successors() == {"a": ("b",), "b": ("c",), "c": ()}


def test_one_sort_per_parsed_task(monkeypatch):
    doc = task_to_doc(_generated_task(3, 3, 16))
    calls = []
    real = model.topo_sort

    def counting(nodes, edges):
        calls.append(nodes)
        return real(nodes, edges)

    monkeypatch.setattr(model, "topo_sort", counting)
    task = parse_task(doc)
    classify_task(task, default_system())  # three fixpoints
    sim._suffix_scores(task, {})
    plan = ContractionPlan(task, default_system())  # every level projects the task's order
    assert len(plan.levels) == len(task.loops) + 1
    assert len(calls) == 1
    assert not {"topo_sort", "adjacency"} & set(vars(cost))  # no private copy escapes the count
