"""Task-graph validation: every message, where it points, and the loop-entry rule.

The table gives one malformed task document per message that
`model.elaborate_loops` and `model.validate_task_graph` can raise, parsed
through `ingest.parse_task`, and asserts the whole text: the file, the task
id and the message.  Rows with two defects pin which check runs first.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlat.ingest import parse_task
from chainlat.model import BasicBlock, LoopNode, TaskGraph, ValidationError, validate_task_graph

from oracles import reference_dominators, reference_loop_body

WHERE = "wl/task_t.json"


def _loop(lid, head, tail, back=None, parent=None):
    return {"id": lid, "head": head, "tail": tail, "back_edge": list(back or (tail, head)),
            "min_bound": 1, "max_bound": 2, "parent": parent}


def _doc(blocks, edges, loops=(), pairs=()):
    return {
        "task_id": "t",
        "blocks": [{"id": b, "instructions": 1, "accesses": []} for b in blocks],
        "edges": [list(e) for e in edges],
        "loops": list(loops),
        "exclusive_pairs": [list(p) for p in pairs],
    }


# e -> h -> m -> t -> x with the back edge t -> h: loop l is {h, m, t}.
LOOP_BLOCKS = ("e", "h", "m", "t", "x")
LOOP_EDGES = (("e", "h"), ("h", "m"), ("m", "t"), ("t", "h"), ("t", "x"))
SIDE_ENTRY = LOOP_EDGES + (("e", "m"),)

# (id, document, message after "<file>: t: ")
MESSAGES = [
    ("no-blocks", _doc([], []), "task has no blocks"),
    ("unknown-edge-block", _doc(["a"], [("a", "zz")]), "edge (a,zz) references unknown block"),
    ("duplicate-edges", _doc(["a", "b"], [("a", "b"), ("a", "b")]), "duplicate edges"),
    ("two-entries", _doc(["a", "b", "c"], [("a", "c"), ("b", "c")]),
     "need exactly one entry block, found ['a', 'b']"),
    ("no-entry", _doc(["a", "b"], [("a", "b"), ("b", "a")], [_loop("l", "a", "b")]),
     "loop l: head a is the task's entry; the entry must lie outside every loop"),
    ("head-entry-then-exit", _doc(["a", "b", "x"], [("a", "b"), ("b", "a"), ("b", "x")], [_loop("l", "a", "b")]),
     "loop l: head a is the task's entry; the entry must lie outside every loop"),
    ("cycle-without-loop", _doc(["a", "b"], [("a", "b"), ("b", "a")]), "need exactly one entry block, found []"),
    ("back-edge-direction", _doc(LOOP_BLOCKS, LOOP_EDGES, [_loop("l", "h", "t", back=("h", "t"))]),
     "loop l: back edge must run tail->head"),
    ("shared-back-edge", _doc(LOOP_BLOCKS, LOOP_EDGES, [_loop("la", "h", "t"), _loop("lb", "h", "t")]),
     "loops la and lb declare the same back edge t->h"),
    ("unknown-loop-block", _doc(LOOP_BLOCKS, LOOP_EDGES, [_loop("l", "zz", "t")]),
     "loop l references unknown blocks"),
    # Every block has a predecessor, so the entry search reads the forward
    # adjacency before the loop's blocks are checked.
    ("cycle-with-unknown-loop-block", _doc(["a", "b"], [("a", "b"), ("b", "a")], [_loop("l", "zz", "b")]),
     "need exactly one entry block, found []"),
    ("side-entry", _doc(LOOP_BLOCKS, SIDE_ENTRY, [_loop("l", "h", "t")]),
     "loop l: side entry, head h does not dominate tail t"),
    ("tail-is-entry", _doc(["t", "h", "x"], [("t", "h"), ("h", "x")], [_loop("l", "h", "t")]),
     "loop l: side entry, head h does not dominate tail t"),
    ("overlap", _doc(["e", "h", "t1", "t2", "j", "x"],
                     [("e", "h"), ("h", "t1"), ("h", "t2"), ("t1", "h"), ("t2", "h"), ("t1", "j"),
                      ("t2", "j"), ("j", "x")],
                     [_loop("l1", "h", "t1"), _loop("l2", "h", "t2")]),
     "loops l1 and l2 overlap without nesting"),
    # The simulator keys loops by their head, so nested loops may not share one.
    ("shared-head", _doc(["e", "h", "a", "ti", "to", "x"],
                         [("e", "h"), ("h", "a"), ("a", "ti"), ("ti", "h"), ("ti", "to"), ("to", "h"),
                          ("to", "x")],
                         [_loop("li", "h", "ti"), _loop("lo", "h", "to")]),
     "loops li and lo share the head h; nested loops need distinct heads"),
    ("declared-parent", _doc(LOOP_BLOCKS, LOOP_EDGES, [_loop("l", "h", "t", parent="zz")]),
     "loop l: declared parent zz is not its innermost enclosing loop (none)"),
    ("irreducible", _doc(["e", "a", "b", "x"], [("e", "a"), ("e", "b"), ("a", "b"), ("b", "a"), ("a", "x")]),
     "irreducible control flow: cycle remains after removing declared back edges"),
    ("two-exits", _doc(["e", "a", "b"], [("e", "a"), ("e", "b")]), "need exactly one exit block, found ['a', 'b']"),
    ("unreachable", _doc(["e", "u", "v", "x"], [("e", "x"), ("u", "v"), ("v", "u"), ("v", "x")],
                         [_loop("l", "u", "v")]),
     "unreachable blocks: ['u', 'v']"),
    ("back-edge-missing", _doc(LOOP_BLOCKS, [e for e in LOOP_EDGES if e != ("t", "h")], [_loop("l", "h", "t")]),
     "loop l: declared back edge missing from edge set"),
    ("head-is-entry", _doc(["h", "t", "x"], [("h", "t"), ("t", "x")], [_loop("l", "h", "t")]),
     "loop l: declared back edge missing from edge set"),
    ("non-tail-exit", _doc(LOOP_BLOCKS, LOOP_EDGES + (("m", "x"),), [_loop("l", "h", "t")]),
     "loop l: exit from m (only tail exits supported)"),
    ("identical-pair", _doc(["e", "a", "x"], [("e", "a"), ("a", "x")], pairs=[("a", "a")]),
     "exclusive pair with identical blocks a"),
    ("unknown-pair-block", _doc(["e", "a", "x"], [("e", "a"), ("a", "x")], pairs=[("a", "zz")]),
     "exclusive pair (a,zz) references unknown block"),
    ("pair-not-arms", _doc(["e", "a", "b", "x"], [("e", "a"), ("a", "b"), ("b", "x")], pairs=[("x", "a")]),
     "exclusive pair (a,x): blocks must be alternative arms of one branch"),
    ("pair-common-path", _doc(["e", "a", "b", "x"], [("e", "a"), ("e", "b"), ("a", "b"), ("b", "x")],
                              pairs=[("b", "a")]),
     "exclusive pair (a,b): blocks lie on a common path"),
    # Two defects: the first check to run names its own.
    ("side-entry-then-unknown", _doc(LOOP_BLOCKS, SIDE_ENTRY, [_loop("la", "h", "t"), _loop("lb", "zz", "t")]),
     "loop la: side entry, head h does not dominate tail t"),
    ("unknown-then-side-entry", _doc(LOOP_BLOCKS, SIDE_ENTRY, [_loop("la", "zz", "t"), _loop("lb", "h", "t")]),
     "loop la references unknown blocks"),
    ("side-entry-and-non-tail-exit", _doc(LOOP_BLOCKS, SIDE_ENTRY + (("m", "x"),), [_loop("l", "h", "t")]),
     "loop l: side entry, head h does not dominate tail t"),
    ("side-entry-and-two-exits", _doc(LOOP_BLOCKS + ("y",), SIDE_ENTRY + (("m", "y"),), [_loop("l", "h", "t")]),
     "loop l: side entry, head h does not dominate tail t"),
    ("side-entry-and-irreducible", _doc(LOOP_BLOCKS, SIDE_ENTRY + (("m", "h"),), [_loop("l", "h", "t")]),
     "loop l: side entry, head h does not dominate tail t"),
    ("side-entry-then-shared-head", _doc(LOOP_BLOCKS, LOOP_EDGES + (("m", "h"), ("e", "t")),
                                         [_loop("la", "h", "m"), _loop("lb", "h", "t")]),
     "loop lb: side entry, head h does not dominate tail t"),
    # Arm a sorts first by id but comes second in the order (e, z, a, x): only z reaches a.
    ("exclusive-pair-on-a-path", _doc(["e", "z", "a", "x"], [("e", "z"), ("e", "a"), ("z", "a"), ("a", "x")],
                                      pairs=[("a", "z")]),
     "exclusive pair (a,z): blocks lie on a common path"),
    # A loop no path from the entry reaches is no side-entry error: its blocks are unreachable.
    ("unreachable-loops", _doc(["e", "u", "w", "v", "x"],
                               [("e", "x"), ("u", "v"), ("w", "v"), ("v", "u"), ("v", "w"), ("v", "x")],
                               [_loop("lu", "u", "v"), _loop("lw", "w", "v")]),
     "unreachable blocks: ['u', 'v', 'w']"),
]


@pytest.mark.parametrize("doc,message", [row[1:] for row in MESSAGES], ids=[row[0] for row in MESSAGES])
def test_each_message_names_the_file_and_the_task(doc, message):
    with pytest.raises(ValidationError) as info:
        parse_task(doc, WHERE)
    assert str(info.value) == "%s: t: %s" % (WHERE, message)
    assert info.value.location == WHERE


def test_several_bad_pairs_name_the_first_in_sorted_order(tmp_path):
    # A task's pairs are a frozenset, whose order follows string hashing; the
    # first bad pair in sorted order is named under every hash seed.
    doc = _doc("epqrsx", zip("epqrs", "pqrsx"), pairs=[("p", "zz"), ("r", "yy"), ("x", "e"), ("s", "q")])
    script = ("import json, sys\nfrom chainlat.ingest import parse_task\n"
              "try:\n    parse_task(json.loads(sys.argv[1]), %r)\nexcept Exception as exc:\n    print(exc)" % WHERE)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    seen = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        done = subprocess.run([sys.executable, "-c", script, json.dumps(doc)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        seen.add(done.stdout)
    assert seen == {"%s: t: exclusive pair (e,x): blocks must be alternative arms of one branch\n" % WHERE}


@pytest.mark.parametrize("field,message", [
    ("entry_block", "declared entry zz is not the unique source"),
    ("exit_block", "declared exit zz is not the unique sink"),
])
def test_declared_endpoints_must_be_the_derived_ones(field, message):
    # Task documents declare no endpoints; a graph built in code may.
    blocks = {b: BasicBlock(b, 1) for b in ("e", "x")}
    task = TaskGraph("t", blocks, (("e", "x"),), {}, **{field: "zz"})
    with pytest.raises(ValidationError) as info:
        validate_task_graph(task)
    assert str(info.value) == "t: " + message


# ---------------------------------------------------------------------------
# Loop entry: the natural body decides what the dominator test decided.


@st.composite
def _loop_graphs(draw):
    """Graphs whose block b0 has no forward predecessor, with 1-3 loops on distinct back edges.

    Each other block gets forward predecessors of lower index: the one just
    before it, or a random set.  Extra edges may close undeclared cycles.
    Most back edges run from a later block to an earlier one.  A back edge is
    left out of the edge set now and then, so the head can also be the
    unique entry.
    """
    n = draw(st.integers(2, 8))
    blocks = ["b%d" % i for i in range(n)]
    chain = draw(st.booleans())
    edges = {}
    for i in range(1, n):
        for j in {i - 1} if chain else draw(st.sets(st.integers(0, i - 1), min_size=1, max_size=2)):
            edges[blocks[j], blocks[i]] = None
    for s, d in draw(st.lists(st.tuples(st.integers(1, n - 1), st.integers(1, n - 1)), max_size=2)):
        edges[blocks[s], blocks[d]] = None
    back_edges = set()
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if draw(st.sampled_from((True, True, True, False))):
            a, b = max(a, b), min(a, b)
        back_edges.add((blocks[a], blocks[b]))
    loops = []
    for k, (tail, head) in enumerate(sorted(back_edges)):
        # A back edge into b0 leaves no block without a predecessor: keep few of them.
        if draw(st.sampled_from((True, False, False, False) if head == "b0" else (True, True, False))):
            edges[tail, head] = None
        loops.append(LoopNode("l%d" % k, head, tail, (tail, head), 1, 2))
    return TaskGraph("t", {b: BasicBlock(b, 1) for b in blocks}, tuple(edges), {l.id: l for l in loops})


@settings(max_examples=400, deadline=None)
@given(_loop_graphs())
def test_loop_entry_follows_the_dominator_rule(task):
    blocks, edges = list(task.blocks), list(task.edges)
    entries = [b for b in blocks if all(d != b for _, d in edges)]
    back = {loop.back_edge for loop in task.loops.values()}
    # Heads that only back edges enter: with no entry block, the task begins in such a loop.
    head_entries = [(lid, loop.head_block) for lid, loop in task.loops.items()
                    if all(d != loop.head_block for s, d in edges if (s, d) not in back)]
    expected = None
    if not entries and head_entries:
        expected = "loop %s: head %s is the task's entry; the entry must lie outside every loop" % head_entries[0]
    elif len(entries) != 1:
        expected = "need exactly one entry block, found %r" % sorted(entries)
    else:
        entry = entries[0]
        dom = reference_dominators(blocks, edges, entry)
        for lid, loop in task.loops.items():
            head, tail = loop.head_block, loop.tail_block
            body = reference_loop_body(blocks, edges, head, tail)
            # The entry reaches the tail around the head exactly when the head does not dominate it.
            assert (entry in body - {head}) == (head not in dom[tail]), lid
            # Every edge into the body past its head starts inside it.
            assert all(src in body for src, dst in edges if dst in body - {head})
            if expected is None and head not in dom[tail]:
                expected = "loop %s: side entry, head %s does not dominate tail %s" % (lid, head, tail)

    try:
        graph = validate_task_graph(task)
    except ValidationError as exc:
        if expected is not None:
            assert str(exc) == "t: " + expected
        else:
            assert "side entry" not in str(exc) and "entry block" not in str(exc), str(exc)
        return
    assert expected is None
    for lid, loop in graph.loops.items():
        assert loop.body_blocks == reference_loop_body(blocks, edges, loop.head_block, loop.tail_block), lid
