import pytest

from chainlat.model import (
    BasicBlock,
    CacheLevelConfig,
    Interval,
    LoopNode,
    TaskGraph,
    ValidationError,
    validate_task_graph,
)

from conftest import block, build_task, diamond_loop_task


def level(sets=32, line=32, ways=4, hit=6):
    return CacheLevelConfig(sets, ways, line, hit)


def test_interval_rejects_inverted():
    with pytest.raises(ValueError):
        Interval(3, 2)


def test_cache_level_rejects_non_pow2():
    with pytest.raises(ValidationError):
        CacheLevelConfig(3, 4, 32, 6)


def test_block_rejects_more_accesses_than_instructions():
    from chainlat.model import MemAccess

    with pytest.raises(ValidationError):
        BasicBlock("b", 1, (MemAccess("a1", 0), MemAccess("a2", 32)))


def test_validate_finds_entry_and_exit(diamond):
    assert diamond.entry_block == "dl_b0"
    assert diamond.exit_block == "dl_b3"


def test_validate_idempotent(diamond):
    again = validate_task_graph(diamond)
    assert again == diamond


def test_loop_elaboration(diamond):
    loop = diamond.loops["dl_l1"]
    assert loop.body_blocks == frozenset({"dl_h", "dl_a", "dl_bb", "dl_t"})
    assert diamond.ancestry["dl_a"] == ("dl_l1",)
    assert diamond.ancestry["dl_b0"] == ()


def test_two_back_edges_rejected():
    blocks = [block("b0", 1), block("h", 1), block("t", 1), block("u", 1), block("x", 1)]
    edges = [("b0", "h"), ("h", "t"), ("t", "h"), ("t", "u"), ("u", "h"), ("u", "x")]
    loops = [LoopNode("l", "h", "t", ("t", "h"), 1, 2)]
    with pytest.raises(ValidationError, match="irreducible"):
        build_task("bad", blocks, edges, loops)


def test_duplicate_back_edge_rejected():
    # Two loops on one back edge have one body; the contraction would lose a level.
    blocks = [block("e", 1), block("h", 1), block("t", 1), block("x", 1)]
    edges = [("e", "h"), ("h", "t"), ("t", "h"), ("t", "x")]
    loops = [LoopNode("la", "h", "t", ("t", "h"), 1, 2), LoopNode("lb", "h", "t", ("t", "h"), 1, 3)]
    with pytest.raises(ValidationError, match=r"^bad: loops la and lb declare the same back edge t->h$"):
        build_task("bad", blocks, edges, loops)


def test_dangling_edge_rejected():
    with pytest.raises(ValidationError):
        build_task("bad", [block("b0", 1)], [("b0", "nope")])


def test_two_entries_rejected():
    blocks = [block("b0", 1), block("b1", 1), block("b2", 1)]
    with pytest.raises(ValidationError, match="entry"):
        build_task("bad", blocks, [("b0", "b2"), ("b1", "b2")])


def test_exclusive_pair_must_be_branch_arms():
    blocks = [block("b0", 1), block("b1", 1), block("b2", 1)]
    with pytest.raises(ValidationError, match="exclusive"):
        build_task("bad", blocks, [("b0", "b1"), ("b1", "b2")], exclusive=[("b0", "b2")])


def test_exclusive_branch_arms_accepted():
    blocks = [block("b0", 1), block("a", 1), block("b", 1), block("j", 1)]
    edges = [("b0", "a"), ("b0", "b"), ("a", "j"), ("b", "j")]
    task = build_task("ok", blocks, edges, exclusive=[("a", "b")])
    assert frozenset({"a", "b"}) in task.exclusive_pairs


def test_side_entry_into_loop_rejected():
    blocks = [block("b0", 1), block("h", 1), block("m", 1), block("t", 1), block("x", 1)]
    edges = [("b0", "h"), ("h", "m"), ("m", "t"), ("t", "h"), ("t", "x"), ("b0", "m")]
    loops = [LoopNode("l", "h", "t", ("t", "h"), 1, 2)]
    with pytest.raises(ValidationError, match="side entry"):
        build_task("bad", blocks, edges, loops)
