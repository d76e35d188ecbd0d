"""The cache fixpoint re-transfers only blocks with a changed predecessor.

Against a reference that transfers every reachable block on every pass, the
in-states and pass counts of the L1 must, L1 may and L2 must fixpoints are
equal, and no run makes more transfers than blocks times passes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlat.cache_ai import AH, _Fixpoint, _age_update, _join_may, _join_must, _l2_step, classify_task, l1_analysis
from chainlat.ingest import _TaskBuilder, default_system

from oracles import reference_fixpoint


def _generated_task(seed, loop_depth, n_blocks, collision):
    return _TaskBuilder(random.Random(seed), "t0", 0, default_system(), n_blocks, loop_depth, collision).build()


def _fixpoints(task, system):
    """(name, transfer, join, ways) of the three fixpoints classify_task runs."""
    l1, l2 = system.l1, system.l2
    lines = {bid: tuple(l1.line_of(a.address) for a in b.accesses) for bid, b in task.blocks.items()}
    labels, _ = l1_analysis(task, l1, lines)
    visible = {bid: tuple((labels[a.id], l2.line_of(a.address)) for a in b.accesses if labels[a.id] != AH)
               for bid, b in task.blocks.items()}

    def l1_transfer(bid, state):
        for line in lines[bid]:
            state = _age_update(state, line, l1.ways, l1.sets)
        return state

    def l2_transfer(bid, state):
        for label, line in visible[bid]:
            state = _l2_step(state, label, line, l2.ways, l2.sets)
        return state

    return (("l1 must", l1_transfer, _join_must, l1.ways), ("l1 may", l1_transfer, _join_may, l1.ways),
            ("l2 must", l2_transfer, _join_must, l2.ways))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 3), st.integers(2, 24), st.sampled_from((0.2, 0.8)))
def test_dirty_blocks_fixpoint_matches_full_sweeps(seed, depth, n_blocks, collision):
    task = _generated_task(seed, depth, n_blocks, collision)
    system = default_system()
    passes = {}
    for name, transfer, join, ways in _fixpoints(task, system):
        cap = max(4, len(task.blocks) * ways)
        ref_in, ref_passes, ref_transfers = reference_fixpoint(task, transfer, join, {}, cap)
        fp = _Fixpoint(task, transfer, join, {})
        assert fp.run(cap) == ref_in, name
        assert fp.passes == ref_passes, name
        assert fp.transfers <= min(ref_transfers, len(task.blocks) * fp.passes), name
        passes[name] = fp.passes
    cls = classify_task(task, system)
    assert cls.l1_passes == max(passes["l1 must"], passes["l1 may"])
    assert cls.l2_passes == passes["l2 must"]


def test_loops_skip_transfers_of_unchanged_blocks():
    # Deeply nested loops take several passes; blocks after the loops see no change in most of them.
    task = next(t for t in (_generated_task(s, 3, 24, 0.8) for s in range(50))
                if max((t.loop_depth(l) for l in t.loops), default=0) == 2)
    _, transfer, join, _ = _fixpoints(task, default_system())[0]
    _, ref_passes, ref_transfers = reference_fixpoint(task, transfer, join, {}, 1000)
    fp = _Fixpoint(task, transfer, join, {})
    fp.run(1000)
    assert fp.passes == ref_passes > 2
    assert fp.transfers < ref_transfers


def test_too_small_cap_still_raises():
    task = _generated_task(3, 3, 16, 0.8)
    _, transfer, join, _ = _fixpoints(task, default_system())[0]
    _, needed, _ = reference_fixpoint(task, transfer, join, {}, 1000)
    fp = _Fixpoint(task, transfer, join, {})
    fp.run(needed)  # a cap of exactly the passes needed is enough
    assert fp.passes == needed
    with pytest.raises(RuntimeError, match="cache fixpoint did not converge in %d passes" % (needed - 1)):
        _Fixpoint(task, transfer, join, {}).run(needed - 1)


def _reference_age_update(state, line, ways, sets):
    """LRU ages after an access to `line`: an absent line counts as older than
    every cached one, same-set lines younger than it age by one, and a line
    aged past `ways` leaves."""
    old = state.get(line, ways + 1)
    out = {}
    for l, a in state.items():
        if l != line:
            a = a + 1 if l % sets == line % sets and a < old else a
            if a <= ways:
                out[l] = a
    out[line] = 1
    return out


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(((1, 1), (2, 1), (4, 2), (4, 4))), st.data())
def test_age_update_matches_the_lru_rule(geometry, data):
    ways, sets = geometry
    lines = st.integers(0, 3 * sets)
    # Must and may joins leave several lines of one set at one age.
    state = data.draw(st.dictionaries(lines, st.integers(1, ways), max_size=8))
    line = data.draw(lines)
    before = dict(state)
    assert _age_update(state, line, ways, sets) == _reference_age_update(state, line, ways, sets)
    assert state == before
