"""The cache fixpoint re-transfers only blocks with a changed predecessor.

Against a reference that transfers every reachable block on every pass, the
in-states and pass counts of the L1 must, L1 may and L2 must sweeps are
equal, and no run makes more transfers than blocks times passes.  Walking
each block from the reference's in-states gives every access's L1 label,
L2 CHMC and age that `classify_task` reports.  The joins equal their
definitions by `max` and `min`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlat.cache_ai import AH, BYPASS, NC, PS, _age_update, _join_may, _join_must, _plan, _sweep, classify_task
from chainlat.ingest import _TaskBuilder, default_system

from oracles import reference_fixpoint


def _generated_task(seed, loop_depth, n_blocks, collision):
    return _TaskBuilder(random.Random(seed), "t0", 0, default_system(), n_blocks, loop_depth, collision).build()


def _fixpoints(task, system):
    """(name, transfer, join, ways) of the three fixpoints classify_task runs.

    The L1 verdicts the L2 transfer reads come from walking each block from
    the reference's L1 must and may in-states.
    """
    l1, l2 = system.l1, system.l2
    lines = {bid: tuple(l1.line_of(a.address) for a in b.accesses) for bid, b in task.blocks.items()}

    def l1_transfer(bid, state):
        for line in lines[bid]:
            state = _age_update(state, line, l1.ways, l1.sets)
        return state

    cap = max(4, len(task.blocks) * l1.ways)
    must, may = (reference_fixpoint(task, l1_transfer, join, {}, cap)[0] for join in (_join_must, _join_may))
    visible = {}
    for bid, block in task.blocks.items():
        hit, reach, rows = must[bid], may[bid], []
        for acc, line in zip(block.accesses, lines[bid]):
            if line not in hit:
                rows.append((line not in reach, l2.line_of(acc.address)))  # (a guaranteed L1 miss, L2 line)
            hit, reach = _age_update(hit, line, l1.ways, l1.sets), _age_update(reach, line, l1.ways, l1.sets)
        visible[bid] = tuple(rows)

    def l2_transfer(bid, state):
        for miss, line in visible[bid]:
            touched = _age_update(state, line, l2.ways, l2.sets)
            state = touched if miss else _join_must(touched, state)
        return state

    return (("l1 must", l1_transfer, _join_must, l1.ways), ("l1 may", l1_transfer, _join_may, l1.ways),
            ("l2 must", l2_transfer, _join_must, l2.ways))


def _run_sweep(task, transfer, join, cap):
    """`_sweep` of the task's plan with a transfer by block id: (in-states by block id, passes, transfers)."""
    plan = _plan(task)
    order = plan[0]
    in_states, passes, transfers = _sweep(plan, lambda i, state: transfer(order[i], state), join, {}, cap)
    return {bid: state for bid, state in zip(order, in_states) if state is not None}, passes, transfers


def test_plan_starts_at_the_entry():
    task = _generated_task(3, 3, 16, 0.8)
    order, index, preds, succs = _plan(task)
    assert order == task.topo_order and order[0] == task.entry_block
    assert all(index[bid] == i for i, bid in enumerate(order))
    assert [tuple(order[p] for p in ps) for ps in preds] == [task.predecessors()[bid] for bid in order]
    assert [tuple(order[q] for q in qs) for qs in succs] == [task.successors()[bid] for bid in order]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 3), st.integers(2, 24), st.sampled_from((0.2, 0.8)))
def test_dirty_blocks_fixpoint_matches_full_sweeps(seed, depth, n_blocks, collision):
    task = _generated_task(seed, depth, n_blocks, collision)
    system = default_system()
    passes = {}
    for name, transfer, join, ways in _fixpoints(task, system):
        cap = max(4, len(task.blocks) * ways)
        ref_in, ref_passes, ref_transfers = reference_fixpoint(task, transfer, join, {}, cap)
        in_states, sweep_passes, transfers = _run_sweep(task, transfer, join, cap)
        assert in_states == ref_in, name
        assert sweep_passes == ref_passes, name
        assert transfers <= min(ref_transfers, len(task.blocks) * sweep_passes), name
        passes[name] = sweep_passes
    cls = classify_task(task, system)
    assert cls.l1_passes == max(passes["l1 must"], passes["l1 may"])
    assert cls.l2_passes == passes["l2 must"]


def test_loops_skip_transfers_of_unchanged_blocks():
    # Deeply nested loops take several passes; blocks after the loops see no change in most of them.
    task = next(t for t in (_generated_task(s, 3, 24, 0.8) for s in range(50))
                if max((t.loop_depth(l) for l in t.loops), default=0) == 2)
    _, transfer, join, _ = _fixpoints(task, default_system())[0]
    _, ref_passes, ref_transfers = reference_fixpoint(task, transfer, join, {}, 1000)
    _, passes, transfers = _run_sweep(task, transfer, join, 1000)
    assert passes == ref_passes > 2
    assert transfers < ref_transfers


def test_too_small_cap_still_raises():
    task = _generated_task(3, 3, 16, 0.8)
    _, transfer, join, _ = _fixpoints(task, default_system())[0]
    _, needed, _ = reference_fixpoint(task, transfer, join, {}, 1000)
    _, passes, _ = _run_sweep(task, transfer, join, needed)  # a cap of exactly the passes needed is enough
    assert passes == needed
    with pytest.raises(RuntimeError, match="cache fixpoint did not converge in %d passes" % (needed - 1)):
        _run_sweep(task, transfer, join, needed - 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 3), st.integers(2, 24), st.sampled_from((0.2, 0.8)))
def test_classification_matches_walks_from_reference_in_states(seed, depth, n_blocks, collision):
    task = _generated_task(seed, depth, n_blocks, collision)
    system = default_system()
    l1, l2 = system.l1, system.l2

    def states_before(steps, update, join, ways):
        """Access id -> the state before it, walking each block from its reference in-state."""
        def transfer(bid, state):
            for _, arg in steps[bid]:
                state = update(state, arg)
            return state

        in_states, _, _ = reference_fixpoint(task, transfer, join, {}, max(4, len(task.blocks) * ways))
        before = {}
        for bid, state in in_states.items():
            for aid, arg in steps[bid]:
                before[aid] = state
                state = update(state, arg)
        return before

    def must(s1, s2):
        return {l: max(a, s2[l]) for l, a in s1.items() if l in s2}

    def may(s1, s2):
        return {l: min(a for a in (s1.get(l), s2.get(l)) if a is not None) for l in s1.keys() | s2.keys()}

    def l1_update(state, line):
        return _reference_age_update(state, line, l1.ways, l1.sets)

    def l2_update(state, arg):
        miss, line = arg
        touched = _reference_age_update(state, line, l2.ways, l2.sets)
        return touched if miss else must(touched, state)

    l1_steps = {bid: [(a.id, l1.line_of(a.address)) for a in b.accesses] for bid, b in task.blocks.items()}
    l1_must, l1_may = (states_before(l1_steps, l1_update, join, l1.ways) for join in (must, may))
    hits = {aid for steps in l1_steps.values() for aid, line in steps if line in l1_must[aid]}
    l2_steps = {bid: [(aid, (line not in l1_may[aid], l2.line_of(a.address)))
                      for a, (aid, line) in zip(task.blocks[bid].accesses, steps) if aid not in hits]
                for bid, steps in l1_steps.items()}
    l2_before = states_before(l2_steps, l2_update, must, l2.ways)

    cls = classify_task(task, system).accesses
    assert set(cls) == set(l1_must)
    for aid in hits:
        assert (cls[aid].l1_chmc, cls[aid].l2_chmc, cls[aid].l2_age) == (AH, BYPASS, None), aid
    for bid, steps in l2_steps.items():
        for aid, (_, line) in steps:
            if line in l2_before[aid]:
                expect = (AH, l2_before[aid][line])
            else:
                # Persistent when the innermost loop's body holds at most `ways`
                # distinct L2-visible lines of the access's set.
                scope = task.ancestry[bid][:1]
                lines = {ln for lid in scope for b in task.loops[lid].body_blocks for _, (_, ln) in l2_steps[b]
                         if ln % l2.sets == line % l2.sets}
                expect = (PS, len(lines)) if scope and len(lines) <= l2.ways else (NC, None)
            assert (cls[aid].l1_chmc, cls[aid].l2_chmc, cls[aid].l2_age) == (NC,) + expect, aid


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


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 12), st.integers(1, 8), max_size=8),
       st.dictionaries(st.integers(0, 12), st.integers(1, 8), max_size=8))
def test_joins_match_their_definitions(s1, s2):
    before = (dict(s1), dict(s2))
    assert _join_must(s1, s2) == {l: max(a, s2[l]) for l, a in s1.items() if l in s2}
    may = dict(s2)
    for l, a in s1.items():
        may[l] = min(a, may.get(l, a))
    assert _join_may(s1, s2) == may
    assert (s1, s2) == before
