"""The simulator against a reference that steps one instruction at a time.

The simulator builds its per-task walk tables once per Setup and advances
the clock over a block's access-free instructions in one step; the
reference in oracles.py rebuilds everything per job and steps every
instruction.  Every trace field must be equal, over one Setup reused by
all policies.
"""

import random
from dataclasses import replace
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainlat.ingest import _TaskBuilder, default_system
from chainlat.latency import prepare
from chainlat.model import BasicBlock, CacheLevelConfig, ChainSpec, LoopNode, WorkloadBundle
from chainlat.sim import SimConfig, simulate, simulate_exhaustive

from conftest import acc, block, build_task, make_system, single_chain_bundle
from oracles import reference_simulate, reference_simulate_exhaustive

FIELDS = ("jobs", "accesses", "blocks", "overruns", "l2_state")
EXHAUSTIVE_PREFIX = 12


def _bundle(seed, trigger, depth, collision, n_blocks, pad, l1=None, l2=None):
    """Two single-core chains of two generated tasks; the last exit block padded by `pad`.

    `l1` and `l2` replace default_system's private and shared levels.
    Generation reads only the shared one: each access starts a shared line.
    """
    rng = random.Random(seed)
    system = default_system(2)
    system = replace(system, l1=l1 or system.l1, l2=l2 or system.l2)
    tasks, chains = {}, {}
    for core in range(2):
        tids = []
        for j in range(2):
            index = 2 * core + j
            tid = "t%d" % index
            tasks[tid] = _TaskBuilder(rng, tid, index, system, n_blocks, depth, collision).build()
            tids.append(tid)
        last = tasks[tids[-1]]
        exit_blk = last.blocks[last.exit_block]
        padded = BasicBlock(exit_blk.id, exit_blk.instruction_count + pad, exit_blk.accesses)
        tasks[tids[-1]] = replace(last, blocks={**last.blocks, exit_blk.id: padded})
        trig = rng.choice(("ET", "TT")) if trigger == "mix" else trigger
        cid = "c%d" % core
        chains[cid] = ChainSpec(cid, trig, tuple(tids), core)
    return WorkloadBundle(system, tasks, chains)


def _assert_same(trace, ref, what):
    for name in FIELDS:
        assert getattr(trace, name) == getattr(ref, name), (what, name)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), trigger=st.sampled_from(("ET", "TT", "mix")),
       depth=st.integers(0, 3), collision=st.sampled_from((0.5, 0.8)), n_blocks=st.integers(2, 12),
       pad=st.sampled_from((0, 1, 700)), tape=st.lists(st.integers(0, 1), max_size=12))
def test_simulator_matches_reference(seed, trigger, depth, collision, n_blocks, pad, tape):
    bundle = _bundle(seed, trigger, depth, collision, n_blocks, pad)
    setup = prepare(bundle)
    runs = [("random", s, None) for s in (0, 1, 7)] + [("worst", 0, None), ("tape", 0, tape)]
    for policy, s, t in runs:
        trace = simulate(bundle, SimConfig(policy, s, tape=t), setup=setup)
        _assert_same(trace, reference_simulate(setup, policy, s, t), (policy, s))
    assert setup.walks  # built once, reused by every run above
    got = list(islice(simulate_exhaustive(bundle, setup=setup), EXHAUSTIVE_PREFIX))
    want = list(reference_simulate_exhaustive(setup, EXHAUSTIVE_PREFIX))
    assert len(got) == len(want)
    for n, (trace, ref) in enumerate(zip(got, want)):
        _assert_same(trace, ref, ("tape", n))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), trigger=st.sampled_from(("ET", "TT", "mix")),
       n_blocks=st.integers(4, 12), pad=st.sampled_from((0, 700)), ratio=st.sampled_from((2, 3)))
def test_worst_replay_matches_reference_across_jobs(seed, trigger, n_blocks, pad, ratio):
    # Unequal periods give every task of chain c0 `ratio` jobs.  Each task's
    # worst walk is built once per Setup; every worst-biased job of both
    # runs replays it.
    _check_worst_replay(_bundle(seed, trigger, 3, 0.8, n_blocks, pad), ratio)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), trigger=st.sampled_from(("ET", "TT", "mix")),
       n_blocks=st.integers(4, 12), ratio=st.sampled_from((2, 3)),
       sets=st.sampled_from((1, 2, 4)), ways=st.sampled_from((1, 2, 4)))
def test_worst_replay_matches_reference_across_private_geometries(seed, trigger, n_blocks, ratio, sets, ways):
    # The private geometry decides when a loop iteration starts in the
    # state of the one before it, and so how much of the worst walk is copied.
    l1 = CacheLevelConfig(sets, ways, 32, 1)
    _check_worst_replay(_bundle(seed, trigger, 3, 0.8, n_blocks, 0, l1=l1), ratio)


@pytest.mark.parametrize("l2_line", (32, 64))
@pytest.mark.parametrize("l1_line", (16, 32, 64))
def test_simulator_matches_reference_across_line_sizes(l1_line, l2_line):
    # Each level maps an address by its own line size: a 16 B private line
    # splits a shared one, a 64 B one over 32 B shared lines joins two.
    l1, l2 = CacheLevelConfig(2, 4, l1_line, 1), CacheLevelConfig(32, 4, l2_line, 6)
    for seed in range(4):
        bundle = _bundle(seed, "mix", 3, 0.8, 12, 0, l1=l1, l2=l2)
        setup = prepare(bundle)
        for policy, s, tape in (("worst", 0, None), ("random", 0, None), ("random", 7, None),
                                ("tape", 0, [1, 0, 1, 1])):
            _assert_same(simulate(bundle, SimConfig(policy, s, tape=tape), setup=setup),
                         reference_simulate(setup, policy, s, tape), (seed, policy, s))


def _check_worst_replay(bundle, ratio):
    period = max(chain.period for chain in prepare(bundle).chains.values())
    chains = {cid: replace(c, period=period * (1 if cid == "c0" else ratio))
              for cid, c in bundle.chains.items()}
    bundle = replace(bundle, chains=chains)
    setup = prepare(bundle)
    assert setup.hyper // setup.chains["c0"].period == ratio
    ref = reference_simulate(setup, "worst", 0)
    for run in range(2):
        _assert_same(simulate(bundle, SimConfig("worst", 0), setup=setup), ref, ("worst", run))
        assert all(walk.worst is not None for walk in setup.walks.values())
    # Other policies on the same Setup never read the recorded walk.
    for policy, s in (("random", 3), ("tape", 0)):
        tape = [1] * 6 if policy == "tape" else None
        _assert_same(simulate(bundle, SimConfig(policy, s, tape=tape), setup=setup),
                     reference_simulate(setup, policy, s, tape), (policy, s))


def test_generated_bundles_reach_loops_exclusive_arms_and_idle_runs():
    # The property above draws from this builder; make sure it reaches the
    # walker's loop, exclusive-arm and idle-instruction paths.
    depths, exclusive, idle = set(), False, False
    for seed in range(12):
        bundle = _bundle(seed, "mix", 3, 0.8, 12, 0)
        for task in bundle.tasks.values():
            depths.add(max((task.loop_depth(lid) + 1 for lid in task.loops), default=0))
            exclusive |= bool(task.exclusive_pairs)
            idle |= any(b.instruction_count > len(b.accesses) > 0 for b in task.blocks.values())
    assert 3 in depths and exclusive and idle


def test_branch_choices_follow_sorted_block_ids_not_edge_order():
    # Edges listed against id order, equal-cost arms: the worst-biased tie
    # and every random draw index the sorted successor list.
    blocks = [block("e", 1), block("z", 3, (acc("z0", 0),)), block("b", 3, (acc("b0", 64),)),
              block("m", 2), block("x", 1)]
    edges = [("e", "z"), ("e", "b"), ("z", "m"), ("b", "m"), ("m", "x")]
    bundle = single_chain_bundle(build_task("t", blocks, edges), make_system(cores=1))
    setup = prepare(bundle)
    for policy, seed in [("worst", 0)] + [("random", s) for s in range(6)]:
        trace = simulate(bundle, SimConfig(policy, seed), setup=setup)
        _assert_same(trace, reference_simulate(setup, policy, seed), (policy, seed))
    assert [o.block_id for o in simulate(bundle, SimConfig("worst", 0), setup=setup).blocks][1] == "b"


def _near_powers_of_two(max_exponent):
    """1, and the powers of two up to 2**max_exponent with their neighbours."""
    return st.integers(0, max_exponent).flatmap(
        lambda e: st.sampled_from((2 ** e - 1, 2 ** e, 2 ** e + 1))).filter(lambda n: n >= 1)


@settings(max_examples=30, deadline=None)
@example(choices=4097, arms=9, lo=1, seed=0)
@given(choices=_near_powers_of_two(12), arms=_near_powers_of_two(3), lo=st.integers(1, 3),
       seed=st.integers(0, 10 ** 6))
def test_random_draws_at_and_around_powers_of_two_match_the_reference(choices, arms, lo, seed):
    # Entering loop l draws lo + randint(0, choices - 1) iterations; each
    # iteration's head h branches over `arms` arms.  Long loops read far
    # past the words the memo keeps, so the job draws the rest from its own
    # generator.
    arm_ids = ["a%d" % j for j in range(arms)]
    blocks = ([block("e", 1, (acc("e0", 0),)), block("h", 1, (acc("h0", 32),)), block("t", 1),
               block("x", 1, (acc("x0", 0),))]
              + [block(a, 1 + j, (acc(a + "0", 64 + 32 * j),)) for j, a in enumerate(arm_ids)])
    edges = ([("e", "h"), ("t", "h"), ("t", "x")] + [("h", a) for a in arm_ids] + [(a, "t") for a in arm_ids])
    loops = [LoopNode("l", "h", "t", ("t", "h"), lo, lo + choices - 1)]
    bundle = single_chain_bundle(build_task("t", blocks, edges, loops),
                                 make_system(cores=1, period_table=(2_000_000,)))
    setup = prepare(bundle)
    for s in (seed, seed + 1):
        _assert_same(simulate(bundle, SimConfig("random", s), setup=setup),
                     reference_simulate(setup, "random", s), ("random", s))


# The worst walk copies a loop's remaining iterations once one starts in the
# state the one before it started in.  Every block below holds an access,
# so each walked record has its own access tuple and copies share one.


def _worst_against_reference(task, setup=None):
    """(walked, copied) records of the task's worst walk, after checking the trace."""
    bundle = single_chain_bundle(task)
    setup = setup or prepare(bundle)
    _assert_same(simulate(bundle, SimConfig("worst", 0), setup=setup),
                 reference_simulate(setup, "worst", 0), "worst")
    worst = setup.walks[task.id].worst
    walked = len({id(accesses) for _, _, accesses, _ in worst})
    return walked, len(worst) - walked


def _loop(lid, head, tail, bound):
    return LoopNode(lid, head, tail, (tail, head), 1, bound)


def test_copied_outer_iterations_shift_inner_scope_serials():
    blocks = [block("e", 1, (acc("e0", 0),)), block("oh", 2, (acc("oh0", 32),)),
              block("ih", 2, (acc("ih0", 64),)), block("it", 3, (acc("it0", 96), acc("it1", 128))),
              block("ot", 1, (acc("ot0", 160),)), block("x", 1, (acc("x0", 0),))]
    edges = [("e", "oh"), ("oh", "ih"), ("ih", "it"), ("it", "ih"), ("it", "ot"), ("ot", "oh"), ("ot", "x")]
    task = build_task("t", blocks, edges, [_loop("lo", "oh", "ot", 5), _loop("li", "ih", "it", 4)])
    walked, copied = _worst_against_reference(task)
    # Per outer iteration: oh, ot and 4 inner iterations of 2 blocks.  The
    # inner loop copies from its third iteration, the outer one from its third.
    assert (walked, copied) == (2 + 2 * (2 + 2 * 2), 2 * 4 + 3 * 10)
    bundle = single_chain_bundle(task)
    scopes = {row[8] for row in simulate(bundle, SimConfig("worst", 0)).access_rows if row[5] == "ih"}
    assert scopes == {("li", n) for n in range(5)}


def test_inner_loop_ending_on_its_parents_tail():
    blocks = [block("e", 1, (acc("e0", 0),)), block("oh", 1, (acc("oh0", 32),)),
              block("ih", 2, (acc("ih0", 64),)), block("m", 1, (acc("m0", 96),)),
              block("t", 2, (acc("t0", 128),)), block("x", 1, (acc("x0", 0),))]
    edges = [("e", "oh"), ("oh", "ih"), ("ih", "m"), ("m", "t"), ("t", "ih"), ("t", "oh"), ("t", "x")]
    task = build_task("t", blocks, edges, [_loop("lo", "oh", "t", 4), _loop("li", "ih", "t", 3)])
    # Per outer iteration: oh and 3 inner iterations of ih, m, t.  Both
    # loops copy from their third iteration.
    assert _worst_against_reference(task) == (2 + 2 * (1 + 2 * 3), 2 * 3 + 2 * 10)


def test_body_overflowing_its_private_set_copies_from_the_third_iteration():
    # Five lines of set 0 in four ways: every iteration misses all of them.
    # The line of set 1 misses only in the first, so the third iteration is
    # the first to start in the state of the one before it.
    body = tuple(acc("h%d" % n, 64 * n) for n in range(5)) + (acc("h5", 32),)
    blocks = [block("e", 1, (acc("e0", 4096),)), block("h", 6, body), block("x", 1, (acc("x0", 0),))]
    task = build_task("t", blocks, [("e", "h"), ("h", "h"), ("h", "x")], [_loop("l", "h", "h", 6)])
    assert _worst_against_reference(task) == (4, 4)


def test_exclusive_arms_inside_a_loop():
    blocks = [block("e", 1, (acc("e0", 0),)), block("h", 1, (acc("h0", 32),)),
              block("a", 4, (acc("a0", 64), acc("a1", 96))), block("b", 9, (acc("b0", 128),)),
              block("t", 1, (acc("t0", 160),)), block("x", 1, (acc("x0", 0),))]
    edges = [("e", "h"), ("h", "a"), ("h", "b"), ("a", "t"), ("b", "t"), ("t", "h"), ("t", "x")]
    task = build_task("t", blocks, edges, [_loop("l", "h", "t", 5)], exclusive=[("a", "b")])
    assert _worst_against_reference(task)[1] > 0


@pytest.mark.parametrize("bound", (1, 2))
def test_short_loops_copy_nothing(bound):
    blocks = [block("e", 1, (acc("e0", 0),)), block("h", 2, (acc("h0", 32), acc("h1", 64))),
              block("x", 1, (acc("x0", 0),))]
    task = build_task("t", blocks, [("e", "h"), ("h", "h"), ("h", "x")], [_loop("l", "h", "h", bound)])
    assert _worst_against_reference(task) == (2 + bound, 0)
