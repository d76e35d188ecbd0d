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

from hypothesis import given, settings
from hypothesis import strategies as st

from chainlat.ingest import _TaskBuilder, default_system
from chainlat.latency import prepare
from chainlat.model import ChainSpec, WorkloadBundle
from chainlat.sim import SimConfig, simulate, simulate_exhaustive

from conftest import acc, block, build_task, make_system, single_chain_bundle
from oracles import reference_simulate, reference_simulate_exhaustive

FIELDS = ("jobs", "accesses", "blocks", "overruns", "l2_state")
EXHAUSTIVE_PREFIX = 12


def _bundle(seed, trigger, depth, collision, n_blocks, pad):
    """Two single-core chains of two generated tasks; the last exit block padded by `pad`."""
    rng = random.Random(seed)
    system = default_system(2)
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
        padded = replace(exit_blk, instruction_count=exit_blk.instruction_count + pad)
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
    # Unequal periods give every task of chain c0 `ratio` jobs.  Only each
    # task's first worst-biased job walks its graph; the later ones, and
    # every job of the second run on the Setup, replay that walk.
    bundle = _bundle(seed, trigger, 3, 0.8, n_blocks, pad)
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
