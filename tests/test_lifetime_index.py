"""The lifetime index and the per-task tables against the full scans they replace."""

from hypothesis import given, settings
from hypothesis import strategies as st

from chainlat.cache_ai import BYPASS
from chainlat.context import compute_prs_time
from chainlat.ingest import generate_workload
from chainlat.interference import COUNT_ACCESS, COUNT_DISTINCT
from chainlat.latency import (
    LifetimeIndex,
    Setup,
    _foreign_overlaps,
    _tlt_pressure,
    hyperperiod,
    lifetime_indexes,
    prepare,
)
from chainlat.model import ChainSpec, Interval, JobInstance

from conftest import boundary_bundle


def _brute_pairs(jobs, hyper, cid, lifetime):
    """The scan the index replaces: every job of the chain under every shift."""
    lo, hi = lifetime
    return [
        (key, shift)
        for key in sorted(k for k in jobs if k[0] == cid)
        for shift in (-hyper, 0, hyper)
        if max(lo, jobs[key].lifetime.lo + shift) <= min(hi, jobs[key].lifetime.hi + shift)
    ]


@st.composite
def chain_sets(draw):
    """Random ET and TT chains on two or three cores, with their jobs as prepare enumerates them."""
    n_chains = draw(st.integers(2, 4))
    chains, jobs = {}, {}
    periods = [draw(st.sampled_from((40, 60, 100, 120))) for _ in range(n_chains)]
    hyper = hyperperiod(periods)
    for c, period in enumerate(periods):
        cid = "c%d" % c
        n_tasks = draw(st.integers(1, 3))
        cips = tuple(draw(st.integers(1, 2 * period)) for _ in range(n_tasks))
        bcets = tuple(draw(st.integers(0, w)) for w in cips)
        trigger = draw(st.sampled_from(("ET", "TT")))
        # TT offsets anywhere in the period and ET CIP-WCETs up to two periods,
        # so lifetimes outlast the gap between releases, cross the
        # hyperperiod boundary and need not start in (k, i) order.
        offsets = None
        if trigger == "TT":
            offsets = (0,) + tuple(sorted(draw(st.integers(0, period - 1)) for _ in cips[1:]))
        chain = ChainSpec(cid, trigger, tuple("t%d_%d" % (c, i) for i in range(n_tasks)),
                          draw(st.integers(0, 2)), period, offsets)
        chains[cid] = chain
        for k in range(hyper // period):
            for i, tid in enumerate(chain.tasks):
                release = compute_prs_time(chain, i, k, bcets, cips)
                jobs[(cid, k, i)] = JobInstance(cid, i, tid, k, release,
                                                Interval(release.lo, release.hi + cips[i]))
    return Setup(None, {}, chains, hyper, jobs, lifetime_indexes(jobs, hyper))


@settings(max_examples=150, deadline=None)
@given(chain_sets())
def test_foreign_overlaps_equal_full_scan(setup):
    for key in sorted(setup.jobs):
        core = setup.chains[key[0]].core
        expected = [
            (chain, _brute_pairs(setup.jobs, setup.hyper, cid, setup.jobs[key].lifetime))
            for cid, chain in setup.chains.items() if chain.core != core
        ]
        assert _foreign_overlaps(setup, key) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 500),
       st.lists(st.tuples(st.integers(-600, 600), st.integers(0, 900)), min_size=1, max_size=12),
       st.integers(-1200, 1200), st.integers(0, 900))
def test_index_equals_scan_on_arbitrary_lifetimes(hyper, spans, lo, length):
    # Lifetimes in any order, longer than the hyperperiod or straddling it.
    jobs = {("c", k, 0): JobInstance("c", 0, "t", k, Interval(a, a), Interval(a, a + n))
            for k, (a, n) in enumerate(spans)}
    target = Interval(lo, lo + length)
    index = LifetimeIndex({key: j.lifetime for key, j in jobs.items()}, hyper)
    assert index.overlapping(target) == _brute_pairs(jobs, hyper, "c", target)


def _scanned_set_weight(cls, l2_set, counting):
    """One job's whole-job weight in the set, scanned from its accesses."""
    lines = [c.l2_line for c in cls.accesses.values() if c.l2_chmc != BYPASS and c.l2_set == l2_set]
    return len(lines) if counting == COUNT_ACCESS else len(set(lines))


def _old_tlt_pressure(setup, key, sets, counting):
    """Per-job scanned set weight summed over every foreign job and shift."""
    target = setup.jobs[key]
    out = {s: 0 for s in sets}
    core = setup.chains[key[0]].core
    for fkey in sorted(setup.jobs):
        if setup.chains[fkey[0]].core == core:
            continue
        fj = setup.jobs[fkey]
        for shift in (-setup.hyper, 0, setup.hyper):
            if max(target.lifetime.lo, fj.lifetime.lo + shift) <= min(target.lifetime.hi, fj.lifetime.hi + shift):
                for s in out:
                    out[s] += _scanned_set_weight(setup.tasks[fj.task_id].classification, s, counting)
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 400), st.sampled_from(("ET", "TT", "mix")), st.sampled_from((2, 3)))
def test_tlt_pressure_from_tables_equals_per_job_sum(seed, trigger, cores):
    bundle = generate_workload(seed=seed, cores=cores, trigger=trigger, blocks_per_task=6,
                               collision=0.8)
    _check_tlt(prepare(bundle))


def test_tlt_pressure_across_hyperperiod_boundary():
    _check_tlt(prepare(boundary_bundle()))


def _check_tlt(setup):
    sets = range(setup.bundle.system.l2.sets)
    for key in sorted(setup.jobs):
        for counting in (COUNT_DISTINCT, COUNT_ACCESS):
            assert _tlt_pressure(setup, key, sets, counting) == _old_tlt_pressure(setup, key, sets, counting)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 400))
def test_classification_tables_equal_scans(seed):
    bundle = generate_workload(seed=seed, cores=2, collision=0.8)
    setup = prepare(bundle)
    for ta in setup.tasks.values():
        cls = ta.classification
        visible = [c for c in cls.accesses.values() if c.l2_chmc != BYPASS]
        blocks = sorted(bundle.tasks[ta.task_id].blocks)
        distinct, access = ta.weights[COUNT_DISTINCT], ta.weights[COUNT_ACCESS]
        for s in range(bundle.system.l2.sets):
            in_set = [c for c in visible if c.l2_set == s]
            if not in_set:
                assert s not in distinct and s not in access
                continue
            assert distinct[s][0] == len({c.l2_line for c in in_set})
            assert access[s][0] == len(in_set)
            for b in blocks:
                on = [c for c in in_set if c.block_id == b]
                assert distinct[s][1].get(b, 0) == len({c.l2_line for c in on})
                assert access[s][1].get(b, 0) == len(on)
