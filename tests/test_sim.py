import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlat.cache_ai import BYPASS
from chainlat.ingest import generate_workload
from chainlat.latency import AnalysisOptions, analyze_bundle, prepare
from chainlat.model import ChainSpec, Interval, WorkloadBundle
from chainlat.sim import (
    MAX_STREAMS,
    STREAM_WORDS,
    AccessEvent,
    BlockOccurrence,
    LRUCache,
    SimConfig,
    SimTrace,
    _words,
    _word_stream,
    check_safety,
    simulate,
    simulate_exhaustive,
    trace_hit_ratio,
)

from conftest import (
    acc,
    block,
    build_task,
    diamond_loop_task,
    job_context,
    make_system,
    shared_tail_task,
    single_chain_bundle,
    straight_task,
)
from oracles import ReferenceLRU, reference_bba_time


def test_cold_access_costs_base_plus_mem(system):
    task = straight_task("t", [1], accesses={0: (acc("a0", 0),)})
    bundle = single_chain_bundle(task, make_system(cores=1))
    trace = simulate(bundle, SimConfig("random", 0))
    job = trace.jobs[0]
    assert job.finish - job.start == 1 + 30
    assert trace.accesses[0].level == "MEM"


def test_warm_line_hits_l1_within_job(system):
    task = straight_task("t", [2], accesses={0: (acc("a0", 0), acc("a1", 0))})
    bundle = single_chain_bundle(task, make_system(cores=1))
    trace = simulate(bundle, SimConfig("random", 0))
    assert [e.level for e in trace.accesses] == ["MEM", "L1"]
    job = trace.jobs[0]
    assert job.finish - job.start == 2 + 30 + 1


def test_l1_flushed_but_l2_warm_across_jobs():
    # Two instances in the hyperperiod: the second job's access misses the
    # flushed private cache but still hits the shared cache.
    sys2 = make_system(cores=1, period_table=(2000, 4000))
    task = straight_task("t", [1], accesses={0: (acc("a0", 0),)})
    chain = ChainSpec("c0", "ET", (task.id,), 0, period=2000)
    bundle = WorkloadBundle(sys2, {task.id: task}, {"c0": chain})
    setup = prepare(bundle)
    assert setup.hyper == 2000
    # Force two instances by explicit period below hyperperiod of the table.
    chain2 = ChainSpec("c0", "ET", (task.id,), 0, period=1000)
    sys3 = make_system(cores=1, period_table=(1000, 2000))
    bundle2 = WorkloadBundle(sys3, {task.id: task}, {"c0": chain2})
    trace = simulate(bundle2, SimConfig("random", 0))
    levels = [e.level for e in sorted(trace.accesses, key=lambda e: e.cycle)]
    assert levels[0] == "MEM"
    assert all(l == "L2" for l in levels[1:])


def test_lru_equivalence_with_reference():
    rng = random.Random(2)
    for _ in range(30):
        sets, ways = rng.choice([(1, 1), (2, 2), (4, 4), (8, 2)])
        sim = LRUCache(sets, ways)
        ref = ReferenceLRU(sets, ways)
        for _ in range(300):
            line = rng.randrange(40)
            assert sim.access(line) == ref.access(line)
        assert sim.snapshot() == ref.snapshot()


def test_simulation_deterministic():
    bundle = generate_workload(seed=6, cores=2, tasks_per_chain=2)
    t1 = simulate(bundle, SimConfig("random", 42))
    t2 = simulate(bundle, SimConfig("random", 42))
    assert t1.jobs == t2.jobs
    assert t1.accesses == t2.accesses
    assert t1.blocks == t2.blocks


def test_exhaustive_enumerates_all_paths(system, diamond):
    bundle = single_chain_bundle(diamond, make_system(cores=1))
    durations = []
    for trace in simulate_exhaustive(bundle):
        job = trace.jobs[0]
        durations.append(job.finish - job.start)
    assert len(durations) == 8  # one branch choice per iteration
    assert min(durations) == 49
    assert max(durations) == 58


def test_exhaustive_path_cap(monkeypatch):
    from chainlat.model import ValidationError

    monkeypatch.setattr("chainlat.sim.MAX_EXHAUSTIVE_PATHS", 3)
    task = diamond_loop_task("big")
    bundle = single_chain_bundle(task, make_system(cores=1))
    gen = simulate_exhaustive(bundle)
    with pytest.raises(ValidationError, match="exceeds 3 paths"):
        for _ in gen:
            pass


def test_exhaustive_path_cap_walks_no_tape_past_it(monkeypatch):
    # Generated seed 1 has more than two paths: two are walked and yielded,
    # then the third tape is refused unwalked.
    from chainlat import sim
    from chainlat.model import ValidationError

    monkeypatch.setattr(sim, "MAX_EXHAUSTIVE_PATHS", 2)
    run, walked = sim._run, []
    monkeypatch.setattr(sim, "_run", lambda *args: walked.append(args) or run(*args))
    yielded = 0
    with pytest.raises(ValidationError) as refused:
        for _ in simulate_exhaustive(generate_workload(seed=1)):
            yielded += 1
    assert str(refused.value) == "exhaustive simulation exceeds 2 paths"
    assert (yielded, len(walked)) == (2, 2)


def test_two_core_thrash_produces_steady_misses():
    # Both cores loop over distinct lines of one shared set; together they
    # exceed the associativity, so misses persist beyond the cold start.
    from chainlat.model import LoopNode

    sys2 = make_system(cores=2, l1_sets=1, l1_ways=1, l2_sets=4, l2_ways=4, period_table=(4000,))
    stride = 4 * 32

    def looped(tid, base):
        accesses = tuple(acc("%s_a%d" % (tid, i), (base + i) * stride) for i in range(3))
        blocks = [block("%s_b0" % tid, 1), block("%s_h" % tid, 3, accesses),
                  block("%s_t" % tid, 1), block("%s_x" % tid, 1)]
        edges = [("%s_b0" % tid, "%s_h" % tid), ("%s_h" % tid, "%s_t" % tid),
                 ("%s_t" % tid, "%s_h" % tid), ("%s_t" % tid, "%s_x" % tid)]
        loops = [LoopNode("%s_l" % tid, "%s_h" % tid, "%s_t" % tid,
                          ("%s_t" % tid, "%s_h" % tid), 8, 8)]
        return build_task(tid, blocks, edges, loops)

    t0, t1 = looped("t0", 0), looped("t1", 16)
    bundle = WorkloadBundle(
        sys2,
        {"t0": t0, "t1": t1},
        {"c0": ChainSpec("c0", "ET", ("t0",), 0), "c1": ChainSpec("c1", "ET", ("t1",), 1)},
    )
    trace = simulate(bundle, SimConfig("random", 0))
    late = [e for e in trace.accesses if e.cycle > 200 and e.level in ("L2", "MEM")]
    assert any(e.level == "MEM" for e in late)

    # Replay oracle: the shared-cache state matches an independent LRU fed
    # the same global access order.
    ref = ReferenceLRU(4, 4)
    for e in sorted([e for e in trace.accesses if e.level in ("L2", "MEM")],
                    key=lambda e: (e.cycle - (6 if e.level == "L2" else 30), e.core)):
        ref.access(_addr_of(bundle, e) // 32)
    assert trace.l2_state == ref.snapshot()


def _addr_of(bundle, event):
    task = [t for t in bundle.tasks.values() for b in t.blocks.values() for a in b.accesses if a.id == event.access_id]
    for t in bundle.tasks.values():
        for b in t.blocks.values():
            for a in b.accesses:
                if a.id == event.access_id:
                    return a.address
    raise KeyError(event.access_id)


def test_sim_config_rejects_unknown_policy_and_missing_tape():
    with pytest.raises(ValueError, match="unknown simulation policy 'wrost'"):
        SimConfig(policy="wrost")
    with pytest.raises(ValueError, match="'tape' needs a tape"):
        SimConfig(policy="tape")
    # A tape belongs to a tape walk only: a worst or random config with one
    # would otherwise run its tape's choices under another policy's name.
    for policy in ("worst", "random"):
        with pytest.raises(ValueError, match="policy '%s' takes no tape" % policy):
            SimConfig(policy, tape=[])
    assert SimConfig(policy="tape", tape=[]).tape == []


def test_trace_records_are_read_only_views_of_rows():
    task = straight_task("t", [2, 1], accesses={0: (acc("a0", 0), acc("a1", 0))})
    trace = simulate(single_chain_bundle(task, make_system(cores=1)), SimConfig("random", 0))
    assert isinstance(trace.accesses, tuple) and isinstance(trace.blocks, tuple)
    assert trace.accesses == tuple(AccessEvent(*row) for row in trace.access_rows)
    assert trace.blocks == tuple(BlockOccurrence(*row) for row in trace.block_rows)
    trace.access_rows.append((99, 0, "c0", 0, 0, "t_b1", "late", "L2", None))
    assert trace.accesses[-1].access_id == "late"  # appended rows rebuild the view


def test_simulate_and_check_build_no_records(monkeypatch):
    # The hot path reads rows only: records exist for readers who ask.
    bundle = contended_bundle()
    report = analyze_bundle(bundle)
    res = report.instances[("TSC", "c0", 0, 0)]
    res.refined["x2"] = "AH"  # a violation, so the violation paths run too

    def refuse(*args):
        raise AssertionError("record built on the simulate -> check_safety path")

    monkeypatch.setattr("chainlat.sim.AccessEvent", refuse)
    monkeypatch.setattr("chainlat.sim.BlockOccurrence", refuse)
    for config in (SimConfig("random", 0), SimConfig("worst", 0)):
        trace = simulate(bundle, config, setup=report.setup)
        assert [v["kind"] for v in check_safety(trace, report)] == ["ah-miss"]
        assert trace_hit_ratio(trace) is not None
    with pytest.raises(AssertionError, match="record built"):
        trace.accesses


def test_trace_hit_ratio_absent_without_l2_traffic():
    task = straight_task("t", [3])
    bundle = single_chain_bundle(task, make_system(cores=1))
    trace = simulate(bundle, SimConfig("random", 0))
    assert trace_hit_ratio(trace) is None


def test_trace_hit_ratio_fraction():
    trace = SimTrace()
    for i in range(3):
        trace.access_rows.append((i, 0, "c", 0, 0, "b", "a%d" % i, "L2", None))
    for i in range(7):
        trace.access_rows.append((10 + i, 0, "c", 0, 0, "b", "x%d" % i, "MEM", None))
    assert trace_hit_ratio(trace) == 0.3


def contended_bundle():
    """Deterministic TT workload where interference really evicts a line.

    Core 0 re-reads line X after a long gap; core 1 pushes two other lines
    through the same set inside that gap.  With two ways the re-read misses.
    """
    from chainlat.model import CacheLevelConfig, SystemSpec

    sys2 = SystemSpec(
        core_count=2,
        l1=CacheLevelConfig(1, 1, 32, 1),
        l2=CacheLevelConfig(4, 2, 32, 6),
        mem_latency=30,
        base_cpi=1,
        period_table=(4000,),
    )
    stride = 4 * 32
    # The set-1 access in the gap evicts line X from the one-line private
    # cache, so the re-read goes back to the shared level.
    t0 = straight_task("t0", [1, 60, 1], accesses={0: (acc("x1", 0),),
                                                   1: (acc("z", 32),),
                                                   2: (acc("x2", 0),)})
    t1 = straight_task("t1", [20, 4], accesses={1: (acc("y1", stride), acc("y2", 2 * stride),
                                                    acc("y3", 3 * stride), acc("y4", 4 * stride))})
    chains = {
        "c0": ChainSpec("c0", "TT", ("t0",), 0, period=4000, offsets=(0,)),
        "c1": ChainSpec("c1", "TT", ("t1",), 1, period=4000, offsets=(0,)),
    }
    return WorkloadBundle(sys2, {"t0": t0, "t1": t1}, chains)


def test_check_safety_clean_on_contended_bundle():
    bundle = contended_bundle()
    report = analyze_bundle(bundle)
    res = report.instances[("TSC", "c0", 0, 0)]
    assert res.refined["x2"] == "NC"  # interference forces the downgrade
    for seed in range(5):
        trace = simulate(bundle, SimConfig("random", seed), setup=report.setup)
        assert check_safety(trace, report) == []
    trace = simulate(bundle, SimConfig("worst", 0), setup=report.setup)
    assert check_safety(trace, report) == []


def test_loop_ending_on_its_parents_tail_is_analyzed_and_safe_on_every_path():
    # The nest's shared-cache set 0 also holds the foreign core's two lines.
    foreign = straight_task("f", [3], accesses={0: (acc("f0", 2048), acc("f1", 3072))})
    bundle = WorkloadBundle(make_system(cores=2), {"n": shared_tail_task(), "f": foreign},
                            {"c0": ChainSpec("c0", "ET", ("n",), 0, 2000),
                             "c1": ChainSpec("c1", "ET", ("f",), 1, 2000)})
    report = analyze_bundle(bundle)
    assert report.mel("c0", "TSC") <= report.mel("c0", "TLT") < report.mel("c0", "NCT")
    setup = report.setup
    traces = [simulate(bundle, SimConfig("worst", 0), setup=setup)]
    traces += [simulate(bundle, SimConfig("random", s), setup=setup) for s in range(20)]
    exhaustive = list(simulate_exhaustive(bundle, setup=setup))
    assert len(exhaustive) == 4 + 4 ** 2 + 4 ** 3  # 1-3 outer iterations of 1-4 inner ones
    for trace in traces + exhaustive:
        assert check_safety(trace, report, setup) == []


def test_check_safety_flags_corrupted_interference():
    bundle = contended_bundle()
    report = analyze_bundle(bundle)
    res = report.instances[("TSC", "c0", 0, 0)]
    res.refined["x2"] = "AH"  # pretend interference was zero
    res.mc["x2"] = 0
    trace = simulate(bundle, SimConfig("random", 0), setup=report.setup)
    kinds = {v["kind"] for v in check_safety(trace, report)}
    assert "ah-miss" in kinds


def test_check_safety_flags_forced_tlt_claim():
    # TLT downgrades x2 too; forcing its TLT claim back to always-hit must be
    # caught even though the TSC claim still says NC.
    bundle = contended_bundle()
    report = analyze_bundle(bundle)
    res = report.instances[("TLT", "c0", 0, 0)]
    base = report.setup.tasks["t0"].classification.accesses["x2"].l2_chmc
    assert (base, res.refined["x2"]) == ("AH", "NC")
    res.refined["x2"] = "AH"
    trace = simulate(bundle, SimConfig("random", 0), setup=report.setup)
    found = check_safety(trace, report)
    assert [(v["kind"], v["access"], v.get("mode")) for v in found] == [("ah-miss", "x2", "TLT")]
    assert found[0]["job"] == ("c0", 0, 0)
    res.refined["x2"] = "PS"  # one miss per scope entry is allowed
    assert check_safety(trace, report) == []
    # A second miss in the same scope breaks the claim of each mode that
    # makes it, counted per mode.
    report.instances[("TSC", "c0", 0, 0)].refined["x2"] = "PS"
    miss = next(row for row in trace.access_rows if row[6] == "x2")
    assert miss[7] == "MEM"
    trace.access_rows.append(miss)
    assert check_safety(trace, report) == [
        {"kind": "ps-extra-miss", "access": "x2", "scope": None, "count": 2},
        {"kind": "ps-extra-miss", "access": "x2", "scope": None, "count": 2, "mode": "TLT"},
    ]


def test_check_safety_flags_a_claimed_private_hit_that_reaches_the_shared_cache():
    # Claim that the first access to reach the shared cache always hits the
    # private level: that row breaks the claim, whatever its mode maps say.
    bundle = generate_workload(seed=1, collision=0.8)
    report = analyze_bundle(bundle)
    setup = report.setup
    trace = simulate(bundle, SimConfig("worst", 0), setup=setup)
    assert check_safety(trace, report) == []
    _, _, cid, k, i, _, aid, _, _ = next(row for row in trace.access_rows if row[7] != "L1")
    accesses = setup.tasks[setup.jobs[cid, k, i].task_id].classification.accesses
    accesses[aid] = accesses[aid]._replace(l2_chmc=BYPASS)
    assert check_safety(trace, report) == [{"kind": "l1-ah-miss", "access": "t0_a0", "cycle": 31}]


def test_check_safety_flags_shrunken_window():
    from chainlat.model import Interval as Iv

    bundle = contended_bundle()
    report = analyze_bundle(bundle)
    ctx = report.setup.tasks["t0"].ctx
    lo, _ = ctx.bbrp["t0_b2"][0]
    ctx.bbrp["t0_b2"] = (Iv(lo, lo),)  # claim the block ends instantly
    trace = simulate(bundle, SimConfig("random", 0), setup=report.setup)
    kinds = {v["kind"] for v in check_safety(trace, report)}
    assert "context-coverage" in kinds


def test_oracle_sees_a_window_replaced_after_the_analysis_read_it():
    # t1's gap block is a foreign interferer of t0's re-read, so the
    # analysis built its view in t1's task time.  A window replaced
    # afterwards must be what the oracle reads, not the one the analysis saw.
    bundle = contended_bundle()
    report = analyze_bundle(bundle)
    ctx = report.setup.tasks["t1"].ctx
    assert "t1_b1" in report.setup.tasks["t1"].task_views._views
    lo, _ = ctx.bbrp["t1_b1"][0]
    ctx.bbrp["t1_b1"] = ((lo, lo),)  # claim the block ends instantly
    trace = simulate(bundle, SimConfig("random", 0), setup=report.setup)
    assert [v["block"] for v in check_safety(trace, report) if v["kind"] == "context-coverage"] == ["t1_b1"]


windows = st.lists(st.tuples(st.integers(-50, 500), st.integers(0, 60)), min_size=1, max_size=12).map(
    lambda pairs: tuple((lo, lo + d) for lo, d in pairs))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.sampled_from(("ET", "TT", "mix")), st.data())
def test_job_and_oracle_windows_are_the_release_plus_the_relative_window(seed, trigger, data):
    # Every absolute window comes from TaskContext.bba_times, which the
    # oracle calls once per job and a block view once per block: all equal
    # normalize(release + bbrp[node]) for every job and node of a generated
    # bundle.  A few relative windows are first replaced by arbitrary
    # sequences, sorted or not, overlapping or touching.
    bundle = generate_workload(seed=seed, cores=2, trigger=trigger)
    report = analyze_bundle(bundle, AnalysisOptions(modes=("TSC",)))
    setup = report.setup
    for tid in data.draw(st.lists(st.sampled_from(sorted(setup.tasks)), max_size=2)):
        bbrp = setup.tasks[tid].ctx.bbrp
        bbrp[data.draw(st.sampled_from(sorted(bbrp)))] = data.draw(windows)
    widths = set()
    for key, job in sorted(setup.jobs.items()):
        jctx = job_context(setup, key)
        ctx = setup.tasks[job.task_id].ctx
        widths.add(job.release.hi - job.release.lo)
        nodes = sorted(ctx.bbrp)
        assert ctx.bba_times(nodes, job.release) == {
            node: reference_bba_time(job.release, ctx.bbrp[node]) for node in nodes}
        for bid in sorted(ctx.task.blocks):
            expected = reference_bba_time(job.release, ctx.bbrp[bid])
            assert jctx.block_view(bid)[0] == expected
    if trigger == "ET":
        assert max(widths) > 0
    # The oracle keeps one window map per job, over all of its task's blocks.
    check_safety(simulate(bundle, SimConfig("random", 0), setup=setup), report)
    assert setup.oracle_windows
    for key, job_windows in setup.oracle_windows.items():
        job = setup.jobs[key]
        ctx = setup.tasks[job.task_id].ctx
        assert job_windows == {bid: reference_bba_time(job.release, ctx.bbrp[bid]) for bid in ctx.task.blocks}


@pytest.mark.parametrize("modes", [("TLT",), ("TLT", "NCT"), ("NCT",)])
def test_check_safety_refuses_report_without_tsc(modes):
    # A report without TSC results used to certify any trace, even with
    # every bound zeroed.
    bundle = contended_bundle()
    report = analyze_bundle(bundle, AnalysisOptions(modes=modes))
    for res in report.instances.values():
        res.wcet = 0
    trace = simulate(bundle, SimConfig("random", 0), setup=report.setup)
    with pytest.raises(ValueError, match="needs TSC results; the report has modes %s" % ", ".join(sorted(modes))):
        check_safety(trace, report)


def test_check_safety_reads_report_edits_between_checks():
    # The demo's order: certify a trace, corrupt one refined class, check the
    # same trace on the same Setup again.
    bundle = contended_bundle()
    report = analyze_bundle(bundle)
    trace = simulate(bundle, SimConfig("random", 0), setup=report.setup)
    assert check_safety(trace, report) == []
    res = report.instances[("TSC", "c0", 0, 0)]
    res.refined["x2"] = "AH"
    kinds = {v["kind"] for v in check_safety(trace, report)}
    assert "ah-miss" in kinds
    res.refined["x2"] = "NC"
    assert check_safety(trace, report) == []
    res.wcet = 1
    assert "job-latency" in {v["kind"] for v in check_safety(trace, report)}


def test_reports_from_different_options_on_one_setup_match_fresh_prepares():
    from chainlat.cli import _inject_mc_fault
    bundle = generate_workload(seed=1, cores=2, tasks_per_chain=4, trigger="ET", collision=0.8)
    options = [AnalysisOptions(), AnalysisOptions(counting="access"), AnalysisOptions(et_rule="max")]
    setup = prepare(bundle)
    shared = [analyze_bundle(bundle, o, setup=setup) for o in options]
    fresh = [analyze_bundle(bundle, o) for o in options]
    for report in shared[1:] + fresh[1:]:
        assert _inject_mc_fault(report, report.setup)  # verdicts worth comparing
    configs = [SimConfig("random", s) for s in range(4)] + [SimConfig("worst", 0)]
    flagged = 0
    for cfg in configs:
        trace = simulate(bundle, cfg, setup=setup)
        for mine, theirs in zip(shared, fresh):
            got = check_safety(trace, mine, setup)
            assert got == check_safety(simulate(bundle, cfg, setup=theirs.setup), theirs)
            flagged += len(got)
    assert flagged


# Random walks draw from per-key word streams: the 32-bit words of
# random.Random(key), shared process-wide by a bounded memo.

@pytest.mark.parametrize("key", ["", "5|c1/2/0", "0|c0/0/1"])
def test_a_jobs_words_are_cpythons_32_bit_outputs_past_the_kept_stream(key):
    words = list(itertools.islice(_words(key), 3 * STREAM_WORDS + 5))
    ref = random.Random(key)
    assert words == [ref.getrandbits(32) for _ in words]


def test_a_job_reading_past_the_kept_stream_leaves_one_memo_entry():
    _word_stream.cache_clear()
    words = list(itertools.islice(_words("7|c0/1/2"), 3 * STREAM_WORDS + 5))
    assert len(words) == 3 * STREAM_WORDS + 5
    assert _word_stream.cache_info().currsize == 1


def test_simulate_is_independent_of_the_stream_memo():
    bundle = generate_workload(seed=6, cores=2, tasks_per_chain=2)
    setup = prepare(bundle)
    first = simulate(bundle, SimConfig("random", 3), setup=setup)
    _word_stream.cache_clear()
    again = simulate(bundle, SimConfig("random", 3), setup=setup)
    assert (first.jobs, first.access_rows, first.block_rows) == (again.jobs, again.access_rows, again.block_rows)


def test_a_campaign_over_more_keys_than_the_memo_holds_stays_bounded_and_exact():
    from oracles import reference_simulate

    bundle = generate_workload(seed=6, cores=2, tasks_per_chain=2)
    setup = prepare(bundle)
    seeds = range(MAX_STREAMS // len(setup.jobs) + 50)  # more job keys than the memo holds

    def campaign(order):
        return {s: simulate(bundle, SimConfig("random", s), setup=setup) for s in order}

    _word_stream.cache_clear()
    first = campaign(seeds)
    info = _word_stream.cache_info()
    assert info.misses > MAX_STREAMS >= info.currsize
    again = campaign(reversed(seeds))  # evicted keys are seeded afresh
    assert _word_stream.cache_info().currsize <= MAX_STREAMS
    for s in seeds:
        assert (first[s].jobs, first[s].access_rows) == (again[s].jobs, again[s].access_rows)
    for s in (seeds[0], seeds[-1]):
        ref = reference_simulate(setup, "random", s)
        assert (first[s].jobs, first[s].access_rows, first[s].block_rows) == (ref.jobs, ref.access_rows,
                                                                              ref.block_rows)


# The largest walk of a hyperperiod: every loop at its upper bound.

def _two_period_bundle():
    """Chain c0 runs the shared-tail nest twice per hyperperiod, c1 a one-block task once.

    A job of the nest walks at most e, x, 3 oh and 3 * 4 of each of ih, m and t,
    41 blocks of one access each: 82 trace rows.
    """
    foreign = straight_task("f", [3], accesses={0: (acc("f0", 2048),)})
    return WorkloadBundle(make_system(cores=2), {"n": shared_tail_task(), "f": foreign},
                          {"c0": ChainSpec("c0", "ET", ("n",), 0, 2000),
                           "c1": ChainSpec("c1", "ET", ("f",), 1, 4000)})


def test_simulate_refuses_a_walk_over_the_row_limit_before_walking(monkeypatch):
    from chainlat.model import ValidationError

    bundle = _two_period_bundle()
    monkeypatch.setattr("chainlat.sim.MAX_TRACE_ROWS", 165)  # two jobs of 82 rows and one of 2
    setup = prepare(bundle)
    message = ("simulation walks up to 166 trace rows over the hyperperiod, over the limit of 165: "
               "task n walks up to 82 per job (jobs: 2), its loop li up to 4 iterations")
    for config in (SimConfig("random", 0), SimConfig("worst", 0), SimConfig("tape", tape=[1])):
        with pytest.raises(ValidationError) as exc:
            simulate(bundle, config, setup=setup)
        assert str(exc.value) == message
    with pytest.raises(ValidationError) as exc:
        next(simulate_exhaustive(bundle, setup=setup))
    assert str(exc.value) == message
    assert setup.walks == {}  # nothing built, nothing walked

    monkeypatch.setattr("chainlat.sim.MAX_TRACE_ROWS", 166)
    for config in (SimConfig("random", 0), SimConfig("worst", 0)):
        assert simulate(bundle, config, setup=setup).jobs
    assert next(simulate_exhaustive(bundle, setup=setup)).jobs


def test_a_loop_range_of_32_bits_is_refused_before_any_draw():
    # A random draw takes one 32-bit word per try, so a loop range of 2**32
    # must never reach the walker: its head alone walks up to 2**32 rows.
    from chainlat.model import LoopNode, ValidationError
    from chainlat.sim import MAX_TRACE_ROWS

    blocks = [block("e", 1), block("h", 1, (acc("h0", 32),)), block("t", 1), block("x", 1)]
    edges = [("e", "h"), ("h", "t"), ("t", "h"), ("t", "x")]
    task = build_task("t", blocks, edges, [LoopNode("l", "h", "t", ("t", "h"), 1, 2 ** 32)])
    bundle = single_chain_bundle(task, make_system(cores=1, period_table=(10 ** 12,)))
    setup = prepare(bundle)
    with pytest.raises(ValidationError, match="its loop l up to 4294967296 iterations"):
        simulate(bundle, SimConfig("random", 0), setup=setup)
    assert setup.walks == {}
    assert MAX_TRACE_ROWS < 2 ** 32


def test_a_long_random_job_reads_each_word_in_constant_time():
    # About 50,000 iterations of a two-armed branch read a word per draw.  A
    # read that copies the rest of the job's stream makes this job quadratic,
    # over ten times slower than a constant-time read.
    from chainlat.model import LoopNode

    blocks = [block("e", 1), block("h", 1, (acc("h0", 32),)), block("a", 1, (acc("a0", 64),)),
              block("b", 2, (acc("b0", 96),)), block("t", 1), block("x", 1)]
    edges = [("e", "h"), ("h", "a"), ("h", "b"), ("a", "t"), ("b", "t"), ("t", "h"), ("t", "x")]
    task = build_task("t", blocks, edges, [LoopNode("l", "h", "t", ("t", "h"), 50_000, 50_001)])
    bundle = single_chain_bundle(task, make_system(cores=1, period_table=(10 ** 9,)))
    setup = prepare(bundle)
    begin = time.perf_counter()
    trace = simulate(bundle, SimConfig("random", 0), setup=setup)
    elapsed = time.perf_counter() - begin
    assert len(trace.block_rows) >= 3 * 50_000
    assert elapsed < 2.0
