import pytest

from chainlat.cost import contract_task
from chainlat.ingest import generate_workload
from chainlat.latency import (
    MODES,
    AnalysisOptions,
    analyze_bundle,
    analyze_instance,
    hyperperiod,
    mel_et,
    mel_tt,
    prepare,
    report_to_csv_rows,
    report_to_json,
)
from chainlat.model import ChainSpec, Interval, ValidationError, WorkloadBundle

from conftest import acc, make_system, single_chain_bundle, straight_task


def test_hyperperiod_single():
    assert hyperperiod([100]) == 100


def test_hyperperiod_lcm():
    assert hyperperiod([100, 150]) == 300


def test_hyperperiod_coprime():
    assert hyperperiod([7, 13]) == 91


def test_hyperperiod_overflow_rejected():
    with pytest.raises(ValidationError):
        hyperperiod([(1 << 40) + 1, 1 << 40, ((1 << 40) + 5)])


def two_task_bundle(period=None, trigger="ET"):
    t0 = straight_task("t0", [3, 7])
    t1 = straight_task("t1", [4])
    sys1 = make_system(cores=1, period_table=(100, 300, 1000))
    chain = ChainSpec("c0", trigger, ("t0", "t1"), 0, period=period)
    return WorkloadBundle(sys1, {"t0": t0, "t1": t1}, {"c0": chain})


def _chain_jobs(setup, chain_id):
    return [job for key, job in sorted(setup.jobs.items()) if key[0] == chain_id]


def test_enumerate_instances_counts():
    bundle = two_task_bundle(period=100)
    sys2 = make_system(cores=1, period_table=(100, 300))
    # A second chain is impossible on one core; use the period table instead:
    # hyperperiod 100 -> 1 instance of 2 tasks.
    setup = prepare(bundle)
    jobs = _chain_jobs(setup, "c0")
    assert len(jobs) == 2
    assert setup.hyper == 100


def test_enumerate_instances_across_chains():
    # Periods 100 and 300 give hyperperiod 300: three instances of the
    # two-task chain, so six jobs.
    t0 = straight_task("t0", [3])
    t1 = straight_task("t1", [4])
    t2 = straight_task("t2", [5])
    sys2 = make_system(cores=2, period_table=(100, 300))
    chains = {
        "c0": ChainSpec("c0", "ET", ("t0", "t1"), 0, period=100),
        "c1": ChainSpec("c1", "ET", ("t2",), 1, period=300),
    }
    bundle = WorkloadBundle(sys2, {"t0": t0, "t1": t1, "t2": t2}, chains)
    setup = prepare(bundle)
    assert setup.hyper == 300
    assert len(_chain_jobs(setup, "c0")) == 6
    assert len(_chain_jobs(setup, "c1")) == 1


def test_enumerate_instances_tt_degenerate_releases():
    bundle = two_task_bundle(period=100, trigger="TT")
    setup = prepare(bundle)
    for job in _chain_jobs(setup, "c0"):
        assert job.release.lo == job.release.hi


def test_unschedulable_chain_rejected():
    t0 = straight_task("t0", [300])
    sys1 = make_system(cores=1, period_table=(100,))
    chain = ChainSpec("c0", "ET", ("t0",), 0, period=100)
    bundle = WorkloadBundle(sys1, {"t0": t0}, {"c0": chain})
    with pytest.raises(ValidationError, match="unschedulable"):
        prepare(bundle)


@pytest.mark.parametrize("offsets, message", [
    # t0 (CIP-WCET 10) may still run when t1 is released at 9.
    ((0, 9), "chain c0 unschedulable: task t0 at offset 0 may run 10 cycles, past the next release at 9"),
    # t1 (CIP-WCET 4) may still run when the next instance starts at 100.
    ((0, 97), "chain c0 unschedulable: task t1 at offset 97 may run 4 cycles, past the next release at 100"),
])
def test_tt_offsets_checked_against_cip_wcets(offsets, message):
    t0, t1 = straight_task("t0", [3, 7]), straight_task("t1", [4])
    sys1 = make_system(cores=1, period_table=(100,))

    def bundle(offsets, period=100):
        chain = ChainSpec("c0", "TT", ("t0", "t1"), 0, period=period, offsets=offsets)
        return WorkloadBundle(sys1, {"t0": t0, "t1": t1}, {"c0": chain})

    with pytest.raises(ValidationError) as err:
        prepare(bundle(offsets))
    assert str(err.value) == message
    # A job may end exactly at the next release.
    assert prepare(bundle((0, 10))).chains["c0"].offsets == (0, 10)
    assert prepare(bundle((0, 96))).chains["c0"].offsets == (0, 96)
    # The total-CIP check still comes first.
    with pytest.raises(ValidationError, match="total CIP-WCET 14 > period 12"):
        prepare(bundle(offsets, period=12))


def test_nct_equals_init_worst():
    bundle = single_chain_bundle(straight_task("t0", [3], accesses={0: (acc("a0", 0),)}),
                                 make_system(cores=1))
    setup = prepare(bundle)
    res = analyze_instance(setup, ("c0", 0, 0), "NCT")
    assert res.wcet == setup.tasks["t0"].cip_wcet == 3 + 30


def test_tsc_without_foreign_cores_is_exclusive():
    bundle = single_chain_bundle(straight_task("t0", [3], accesses={0: (acc("a0", 0),)}),
                                 make_system(cores=1))
    setup = prepare(bundle)
    res = analyze_instance(setup, ("c0", 0, 0), "TSC")
    assert all(v == 0 for v in res.mc.values())
    cls = setup.tasks["t0"].classification
    excl = contract_task(bundle.tasks["t0"], cls, bundle.system)
    assert res.wcet == excl.wcet


def test_mode_dominance_crafted_partial_overlap():
    # Foreign core runs two sequential task jobs; the second lies outside
    # the target's lifetime, so lifetime filtering drops it in both refined
    # modes and the window filtering can only help the block-level mode.
    sys2 = make_system(cores=2, l1_sets=1, l1_ways=1, l2_sets=4, l2_ways=4, period_table=(4000,))
    stride = 4 * 32
    t0 = straight_task("t0", [1, 20, 1], accesses={0: (acc("x1", 0),),
                                                   1: (acc("z", 32),),
                                                   2: (acc("x2", 0),)})
    t1 = straight_task("t1", [4], accesses={0: (acc("y1", stride), acc("y2", 2 * stride))})
    t2 = straight_task("t2", [400, 4], accesses={1: (acc("w1", 3 * stride), acc("w2", 5 * stride))})
    chains = {
        "c0": ChainSpec("c0", "TT", ("t0",), 0, period=4000, offsets=(0,)),
        # t2 starts at t1's CIP-WCET (64), the earliest schedulable offset.
        "c1": ChainSpec("c1", "TT", ("t1", "t2"), 1, period=4000, offsets=(0, 64)),
    }
    bundle = WorkloadBundle(sys2, {"t0": t0, "t1": t1, "t2": t2}, chains)
    report = analyze_bundle(bundle)
    tsc = report.instances[("TSC", "c0", 0, 0)]
    tlt = report.instances[("TLT", "c0", 0, 0)]
    nct = report.instances[("NCT", "c0", 0, 0)]
    assert tsc.mc["x2"] <= tlt.mc["x2"]
    assert tsc.wcet <= tlt.wcet <= nct.wcet


def test_mel_et_examples():
    assert mel_et([(10, 20)]) == (30, (30,))
    assert mel_et([(30,), (42,), (35,)]) == (42, (30, 42, 35))


def test_mel_tt_examples():
    # Tail offset 30, tail instance WCETs 25 and 28: latency peaks at 58.
    assert mel_tt([(1, 2, 25), (1, 2, 28)], (0, 10, 30)) == (58, (55, 58))
    assert mel_tt([(9,)], (0,)) == (9, (9,))


def test_rmel_is_ratio_against_nct():
    bundle = generate_workload(seed=2, cores=2, tasks_per_chain=2, collision=0.8)
    report = analyze_bundle(bundle)
    for cid in bundle.chains:
        nct = report.mel(cid, "NCT")
        for mode in ("TSC", "TLT", "NCT"):
            r = report.chain_results[(cid, mode)]
            assert r.rmel == r.mel / nct
            assert 0 < r.rmel <= 1
    assert 76 / 100 == 0.76


def test_rmel_absent_without_nct_mode():
    bundle = generate_workload(seed=2, cores=2, tasks_per_chain=1)
    report = analyze_bundle(bundle, AnalysisOptions(modes=("TSC",)))
    for (cid, mode), r in report.chain_results.items():
        assert r.rmel is None


def test_predicted_hit_ratio_formula():
    from chainlat.latency import predicted_hit_ratio, InstanceResult

    bundle = single_chain_bundle(straight_task("t0", [2], accesses={0: (acc("a0", 0), acc("a1", 2048))}),
                                 make_system(cores=1))
    setup = prepare(bundle)
    # All-miss classification: ratio 0.
    res = {("c0", 0, 0): InstanceResult("c0", 0, 0, "t0", "NCT", 0, {"a0": "NC", "a1": "NC"}, {})}
    assert predicted_hit_ratio(setup, "c0", res) == 0.0
    # One visible access refined always-hit, no loops: ratio 1 on that access.
    res = {("c0", 0, 0): InstanceResult("c0", 0, 0, "t0", "TSC", 0, {"a0": "AH", "a1": "AH"}, {})}
    assert predicted_hit_ratio(setup, "c0", res) == 1.0


def test_dominance_and_hit_ratio_on_batch():
    for seed in range(8):
        bundle = generate_workload(seed=seed, cores=2, tasks_per_chain=2, collision=0.8)
        report = analyze_bundle(bundle)
        for cid in bundle.chains:
            assert report.mel(cid, "TSC") <= report.mel(cid, "TLT") <= report.mel(cid, "NCT")
            a = report.chain_results[(cid, "TSC")].predicted_hit_ratio
            b = report.chain_results[(cid, "TLT")].predicted_hit_ratio
            if a is not None:
                assert a >= b


def test_analysis_deterministic():
    bundle = generate_workload(seed=9, cores=2, tasks_per_chain=2)
    r1 = analyze_bundle(bundle)
    r2 = analyze_bundle(bundle)
    assert report_to_json(r1, bundle) == report_to_json(r2, bundle)


def test_report_refuses_a_bundle_it_did_not_analyze():
    bundle = generate_workload(seed=9, cores=2, tasks_per_chain=2)
    report = analyze_bundle(bundle)
    # An equal bundle, parsed or generated again, is the same input.
    assert report_to_json(report, generate_workload(seed=9, cores=2, tasks_per_chain=2)) == \
        report_to_json(report, bundle)
    with pytest.raises(ValueError, match="differs from the one the report analyzed"):
        report_to_json(report, generate_workload(seed=10, cores=2, tasks_per_chain=2))


def test_parallel_matches_serial():
    bundle = generate_workload(seed=9, cores=2, tasks_per_chain=2)
    r1 = analyze_bundle(bundle, AnalysisOptions(jobs=1))
    r2 = analyze_bundle(bundle, AnalysisOptions(jobs=4))
    assert report_to_json(r1, bundle) == report_to_json(r2, bundle)


def test_parallel_workers_never_outnumber_the_instances(monkeypatch):
    # A process pool may start all its workers at the first submit, so the
    # analysis asks for at most one per job instance.  The fake pool records
    # the request and maps in-process: no process starts.
    import concurrent.futures

    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    bundle = generate_workload(seed=9, cores=2, tasks_per_chain=2)
    serial = analyze_bundle(bundle, AnalysisOptions(jobs=1))
    n = len(serial.setup.jobs)
    for jobs in (2, n, 64):
        assert _report_bytes(analyze_bundle(bundle, AnalysisOptions(jobs=jobs)), bundle) == _report_bytes(serial, bundle)
    assert asked == [2, n, n] and n < 64


def _report_bytes(report, bundle):
    tsc = {k: (r.mc, r.debug, r.refined) for k, r in sorted(report.instances.items())}
    return report_to_json(report, bundle) + repr(report_to_csv_rows(report)) + repr(tsc)


def test_reused_setup_matches_fresh_setup():
    # Counting and et_rule both change this bundle's report, so a cache that
    # kept values across options would show.
    bundle = generate_workload(seed=1, cores=2, tasks_per_chain=4, trigger="ET", collision=0.8)
    shared = prepare(bundle)
    reports = []
    for options in (AnalysisOptions(), AnalysisOptions(counting="access"), AnalysisOptions(jobs=2),
                    AnalysisOptions(et_rule="max"), AnalysisOptions(refinement_passes=2),
                    AnalysisOptions()):
        reused = _report_bytes(analyze_bundle(bundle, options, setup=shared), bundle)
        assert reused == _report_bytes(analyze_bundle(bundle, options, setup=prepare(bundle)), bundle)
        reports.append(reused)
    # The TSC runs read each foreign task's views from its TaskAnalysis.
    views = [vars(ta)["task_views"] for ta in shared.tasks.values() if "task_views" in vars(ta)]
    assert views and all(v._views for v in views) and shared.overlaps
    assert reports[1] != reports[0] and reports[3] != reports[0]


def test_jobs_on_a_memoized_setup_match_fresh_setup():
    # Workers receive the shared Setup pickled, with the contractions the
    # earlier runs memoized; each report must equal a fresh prepare's.
    bundle = generate_workload(seed=1, cores=2, tasks_per_chain=4, trigger="ET", collision=0.8)
    shared = prepare(bundle)
    for options in (AnalysisOptions(), AnalysisOptions(counting="access"),
                    AnalysisOptions(et_rule="max", refinement_passes=2)):
        fresh = _report_bytes(analyze_bundle(bundle, options, setup=prepare(bundle)), bundle)
        assert _report_bytes(analyze_bundle(bundle, options, setup=shared), bundle) == fresh
        assert sum(len(ta.plan.memo) for ta in shared.tasks.values()) > len(shared.tasks)
        options.jobs = 2
        assert _report_bytes(analyze_bundle(bundle, options, setup=shared), bundle) == fresh


def test_multipass_never_worse():
    for seed in (3, 5):
        bundle = generate_workload(seed=seed, cores=2, tasks_per_chain=2, collision=0.8)
        r1 = analyze_bundle(bundle, AnalysisOptions(refinement_passes=1))
        r2 = analyze_bundle(bundle, AnalysisOptions(refinement_passes=2))
        for cid in bundle.chains:
            assert r2.mel(cid, "TSC") <= r1.mel(cid, "TSC")


def test_access_counting_mode_still_dominates():
    from chainlat.interference import COUNT_ACCESS

    for seed in (4, 14):
        bundle = generate_workload(seed=seed, cores=2, tasks_per_chain=2, collision=0.8)
        report = analyze_bundle(bundle, AnalysisOptions(counting=COUNT_ACCESS))
        for cid in bundle.chains:
            assert report.mel(cid, "TSC") <= report.mel(cid, "TLT") <= report.mel(cid, "NCT")


def test_access_counting_never_below_distinct():
    from chainlat.interference import COUNT_ACCESS, COUNT_DISTINCT

    bundle = generate_workload(seed=4, cores=2, tasks_per_chain=2, collision=0.8)
    ra = analyze_bundle(bundle, AnalysisOptions(counting=COUNT_ACCESS))
    rd = analyze_bundle(bundle, AnalysisOptions(counting=COUNT_DISTINCT))
    for key, res in ra.instances.items():
        if key[0] != "TSC":
            continue
        for aid, v in res.mc.items():
            assert v >= rd.instances[key].mc[aid]


def test_et_max_rule_never_above_sum():
    from chainlat.interference import ET_RULE_MAX

    bundle = generate_workload(seed=8, cores=2, tasks_per_chain=4, collision=0.8, trigger="ET")
    r_sum = analyze_bundle(bundle)
    r_max = analyze_bundle(bundle, AnalysisOptions(et_rule=ET_RULE_MAX))
    for key, res in r_max.instances.items():
        if key[0] != "TSC":
            continue
        for aid, v in res.mc.items():
            assert v <= r_sum.instances[key].mc[aid]
        assert res.wcet <= r_sum.instances[key].wcet


def test_instance_wcet_never_exceeds_cip():
    bundle = generate_workload(seed=12, cores=2, tasks_per_chain=2, collision=0.8)
    report = analyze_bundle(bundle)
    for key, res in report.instances.items():
        assert res.wcet <= report.setup.tasks[res.task_id].cip_wcet


@pytest.mark.parametrize("field, value, message", [
    ("refinement_passes", 0, "AnalysisOptions.refinement_passes: 0 is not a positive integer"),
    ("counting", "lines", "AnalysisOptions.counting: 'lines' is not one of 'distinct', 'access'"),
    ("et_rule", "maximum", "AnalysisOptions.et_rule: 'maximum' is not one of 'sum', 'max'"),
    ("modes", ("TSC", "XYZ"), "AnalysisOptions.modes: 'XYZ' not among 'TSC', 'TLT', 'NCT'"),
    ("modes", (), "AnalysisOptions.modes: () selects none of 'TSC', 'TLT', 'NCT'"),
    ("jobs", 0, "AnalysisOptions.jobs: 0 is not a positive integer"),
], ids=("passes-0", "counting-lines", "et_rule-maximum", "modes-XYZ", "modes-empty", "jobs-0"))
def test_analysis_options_reject_values_the_analysis_cannot_run(field, value, message):
    # Each of these used to crash mid-analysis (passes 0, counting "lines")
    # or silently run something else (et_rule "maximum" ran the sum rule,
    # "XYZ" was dropped, jobs 0 ran sequentially); empty modes passed
    # construction and failed only in analyze_bundle.
    with pytest.raises(ValidationError) as err:
        AnalysisOptions(**{field: value})
    assert str(err.value) == message


def _cli_choices(command):
    """Flag dest -> choices, for the flags of one chainlat command that have choices."""
    import argparse

    from chainlat.cli import build_parser

    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a.choices for a in commands.choices[command]._actions if a.choices is not None}


def test_analysis_options_accept_every_cli_choice():
    from chainlat.cli import _analysis_options, _mode_tuple, build_parser

    analyze, verify = _cli_choices("analyze"), _cli_choices("verify")
    for name in ("counting", "et_rule"):
        assert verify[name] == analyze[name]
    for mode in analyze["mode"]:
        for counting in analyze["counting"]:
            for et_rule in analyze["et_rule"]:
                options = AnalysisOptions(modes=_mode_tuple(mode), counting=counting, et_rule=et_rule,
                                          refinement_passes=3, jobs=2)
                assert options.modes == _mode_tuple(mode)

    # Unset flags select the options' own defaults.
    parser = build_parser()
    args = parser.parse_args(["analyze", "--system", "s", "--tasks", "t", "--chains", "c", "--output", "o"])
    assert _analysis_options(args, _mode_tuple(args.mode)) == AnalysisOptions()
    assert _analysis_options(parser.parse_args(["verify"]), MODES) == AnalysisOptions()


def test_generator_and_fault_flags_read_their_homes():
    import inspect

    from chainlat import ingest
    from chainlat.cli import FAULTS, _generator_options, build_parser

    for command in ("generate", "verify"):
        choices = _cli_choices(command)
        assert choices["tasks_per_chain"] == ingest.TASKS_PER_CHAIN
        assert choices["trigger"] == ingest.TRIGGERS
    assert _cli_choices("verify")["inject_fault"] == ("none", *FAULTS)

    # Unset flags select generate_workload's own defaults.
    defaults = {name: p.default for name, p in inspect.signature(generate_workload).parameters.items()
                if p.default is not p.empty}
    parser = build_parser()
    generate = parser.parse_args(["generate", "--output", "o"])
    assert dict(_generator_options(generate), loop_depth=generate.loop_depth) == defaults
    verify = _generator_options(parser.parse_args(["verify"]))
    assert dict(verify, loop_depth=defaults["loop_depth"]) == defaults
