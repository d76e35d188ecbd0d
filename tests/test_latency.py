import pytest

from chainlat.cost import WORST, contract_task
from chainlat.ingest import generate_workload
from chainlat.latency import (
    AnalysisOptions,
    analyze_bundle,
    analyze_instance,
    hyperperiod,
    mel_et,
    mel_tt,
    prepare,
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
    excl = contract_task(bundle.tasks["t0"], cls, bundle.system, worst_mode=WORST)
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
        "c1": ChainSpec("c1", "TT", ("t1", "t2"), 1, period=4000, offsets=(0, 40)),
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


def test_parallel_matches_serial():
    bundle = generate_workload(seed=9, cores=2, tasks_per_chain=2)
    r1 = analyze_bundle(bundle, AnalysisOptions(jobs=1))
    r2 = analyze_bundle(bundle, AnalysisOptions(jobs=4))
    assert report_to_json(r1, bundle) == report_to_json(r2, bundle)


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
