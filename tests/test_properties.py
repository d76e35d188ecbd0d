"""Property tests: the eviction condition, the all-miss map and end-to-end soundness."""

from hypothesis import given, settings
from hypothesis import strategies as st

from chainlat.cache_ai import AH, BYPASS, NC, PS, AccessClassification, all_miss, classify_task, refine_chmc
from chainlat.ingest import generate_workload
from chainlat.interference import COUNT_ACCESS, COUNT_DISTINCT, ET_RULE_MAX, ET_RULE_SUM
from chainlat.latency import MODES, AnalysisOptions, analyze_bundle
from chainlat.sim import SimConfig, check_safety, simulate


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((AH, PS, NC, BYPASS)), st.sampled_from((1, 2, 4, 8, 16)), st.data())
def test_refine_chmc_is_monotone_in_interference(chmc, ways, data):
    age = data.draw(st.integers(1, ways)) if chmc in (AH, PS) else None
    cls = AccessClassification("a", "b", NC if chmc != BYPASS else AH, chmc, age, 0, 0)
    low = data.draw(st.integers(0, 3 * ways))
    high = low + data.draw(st.integers(0, 3 * ways))
    at_low, at_high = refine_chmc(cls, low, ways), refine_chmc(cls, high, ways)
    # More interference never upgrades an access, and refinement only downgrades to NC.
    assert at_low in (chmc, NC)
    assert at_high == at_low or at_high == NC
    assert refine_chmc(cls, 0, ways) == chmc


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from((0.2, 0.8)), st.integers(0, 8))
def test_all_miss_is_refinement_at_full_interference(seed, collision, extra):
    bundle = generate_workload(seed=seed, cores=1, collision=collision)
    ways = bundle.system.l2.ways
    for task in bundle.tasks.values():
        cls = classify_task(task, bundle.system)
        miss = all_miss(cls)
        assert set(miss) == set(cls.accesses)
        for aid, c in cls.accesses.items():
            if c.l2_chmc in (AH, PS):
                assert miss[aid] == refine_chmc(c, ways + extra, ways) == NC
            else:
                assert miss[aid] == c.l2_chmc


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 3),
    st.sampled_from(("ET", "TT", "mix")),
    st.sampled_from((0.0, 0.3, 0.5, 0.8, 1.0)),
    st.sampled_from((COUNT_DISTINCT, COUNT_ACCESS)),
    st.sampled_from((ET_RULE_SUM, ET_RULE_MAX)),
    st.integers(0, 1_000),
)
def test_bounds_are_sound_and_ordered(seed, cores, trigger, collision, counting, et_rule, path_seed):
    bundle = generate_workload(seed=seed, cores=cores, trigger=trigger, collision=collision,
                               blocks_per_task=6)
    report = analyze_bundle(bundle, AnalysisOptions(counting=counting, et_rule=et_rule))
    for key, tsc in report.instances.items():
        if key[0] == "TSC":
            tlt = report.instances[("TLT",) + key[1:]]
            nct = report.instances[("NCT",) + key[1:]]
            assert tsc.wcet <= tlt.wcet <= nct.wcet, key
    for cid in bundle.chains:
        tsc, tlt, nct = (report.mel(cid, mode) for mode in MODES)
        assert tsc <= tlt <= nct, cid
    configs = (SimConfig("worst", 0), SimConfig("random", path_seed), SimConfig("random", path_seed + 1))
    for config in configs:
        trace = simulate(bundle, config, setup=report.setup)
        assert check_safety(trace, report) == [], (config, seed)
