"""Every per-instance result against the reference composition in tests/oracles.py."""

from dataclasses import replace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainlat.ingest import generate_workload
from chainlat.latency import AnalysisOptions, analyze_bundle, prepare

from conftest import boundary_bundle
from oracles import reference_instance

OPTIONS = (
    AnalysisOptions(),
    AnalysisOptions(counting="access"),
    AnalysisOptions(et_rule="max"),
    AnalysisOptions(refinement_passes=2),
)


def _check(bundle, options):
    report = analyze_bundle(bundle, options, setup=prepare(bundle))
    setup = report.setup
    contexts = {}
    for (mode, *key), res in report.instances.items():
        wcet, refined, mc, debug = reference_instance(setup, tuple(key), mode, options, contexts)
        assert res.wcet == wcet, (mode, key)
        # Dict order is compared too: refined follows the task's access
        # order, and mc and debug follow the targets' access order.
        assert list(res.refined.items()) == list(refined.items()), (mode, key)
        assert list(res.mc.items()) == list(mc.items()), (mode, key)
        assert list(res.debug.items()) == list(debug.items()), (mode, key)


# (cores, tasks per chain, periods forced to 2000/2080): the forced periods
# give a 52,000-cycle hyperperiod of 102 jobs with jobs on both sides of
# every boundary, kept to dual-core bundles so the reference stays quick.
SHAPES = [(cores, n, False) for cores in (2, 4) for n in (1, 2, 4)] + [(2, 1, True), (2, 2, True)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400), st.sampled_from(("ET", "TT", "mix")), st.sampled_from(SHAPES),
       st.sampled_from((6, 12)), st.sampled_from(OPTIONS))
def test_instances_equal_the_reference(seed, trigger, shape, blocks, options):
    # Tasks of 12 blocks often hold ten accesses or more, so access order
    # differs from id order ("t0_a10" < "t0_a2") and the dict-order checks
    # in _check tell the two apart.
    cores, tasks_per_chain, long_hyper = shape
    bundle = generate_workload(seed=seed, cores=cores, tasks_per_chain=tasks_per_chain, trigger=trigger,
                               blocks_per_task=blocks, collision=0.8)
    if long_hyper:
        chains = [bundle.chains[cid] for cid in sorted(bundle.chains)]
        assume(all(c.period <= p for c, p in zip(chains, (2000, 2080))))
        bundle = replace(bundle, chains={c.id: replace(c, period=p) for c, p in zip(chains, (2000, 2080))})
    _check(bundle, options)


def test_boundary_instances_equal_the_reference():
    for options in OPTIONS:
        _check(boundary_bundle(), options)
