"""The safety oracle against the record-reading reference in oracles.py.

check_safety reads the trace rows, skips private-level hits and resolves
each job's claims once per call; the reference reads materialized records
and looks everything up per event.  Both must return the same violation
list, in the same order, on clean traces, under the fault injections
`verify` offers, and on a chain bound and a release broken by hand, the two
kinds no injection produces.  The reference checks TSC claims only, and TLT claims
hold on these bundles, so the lists match record for record.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from chainlat.cli import _inject_context_fault, _inject_mc_fault
from chainlat.ingest import generate_workload
from chainlat.latency import analyze_bundle
from chainlat.sim import SimConfig, check_safety, simulate

from oracles import reference_check_safety

CONFIGS = [SimConfig("random", s) for s in range(3)] + [SimConfig("worst", 0)]


def _compare(seed, tasks_per_chain, collision, trigger, fault, cores=2, traces=None):
    bundle = generate_workload(seed=seed, cores=cores, tasks_per_chain=tasks_per_chain,
                               collision=collision, trigger=trigger)
    report = analyze_bundle(bundle)
    setup = report.setup
    if fault == "mc":
        _inject_mc_fault(report, setup)
    elif fault == "context":
        _inject_context_fault(report, setup)
    flagged = 0
    for config in CONFIGS:
        trace = simulate(bundle, config, setup=setup)
        got = check_safety(trace, report, setup)
        assert got == reference_check_safety(trace, report, setup), (config, got[:3])
        flagged += len(got)
        if traces is not None:
            traces.append(trace)
    return flagged


def _most_runs(trace):
    """Most runs of consecutive block rows that one job's rows form."""
    runs = {}
    previous = None
    for row in trace.block_rows:
        job = row[1:4]
        if job != previous:
            runs[job] = runs.get(job, 0) + 1
            previous = job
    return max(runs.values())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), tasks_per_chain=st.sampled_from((1, 2)),
       collision=st.sampled_from((0.5, 0.8)), trigger=st.sampled_from(("ET", "TT", "mix")),
       fault=st.sampled_from(("none", "mc", "context")), cores=st.sampled_from((2, 4)))
def test_oracle_matches_reference(seed, tasks_per_chain, collision, trigger, fault, cores):
    flagged = _compare(seed, tasks_per_chain, collision, trigger, fault, cores)
    if fault == "none":
        assert flagged == 0


def test_split_job_runs_are_checked_identically():
    # On four cores a job's block rows arrive in several runs between other
    # cores' rows; the oracle looks the job's windows up again at each run.
    traces = []
    assert _compare(1, 2, 0.8, "mix", "context", cores=4, traces=traces) > 0
    assert max(_most_runs(trace) for trace in traces) >= 2


def test_broken_chain_bound_and_overrun_are_flagged_identically():
    # No clean trace breaks a chain bound or overruns a release, so both are
    # broken by hand: one chain's TSC MEL drops below its observed latency,
    # and the trace gains one overrun row.
    bundle = generate_workload(seed=1, cores=2, tasks_per_chain=2, collision=0.8, trigger="mix")
    report = analyze_bundle(bundle)
    setup = report.setup
    trace = simulate(bundle, SimConfig("worst", 0), setup=setup)
    assert check_safety(trace, report, setup) == []
    cid = min(setup.chains)
    chain = setup.chains[cid]
    jobs = {(j.chain_id, j.period_index, j.task_index): j for j in trace.jobs}
    latencies = [jobs[cid, k, len(chain.tasks) - 1].finish - jobs[cid, k, 0].start
                 for k in range(setup.hyper // chain.period)]
    bound = max(latencies) - 1
    report.chain_results[(cid, "TSC")].mel = bound
    first = jobs[cid, 0, 0]
    trace.overruns.append((chain.core, cid, 0, 0, first.start, first.start + 1))
    expected = [{"kind": "chain-latency", "chain": cid, "instance": k, "latency": latency, "bound": bound}
                for k, latency in enumerate(latencies) if latency > bound]
    expected.append({"kind": "deadline-overrun", "job": (cid, 0, 0),
                     "release": first.start, "actual_start": first.start + 1})
    got = check_safety(trace, report, setup)
    assert got == expected
    assert got == reference_check_safety(trace, report, setup)


def test_injected_faults_are_flagged_identically():
    # The property above may draw few flagged runs; these seeds flag both faults.
    assert _compare(1, 2, 0.8, "mix", "mc") > 0
    assert _compare(1, 2, 0.8, "mix", "context") > 0
