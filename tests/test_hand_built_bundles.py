"""Two hand-built dual-core bundles whose tail block window reaches the cap.

A code block's window longer than PHASE3_THRESHOLD intervals bridges its
narrowest gaps where it is built.  No generated bundle has such a window,
so these workload files under tests/data pin the cap:

- coarsening_tt: core 0's task p runs a 1-4-iteration loop whose body
  touches five lines of one private-cache set, four of them filling
  shared set 0, so all five are persistent (PS) targets.  Core 1's task f
  runs 1,100 iterations of a 100,000-instruction head and a
  one-instruction tail that touches shared set 0.  Both chains are TT, so
  the tail's absolute window would keep one interval per iteration; the
  cap keeps 1,024 of them, bridging the 76 narrowest gaps.  p's loop
  meets the tail's loop envelope but none of those intervals, so TSC
  charges no target any interference from f, while TLT does.
- wide_release_et: the same tasks on ET chains, with a task q whose loop
  may run no iteration before f.  f's release window is then wider than
  the gaps between the tail's iterations, so the tail's absolute window
  is one interval, as it is without the cap: every gap the cap bridged
  would have merged anyway.

In both bundles every task is read through its task-time views.  Each
bundle's report.json was recorded by ``chainlat analyze`` with the
default options.
"""

import os

import pytest

from chainlat.cache_ai import AH, PS
from chainlat.cli import main
from chainlat.context import PHASE3_THRESHOLD
from chainlat.ingest import parse_workload
from chainlat.latency import analyze_bundle, prepare
from chainlat.overlap import hierarchical_overlap, normalize
from chainlat.sim import SimConfig, check_safety, simulate

from conftest import job_context, shift_view, target_view
from oracles import reference_windows

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
BUNDLES = ("coarsening_tt", "wide_release_et")


def _paths(name):
    """(system file, task files, chain files) of a bundle under tests/data."""
    d = os.path.join(DATA, name)
    files = sorted(os.listdir(d))
    return (os.path.join(d, "system.json"),
            [os.path.join(d, f) for f in files if f.startswith("task_")],
            [os.path.join(d, f) for f in files if f.startswith("chain_")])


@pytest.mark.parametrize("name", BUNDLES)
def test_report_matches_recorded_bytes_and_paths_are_safe(tmp_path, name):
    system, tasks, chains = _paths(name)
    argv = ["analyze", "--system", system, "--tasks", *tasks, "--chains", *chains, "--output", str(tmp_path)]
    assert main(argv) == 0
    with open(tmp_path / "report.json", "rb") as got, open(os.path.join(DATA, name, "report.json"), "rb") as want:
        assert got.read() == want.read()
    bundle = parse_workload(system, tasks, chains)
    report = analyze_bundle(bundle)
    for config in [SimConfig("random", seed) for seed in range(3)] + [SimConfig("worst", 0)]:
        assert check_safety(simulate(bundle, config, setup=report.setup), report) == [], config


@pytest.mark.parametrize("name", BUNDLES)
def test_task_time_verdicts_equal_absolute_verdicts(name):
    # The analysis reads f, the task with the capped window, through its
    # task-time views like any other.  For every target, foreign job,
    # hyperperiod shift and block, the task-time query gives the verdict
    # and phase of a fresh absolute JobContext.
    bundle = parse_workload(*_paths(name))
    setup = analyze_bundle(bundle).setup
    assert "task_views" in vars(setup.tasks["f"])
    h, tested = setup.hyper, 0
    for key, job in sorted(setup.jobs.items()):
        core = setup.chains[job.chain_id].core
        for cls in setup.tasks[job.task_id].classification.visible():
            if cls.l2_chmc not in (AH, PS):
                continue
            ((lo, hi),), = target_view(setup, key, cls.access_id)
            for fkey, fjob in sorted(setup.jobs.items()):
                if setup.chains[fjob.chain_id].core == core:
                    continue
                relative, absolute = setup.tasks[fjob.task_id].task_views, job_context(setup, fkey)
                rlo, rhi = fjob.release
                for shift in (-h, 0, h):
                    query = (((lo - shift - rhi, hi - shift - rlo),),)
                    for bid in sorted(bundle.tasks[fjob.task_id].blocks):
                        got = hierarchical_overlap(query, relative.block_view(bid))
                        want = hierarchical_overlap(shift_view((((lo, hi),),), -shift), absolute.block_view(bid))
                        assert (got.result, got.decided_at) == (want.result, want.decided_at), (key, fkey, bid)
                        tested += 1
    assert tested


def _tail(name):
    """The Setup, f's job key, the tail's 1,100 iteration windows, its
    capped relative window and its absolute view."""
    setup = prepare(parse_workload(*_paths(name)))
    key = next(k for k, job in setup.jobs.items() if job.task_id == "f")
    ta = setup.tasks["f"]
    iterations = normalize(reference_windows(ta.contracted_init)[0]["f_t"])
    return setup, key, iterations, ta.ctx.bbrp["f_t"], job_context(setup, key).block_view("f_t")


def _covers(window, outer):
    return all(any(olo <= lo and hi <= ohi for olo, ohi in outer) for lo, hi in window)


def test_tt_tail_is_capped_and_keeps_its_precision():
    setup, key, iterations, relative, view = _tail("coarsening_tt")
    assert len(iterations) == 1100 and len(relative) == PHASE3_THRESHOLD
    assert _covers(iterations, relative)
    assert len(view[0]) == PHASE3_THRESHOLD
    # The first target's window meets the loop envelope but no interval
    # of the capped tail window.
    tv = target_view(setup, ("c0", 0, 0), "p_a0")
    verdict = hierarchical_overlap(tv, view)
    assert not verdict.result and verdict.decided_at == "block"


def test_et_tail_window_merges_under_the_release_window():
    setup, key, iterations, relative, view = _tail("wide_release_et")
    release = setup.jobs[key].release
    assert release.hi - release.lo > 100_001  # wider than a tail iteration's gap
    assert len(iterations) == 1100 and len(relative) == PHASE3_THRESHOLD
    assert _covers(iterations, relative)
    assert len(view[0]) == 1 <= PHASE3_THRESHOLD
