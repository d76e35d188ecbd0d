"""Two hand-built dual-core bundles that reach the block phase's coarsening.

A block window longer than PHASE3_THRESHOLD intervals falls back to the
window of an enclosing loop.  No generated bundle has such a window, so
these workload files under tests/data pin the path:

- coarsening_tt: core 0's task p runs a 1-4-iteration loop whose body
  touches five lines of one private-cache set, four of them filling
  shared set 0, so all five are persistent (PS) targets.  Core 1's task f
  runs 1,100 iterations of a 100,000-instruction head and a
  one-instruction tail that touches shared set 0.  Both chains are TT, so
  the tail's absolute window keeps one interval per iteration, and the
  block phase compares the loop envelope instead: the envelope meets p's
  loop, so the four set-0 targets are downgraded, which no tail
  iteration's own window would do.
- wide_release_et: the same tasks on ET chains, with a task q whose loop
  may run no iteration before f.  f's release window is then wider than
  the gaps between the tail's iterations, so the tail's absolute window
  is one interval while its relative window keeps 1,100: a test in task
  time would coarsen where the absolute test does not.  So the analysis
  reads f's blocks through each job's absolute views in both bundles.

Each bundle's report.json was recorded by ``chainlat analyze`` with the
default options, before the block views lost their job lifetimes.
"""

import os

import pytest

from chainlat.cli import main
from chainlat.ingest import parse_workload
from chainlat.latency import analyze_bundle, prepare
from chainlat.overlap import PHASE3_THRESHOLD, hierarchical_overlap, window_within
from chainlat.sim import SimConfig, check_safety, simulate

from conftest import job_context, target_view

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
def test_only_the_task_with_a_long_level_keeps_absolute_views(name):
    setup = prepare(parse_workload(*_paths(name)))
    assert len(setup.tasks["f"].ctx.bbrp["f_t"]) > PHASE3_THRESHOLD
    assert {tid for tid, ta in setup.tasks.items() if ta.task_views is None} == {"f"}


def _tail(name):
    """The Setup, f's job key, and the tail's relative window and absolute view."""
    setup = prepare(parse_workload(*_paths(name)))
    key = next(k for k, job in setup.jobs.items() if job.task_id == "f")
    return setup, key, setup.tasks["f"].ctx.bbrp["f_t"], job_context(setup, key).block_view("f_t")


def test_tt_tail_takes_the_coarsening_path():
    setup, key, _, view = _tail("coarsening_tt")
    assert len(view[0]) == 1100 > PHASE3_THRESHOLD
    assert window_within(view, PHASE3_THRESHOLD) == view[-1]  # the loop envelope
    # The envelope meets the first target's window; no tail iteration does.
    tv = target_view(setup, ("c0", 0, 0), "p_a0")
    assert hierarchical_overlap(tv, view).result
    assert not hierarchical_overlap(tv, view, threshold=len(view[0])).result


def test_et_tail_window_merges_under_the_release_window():
    setup, key, relative, view = _tail("wide_release_et")
    release = setup.jobs[key].release
    assert release.hi - release.lo > 100_001  # wider than a tail iteration's gap
    assert len(relative) == 1100
    assert len(view[0]) == 1 <= PHASE3_THRESHOLD
