import json
import os
import time

import pytest

from chainlat import cli
from chainlat.cli import EXIT_INTERNAL, EXIT_INVALID, EXIT_OK, EXIT_UNSAFE, main
from chainlat.context import MAX_WINDOW_INTERVALS
from chainlat.latency import MAX_JOBS
from chainlat.sim import MAX_TRACE_ROWS


def _read_all(outdir):
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_generate_writes_expected_files(tmp_path):
    out = tmp_path / "w"
    rc = main(["generate", "--seed", "1", "--cores", "2", "--tasks-per-chain", "2",
               "--output", str(out)])
    assert rc == EXIT_OK
    names = sorted(os.listdir(out))
    assert "system.json" in names
    assert [n for n in names if n.startswith("chain_")] == ["chain_c0.json", "chain_c1.json"]
    assert len([n for n in names if n.startswith("task_")]) == 4
    assert "manifest.json" in names


def test_generate_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["generate", "--seed", "7", "--cores", "2", "--output"]
    assert main(args + [str(a)]) == EXIT_OK
    assert main(args + [str(b)]) == EXIT_OK
    assert _read_all(a) == _read_all(b)


def test_generate_rejects_tasks_per_chain_3(tmp_path, capsys):
    rc = main(["generate", "--seed", "1", "--tasks-per-chain", "3", "--output", str(tmp_path / "x")])
    assert rc == EXIT_INVALID


def _generated(tmp_path, seed="3"):
    out = tmp_path / ("w%s" % seed)
    main(["generate", "--seed", seed, "--cores", "2", "--output", str(out)])
    tasks = sorted(str(out / n) for n in os.listdir(out) if n.startswith("task_"))
    chains = sorted(str(out / n) for n in os.listdir(out) if n.startswith("chain_"))
    return str(out / "system.json"), tasks, chains


def test_analyze_all_modes(tmp_path):
    system, tasks, chains = _generated(tmp_path)
    out = tmp_path / "rep"
    rc = main(["analyze", "--system", system, "--tasks"] + tasks +
              ["--chains"] + chains + ["--mode", "all", "--output", str(out)])
    assert rc == EXIT_OK
    doc = json.loads((out / "report.json").read_text())
    for chain in doc["chains"]:
        assert set(chain["modes"]) == {"TSC", "TLT", "NCT"}
        assert chain["modes"]["TSC"]["rmel"] is not None
    csv_text = (out / "report.csv").read_text()
    assert csv_text.count("\n") == 1 + 3 * len(doc["chains"])


def test_analyze_single_mode_has_no_rmel(tmp_path):
    system, tasks, chains = _generated(tmp_path)
    out = tmp_path / "rep1"
    rc = main(["analyze", "--system", system, "--tasks"] + tasks +
              ["--chains"] + chains + ["--mode", "tsc", "--output", str(out)])
    assert rc == EXIT_OK
    doc = json.loads((out / "report.json").read_text())
    for chain in doc["chains"]:
        assert set(chain["modes"]) == {"TSC"}
        assert chain["modes"]["TSC"]["rmel"] is None


def test_analyze_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    rc = main(["analyze", "--system", str(bad), "--tasks", str(bad),
               "--chains", str(bad), "--output", str(tmp_path / "rep")])
    assert rc == EXIT_INVALID
    assert "bad.json" in capsys.readouterr().err


@pytest.mark.parametrize("kind,edit", [
    ("task", lambda text: json.dumps(dict(json.loads(text), blocks=[5]))),
    ("task", lambda text: json.dumps(dict(json.loads(text), blocks=[[]]))),
    ("system", lambda text: text.replace('"mem_latency": 30', '"mem_latency": Infinity')),
], ids=("block-number", "block-list", "infinity"))
def test_analyze_malformed_document_exits_2(tmp_path, capsys, kind, edit):
    system, tasks, chains = _generated(tmp_path)
    path = system if kind == "system" else tasks[0]
    with open(path) as fh:
        text = fh.read()
    bad = edit(text)
    assert bad != text
    with open(path, "w") as fh:
        fh.write(bad)
    rc = main(["analyze", "--system", system, "--tasks"] + tasks +
              ["--chains"] + chains + ["--output", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert rc == EXIT_INVALID, err
    assert os.path.basename(path) in err


@pytest.mark.parametrize("kind,field,value", [
    ("system", "mem_latency", 30.9),
    ("system", "cores", "2"),
    ("system", "base_cpi", True),
    ("chain", "core", 0.5),
    ("chain", "tasks", "t0"),
])
def test_analyze_wrong_json_type_exits_2(tmp_path, capsys, kind, field, value):
    system, tasks, chains = _generated(tmp_path)
    path = system if kind == "system" else chains[0]
    with open(path) as fh:
        doc = json.load(fh)
    doc[field] = value
    with open(path, "w") as fh:
        json.dump(doc, fh)
    rc = main(["analyze", "--system", system, "--tasks"] + tasks +
              ["--chains"] + chains + ["--output", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert rc == EXIT_INVALID, err
    assert "%s must be" % field in err and os.path.basename(path) in err


def test_analyze_deterministic_across_jobs(tmp_path):
    system, tasks, chains = _generated(tmp_path)
    outs = []
    for jobs in ("1", "8"):
        out = tmp_path / ("rep_j%s" % jobs)
        rc = main(["analyze", "--system", system, "--tasks"] + tasks +
                  ["--chains"] + chains + ["--jobs", jobs, "--output", str(out)])
        assert rc == EXIT_OK
        outs.append((out / "report.json").read_bytes() + (out / "report.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("flag,value", [("--passes", "-1"), ("--passes", "0"), ("--jobs", "-3")])
def test_analyze_rejects_non_positive_counts(tmp_path, capsys, flag, value):
    system, tasks, chains = _generated(tmp_path)
    capsys.readouterr()
    rc = main(["analyze", "--system", system, "--tasks"] + tasks + ["--chains"] + chains +
              [flag, value, "--output", str(tmp_path / "rep")])
    assert rc == EXIT_INVALID
    assert "argument %s: must be >= 1" % flag in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("flag", ["--jobs", "--seeds", "--paths-per-job", "--passes"])
def test_verify_rejects_non_positive_counts(capsys, flag):
    for value in ("0", "-3"):
        rc = main(["verify", flag, value, "--sim-policy", "random"])
        assert rc == EXIT_INVALID
        assert "argument %s: must be >= 1" % flag in capsys.readouterr().err


@pytest.mark.parametrize("policy,expected", [
    ("random", ["random", "random"]),
    ("worst", ["worst"]),
    ("both", ["random", "random", "worst"]),
])
def test_verify_runs_the_chosen_sim_policies(monkeypatch, capsys, policy, expected):
    seen = []
    real = cli.simulate

    def spy(bundle, config, setup=None):
        seen.append(config.policy)
        return real(bundle, config, setup=setup)

    monkeypatch.setattr(cli, "simulate", spy)
    rc = main(["verify", "--seeds", "1", "--paths-per-job", "2", "--sim-policy", policy])
    assert rc == EXIT_OK
    assert seen == expected


def test_analyze_debug_dumps(tmp_path):
    system, tasks, chains = _generated(tmp_path)
    out = tmp_path / "dbg"
    rc = main(["analyze", "--system", system, "--tasks"] + tasks +
              ["--chains"] + chains + ["--debug-dumps", "--simulate-hit-ratio",
               "--output", str(out)])
    assert rc == EXIT_OK
    names = set(os.listdir(out))
    assert {"contexts.csv", "interference.csv", "trace.csv"} <= names
    assert any(n.startswith("classification_") for n in names)
    header = (out / "interference.csv").read_text().splitlines()[0]
    assert header == "chain,period,task,access,set,raw_sum,after_mwis,final"


@pytest.mark.parametrize("debug", [False, True])
def test_internal_error_traceback_only_with_debug(tmp_path, capsys, monkeypatch, debug):
    system, tasks, chains = _generated(tmp_path)

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "analyze_bundle", broken)
    capsys.readouterr()
    rc = main(["--debug"] * debug + ["analyze", "--system", system, "--tasks"] + tasks +
              ["--chains"] + chains + ["--output", str(tmp_path / "rep")])
    assert rc == EXIT_INTERNAL
    err = capsys.readouterr().err
    if debug:
        assert err.startswith("Traceback (most recent call last):\n")
        assert "in broken\n" in err and "RuntimeError: boom\n" in err
        assert err.endswith("\ninternal error: RuntimeError('boom')\n")
    else:
        assert err == "internal error: RuntimeError('boom')\n"


def test_verify_small_run_passes(capsys):
    rc = main(["verify", "--seeds", "2", "--paths-per-job", "3", "--sim-policy", "both"])
    assert rc == EXIT_OK
    assert "0 violations / 2 bundles" in capsys.readouterr().out


@pytest.mark.parametrize("flags,field,value", [
    (["--counting", "access"], "counting", "access"),
    (["--et-rule", "max"], "et_rule", "max"),
    (["--passes", "2"], "refinement_passes", 2),
])
def test_verify_checks_analysis_options(capsys, monkeypatch, flags, field, value):
    # Four-task ET chains, where the counting unit and the ET rule change reports.
    seen = []
    analyze = cli.analyze_bundle

    def spy(bundle, options=None):
        seen.append(options)
        return analyze(bundle, options)

    monkeypatch.setattr(cli, "analyze_bundle", spy)
    rc = main(["verify", "--seeds", "3", "--tasks-per-chain", "4", "--trigger", "ET",
               "--collision", "0.8"] + flags)
    assert rc == EXIT_OK
    assert "0 violations / 3 bundles" in capsys.readouterr().out
    assert len(seen) == 3 and all(getattr(o, field) == value for o in seen)


def test_verify_rejects_zero_seeds(capsys):
    rc = main(["verify", "--seeds", "0"])
    assert rc == EXIT_INVALID


def test_verify_detects_injected_mc_fault(capsys):
    rc = main(["verify", "--seeds", "3", "--paths-per-job", "4",
               "--collision", "0.8", "--inject-fault", "mc"])
    assert rc == EXIT_UNSAFE


def test_verify_mc_fault_with_nothing_to_corrupt_exits_2(capsys):
    # At the default collision seeds 1-2 downgrade no access, so the mc
    # fault corrupts nothing; "0 violations" would read as a blind oracle.
    rc = main(["verify", "--seeds", "2", "--paths-per-job", "2", "--inject-fault", "mc"])
    assert rc == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --inject-fault mc corrupted nothing: no bundle had a downgraded access "
                            "(a higher --collision makes downgrades likelier)\n")


def test_verify_detects_injected_context_fault(capsys):
    rc = main(["verify", "--seeds", "2", "--paths-per-job", "3",
               "--inject-fault", "context"])
    assert rc == EXIT_UNSAFE


def test_version_flag(capsys):
    rc = main(["--version"])
    assert rc == 0


def test_module_entry_point_runs_from_source(tmp_path):
    # `python -m chainlat` must work from a checkout with only the source
    # directory on the path, without an installed `chainlat` script.
    import subprocess
    import sys

    from chainlat import __version__

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "chainlat", "--version"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout == "chainlat %s\n" % __version__


def test_verify_fault_lines_keep_their_order_and_form(capsys):
    # Random paths first, then the worst-biased one, per seed; at most five lines each.
    rc = main(["verify", "--seeds", "2", "--paths-per-job", "2", "--collision", "0.8", "--inject-fault", "mc"])
    assert rc == EXIT_UNSAFE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "seed 1 sim 0: {'kind': 'ah-miss', 'access': 't2_a2', 'cycle': 101, 'job': ('c1', 0, 0)}",
        "seed 1 sim 1: {'kind': 'ah-miss', 'access': 't2_a2', 'cycle': 101, 'job': ('c1', 0, 0)}",
        "seed 1 worst-biased: {'kind': 'ah-miss', 'access': 't2_a2', 'cycle': 101, 'job': ('c1', 0, 0)}",
        "seed 2 sim 0: {'kind': 'ah-miss', 'access': 't3_a2', 'cycle': 149, 'job': ('c1', 0, 1)}",
        "seed 2 sim 1: {'kind': 'ah-miss', 'access': 't3_a2', 'cycle': 151, 'job': ('c1', 0, 1)}",
        "seed 2 worst-biased: {'kind': 'ah-miss', 'access': 't3_a2', 'cycle': 157, 'job': ('c1', 0, 1)}",
    ]
    assert captured.out == "6 violations / 2 bundles (4 dominance checks)\n"


def test_analyze_fails_fast_on_job_explosion(tmp_path, capsys):
    # Near-coprime periods pass the hyperperiod check but would need about
    # 10^8 jobs per chain; prepare refuses before enumerating any.
    out = tmp_path / "w"
    main(["generate", "--seed", "3", "--cores", "3", "--output", str(out)])
    chains = []
    for cid, period in (("c0", 9973), ("c1", 9967), ("c2", 9949)):
        path = out / ("chain_%s.json" % cid)
        doc = json.loads(path.read_text())
        doc["period"] = period
        path.write_text(json.dumps(doc))
        chains.append(str(path))
    tasks = sorted(str(out / n) for n in os.listdir(out) if n.startswith("task_"))
    begin = time.perf_counter()
    rc = main(["analyze", "--system", str(out / "system.json"), "--tasks"] + tasks +
              ["--chains"] + chains + ["--output", str(tmp_path / "rep")])
    elapsed = time.perf_counter() - begin
    err = capsys.readouterr().err
    assert rc == EXIT_INVALID, err
    assert elapsed < 1.0
    assert err.startswith("error: hyperperiod %d needs " % (9973 * 9967 * 9949))
    assert "over the limit of %d" % MAX_JOBS in err
    for cid, period in (("c0", 9973), ("c1", 9967), ("c2", 9949)):
        assert "chain %s period %d (%d jobs)" % (cid, period, 9973 * 9967 * 9949 // period * 2) in err


def test_analyze_simulate_hit_ratio_refuses_a_walk_over_the_row_limit(tmp_path, capsys):
    # Loop bounds [1, 10^7] in t0 and periods of 10^12: the analysis takes a
    # fraction of a second, but a simulated path would walk up to 2 * 10^7
    # blocks of t0, 4 * 10^7 trace rows with their accesses.  The simulator
    # refuses before it walks any.
    system, tasks, chains = _generated(tmp_path, seed="1")
    path = next(t for t in tasks if t.endswith("task_t0.json"))
    with open(path) as fh:
        doc = json.load(fh)
    for loop in doc["loops"]:
        loop.update(min_bound=1, max_bound=10 ** 7)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    for path in chains:
        with open(path) as fh:
            doc = json.load(fh)
        doc.update(period=10 ** 12, offsets=[0, 10 ** 11])
        with open(path, "w") as fh:
            json.dump(doc, fh)
    args = ["analyze", "--system", system, "--tasks"] + tasks + ["--chains"] + chains
    assert main(args + ["--output", str(tmp_path / "plain")]) == EXIT_OK
    capsys.readouterr()
    begin = time.perf_counter()
    rc = main(args + ["--simulate-hit-ratio", "--output", str(tmp_path / "sim")])
    elapsed = time.perf_counter() - begin
    assert rc == EXIT_INVALID
    assert elapsed < 5.0
    assert capsys.readouterr().err == (
        "error: simulation walks up to 40000103 trace rows over the hyperperiod, over the limit of %d: "
        "task t0 walks up to 40000010 per job (jobs: 1), its loop t0_l0 up to 10000000 iterations\n" % MAX_TRACE_ROWS)
    assert not (tmp_path / "sim").exists()


def test_analyze_rejects_tt_offset_overrunning_the_next_release(tmp_path, capsys):
    # Seed 3's c0 is TT with period 2000 and CIP-WCETs 316 and 1484: t1 at
    # offset 1999 may still run at the next instance's release.
    system, tasks, chains = _generated(tmp_path)
    path = next(c for c in chains if c.endswith("chain_c0.json"))
    with open(path) as fh:
        doc = json.load(fh)
    assert (doc["trigger"], doc["period"], doc["offsets"]) == ("TT", 2000, [0, 316])
    doc["offsets"] = [0, 1999]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    rc = main(["analyze", "--system", system, "--tasks"] + tasks +
              ["--chains"] + chains + ["--output", str(tmp_path / "rep")])
    assert rc == EXIT_INVALID
    assert capsys.readouterr().err == ("error: chain c0 unschedulable: task t1 at offset 1999 may run 1484 "
                                       "cycles, past the next release at 2000\n")
    assert not (tmp_path / "rep").exists()


def test_analyze_nested_loop_windows_cost_the_sum_of_their_bounds(tmp_path, capsys):
    # Two nested loops of 3,000 iterations each: unnormalized, a block of the
    # inner loop would have 9 * 10^6 window intervals; normalized where each
    # level is built, the task analyzes in well under a second.
    system, tasks, chains = _generated(tmp_path)
    blocks = ("e", "h0", "h1", "t1", "t0", "x")
    edges = [("e", "h0"), ("h0", "h1"), ("h1", "t1"), ("t1", "h1"), ("t1", "t0"), ("t0", "h0"), ("t0", "x")]
    doc = {
        "task_id": "t0",
        "blocks": [{"id": "t0_" + b, "instructions": 2, "accesses": []} for b in blocks],
        "edges": [["t0_" + s, "t0_" + d] for s, d in edges],
        "loops": [{"id": "l0", "head": "t0_h0", "tail": "t0_t0", "back_edge": ["t0_t0", "t0_h0"],
                   "min_bound": 1, "max_bound": 3000},
                  {"id": "l1", "head": "t0_h1", "tail": "t0_t1", "back_edge": ["t0_t1", "t0_h1"],
                   "min_bound": 1, "max_bound": 3000, "parent": "l0"}],
        "exclusive_pairs": [],
    }
    with open(next(t for t in tasks if t.endswith("task_t0.json")), "w") as fh:
        json.dump(doc, fh)
    for path in chains:  # long enough for 9 * 10^6 inner iterations
        with open(path) as fh:
            chain = json.load(fh)
        with open(path, "w") as fh:
            json.dump(dict(chain, trigger="ET", offsets=None, period=100_000_000), fh)
    begin = time.perf_counter()
    rc = main(["analyze", "--system", system, "--tasks"] + tasks +
              ["--chains"] + chains + ["--output", str(tmp_path / "rep")])
    elapsed = time.perf_counter() - begin
    assert rc == EXIT_OK, capsys.readouterr().err
    assert elapsed < 5.0


def _nested_loop_task_doc(parents, bounds=None):
    """Task t0 of access-free blocks with nested loops l0 > l1 > ..., one per
    entry of `parents`, each loop's parent and (min, max) bound as given
    (default (1, 2))."""
    n = len(parents)
    bounds = bounds or ((1, 2),) * n
    heads = ["h%d" % i for i in range(n)]
    tails = ["t%d" % i for i in reversed(range(n))]
    path = ["e"] + heads + tails + ["x"]
    edges = list(zip(path, path[1:])) + [("t%d" % i, "h%d" % i) for i in range(n)]
    return {
        "task_id": "t0",
        "blocks": [{"id": "t0_" + b, "instructions": 2, "accesses": []} for b in path],
        "edges": [["t0_" + s, "t0_" + d] for s, d in edges],
        "loops": [{"id": "l%d" % i, "head": "t0_h%d" % i, "tail": "t0_t%d" % i,
                   "back_edge": ["t0_t%d" % i, "t0_h%d" % i], "min_bound": bounds[i][0],
                   "max_bound": bounds[i][1], "parent": parents[i]} for i in range(n)],
        "exclusive_pairs": [],
    }


@pytest.mark.parametrize("parents,bounds,message", [
    # A deterministic body: every one of its 10^8 iterations is a distinct window.
    ((None,), ((10 ** 8, 10 ** 8),),
     "error: t0: loop l0: node t0_h0 has more than %d distinct windows over 100000000 iterations\n"
     % MAX_WINDOW_INTERVALS),
    # A deterministic nest: 1,000 distinct inner starts times 1,000 inner iterations.
    ((None, "l0"), ((1000, 1000), (1000, 1000)),
     "error: t0: loop l1: node t0_h1 sums 1000 start windows with 1000 iteration windows, "
     "1000000 pairs over the limit of %d\n" % MAX_WINDOW_INTERVALS),
], ids=("loop-1e8", "nest-1000x1000"))
def test_analyze_refuses_windows_over_the_interval_limit(tmp_path, capsys, parents, bounds, message):
    system, tasks, chains = _generated(tmp_path)
    with open(next(t for t in tasks if t.endswith("task_t0.json")), "w") as fh:
        json.dump(_nested_loop_task_doc(parents, bounds), fh)
    begin = time.perf_counter()
    rc = main(["analyze", "--system", system, "--tasks"] + tasks +
              ["--chains"] + chains + ["--output", str(tmp_path / "rep")])
    elapsed = time.perf_counter() - begin
    assert rc == EXIT_INVALID
    assert capsys.readouterr().err == message
    assert elapsed < 1.0
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("parents,expected", [
    ((None, "l0", "l1"), EXIT_OK),
    ((None, None, None), EXIT_OK),  # derived from the loop bodies
    ((None, "l0", "l0"), EXIT_INVALID),  # l2's grandparent
], ids=("declared", "derived", "grandparent"))
def test_analyze_checks_loop_parents(tmp_path, capsys, parents, expected):
    system, tasks, chains = _generated(tmp_path)
    path = next(t for t in tasks if t.endswith("task_t0.json"))
    with open(path, "w") as fh:
        json.dump(_nested_loop_task_doc(parents), fh)
    rc = main(["analyze", "--system", system, "--tasks"] + tasks +
              ["--chains"] + chains + ["--output", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert rc == expected, err
    if expected == EXIT_INVALID:
        assert err == "error: %s: t0: loop l2: declared parent l0 is not its innermost enclosing loop (l1)\n" % path


def test_analyze_rejects_duplicate_back_edges(tmp_path, capsys):
    system, tasks, chains = _generated(tmp_path)
    path = next(t for t in tasks if t.endswith("task_t0.json"))
    doc = _nested_loop_task_doc((None, None, None))
    doc["loops"].append(dict(doc["loops"][2], id="l3"))  # l2's back edge again
    with open(path, "w") as fh:
        json.dump(doc, fh)
    rc = main(["analyze", "--system", system, "--tasks"] + tasks +
              ["--chains"] + chains + ["--output", str(tmp_path / "rep")])
    assert rc == EXIT_INVALID
    assert capsys.readouterr().err == \
        "error: %s: t0: loops l2 and l3 declare the same back edge t0_t2->t0_h2\n" % path


def _two_loop_task_doc(edges, loops):
    blocks = sorted({b for e in edges for b in e})
    return {"task_id": "t0", "blocks": [{"id": b, "instructions": 1} for b in blocks],
            "edges": [list(e) for e in edges],
            "loops": [{"id": lid, "head": h, "tail": t, "back_edge": [t, h], "min_bound": 1, "max_bound": 3}
                      for lid, h, t in loops]}


@pytest.mark.parametrize("edges,loops,message", [
    # Both loops end on t: the outer loop's tail lies in the inner loop.
    ((("e", "oh"), ("oh", "ih"), ("ih", "m"), ("m", "t"), ("t", "ih"), ("t", "oh"), ("t", "x")),
     (("lo", "oh", "t"), ("li", "ih", "t")), None),
    ((("e", "h"), ("h", "a"), ("a", "ti"), ("ti", "h"), ("ti", "to"), ("to", "h"), ("to", "x")),
     (("li", "h", "ti"), ("lo", "h", "to")), "loops li and lo share the head h; nested loops need distinct heads"),
    # One loop, entered past its head (b0 -> m).
    ((("b0", "h"), ("h", "m"), ("m", "t"), ("t", "h"), ("t", "x"), ("b0", "m")), (("l", "h", "t"),),
     "loop l: side entry, head h does not dominate tail t"),
    # One loop whose head is the task's first block.
    ((("a", "b"), ("b", "a"), ("b", "x")), (("l", "a", "b"),),
     "loop l: head a is the task's entry; the entry must lie outside every loop"),
], ids=("shared-tail", "shared-head", "side-entry", "entry-head"))
def test_analyze_loop_nests_sharing_a_tail_or_a_head(tmp_path, capsys, edges, loops, message):
    system, tasks, chains = _generated(tmp_path, "1")
    path = next(t for t in tasks if t.endswith("task_t0.json"))
    with open(path, "w") as fh:
        json.dump(_two_loop_task_doc(edges, loops), fh)
    out = tmp_path / "rep"
    rc = main(["analyze", "--system", system, "--tasks"] + tasks + ["--chains"] + chains + ["--output", str(out)])
    err = capsys.readouterr().err
    if message is None:
        assert rc == EXIT_OK, err
        assert (out / "report.json").exists()
    else:
        assert rc == EXIT_INVALID
        assert err == "error: %s: t0: %s\n" % (path, message)
        assert not out.exists()


@pytest.mark.parametrize("edits,message", [
    (({"trigger": "ET", "offsets": None}, {"core": 0, "trigger": "TT", "offsets": None}),
     "core 0 mixes trigger types ['ET', 'TT']"),
    (({"trigger": "ET", "period": 4000, "offsets": None},
      {"core": 0, "trigger": "ET", "period": 8000, "offsets": None}),
     "core 0 mixes explicit periods [4000, 8000]"),
    (({}, {"id": "c0"}), "duplicate chain id c0"),
    # On one core the two would merge into c0+c0 and fail later, naming no file.
    (({"trigger": "ET", "offsets": None}, {"id": "c0", "core": 0, "trigger": "ET", "offsets": None}),
     "duplicate chain id c0"),
    # Merged chains take back-to-back offsets; explicit ones would be lost.
    (({"trigger": "TT", "period": 8000, "offsets": [0, 3000]},
      {"core": 0, "trigger": "TT", "period": 8000, "offsets": [0, 3000]}),
     "core 0 merges chains with explicit offsets (c0, c1); merged chains take back-to-back offsets"),
], ids=("triggers", "periods", "chain-id", "chain-id-one-core", "tt-offsets"))
def test_analyze_chain_merge_errors_name_the_chain_files(tmp_path, capsys, edits, message):
    system, tasks, chains = _generated(tmp_path)
    for path, edit in zip(chains, edits):
        with open(path) as fh:
            doc = json.load(fh)
        with open(path, "w") as fh:
            json.dump(dict(doc, **edit), fh)
    rc = main(["analyze", "--system", system, "--tasks"] + tasks +
              ["--chains"] + chains + ["--output", str(tmp_path / "rep")])
    assert rc == EXIT_INVALID
    assert capsys.readouterr().err == "error: %s, %s: %s\n" % (chains[0], chains[1], message)


@pytest.mark.parametrize("trigger,name,edit,message", [
    ("ET", "chain_c0.json", lambda doc: doc.update(offsets=[0, 5]), "chain c0: offsets apply to TT chains only"),
    ("TT", "chain_c0.json", lambda doc: doc.update(offsets=[5, 10]), "chain c0: first offset must be 0"),
    ("mix", "chain_c0.json", lambda doc: doc.update(period=0), "chain c0: period must be >= 1"),
    ("mix", "chain_c0.json", lambda doc: doc.update(period=-5), "chain c0: period must be >= 1"),
    ("mix", "system.json", lambda doc: doc["l2"].update(sets=33), "l2: sets=33 must be a power of two"),
    ("mix", "system.json", lambda doc: doc.update(mem_latency=5), "need mem_latency > l2.hit > l1.hit"),
    # The parser's own checks; seed 1's t0 has the loop t0_l0.
    ("mix", "task_t0.json", lambda doc: doc["blocks"][1].update(id="t0_b0"), "duplicate block id t0_b0"),
    ("mix", "task_t0.json", lambda doc: doc["loops"].append(dict(doc["loops"][0])), "duplicate loop id t0_l0"),
    ("mix", "task_t0.json", lambda doc: doc["blocks"][1]["accesses"][0].update(id="t0_a0"), "duplicate access ids"),
    ("mix", "task_t0.json", lambda doc: doc["loops"][0].update(min_bound=0, max_bound=0),
     "loop t0_l0: MaxBd must be >= 1"),
    ("mix", "system.json", lambda doc: doc.update(cores=0), "core_count must be >= 1"),
    ("mix", "system.json", lambda doc: doc.update(base_cpi=0), "base_cpi must be >= 1"),
    ("mix", "system.json", lambda doc: doc.update(period_table=[4000, 2000]),
     "period_table must be strictly increasing and positive"),
    ("mix", "chain_c0.json", lambda doc: doc.update(tasks=[]), "chain c0: empty task list"),
    ("TT", "chain_c0.json", lambda doc: doc.update(offsets=[0]), "chain c0: offsets/task count mismatch"),
    ("TT", "chain_c0.json", lambda doc: doc.update(offsets=[0, -1]), "chain c0: offsets must be non-decreasing"),
    # The bundle's checks across files: a repeated task id names the later file.
    ("mix", "task_t1.json", lambda doc: doc.update(task_id="t0"), "duplicate task id t0"),
    ("mix", "chain_c0.json", lambda doc: doc.update(core=5), "chain c0 mapped to core 5 of 2"),
], ids=("et-offsets", "first-offset", "period-0", "period-negative", "l2-sets", "latencies", "block-id", "loop-id",
        "access-ids", "max-bound-0", "cores-0", "base-cpi-0", "period-table", "empty-chain", "offset-count",
        "offset-order", "task-id", "chain-core"))
def test_analyze_system_and_chain_errors_name_the_file(tmp_path, capsys, trigger, name, edit, message):
    out = tmp_path / "w"
    assert main(["generate", "--seed", "1", "--trigger", trigger, "--output", str(out)]) == EXIT_OK
    path = out / name
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    tasks = sorted(str(p) for p in out.glob("task_*.json"))
    chains = sorted(str(p) for p in out.glob("chain_*.json"))
    capsys.readouterr()
    rc = main(["analyze", "--system", str(out / "system.json"), "--tasks"] + tasks +
              ["--chains"] + chains + ["--output", str(tmp_path / "rep")])
    assert rc == EXIT_INVALID
    assert capsys.readouterr().err == "error: %s: %s\n" % (path, message)
    assert not (tmp_path / "rep").exists()


def test_analyze_merged_chain_ids_colliding_across_cores_name_every_file(tmp_path, capsys):
    # Chains a and b merge on core 0 into a+b, the id of the chain on core 2.
    out = tmp_path / "w"
    assert main(["generate", "--seed", "1", "--cores", "3", "--trigger", "ET", "--output", str(out)]) == EXIT_OK
    chains = sorted(str(p) for p in out.glob("chain_*.json"))
    for path, cid, core in zip(chains, ("a", "b", "a+b"), (0, 0, 2)):
        with open(path) as fh:
            doc = json.load(fh)
        with open(path, "w") as fh:
            json.dump(dict(doc, id=cid, core=core, period=None), fh)
    tasks = sorted(str(p) for p in out.glob("task_*.json"))
    capsys.readouterr()
    rc = main(["analyze", "--system", str(out / "system.json"), "--tasks"] + tasks +
              ["--chains"] + chains + ["--output", str(tmp_path / "rep")])
    assert rc == EXIT_INVALID
    assert capsys.readouterr().err == "error: %s: duplicate chain id a+b\n" % ", ".join(chains)
    assert not (tmp_path / "rep").exists()


def test_analyze_names_a_missing_system_file(tmp_path, capsys):
    system, tasks, chains = _generated(tmp_path)
    os.remove(system)
    capsys.readouterr()
    rc = main(["analyze", "--system", system, "--tasks"] + tasks + ["--chains"] + chains +
              ["--output", str(tmp_path / "rep")])
    assert rc == EXIT_INVALID
    assert capsys.readouterr().err == \
        "error: %s: cannot read file ([Errno 2] No such file or directory: %r)\n" % (system, system)
    assert not (tmp_path / "rep").exists()


def _analyze_edited_tt_bundle(tmp_path, name, edit):
    """Generate seed 3 with TT chains, apply `edit` to file `name` and analyze;
    returns (exit code, the edited file's path, the output directory)."""
    out = tmp_path / "w"
    assert main(["generate", "--seed", "3", "--trigger", "TT", "--output", str(out)]) == EXIT_OK
    path = out / name
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    tasks = sorted(str(p) for p in out.glob("task_*.json"))
    chains = sorted(str(p) for p in out.glob("chain_*.json"))
    rep = tmp_path / "rep"
    rc = main(["analyze", "--system", str(out / "system.json"), "--tasks"] + tasks +
              ["--chains"] + chains + ["--output", str(rep)])
    return rc, path, rep


@pytest.mark.parametrize("name,edit,field", [
    ("system.json", lambda doc: doc.update(cors=2), "cors"),
    ("system.json", lambda doc: doc["l2"].update(hits=6), "l2.hits"),
    ("task_t0.json", lambda doc: doc.update(exclusive_pair=[]), "exclusive_pair"),
    ("task_t0.json", lambda doc: doc["blocks"][0].update(instructons=7), "blocks[0].instructons"),
    ("task_t0.json", lambda doc: doc["blocks"][0]["accesses"][0].update(adress=5), "blocks[0].accesses[0].adress"),
    ("task_t0.json", lambda doc: doc["loops"][0].update(max_bond=3), "loops[0].max_bond"),
    # Two misspelled optional keys: neither may silently take its default.
    ("chain_c0.json", lambda doc: doc.update(perod=123, ofset=[0, 999]), "ofset"),
], ids=("system", "cache-level", "task", "block", "access", "loop", "chain"))
def test_analyze_refuses_unknown_keys(tmp_path, capsys, name, edit, field):
    rc, path, rep = _analyze_edited_tt_bundle(tmp_path, name, edit)
    assert rc == EXIT_INVALID
    assert capsys.readouterr().err == "error: %s: unknown key %s\n" % (path, field)
    assert not rep.exists()


def test_analyze_ignores_the_legacy_system_keys(tmp_path, capsys):
    rc, _, rep = _analyze_edited_tt_bundle(
        tmp_path, "system.json", lambda doc: doc.update(refinement_passes=3, phase3_threshold=8))
    assert rc == EXIT_OK, capsys.readouterr().err
    assert (rep / "report.json").exists()


def _set_access_address(doc, address):
    block = next(b for b in doc["blocks"] if b["id"] == "t1_b1")
    block["accesses"][0].update(id="q", address=address)


@pytest.mark.parametrize("edit,message", [
    (lambda doc: _set_access_address(doc, 2 ** 40), "access q: address out of 32-bit range"),
    (lambda doc: next(b for b in doc["blocks"] if b["id"] == "t1_b1").update(instructions=-1),
     "block t1_b1: negative instruction count"),
    (lambda doc: doc["loops"][0].update(min_bound=doc["loops"][0]["max_bound"] + 1),
     "loop t1_l0: need 0 <= MinBd <= MaxBd"),
], ids=("address", "instructions", "loop-bounds"))
def test_analyze_task_record_errors_name_the_file(tmp_path, capsys, edit, message):
    rc, path, rep = _analyze_edited_tt_bundle(tmp_path, "task_t1.json", edit)
    assert rc == EXIT_INVALID
    assert capsys.readouterr().err == "error: %s: %s\n" % (path, message)
    assert not rep.exists()


def _diamond_bundle(outdir, arm_names):
    """Two cores.  Core 0 runs t0, which reuses one line of shared-cache set 0
    across a 1,000-instruction block; four private-cache conflicts in that
    block make the reuse reach the shared cache.  Core 1 runs t1, a chain of
    20 diamonds whose arms, named by `arm_names(i)`, are declared exclusive
    and each touch their own line of set 0.  Returns the analyze arguments."""
    from chainlat.ingest import default_system, system_to_doc

    system = default_system(2)
    set0 = system.l2.sets * system.l2.line_size  # the address stride that stays in set 0
    docs = {"system.json": system_to_doc(system)}
    line = 5 * set0
    others = [{"id": "t0_a%d" % k, "address": line + 2 * k * system.l2.line_size} for k in range(1, 5)]
    docs["task_t0.json"] = {
        "task_id": "t0",
        "blocks": [{"id": "x0", "instructions": 1, "accesses": [{"id": "t0_a0", "address": line}]},
                   {"id": "x1", "instructions": 1000, "accesses": others},
                   {"id": "x2", "instructions": 1, "accesses": [{"id": "t0_a5", "address": line}]}],
        "edges": [["x0", "x1"], ["x1", "x2"]],
    }
    blocks, edges, pairs = [{"id": "j00", "instructions": 1}], [], []
    for i in range(20):
        a, z = arm_names(i)
        join = "j%02d" % (i + 1)
        blocks += [{"id": arm, "instructions": 1, "accesses": [{"id": "t1_%s" % arm, "address": (100 + 2 * i + k) * set0}]}
                   for k, arm in enumerate((a, z))]
        blocks.append({"id": join, "instructions": 1})
        edges += [["j%02d" % i, a], ["j%02d" % i, z], [a, join], [z, join]]
        pairs.append([a, z])
    docs["task_t1.json"] = {"task_id": "t1", "blocks": blocks, "edges": edges, "exclusive_pairs": pairs}
    for core in (0, 1):
        docs["chain_c%d.json" % core] = {"id": "c%d" % core, "trigger": "ET", "tasks": ["t%d" % core], "core": core}
    os.makedirs(outdir)
    for name, doc in docs.items():
        with open(os.path.join(outdir, name), "w") as fh:
            json.dump(doc, fh)
    paths = [os.path.join(outdir, n) for n in sorted(docs)]
    return (["--system", os.path.join(outdir, "system.json"), "--tasks"] + [p for p in paths if "task_" in p] +
            ["--chains"] + [p for p in paths if "chain_" in p])


def test_analyze_solves_twenty_exclusive_diamonds_whatever_their_arm_names(tmp_path, capsys):
    # Partners that sort far apart (a00 .. a19, then z00 .. z19) once made the
    # independent-set memo hold 2^20 masks; partners that sort side by side
    # (p00a, p00z, ...) never did.  Both must analyze fast, to equal results.
    reports = []
    for label, names in (("spread", lambda i: ("a%02d" % i, "z%02d" % i)),
                         ("adjacent", lambda i: ("p%02da" % i, "p%02dz" % i))):
        args = _diamond_bundle(str(tmp_path / label), names)
        out = tmp_path / ("rep-" + label)
        begin = time.perf_counter()
        rc = main(["analyze"] + args + ["--mode", "tsc", "--output", str(out)])
        elapsed = time.perf_counter() - begin
        assert rc == EXIT_OK, capsys.readouterr().err
        assert elapsed < 2.0, (label, elapsed)
        reports.append((out / "report.json").read_text())
    assert reports[0] == reports[1]
