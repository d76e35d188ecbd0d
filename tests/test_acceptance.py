"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy criteria state
their own budgets; the whole module is sized to finish in a few minutes.
"""

import random
import time

import numpy as np
import pytest

from chainlat.cache_ai import AccessClassification, classify_task, refine_chmc
from chainlat.context import TaskContext, compute_bbo_time
from chainlat.cost import contract_task
from chainlat.ingest import generate_workload
from chainlat.interference import ExclusionGraph, mwis_bound
from chainlat.latency import AnalysisOptions, analyze_bundle
from chainlat.model import (
    BasicBlock,
    ChainSpec,
    Interval,
    LoopNode,
    MemAccess,
    TaskGraph,
    WorkloadBundle,
    validate_task_graph,
)
from chainlat.overlap import seq_overlap
from chainlat.sim import SimConfig, check_safety, simulate, simulate_exhaustive

from conftest import diamond_loop_task, make_system
from oracles import brute_force_mwis


import conftest


def _ok(n, msg):
    line = "ACCEPTANCE %02d PASS: %s" % (n, msg)
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)  # echoed in the terminal summary


# ---------------------------------------------------------------------------
# Criteria 1 and 2: simulation safety and mode dominance over 100 bundles


def _bundle_params(seed):
    return dict(
        seed=seed,
        cores=2,
        tasks_per_chain=(1, 2, 4)[seed % 3],
        blocks_per_task=8,
        loop_depth=2,
        utilization=(0.9, 0.5)[seed % 2],
        collision=(0.3, 0.5, 0.8)[seed % 3],
    )


@pytest.fixture(scope="module")
def safety_batch():
    reports = []
    for seed in range(100):
        bundle = generate_workload(**_bundle_params(seed))
        reports.append((seed, bundle, analyze_bundle(bundle)))
    return reports


def test_criterion_01_simulation_safety(safety_batch):
    started = time.perf_counter()
    violations = []
    for seed, bundle, report in safety_batch:
        for path_seed in range(50):
            trace = simulate(bundle, SimConfig("random", path_seed), setup=report.setup)
            violations += check_safety(trace, report)
        trace = simulate(bundle, SimConfig("worst", 0), setup=report.setup)
        violations += check_safety(trace, report)
    elapsed = time.perf_counter() - started
    assert violations == [], violations[:5]
    assert elapsed < 600
    _ok(1, "0 safety violations over 100 bundles x 51 simulated paths (%.1fs)" % elapsed)


def test_criterion_02_dominance(safety_batch):
    bad = 0
    for seed, bundle, report in safety_batch:
        for cid in bundle.chains:
            tsc, tlt, nct = (report.mel(cid, m) for m in ("TSC", "TLT", "NCT"))
            if not (tsc <= tlt <= nct):
                bad += 1
            a = report.chain_results[(cid, "TSC")].predicted_hit_ratio
            b = report.chain_results[(cid, "TLT")].predicted_hit_ratio
            if (a or 0.0) < (b or 0.0):
                bad += 1
    assert bad == 0
    _ok(2, "MEL(TSC) <= MEL(TLT) <= MEL(NCT) and hit(TSC) >= hit(TLT) on all 100 bundles")


# ---------------------------------------------------------------------------
# Criterion 3: directional RMEL at high contention, dual- and quad-core


def _rmel_means(cores, seeds):
    tsc, tlt = [], []
    dominance_ok = True
    for seed in seeds:
        bundle = generate_workload(seed=seed, cores=cores, tasks_per_chain=(1, 2)[seed % 2],
                                   utilization=0.9, collision=0.8)
        report = analyze_bundle(bundle)
        for cid in bundle.chains:
            tsc.append(report.chain_results[(cid, "TSC")].rmel)
            tlt.append(report.chain_results[(cid, "TLT")].rmel)
            t, l, n = (report.mel(cid, m) for m in ("TSC", "TLT", "NCT"))
            dominance_ok &= t <= l <= n
    return sum(tsc) / len(tsc), sum(tlt) / len(tlt), dominance_ok


def test_criterion_03_directional_rmel():
    mean_tsc, mean_tlt, dom = _rmel_means(2, range(200, 240))
    assert dom
    assert mean_tsc < mean_tlt, (mean_tsc, mean_tlt)
    mean_tsc4, mean_tlt4, dom4 = _rmel_means(4, range(300, 340))
    assert dom4
    assert mean_tsc4 < mean_tlt4, (mean_tsc4, mean_tlt4)
    _ok(3, "mean RMEL dual-core %.4f < %.4f, quad-core %.4f < %.4f"
        % (mean_tsc, mean_tlt, mean_tsc4, mean_tlt4))


# ---------------------------------------------------------------------------
# Criterion 4: sweep overlap equals the quadratic comparator


def test_criterion_04_overlap_equivalence():
    rng = random.Random(17)
    started = time.perf_counter()
    for i in range(10_000):
        def mk():
            n = rng.randint(1, 64)
            lo = np.cumsum(np.array([rng.randint(0, 10 ** 6 // 64) for _ in range(n)]))
            hi = lo + np.array([rng.randint(0, 5000) for _ in range(n)])
            return lo, hi

        alo, ahi = mk()
        blo, bhi = mk()
        brute = bool(
            (np.maximum(alo[:, None], blo[None, :]) <= np.minimum(ahi[:, None], bhi[None, :])).any()
        )
        a = tuple(Interval(int(l), int(h)) for l, h in zip(alo, ahi))
        b = tuple(Interval(int(l), int(h)) for l, h in zip(blo, bhi))
        assert seq_overlap(a, b) == brute, i
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _ok(4, "sweep matched brute force on 10^4 sequence pairs in %.2fs" % elapsed)


# ---------------------------------------------------------------------------
# Criterion 5: exact maximum-weight independent set


def test_criterion_05_mwis_exactness():
    g = ExclusionGraph({"c2": 5, "c3": 8}, frozenset({frozenset({"c2", "c3"})}))
    assert mwis_bound(g) == 8
    rng = random.Random(23)
    for i in range(1000):
        n = rng.randint(1, 20)
        density = (0.1, 0.3, 0.6)[i % 3]
        verts = ["v%d" % k for k in range(n)]
        weights = {v: rng.randint(0, 20) for v in verts}
        edges = set()
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < density:
                    edges.add(frozenset({verts[a], verts[b]}))
        assert mwis_bound(ExclusionGraph(weights, frozenset(edges))) == brute_force_mwis(weights, edges), i
    _ok(5, "exact on 10^3 random graphs at densities 0.1/0.3/0.6, max(5,8)=8 reproduced")


# ---------------------------------------------------------------------------
# Criterion 6: eviction-condition unit suite


def test_criterion_06_eviction_condition():
    cls = lambda age: AccessClassification("a", "b", "NC", "AH", age, 0, 0, "MISS")
    assert refine_chmc(cls(3), 2, 4) == "NC"
    assert refine_chmc(cls(3), 1, 4) == "AH"  # boundary: ways - age == bound keeps
    assert refine_chmc(cls(1), 0, 4) == "AH"
    _ok(6, "downgrade condition exact on all three cases incl. the boundary")


# ---------------------------------------------------------------------------
# Criterion 7: context coverage under exhaustive path simulation


def _tiny_task(rng, tid, system):
    """<= 3 branches, one loop, loop bound <= 4, a handful of accesses."""
    sets = system.l2.sets
    pool = [(60 + 8 * int(tid[1:]) + i) * sets + (i % 2) for i in range(4)]
    blocks, edges, loops = [], [], []
    counter = [0, 0]

    def nb(n_acc):
        bid = "%s_b%d" % (tid, counter[0])
        counter[0] += 1
        accs = []
        for _ in range(n_acc):
            accs.append(MemAccess("%s_a%d" % (tid, counter[1]), rng.choice(pool) * system.l2.line_size))
            counter[1] += 1
        blocks.append(BasicBlock(bid, max(1, n_acc, rng.randint(1, 4)), tuple(accs)))
        return bid

    cur = nb(rng.randint(0, 2))
    if rng.random() < 0.5:
        a, b, j = nb(rng.randint(0, 2)), nb(rng.randint(0, 2)), nb(0)
        edges += [(cur, a), (cur, b), (a, j), (b, j)]
        cur = j
    head = nb(rng.randint(1, 2))
    edges.append((cur, head))
    inner = head
    if rng.random() < 0.5:
        a, b, j = nb(rng.randint(0, 2)), nb(rng.randint(0, 2)), nb(0)
        edges += [(head, a), (head, b), (a, j), (b, j)]
        inner = j
    tail = nb(rng.randint(0, 1))
    edges += [(inner, tail), (tail, head)]
    hi = rng.randint(1, 4)
    loops.append(LoopNode("%s_l0" % tid, head, tail, (tail, head), rng.randint(1, hi), hi))
    exit_ = nb(0)
    edges.append((tail, exit_))
    task = TaskGraph(tid, {b.id: b for b in blocks}, tuple(edges), {l.id: l for l in loops})
    return validate_task_graph(task)


def _tiny_bundle(seed):
    rng = random.Random(seed)
    system = make_system(cores=1, l1_sets=1, l1_ways=2, l2_sets=4, l2_ways=4,
                         period_table=(4000, 8000))
    task = _tiny_task(rng, "t0", system)
    chain = ChainSpec("c0", "ET", (task.id,), 0)
    return WorkloadBundle(system, {task.id: task}, {"c0": chain})


def test_criterion_07_context_coverage():
    # Worked values on the diamond-loop program first.
    system = make_system(cores=1)
    diamond = diamond_loop_task()
    con = contract_task(diamond, classify_task(diamond, system), system)
    assert compute_bbo_time(con, "dl_t", "dl_l1")[1] == Interval(20, 28)
    assert TaskContext(con).bbrp["dl_b3"] == (Interval(43, 58),)
    assert (con.bcet, con.wcet) == (49, 58)

    paths_total = 0
    for seed in range(20):
        bundle = _tiny_bundle(seed)
        report = analyze_bundle(bundle)
        for trace in simulate_exhaustive(bundle, setup=report.setup):
            paths_total += 1
            bad = check_safety(trace, report)
            assert bad == [], (seed, bad[:3])
    _ok(7, "worked values match; every occurrence covered over %d exhaustive paths" % paths_total)


# ---------------------------------------------------------------------------
# Criterion 8: classification soundness under exhaustive simulation


def test_criterion_08_cache_classification_oracle():
    paths_total = 0
    for seed in range(100, 150):
        bundle = _tiny_bundle(seed)
        task = bundle.tasks["t0"]
        cls = classify_task(task, bundle.system)
        bound = len(task.blocks) * bundle.system.l2.ways
        assert cls.l1_passes <= bound and cls.l2_passes <= bound
        report = analyze_bundle(bundle, AnalysisOptions(modes=("TSC",)))
        for trace in simulate_exhaustive(bundle, setup=report.setup):
            paths_total += 1
            for v in check_safety(trace, report):
                assert v["kind"] not in ("ah-miss", "l1-ah-miss", "ps-extra-miss"), (seed, v)
    _ok(8, "always-hit and persistence guarantees held on 50 tasks, %d paths" % paths_total)


# ---------------------------------------------------------------------------
# Criterion 9: context computation scales


def _wide_program():
    blocks, edges, loops = [], [], []
    counter = [0]

    def nb(instr=2):
        bid = "b%d" % counter[0]
        counter[0] += 1
        blocks.append(BasicBlock(bid, instr))
        return bid

    cur = nb()
    for p in range(10):
        head = nb()
        edges.append((cur, head))
        inner = head
        for d in range(4):
            a, b, c, j = nb(), nb(), nb(), nb()
            edges += [(inner, a), (inner, b), (inner, c), (a, j), (b, j), (c, j)]
            inner = j
        tail = nb()
        edges += [(inner, tail), (tail, head)]
        loops.append(LoopNode("l%d" % p, head, tail, (tail, head), 4, 4))
        nxt = nb()
        edges.append((tail, nxt))
        cur = nxt
    while counter[0] < 200:
        nxt = nb()
        edges.append((cur, nxt))
        cur = nxt
    task = TaskGraph("wide", {b.id: b for b in blocks}, tuple(edges), {l.id: l for l in loops})
    return validate_task_graph(task)


def test_criterion_09_context_scales():
    system = make_system(cores=1)
    task = _wide_program()
    assert len(task.blocks) == 200
    assert len(task.loops) == 10
    assert len(task.edges) >= 250
    cls = classify_task(task, system)
    started = time.perf_counter()
    con = contract_task(task, cls, system)
    ctx = TaskContext(con)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    assert len(ctx.bbrp) >= 200
    _ok(9, "contexts for P=10, V=200, E=%d in %.3fs" % (len(task.edges), elapsed))


# ---------------------------------------------------------------------------
# Criterion 10: byte-identical outputs


def test_criterion_10_determinism(tmp_path):
    import os

    from chainlat.cli import main

    outs = []
    for name in ("g1", "g2"):
        out = tmp_path / name
        assert main(["generate", "--seed", "5", "--cores", "2", "--output", str(out)]) == 0
        outs.append({n: (out / n).read_bytes() for n in os.listdir(out)})
    assert outs[0] == outs[1]

    system = str(tmp_path / "g1" / "system.json")
    tasks = sorted(str(tmp_path / "g1" / n) for n in os.listdir(tmp_path / "g1") if n.startswith("task_"))
    chains = sorted(str(tmp_path / "g1" / n) for n in os.listdir(tmp_path / "g1") if n.startswith("chain_"))
    reports = []
    for jobs in ("1", "8", "1"):
        out = tmp_path / ("r%s_%d" % (jobs, len(reports)))
        assert main(["analyze", "--system", system, "--tasks"] + tasks + ["--chains"] + chains +
                    ["--jobs", jobs, "--output", str(out)]) == 0
        reports.append((out / "report.json").read_bytes() + (out / "report.csv").read_bytes())
    assert reports[0] == reports[1] == reports[2]
    _ok(10, "generate and analyze byte-identical across reruns and --jobs 1 vs 8")
