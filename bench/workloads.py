"""Seeded benchmark inputs, written as the JSON files a chainlat user supplies.

Generation and file writing are the benchmark's own work and are never
timed; the measured path only ever sees the files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

from chainlat import generate_workload
from chainlat.ingest import chain_to_doc, system_to_doc, task_to_doc

# Every workload uses the high-contention generator settings of the
# acceptance suite's directional criterion.
UTILIZATION = 0.9
COLLISION = 0.8

# A campaign scans at most this many generator seeds per bundle it needs.
MAX_SCAN = 4


@dataclass(frozen=True)
class Workload:
    """A campaign: bundles generated from consecutive seeds, as `chainlat verify` does.

    One bundle's cost and tightness vary by about a third from seed to
    seed, so each workload averages over enough bundles that two runs with
    different seeds are comparable.
    """

    name: str
    default_seed: int
    heldout_seed: int
    cores: int
    tasks_per_chain: int
    blocks_per_task: int
    bundles: int
    random_paths: int  # simulate/check_safety runs with SimConfig(policy="random")
    anchors: int  # bundles of the default seed checked against baseline.json in every run
    periods: tuple = None  # forced chain periods, in chain-id order


WORKLOADS = {
    w.name: w
    for w in (
        # Quad-core 4x4x16 bundles: block-level overlap tests, block views
        # and MWIS solves take most of the analysis.
        Workload("rung4", default_seed=5, heldout_seed=1005, cores=4, tasks_per_chain=4,
                 blocks_per_task=16, bundles=56, random_paths=0, anchors=12),
        # Dual-core 2x2x8 bundles with periods 2000/2080: gcd 80 gives a
        # hyperperiod of 52,000 and 102 jobs, so the per-instance scans over
        # every foreign job and hyperperiod shift dominate (the near-coprime
        # case, scaled down so that a pass averages over many bundles).
        Workload("longhyper", default_seed=11, heldout_seed=1011, cores=2, tasks_per_chain=2,
                 blocks_per_task=8, bundles=44, random_paths=0, anchors=12, periods=(2000, 2080)),
        # The verify campaign: simulator and oracle dominate; the analysis is
        # a small share, so analysis optimisations should not move it.
        Workload("verify2", default_seed=1, heldout_seed=1001, cores=2, tasks_per_chain=2,
                 blocks_per_task=8, bundles=100, random_paths=50, anchors=30),
    )
}


def _generate(w: Workload, gen_seed: int):
    return generate_workload(
        seed=gen_seed,
        cores=w.cores,
        tasks_per_chain=w.tasks_per_chain,
        blocks_per_task=w.blocks_per_task,
        utilization=UTILIZATION,
        collision=COLLISION,
    )


def _accept(w: Workload, bundle):
    """The bundle as the workload defines it, or None when it does not fit."""
    if w.periods is None:
        return bundle
    chains = [bundle.chains[cid] for cid in sorted(bundle.chains)]
    # Generation pads each chain to UTILIZATION of its generated period, so
    # a chain fits a forced period that is no shorter.
    if any(c.period > p for c, p in zip(chains, w.periods)):
        return None
    return replace(bundle, chains={c.id: replace(c, period=p) for c, p in zip(chains, w.periods)})


def _write_json(path, doc):
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def write_bundle(bundle, outdir: str):
    """Write one bundle as chainlat input files; returns (system, tasks, chains) paths."""
    os.makedirs(outdir, exist_ok=True)
    system = os.path.join(outdir, "system.json")
    _write_json(system, system_to_doc(bundle.system))
    tasks, chains = [], []
    for tid in sorted(bundle.tasks):
        tasks.append(os.path.join(outdir, "task_%s.json" % tid))
        _write_json(tasks[-1], task_to_doc(bundle.tasks[tid]))
    for cid in sorted(bundle.chains):
        chains.append(os.path.join(outdir, "chain_%s.json" % cid))
        _write_json(chains[-1], chain_to_doc(bundle.chains[cid]))
    return system, tasks, chains


def make_inputs(w: Workload, seed: int, workdir: str, bundles: int):
    """Write a campaign's input files; returns [(generator seed, file paths)].

    The campaign takes the first `bundles` generator seeds from `seed` on
    whose bundles fit the workload.
    """
    out = []
    for gen_seed in range(seed, seed + MAX_SCAN * bundles):
        bundle = _accept(w, _generate(w, gen_seed))
        if bundle is not None:
            out.append((gen_seed, write_bundle(bundle, os.path.join(workdir, "b%d" % gen_seed))))
            if len(out) == bundles:
                return out
    raise RuntimeError("workload %s: fewer than %d fitting bundles in seeds %d..%d"
                       % (w.name, bundles, seed, gen_seed))
