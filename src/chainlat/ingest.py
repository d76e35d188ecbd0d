"""Workload files: parsing, validation, serialization and synthetic generation.

Three JSON document kinds describe a workload: a system file (cache geometry
and latencies), one task-graph file per task, and one chain file per
cause-effect chain.  Parsing validates every model invariant and merges
multiple chains that share a core into one longer chain.

The generator builds structured random task graphs (plain blocks, diamond
branches, loops nested up to depth two), assigns addresses with a tunable
fraction of shared-cache set collisions across cores, and sizes periods so
each chain hits a target utilization.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

from . import cache_ai, cost
from .model import (
    BasicBlock,
    CacheLevelConfig,
    ChainSpec,
    LoopNode,
    MemAccess,
    SystemSpec,
    TaskGraph,
    ValidationError,
    WorkloadBundle,
    validate_task_graph,
)


# ---------------------------------------------------------------------------
# Parsing


def _require(doc, key, where):
    if key not in doc:
        raise ValidationError("missing key %r" % key, where)
    return doc[key]


def parse_system(doc: dict, where: str = "system") -> SystemSpec:
    try:
        l1 = _require(doc, "l1", where)
        l2 = _require(doc, "l2", where)
        return SystemSpec(
            core_count=int(_require(doc, "cores", where)),
            l1=CacheLevelConfig(int(l1["sets"]), int(l1["ways"]), int(l1["line"]), int(l1["hit"]), "private"),
            l2=CacheLevelConfig(int(l2["sets"]), int(l2["ways"]), int(l2["line"]), int(l2["hit"]), "shared"),
            mem_latency=int(_require(doc, "mem_latency", where)),
            base_cpi=int(_require(doc, "base_cpi", where)),
            period_table=tuple(int(p) for p in _require(doc, "period_table", where)),
        )
    except (TypeError, KeyError, ValueError) as exc:
        raise ValidationError("malformed system document (%s)" % exc, where)


def parse_task(doc: dict, where: str = "task") -> TaskGraph:
    try:
        blocks = {}
        for b in _require(doc, "blocks", where):
            accesses = tuple(MemAccess(str(a["id"]), int(a["address"])) for a in b.get("accesses", ()))
            blk = BasicBlock(str(b["id"]), int(b["instructions"]), accesses)
            if blk.id in blocks:
                raise ValidationError("duplicate block id %s" % blk.id, where)
            blocks[blk.id] = blk
        edges = tuple((str(s), str(d)) for s, d in _require(doc, "edges", where))
        loops = {}
        for l in doc.get("loops", ()):
            loop = LoopNode(
                id=str(l["id"]),
                head_block=str(l["head"]),
                tail_block=str(l["tail"]),
                back_edge=(str(l["back_edge"][0]), str(l["back_edge"][1])),
                min_bound=int(l["min_bound"]),
                max_bound=int(l["max_bound"]),
                parent_loop=None if l.get("parent") is None else str(l["parent"]),
            )
            if loop.id in loops:
                raise ValidationError("duplicate loop id %s" % loop.id, where)
            loops[loop.id] = loop
        pairs = frozenset(frozenset((str(a), str(b))) for a, b in doc.get("exclusive_pairs", ()))
        task = TaskGraph(str(_require(doc, "task_id", where)), blocks, edges, loops, exclusive_pairs=pairs)
    except (TypeError, KeyError, ValueError, IndexError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError("malformed task document (%s)" % exc, where)
    all_ids = {a.id for b in task.blocks.values() for a in b.accesses}
    if len(all_ids) != sum(len(b.accesses) for b in task.blocks.values()):
        raise ValidationError("duplicate access ids", where)
    return validate_task_graph(task)


def parse_chain(doc: dict, where: str = "chain") -> ChainSpec:
    try:
        return ChainSpec(
            id=str(_require(doc, "id", where)),
            trigger=str(_require(doc, "trigger", where)),
            tasks=tuple(str(t) for t in _require(doc, "tasks", where)),
            core=int(_require(doc, "core", where)),
            period=None if doc.get("period") is None else int(doc["period"]),
            offsets=None if doc.get("offsets") is None else tuple(int(o) for o in doc["offsets"]),
        )
    except (TypeError, KeyError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError("malformed chain document (%s)" % exc, where)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError("cannot read file (%s)" % exc, str(path))
    except json.JSONDecodeError as exc:
        raise ValidationError("invalid JSON at line %d column %d" % (exc.lineno, exc.colno), str(path))


def parse_workload(system_path, task_paths, chain_paths) -> WorkloadBundle:
    """Load and validate a bundle; chains sharing a core are merged."""
    system = parse_system(_load_json(system_path), str(system_path))
    tasks = {}
    for p in task_paths:
        tg = parse_task(_load_json(p), str(p))
        if tg.id in tasks:
            raise ValidationError("duplicate task id %s" % tg.id, str(p))
        tasks[tg.id] = tg
    chains = []
    for p in chain_paths:
        chains.append((parse_chain(_load_json(p), str(p)), str(p)))

    for chain, where in chains:
        for tid in chain.tasks:
            if tid not in tasks:
                raise ValidationError("chain %s references unknown task %s" % (chain.id, tid), where)
        if not (0 <= chain.core < system.core_count):
            raise ValidationError("chain %s mapped to core %d of %d" % (chain.id, chain.core, system.core_count), where)

    by_core = {}
    for chain, _ in chains:
        by_core.setdefault(chain.core, []).append(chain)
    merged = {}
    for core in sorted(by_core):
        chain = merge_core_chains(by_core[core])
        if chain.id in merged:
            raise ValidationError("duplicate chain id %s" % chain.id)
        merged[chain.id] = chain
    return WorkloadBundle(system, tasks, merged)


# ---------------------------------------------------------------------------
# Serialization (canonical dict form; byte canonicalization is the writer's job)


def system_to_doc(s: SystemSpec) -> dict:
    return {
        "cores": s.core_count,
        "l1": {"sets": s.l1.sets, "ways": s.l1.ways, "line": s.l1.line_size, "hit": s.l1.hit_latency},
        "l2": {"sets": s.l2.sets, "ways": s.l2.ways, "line": s.l2.line_size, "hit": s.l2.hit_latency},
        "mem_latency": s.mem_latency,
        "base_cpi": s.base_cpi,
        "period_table": list(s.period_table),
    }


def task_to_doc(t: TaskGraph) -> dict:
    return {
        "task_id": t.id,
        "blocks": [
            {
                "id": b.id,
                "instructions": b.instruction_count,
                "accesses": [{"id": a.id, "address": a.address} for a in b.accesses],
            }
            for b in sorted(t.blocks.values(), key=lambda b: b.id)
        ],
        "edges": [list(e) for e in sorted(t.edges)],
        "loops": [
            {
                "id": l.id,
                "head": l.head_block,
                "tail": l.tail_block,
                "back_edge": list(l.back_edge),
                "min_bound": l.min_bound,
                "max_bound": l.max_bound,
                "parent": l.parent_loop,
            }
            for l in sorted(t.loops.values(), key=lambda l: l.id)
        ],
        "exclusive_pairs": sorted(sorted(p) for p in t.exclusive_pairs),
    }


def chain_to_doc(c: ChainSpec) -> dict:
    return {
        "id": c.id,
        "trigger": c.trigger,
        "tasks": list(c.tasks),
        "core": c.core,
        "period": c.period,
        "offsets": None if c.offsets is None else list(c.offsets),
    }


# ---------------------------------------------------------------------------
# Scheduling parameters


def assign_period(cip_wcets, period_table) -> int:
    """Smallest table period no less than the summed pessimistic WCETs."""
    if not period_table:
        raise ValidationError("empty period table")
    total = sum(cip_wcets)
    for p in period_table:
        if p >= total:
            return p
    raise ValidationError("no feasible period: total CIP-WCET %d exceeds table max %d" % (total, period_table[-1]))


def assign_tt_offsets(cip_wcets) -> tuple:
    """Back-to-back offsets: each task starts at its predecessors' worst end."""
    out, acc = [], 0
    for c in cip_wcets:
        out.append(acc)
        acc += c
    return tuple(out)


def merge_core_chains(chains) -> ChainSpec:
    """Concatenate same-core chains in priority order into one chain.

    The input order is the priority order.  Offsets are dropped so the
    analysis recomputes them back-to-back from the merged task list.
    """
    if len(chains) == 1:
        return chains[0]
    triggers = {c.trigger for c in chains}
    if len(triggers) != 1:
        raise ValidationError("core %d mixes trigger types %s" % (chains[0].core, sorted(triggers)))
    periods = {c.period for c in chains if c.period is not None}
    if len(periods) > 1:
        raise ValidationError("core %d mixes explicit periods %s" % (chains[0].core, sorted(periods)))
    tasks = tuple(t for c in chains for t in c.tasks)
    return ChainSpec(
        id="+".join(c.id for c in chains),
        trigger=chains[0].trigger,
        tasks=tasks,
        core=chains[0].core,
        period=periods.pop() if periods else None,
        offsets=None,
    )


# ---------------------------------------------------------------------------
# Synthetic workload generation

_DEFAULT_PERIOD_TABLE = (2000, 4000, 8000, 16000, 32000, 64000, 128000, 256000)


def default_system(cores: int = 2) -> SystemSpec:
    return SystemSpec(
        core_count=cores,
        l1=CacheLevelConfig(2, 4, 32, 1, "private"),
        l2=CacheLevelConfig(32, 4, 32, 6, "shared"),
        mem_latency=30,
        base_cpi=1,
        period_table=_DEFAULT_PERIOD_TABLE,
    )


class _TaskBuilder:
    def __init__(self, rng, task_id, task_index, system, n_blocks, loop_depth,
                 exclusive_prob, collision):
        self.rng = rng
        self.task_id = task_id
        self.task_index = task_index
        self.system = system
        self.collision = collision
        self.budget = n_blocks
        self.loop_depth = loop_depth
        self.exclusive_prob = exclusive_prob
        self.blocks = []
        self.edges = []
        self.loops = []
        self.pairs = []
        self.n = 0
        self.n_acc = 0
        self.line_counter = 0
        # Lines are grouped into zones so reuse stays local: the base zone
        # covers straight-line code, each loop gets its own small pool.
        self.zones = [self._make_zone(3)]

    def _make_zone(self, n_lines):
        sets = self.system.l2.sets
        out = []
        for _ in range(n_lines):
            self.line_counter += 1
            tag = 100 + self.task_index * 24 + self.line_counter
            if self.rng.random() < self.collision:
                out.append(tag * sets + self.rng.randrange(2))  # shared hot sets 0..1
            else:
                out.append(tag * sets + 2 + self.rng.randrange(sets - 2))
        return out

    def _new_block(self, want_access=True):
        bid = "%s_b%d" % (self.task_id, self.n)
        self.n += 1
        n_acc = self.rng.randint(0, 2) if want_access else 0
        accesses = []
        for _ in range(n_acc):
            zone = self.zones[-1]
            if len(self.zones) > 1 and self.rng.random() < 0.2:
                zone = self.rng.choice(self.zones)
            line = self.rng.choice(zone)
            accesses.append(MemAccess("%s_a%d" % (self.task_id, self.n_acc), line * self.system.l2.line_size))
            self.n_acc += 1
        instr = max(len(accesses), self.rng.randint(1, 5))
        self.blocks.append(BasicBlock(bid, instr, tuple(accesses)))
        self.budget -= 1
        return bid

    def _plain(self, cur):
        nxt = self._new_block()
        self.edges.append((cur, nxt))
        return nxt

    def _diamond(self, cur):
        a = self._new_block()
        b = self._new_block()
        join = self._new_block()
        self.edges += [(cur, a), (cur, b), (a, join), (b, join)]
        if self.rng.random() < self.exclusive_prob:
            self.pairs.append((a, b))
        return join

    def _loop(self, cur, depth):
        self.zones.append(self._make_zone(self.rng.randint(1, 2)))
        head = self._new_block()
        self.edges.append((cur, head))
        inner = head
        # Reserve room for every pending loop tail plus the task exit block.
        reserve = depth + 2
        if self.budget >= 2 + reserve and depth + 1 < self.loop_depth and self.rng.random() < 0.35:
            inner = self._loop(inner, depth + 1)
        elif self.budget >= 3 + reserve and self.rng.random() < 0.4:
            inner = self._diamond(inner)
        elif self.budget >= 1 + reserve and self.rng.random() < 0.5:
            inner = self._plain(inner)
        tail = self._new_block()
        self.edges.append((inner, tail))
        self.edges.append((tail, head))
        self.zones.pop()
        max_bound = self.rng.randint(2, 8)
        min_bound = self.rng.randint(0, max_bound - 1) if self.rng.random() < 0.3 else self.rng.randint(1, max_bound)
        lid = "%s_l%d" % (self.task_id, len(self.loops))
        self.loops.append(LoopNode(lid, head, tail, (tail, head), min_bound, max_bound))
        return tail

    def build(self) -> TaskGraph:
        cur = self._new_block()
        made_loop = False
        while self.budget > 1:
            roll = self.rng.random()
            if self.loop_depth >= 1 and self.budget >= 3 and (roll < 0.45 or (not made_loop and self.budget <= 4)):
                cur = self._loop(cur, 0)
                made_loop = True
            elif self.budget >= 4 and roll < 0.75:
                cur = self._diamond(cur)
            else:
                cur = self._plain(cur)
        exit_ = self._new_block(want_access=False)
        self.edges.append((cur, exit_))

        # Loop nesting is resolved by body containment once the graph exists.
        task = TaskGraph(
            self.task_id,
            {b.id: b for b in self.blocks},
            tuple(self.edges),
            {l.id: l for l in self.loops},
            exclusive_pairs=frozenset(frozenset(p) for p in self.pairs),
        )
        task = _resolve_loop_parents(task)
        return validate_task_graph(task)


def _resolve_loop_parents(task: TaskGraph) -> TaskGraph:
    from .model import _natural_loop_body

    bodies = {lid: _natural_loop_body(task, l.head_block, l.tail_block) for lid, l in task.loops.items()}
    loops = {}
    for lid, loop in task.loops.items():
        parent, best = None, None
        for oid, obody in bodies.items():
            if oid != lid and bodies[lid] < obody and (best is None or obody < best):
                parent, best = oid, obody
        loops[lid] = replace(loop, parent_loop=parent)
    return replace(task, loops=loops)


def generate_workload(seed, cores=2, tasks_per_chain=2, blocks_per_task=8, loop_depth=2,
                      utilization=0.9, collision=0.5, trigger="mix", exclusive_prob=0.3) -> WorkloadBundle:
    """Deterministic random bundle: one chain per core, periods sized to target."""
    if tasks_per_chain not in (1, 2, 4):
        raise ValidationError("tasks_per_chain must be one of 1, 2, 4")
    if not (1 <= cores <= 16):
        raise ValidationError("cores must be in [1, 16]")
    if not (2 <= blocks_per_task <= 64):
        raise ValidationError("blocks_per_task must be in [2, 64]")
    if not (0 <= loop_depth <= 2):
        raise ValidationError("loop_depth must be in [0, 2]")
    if not (0.05 <= utilization <= 0.98):
        raise ValidationError("utilization must be in [0.05, 0.98]")
    if not (0.0 <= collision <= 1.0):
        raise ValidationError("collision must be in [0, 1]")
    if trigger not in ("ET", "TT", "mix"):
        raise ValidationError("trigger must be ET, TT or mix")

    rng = random.Random(seed)
    system = default_system(cores)
    tasks, chains = {}, {}
    task_index = 0
    for core in range(cores):
        chain_tasks = []
        for _ in range(tasks_per_chain):
            tid = "t%d" % task_index
            builder = _TaskBuilder(rng, tid, task_index, system, blocks_per_task,
                                   loop_depth, exclusive_prob, collision)
            tasks[tid] = builder.build()
            chain_tasks.append(tid)
            task_index += 1

        trig = rng.choice(("ET", "TT")) if trigger == "mix" else trigger
        cips = [_cip_wcet(tasks[t], system) for t in chain_tasks]
        total = sum(cips)
        period = None
        for p in system.period_table:
            if p * utilization >= total:
                period = p
                break
        if period is None:
            raise ValidationError("generated chain on core %d is unschedulable" % core)

        # Pad the last task's exit block so the chain utilization lands on target.
        pad_cycles = int(round(period * utilization)) - total
        if pad_cycles > 0:
            last = tasks[chain_tasks[-1]]
            exit_blk = last.blocks[last.exit_block]
            padded = replace(exit_blk, instruction_count=exit_blk.instruction_count + pad_cycles // system.base_cpi)
            tasks[chain_tasks[-1]] = replace(last, blocks={**last.blocks, exit_blk.id: padded})
            cips[-1] = _cip_wcet(tasks[chain_tasks[-1]], system)

        offsets = assign_tt_offsets(cips) if trig == "TT" else None
        cid = "c%d" % core
        chains[cid] = ChainSpec(cid, trig, tuple(chain_tasks), core, period, offsets)

    return WorkloadBundle(system, tasks, chains)


def _cip_wcet(task: TaskGraph, system: SystemSpec) -> int:
    classification = cache_ai.classify_task(task, system)
    contracted = cost.contract_task(task, classification, system, worst_mode=cost.INIT_WORST)
    return contracted.wcet
