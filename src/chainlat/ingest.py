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

# Types are exact: an integer field takes a JSON integer, not a bool, a
# float or a string; list fields take lists and ids take strings.  A wrong
# type raises TypeError naming the field, reported as a malformed document.
# An optional field may be absent or null.  A field is located by its path,
# a tuple of keys and list indices, and named only in an error.  Each object
# kind names its keys in one tuple; once an object's own fields are read, a
# key outside it is refused, so a misspelled optional key cannot silently
# take its default.  parse_task reads well-typed block and access fields
# inline, every other field through the helpers.  The helpers, like the
# record constructors, raise unlocated errors: each document parser names
# its file once, in one handler around its whole parse, and validation
# names the task once.

_JSON_TYPES = {type(None): "null", bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", list: "a list", dict: "an object"}
_REQUIRED = object()

_SYSTEM_KEYS = ("cores", "l1", "l2", "mem_latency", "base_cpi", "period_table",
                "refinement_passes", "phase3_threshold")  # the last two are legacy keys, ignored
_LEVEL_KEYS = ("sets", "ways", "line", "hit")
_TASK_KEYS = ("task_id", "blocks", "edges", "loops", "exclusive_pairs")
_BLOCK_KEYS = ("id", "instructions", "accesses")
_ACCESS_KEYS = ("id", "address")
_LOOP_KEYS = ("id", "head", "tail", "back_edge", "min_bound", "max_bound", "parent")
_CHAIN_KEYS = ("id", "trigger", "tasks", "core", "period", "offsets")


def _name(path):
    """The field a path names: ("blocks", 3, "id") -> "blocks[3].id"."""
    name = ""
    for part in path:
        name += "[%d]" % part if type(part) is int else ("." if name else "") + part
    return name


def _typed(value, kind, path):
    """`value` if its JSON type is exactly `kind`; kind (list, k) asks for a list of k."""
    if isinstance(kind, tuple):
        items = value if type(value) is list else _typed(value, list, path)
        for i, item in enumerate(items):
            if type(item) is not kind[1]:
                _typed(item, kind[1], path + (i,))
        return items
    if type(value) is not kind:
        raise TypeError("%s must be %s, not %s" % (
            _name(path), _JSON_TYPES[kind], _JSON_TYPES.get(type(value), type(value).__name__)))
    return value


def _field(doc, key, kind, at=(), default=_REQUIRED):
    """doc[key] typed as `kind`, or `default` for an absent or null optional field; `at` is doc's path."""
    value = doc.get(key)
    if type(value) is kind:
        return value
    if value is None and default is not _REQUIRED:
        return default
    if value is None and key not in doc:
        raise ValidationError("missing key %r" % _name(at + (key,)))
    return _typed(value, kind, at + (key,))


def _objects(doc, key, at=(), default=_REQUIRED):
    """The list doc[key] of objects, each element's type checked before any is read."""
    items = doc.get(key)
    if type(items) is list:
        for item in items:
            if type(item) is not dict:
                break
        else:
            return items
    return _field(doc, key, (list, dict), at, default)


def _pair(value, path):
    """A list of two strings, as a tuple."""
    if type(value) is not list or len(value) != 2 or type(value[0]) is not str or type(value[1]) is not str:
        raise TypeError("%s must be a list of two strings" % _name(path))
    return tuple(value)


def _pairs(items, at):
    """The list `items` of two-string lists, as tuples."""
    for i, value in enumerate(items):
        if type(value) is not list or len(value) != 2 or type(value[0]) is not str or type(value[1]) is not str:
            _pair(value, at + (i,))
    return tuple([(a, b) for a, b in items])


def _check_keys(doc, keys, at=()):
    """Refuse a key of the object doc outside `keys`, naming the first in sorted order."""
    unknown = doc.keys() - keys
    if unknown:
        raise ValidationError("unknown key %s" % _name(at + (min(unknown),)))


def parse_system(doc: dict, where: str = "system") -> SystemSpec:
    def level(name):
        cfg = _field(doc, name, dict)
        values = [_field(cfg, key, int, (name,)) for key in _LEVEL_KEYS]
        try:
            config = CacheLevelConfig(*values)
        except ValidationError as exc:
            raise ValidationError("%s: %s" % (name, exc))
        _check_keys(cfg, _LEVEL_KEYS, (name,))
        return config

    try:
        try:
            _typed(doc, dict, ("the document",))
            fields = dict(
                core_count=_field(doc, "cores", int),
                l1=level("l1"),
                l2=level("l2"),
                mem_latency=_field(doc, "mem_latency", int),
                base_cpi=_field(doc, "base_cpi", int),
                period_table=tuple(_field(doc, "period_table", (list, int))),
            )
        except TypeError as exc:
            raise ValidationError("malformed system document (%s)" % exc)
        system = SystemSpec(**fields)
        _check_keys(doc, _SYSTEM_KEYS)
        return system
    except ValidationError as exc:
        raise ValidationError(str(exc), where)


def parse_task(doc: dict, where: str = "task") -> TaskGraph:
    """A task graph from its document, validated.

    Blocks and accesses, the bulk of a task, read well-typed values inline;
    the field helpers run only when a value is not, so that they word the
    error.  Loops and the task's own fields read through the helpers.  The
    checks keep one order: a list's element types before any element's
    fields, and a block's accesses (id, address, range) before its own id
    and instructions.
    """
    try:
        try:
            _typed(doc, dict, ("the document",))
            blocks = {}
            n_accesses = 0
            for i, b in enumerate(_objects(doc, "blocks")):
                accesses = ()
                items = b.get("accesses")
                if items is not None and items != []:
                    at = ("blocks", i)
                    accesses = []
                    for j, a in enumerate(_objects(b, "accesses", at)):
                        aid, address = a.get("id"), a.get("address")
                        if type(aid) is not str or type(address) is not int:
                            aid, address = (_field(a, "id", str, at + ("accesses", j)),
                                            _field(a, "address", int, at + ("accesses", j)))
                        accesses.append(MemAccess(aid, address))
                        if len(a) != 2:
                            _check_keys(a, _ACCESS_KEYS, at + ("accesses", j))
                    accesses = tuple(accesses)
                    n_accesses += len(accesses)
                bid, count = b.get("id"), b.get("instructions")
                if type(bid) is not str or type(count) is not int:
                    at = ("blocks", i)
                    bid, count = _field(b, "id", str, at), _field(b, "instructions", int, at)
                blk = BasicBlock(bid, count, accesses)
                if bid in blocks:
                    raise ValidationError("duplicate block id %s" % bid)
                blocks[bid] = blk
                if len(b) != 2 + ("accesses" in b):
                    _check_keys(b, _BLOCK_KEYS, ("blocks", i))
            edges = _pairs(_field(doc, "edges", list), ("edges",))
            loops = {}
            for i, l in enumerate(_objects(doc, "loops", default=())):
                at = ("loops", i)
                lid, head, tail = (_field(l, key, str, at) for key in ("id", "head", "tail"))
                back = _pair(_field(l, "back_edge", list, at), at + ("back_edge",))
                lo, hi = _field(l, "min_bound", int, at), _field(l, "max_bound", int, at)
                loop = LoopNode(lid, head, tail, back, lo, hi, _field(l, "parent", str, at, default=None))
                if lid in loops:
                    raise ValidationError("duplicate loop id %s" % lid)
                loops[lid] = loop
                _check_keys(l, _LOOP_KEYS, at)
            pairs = frozenset(map(frozenset, _pairs(_field(doc, "exclusive_pairs", list, default=()),
                                                    ("exclusive_pairs",))))
            task = TaskGraph(_field(doc, "task_id", str), blocks, edges, loops, exclusive_pairs=pairs)
            _check_keys(doc, _TASK_KEYS)
        except TypeError as exc:
            raise ValidationError("malformed task document (%s)" % exc)
        if len({a.id for b in blocks.values() for a in b.accesses}) != n_accesses:
            raise ValidationError("duplicate access ids")
        return validate_task_graph(task)
    except ValidationError as exc:
        raise ValidationError(str(exc), where)


def parse_chain(doc: dict, where: str = "chain") -> ChainSpec:
    try:
        try:
            _typed(doc, dict, ("the document",))
            offsets = _field(doc, "offsets", (list, int), default=None)
            fields = dict(
                id=_field(doc, "id", str),
                trigger=_field(doc, "trigger", str),
                tasks=tuple(_field(doc, "tasks", (list, str))),
                core=_field(doc, "core", int),
                period=_field(doc, "period", int, default=None),
                offsets=None if offsets is None else tuple(offsets),
            )
        except TypeError as exc:
            raise ValidationError("malformed chain document (%s)" % exc)
        chain = ChainSpec(**fields)
        _check_keys(doc, _CHAIN_KEYS)
        return chain
    except ValidationError as exc:
        raise ValidationError(str(exc), where)


def _load_json(path):
    def reject(constant):
        raise ValidationError("non-finite number %s" % constant, str(path))

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject)
    except OSError as exc:
        raise ValidationError("cannot read file (%s)" % exc, str(path))
    except UnicodeDecodeError as exc:
        raise ValidationError("not UTF-8 text (byte %d)" % exc.start, str(path))
    except RecursionError:
        raise ValidationError("JSON nested too deeply", str(path))
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
    chains, chain_files = [], {}
    for p in chain_paths:
        chain = parse_chain(_load_json(p), str(p))
        # Checked before merging, which would join two same-core duplicates into one id.
        if chain.id in chain_files:
            raise ValidationError("duplicate chain id %s" % chain.id, "%s, %s" % (chain_files[chain.id], p))
        chain_files[chain.id] = str(p)
        chains.append((chain, str(p)))

    for chain, where in chains:
        for tid in chain.tasks:
            if tid not in tasks:
                raise ValidationError("chain %s references unknown task %s" % (chain.id, tid), where)
        if not (0 <= chain.core < system.core_count):
            raise ValidationError("chain %s mapped to core %d of %d" % (chain.id, chain.core, system.core_count), where)

    by_core = {}
    for chain, where in chains:
        by_core.setdefault(chain.core, []).append((chain, where))
    merged, files = {}, {}
    for core in sorted(by_core):
        where = ", ".join(w for _, w in by_core[core])
        chain = merge_core_chains([c for c, _ in by_core[core]], where)
        if chain.id in merged:  # a merged id such as a+b may repeat a chain's own
            raise ValidationError("duplicate chain id %s" % chain.id, "%s, %s" % (files[chain.id], where))
        merged[chain.id], files[chain.id] = chain, where
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


def merge_core_chains(chains, where=None) -> ChainSpec:
    """Concatenate same-core chains in priority order into one chain.

    The input order is the priority order.  The merged chain has no
    offsets: the analysis computes them back-to-back from the merged task
    list.  A chain with explicit offsets is refused rather than merged, as
    they would be lost.  Errors are located at `where`, the chains' files.
    """
    if len(chains) == 1:
        return chains[0]
    triggers = {c.trigger for c in chains}
    if len(triggers) != 1:
        raise ValidationError("core %d mixes trigger types %s" % (chains[0].core, sorted(triggers)), where)
    with_offsets = [c.id for c in chains if c.offsets is not None]
    if with_offsets:
        raise ValidationError("core %d merges chains with explicit offsets (%s); merged chains take "
                              "back-to-back offsets" % (chains[0].core, ", ".join(with_offsets)), where)
    periods = {c.period for c in chains if c.period is not None}
    if len(periods) > 1:
        raise ValidationError("core %d mixes explicit periods %s" % (chains[0].core, sorted(periods)), where)
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
        l1=CacheLevelConfig(2, 4, 32, 1),
        l2=CacheLevelConfig(32, 4, 32, 6),
        mem_latency=30,
        base_cpi=1,
        period_table=_DEFAULT_PERIOD_TABLE,
    )


# Chance that a generated diamond's two arms are declared mutually exclusive.
EXCLUSIVE_PROB = 0.3
# The allowed values of generate_workload's tasks_per_chain and trigger.
TASKS_PER_CHAIN = (1, 2, 4)
TRIGGERS = ("ET", "TT", "mix")


class _TaskBuilder:
    def __init__(self, rng, task_id, task_index, system, n_blocks, loop_depth, collision):
        self.rng = rng
        self.task_id = task_id
        self.task_index = task_index
        self.system = system
        self.collision = collision
        self.budget = n_blocks
        self.loop_depth = loop_depth
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
        if self.rng.random() < EXCLUSIVE_PROB:
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

        # Validation derives the loop nesting from the loop bodies.
        task = TaskGraph(
            self.task_id,
            {b.id: b for b in self.blocks},
            tuple(self.edges),
            {l.id: l for l in self.loops},
            exclusive_pairs=frozenset(frozenset(p) for p in self.pairs),
        )
        return validate_task_graph(task)


def generate_workload(seed, cores=2, tasks_per_chain=2, blocks_per_task=8, loop_depth=2,
                      utilization=0.9, collision=0.5, trigger="mix") -> WorkloadBundle:
    """Deterministic random bundle: one chain per core, periods sized to target."""
    if tasks_per_chain not in TASKS_PER_CHAIN:
        raise ValidationError("tasks_per_chain must be one of %s" % ", ".join(map(str, TASKS_PER_CHAIN)))
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
    if trigger not in TRIGGERS:
        raise ValidationError("trigger must be %s or %s" % (", ".join(TRIGGERS[:-1]), TRIGGERS[-1]))

    rng = random.Random(seed)
    system = default_system(cores)
    tasks, chains = {}, {}
    task_index = 0
    for core in range(cores):
        chain_tasks = []
        for _ in range(tasks_per_chain):
            tid = "t%d" % task_index
            builder = _TaskBuilder(rng, tid, task_index, system, blocks_per_task, loop_depth, collision)
            tasks[tid] = builder.build()
            chain_tasks.append(tid)
            task_index += 1

        trig = rng.choice(("ET", "TT")) if trigger == "mix" else trigger
        cips = [_cip_wcet(tasks[t], system) for t in chain_tasks]
        total = sum(cips)
        period = next((p for p in system.period_table if p * utilization >= total), None)
        if period is None:
            raise ValidationError("generated chain on core %d is unschedulable" % core)

        # Pad the last task's exit block so the chain utilization lands on target.
        pad_cycles = int(round(period * utilization)) - total
        if pad_cycles > 0:
            last = tasks[chain_tasks[-1]]
            exit_blk = last.blocks[last.exit_block]
            padded = BasicBlock(exit_blk.id, exit_blk.instruction_count + pad_cycles // system.base_cpi,
                                exit_blk.accesses)
            tasks[chain_tasks[-1]] = replace(last, blocks={**last.blocks, exit_blk.id: padded})
            cips[-1] = _cip_wcet(tasks[chain_tasks[-1]], system)

        offsets = assign_tt_offsets(cips) if trig == "TT" else None
        cid = "c%d" % core
        chains[cid] = ChainSpec(cid, trig, tuple(chain_tasks), core, period, offsets)

    return WorkloadBundle(system, tasks, chains)


def _cip_wcet(task: TaskGraph, system: SystemSpec) -> int:
    classification = cache_ai.classify_task(task, system)
    return cost.contract_task(task, classification, system, refined=cache_ai.all_miss(classification)).wcet
