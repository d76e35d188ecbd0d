"""Core domain types shared by all analysis stages.

Time is the integer processor cycle throughout.  Intervals are closed on
both ends; touching endpoints count as overlap.  All types are immutable
after construction and safe to share across parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


class ValidationError(Exception):
    """A structural or semantic defect in a workload description."""

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = "%s: %s" % (location, message)
        super().__init__(message)


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True, order=True)
class Interval:
    """Closed integer-cycle interval [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval lo %d > hi %d" % (self.lo, self.hi))

    def shift(self, delta: int) -> "Interval":
        return Interval(self.lo + delta, self.hi + delta)

    def overlaps(self, other: "Interval") -> bool:
        return max(self.lo, other.lo) <= min(self.hi, other.hi)


@dataclass(frozen=True)
class CacheLevelConfig:
    sets: int
    ways: int
    line_size: int
    hit_latency: int
    scope: str = "shared"  # "private" | "shared"

    def __post_init__(self):
        for name in ("sets", "ways", "line_size"):
            if not _is_pow2(getattr(self, name)):
                raise ValidationError("%s=%r must be a power of two" % (name, getattr(self, name)))
        if self.hit_latency < 1:
            raise ValidationError("hit_latency must be >= 1")
        if self.scope not in ("private", "shared"):
            raise ValidationError("scope must be private or shared")

    def line_of(self, address: int) -> int:
        return address // self.line_size


def map_address_to_set(address: int, level: CacheLevelConfig) -> int:
    """Cache set index of a byte address at the given level."""
    return (address // level.line_size) % level.sets


@dataclass(frozen=True)
class SystemSpec:
    core_count: int
    l1: CacheLevelConfig
    l2: CacheLevelConfig
    mem_latency: int
    base_cpi: int
    period_table: tuple = ()

    def __post_init__(self):
        if self.core_count < 1:
            raise ValidationError("core_count must be >= 1")
        if not (self.mem_latency > self.l2.hit_latency > self.l1.hit_latency):
            raise ValidationError("need mem_latency > l2.hit > l1.hit")
        if self.base_cpi < 1:
            raise ValidationError("base_cpi must be >= 1")
        if list(self.period_table) != sorted(set(self.period_table)) or any(
            p <= 0 for p in self.period_table
        ):
            raise ValidationError("period_table must be strictly increasing and positive")


ADDRESS_WIDTH = 32


@dataclass(frozen=True)
class MemAccess:
    id: str
    address: int

    def __post_init__(self):
        if not (0 <= self.address < (1 << ADDRESS_WIDTH)):
            raise ValidationError("access %s: address out of %d-bit range" % (self.id, ADDRESS_WIDTH))


@dataclass(frozen=True)
class BasicBlock:
    id: str
    instruction_count: int
    accesses: tuple = ()
    enclosing_loop: Optional[str] = None

    def __post_init__(self):
        if self.instruction_count < 0:
            raise ValidationError("block %s: negative instruction count" % self.id)
        if self.instruction_count < len(self.accesses):
            raise ValidationError(
                "block %s: %d accesses exceed %d instructions"
                % (self.id, len(self.accesses), self.instruction_count)
            )


@dataclass(frozen=True)
class LoopNode:
    id: str
    head_block: str
    tail_block: str
    back_edge: tuple  # (src, dst) == (tail, head)
    min_bound: int
    max_bound: int
    parent_loop: Optional[str] = None
    body_blocks: frozenset = frozenset()
    children: tuple = ()

    def __post_init__(self):
        if not (0 <= self.min_bound <= self.max_bound):
            raise ValidationError("loop %s: need 0 <= MinBd <= MaxBd" % self.id)
        if self.max_bound < 1:
            raise ValidationError("loop %s: MaxBd must be >= 1" % self.id)


@dataclass(frozen=True)
class TaskGraph:
    id: str
    blocks: dict
    edges: tuple  # all edges incl. loop back edges, as (src, dst)
    loops: dict
    entry_block: str = ""
    exit_block: str = ""
    exclusive_pairs: frozenset = frozenset()

    def forward_edges(self):
        back = {loop.back_edge for loop in self.loops.values()}
        return tuple(e for e in self.edges if e not in back)

    def successors(self, include_back=True):
        succ = {b: [] for b in self.blocks}
        edges = self.edges if include_back else self.forward_edges()
        for src, dst in edges:
            succ[src].append(dst)
        return succ

    def predecessors(self, include_back=True):
        pred = {b: [] for b in self.blocks}
        edges = self.edges if include_back else self.forward_edges()
        for src, dst in edges:
            pred[dst].append(src)
        return pred

    def loop_depth(self, loop_id):
        depth = 0
        cur = self.loops[loop_id]
        while cur.parent_loop is not None:
            depth += 1
            cur = self.loops[cur.parent_loop]
        return depth

    def loop_ancestors(self, block_id):
        """Loop ids enclosing the block, innermost first."""
        chain = []
        cur = self.blocks[block_id].enclosing_loop
        while cur is not None:
            chain.append(cur)
            cur = self.loops[cur].parent_loop
        return chain


@dataclass(frozen=True)
class ChainSpec:
    id: str
    trigger: str  # "ET" | "TT"
    tasks: tuple  # ordered task ids
    core: int
    period: Optional[int] = None
    offsets: Optional[tuple] = None  # TT only

    def __post_init__(self):
        if self.trigger not in ("ET", "TT"):
            raise ValidationError("chain %s: trigger must be ET or TT" % self.id)
        if not self.tasks:
            raise ValidationError("chain %s: empty task list" % self.id)
        if self.offsets is not None:
            if len(self.offsets) != len(self.tasks):
                raise ValidationError("chain %s: offsets/task count mismatch" % self.id)
            if self.offsets[0] != 0:
                raise ValidationError("chain %s: first offset must be 0" % self.id)
            if list(self.offsets) != sorted(self.offsets):
                raise ValidationError("chain %s: offsets must be non-decreasing" % self.id)


@dataclass(frozen=True)
class JobInstance:
    """One periodic instantiation of one task of a chain."""

    chain_id: str
    task_index: int  # position in the chain, 0-based
    task_id: str
    period_index: int
    release: Interval  # PRSTime for this job
    lifetime: Interval


def topo_order(task: TaskGraph):
    """Topological order of blocks over forward edges; raises if cyclic."""
    succ = task.successors(include_back=False)
    indeg = {b: 0 for b in task.blocks}
    for src, dsts in succ.items():
        for d in dsts:
            indeg[d] += 1
    ready = sorted(b for b, d in indeg.items() if d == 0)
    order = []
    while ready:
        n = ready.pop()
        order.append(n)
        for d in sorted(succ[n], reverse=True):
            indeg[d] -= 1
            if indeg[d] == 0:
                ready.append(d)
    if len(order) != len(task.blocks):
        raise ValidationError("irreducible control flow: cycle remains after removing declared back edges", task.id)
    return order


def _dominators(task: TaskGraph, entry: str) -> dict:
    """Dominator sets via the iterative dataflow over the full CFG."""
    pred = task.predecessors(include_back=True)
    all_ids = frozenset(task.blocks)
    dom = {b: (frozenset({entry}) if b == entry else all_ids) for b in task.blocks}
    changed = True
    while changed:
        changed = False
        for b in task.blocks:
            if b == entry:
                continue
            ps = [dom[p] for p in pred[b]]
            new = frozenset({b}) | (frozenset.intersection(*ps) if ps else frozenset())
            if new != dom[b]:
                dom[b] = new
                changed = True
    return dom


def _natural_loop_body(task: TaskGraph, head: str, tail: str) -> frozenset:
    """Blocks of the natural loop of back edge tail->head."""
    pred = task.predecessors(include_back=True)
    body = {head, tail}
    stack = [tail]
    while stack:
        n = stack.pop()
        if n == head:
            continue
        for p in pred[n]:
            if p not in body:
                body.add(p)
                stack.append(p)
    return frozenset(body)


def elaborate_loops(task: TaskGraph) -> TaskGraph:
    """Derive loop bodies, nesting links and per-block enclosing loops."""
    pred = task.predecessors(include_back=True)
    entries = [b for b in task.blocks if not pred[b]]
    if len(entries) != 1:
        raise ValidationError("need exactly one entry block, found %r" % sorted(entries), task.id)
    dom = _dominators(task, entries[0])

    bodies = {}
    for lid, loop in task.loops.items():
        if loop.back_edge != (loop.tail_block, loop.head_block):
            raise ValidationError("loop %s: back edge must run tail->head" % lid, task.id)
        if loop.head_block not in dom.get(loop.tail_block, frozenset()):
            raise ValidationError(
                "loop %s: side entry, head %s does not dominate tail %s"
                % (lid, loop.head_block, loop.tail_block),
                task.id,
            )
        bodies[lid] = _natural_loop_body(task, loop.head_block, loop.tail_block)

    # Nesting: a child body must be a strict subset of its parent body.
    for lid, loop in task.loops.items():
        if loop.parent_loop is not None:
            if loop.parent_loop not in task.loops:
                raise ValidationError("loop %s: unknown parent %s" % (lid, loop.parent_loop), task.id)
            if not bodies[lid] < bodies[loop.parent_loop]:
                raise ValidationError("loop %s: body not nested in parent %s" % (lid, loop.parent_loop), task.id)
    for a in task.loops:
        for b in task.loops:
            if a >= b:
                continue
            inter = bodies[a] & bodies[b]
            if inter and not (bodies[a] <= bodies[b] or bodies[b] <= bodies[a]):
                raise ValidationError("loops %s and %s overlap without nesting" % (a, b), task.id)

    children = {lid: [] for lid in task.loops}
    for lid, loop in task.loops.items():
        if loop.parent_loop is not None:
            children[loop.parent_loop].append(lid)

    # Innermost enclosing loop of each block: smallest containing body.
    enclosing = {}
    for bid in task.blocks:
        best = None
        for lid, body in bodies.items():
            if bid in body and (best is None or bodies[lid] < bodies[best]):
                best = lid
        enclosing[bid] = best

    blocks = {
        bid: replace(blk, enclosing_loop=enclosing[bid]) for bid, blk in task.blocks.items()
    }
    loops = {
        lid: replace(
            loop,
            body_blocks=bodies[lid],
            children=tuple(sorted(children[lid])),
        )
        for lid, loop in task.loops.items()
    }
    return replace(task, blocks=blocks, loops=loops)


def validate_task_graph(task: TaskGraph) -> TaskGraph:
    """Validate structure and return the elaborated graph.

    Validation is idempotent: validating the result again yields an equal
    graph and no new diagnostics.
    """
    if not task.blocks:
        raise ValidationError("task has no blocks", task.id)
    ids = set(task.blocks)
    for src, dst in task.edges:
        if src not in ids or dst not in ids:
            raise ValidationError("edge (%s,%s) references unknown block" % (src, dst), task.id)
    if len(set(task.edges)) != len(task.edges):
        raise ValidationError("duplicate edges", task.id)

    task = elaborate_loops(task)
    order = topo_order(task)  # raises on irreducible graphs

    pred = task.predecessors(include_back=True)
    succ = task.successors(include_back=True)
    entries = [b for b in task.blocks if not pred[b]]
    exits = [b for b in task.blocks if not succ[b]]
    if len(entries) != 1:
        raise ValidationError("need exactly one entry block, found %r" % sorted(entries), task.id)
    if len(exits) != 1:
        raise ValidationError("need exactly one exit block, found %r" % sorted(exits), task.id)
    entry, exit_ = entries[0], exits[0]
    if task.entry_block and task.entry_block != entry:
        raise ValidationError("declared entry %s is not the unique source" % task.entry_block, task.id)
    if task.exit_block and task.exit_block != exit_:
        raise ValidationError("declared exit %s is not the unique sink" % task.exit_block, task.id)

    # Reachability: every block on some entry->exit path.
    seen = {entry}
    stack = [entry]
    fsucc = task.successors(include_back=False)
    while stack:
        for d in fsucc[stack.pop()]:
            if d not in seen:
                seen.add(d)
                stack.append(d)
    if seen != ids:
        raise ValidationError("unreachable blocks: %r" % sorted(ids - seen), task.id)

    for lid, loop in task.loops.items():
        body = loop.body_blocks
        if loop.head_block not in ids or loop.tail_block not in ids:
            raise ValidationError("loop %s references unknown blocks" % lid, task.id)
        if loop.back_edge not in task.edges:
            raise ValidationError("loop %s: declared back edge missing from edge set" % lid, task.id)
        # The loop is entered only through its head and left only from its tail.
        for src, dst in task.forward_edges():
            if dst in body and src not in body and dst != loop.head_block:
                raise ValidationError("loop %s: side entry into %s" % (lid, dst), task.id)
            if src in body and dst not in body and src != loop.tail_block:
                raise ValidationError("loop %s: exit from %s (only tail exits supported)" % (lid, src), task.id)

    fpred = task.predecessors(include_back=False)
    for pair in task.exclusive_pairs:
        a, b = sorted(pair)
        if a not in ids or b not in ids:
            raise ValidationError("exclusive pair (%s,%s) references unknown block" % (a, b), task.id)
        if a == b:
            raise ValidationError("exclusive pair with identical blocks %s" % a, task.id)
        if not (set(fpred[a]) & set(fpred[b])):
            raise ValidationError(
                "exclusive pair (%s,%s): blocks must be alternative arms of one branch" % (a, b), task.id
            )
        if _reaches(task, a, b) or _reaches(task, b, a):
            raise ValidationError("exclusive pair (%s,%s): blocks lie on a common path" % (a, b), task.id)

    return replace(task, entry_block=entry, exit_block=exit_)


def _reaches(task: TaskGraph, src: str, dst: str) -> bool:
    succ = task.successors(include_back=False)
    seen = {src}
    stack = [src]
    while stack:
        n = stack.pop()
        if n == dst:
            return True
        for d in succ[n]:
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return False


@dataclass(frozen=True)
class WorkloadBundle:
    system: SystemSpec
    tasks: dict  # task id -> TaskGraph
    chains: dict  # chain id -> ChainSpec
