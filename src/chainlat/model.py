"""Core domain types shared by all analysis stages.

Time is the integer processor cycle throughout.  Intervals are closed on
both ends; touching endpoints count as overlap.  All types are immutable
after construction and safe to share across parallel workers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
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


class Interval(namedtuple("Interval", "lo hi")):
    """Closed integer-cycle interval [lo, hi], validated on construction.

    A named pair: it unpacks, orders, hashes and compares equal like (lo, hi).
    """

    __slots__ = ()

    def __new__(cls, lo: int, hi: int):
        if lo > hi:
            raise ValueError("interval lo %d > hi %d" % (lo, hi))
        return super().__new__(cls, lo, hi)


@dataclass(frozen=True)
class CacheLevelConfig:
    sets: int
    ways: int
    line_size: int
    hit_latency: int

    def __post_init__(self):
        for name in ("sets", "ways", "line_size"):
            if not _is_pow2(getattr(self, name)):
                raise ValidationError("%s=%r must be a power of two" % (name, getattr(self, name)))
        if self.hit_latency < 1:
            raise ValidationError("hit_latency must be >= 1")

    def line_of(self, address: int) -> int:
        return address // self.line_size


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


class MemAccess(namedtuple("MemAccess", "id address")):
    """One memory access, validated on construction."""

    __slots__ = ()

    def __new__(cls, id: str, address: int):
        if not (0 <= address < (1 << ADDRESS_WIDTH)):
            raise ValidationError("access %s: address out of %d-bit range" % (id, ADDRESS_WIDTH))
        return super().__new__(cls, id, address)


class BasicBlock(namedtuple("BasicBlock", "id instruction_count accesses")):
    """A block as its file gives it, validated on construction; its loops are
    its task's `TaskGraph.ancestry[id]`.  A named tuple's _replace skips the
    checks, so a changed block is built through the constructor."""

    __slots__ = ()

    def __new__(cls, id: str, instruction_count: int, accesses: tuple = ()):
        if instruction_count < 0:
            raise ValidationError("block %s: negative instruction count" % id)
        if instruction_count < len(accesses):
            raise ValidationError(
                "block %s: %d accesses exceed %d instructions" % (id, len(accesses), instruction_count)
            )
        return super().__new__(cls, id, instruction_count, accesses)


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

    def __post_init__(self):
        if not (0 <= self.min_bound <= self.max_bound):
            raise ValidationError("loop %s: need 0 <= MinBd <= MaxBd" % self.id)
        if self.max_bound < 1:
            raise ValidationError("loop %s: MaxBd must be >= 1" % self.id)


class _derived(cached_property):
    """A cached_property stored with object.__setattr__: writing through the instance
    __dict__, as cached_property does, makes later attribute reads ~3x slower (CPython 3.11)."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.func(instance)
        object.__setattr__(instance, self.attrname, value)
        return value


@dataclass(frozen=True)
class TaskGraph:
    """A task's CFG.  Forward edges, adjacency maps, topological order and loop
    ancestry are cached per object, outside the fields: equality ignores them and
    dataclasses.replace rederives them."""

    id: str
    blocks: dict
    edges: tuple  # all edges incl. loop back edges, as (src, dst)
    loops: dict
    entry_block: str = ""
    exit_block: str = ""
    exclusive_pairs: frozenset = frozenset()

    @_derived
    def forward_edges(self) -> tuple:
        """The edges that are no loop's back edge."""
        back = {loop.back_edge for loop in self.loops.values()}
        return tuple(e for e in self.edges if e not in back)

    @_derived
    def _maps(self) -> tuple:
        """(pred, succ) over all edges."""
        return adjacency(self.blocks, self.edges)

    @_derived
    def _forward_maps(self) -> tuple:
        """(pred, succ) over the forward edges: `_maps` without the back edges."""
        pred, succ = map(dict, self._maps)
        for src, dst in {loop.back_edge for loop in self.loops.values()}:
            if src in succ and dst in pred:  # elaborate_loops reads these maps before the back edges are checked
                succ[src] = tuple(d for d in succ[src] if d != dst)
                pred[dst] = tuple(s for s in pred[dst] if s != src)
        return pred, succ

    def successors(self, include_back=True) -> dict:
        """Block id -> successor ids (a tuple); built once per graph, never mutate."""
        return (self._maps if include_back else self._forward_maps)[1]

    def predecessors(self, include_back=True) -> dict:
        """Block id -> predecessor ids (a tuple); built once per graph, never mutate."""
        return (self._maps if include_back else self._forward_maps)[0]

    @_derived
    def topo_order(self) -> tuple:
        """Blocks in topological order over the forward edges; raises an
        unlocated ValidationError if cyclic."""
        order = topo_sort(self.successors(include_back=False), self.predecessors(include_back=False))
        if order is None:
            raise ValidationError("irreducible control flow: cycle remains after removing declared back edges")
        return order

    def loop_depth(self, loop_id):
        """The number of loops enclosing the loop, itself not counted."""
        return len(self.ancestry[self.loops[loop_id].head_block]) - 1

    @_derived
    def ancestry(self) -> dict:
        """Block id -> the ids of the loops whose bodies hold it, smallest body
        first (a tuple); never mutate.  A validated graph's bodies are laminar,
        so this is innermost first.  It reads the loops alone, so a graph made
        by dataclasses.replace with new block records has the same map."""
        chains = {bid: [] for bid in self.blocks}
        for lid in sorted(self.loops, key=lambda lid: len(self.loops[lid].body_blocks)):
            for bid in self.loops[lid].body_blocks:
                chains[bid].append(lid)
        return {bid: tuple(chain) for bid, chain in chains.items()}

    @_derived
    def max_visits(self) -> dict:
        """Block id -> the most times one job runs it, each loop around it at its upper bound."""
        return {bid: math.prod(self.loops[lid].max_bound for lid in nest) for bid, nest in self.ancestry.items()}


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
            if self.trigger != "TT":
                raise ValidationError("chain %s: offsets apply to TT chains only" % self.id)
            if len(self.offsets) != len(self.tasks):
                raise ValidationError("chain %s: offsets/task count mismatch" % self.id)
            if self.offsets[0] != 0:
                raise ValidationError("chain %s: first offset must be 0" % self.id)
            if list(self.offsets) != sorted(self.offsets):
                raise ValidationError("chain %s: offsets must be non-decreasing" % self.id)
        if self.period is not None and self.period < 1:
            raise ValidationError("chain %s: period must be >= 1" % self.id)


@dataclass(frozen=True)
class JobInstance:
    """One periodic instantiation of one task of a chain."""

    chain_id: str
    task_index: int  # position in the chain, 0-based
    task_id: str
    period_index: int
    release: Interval  # PRSTime for this job
    lifetime: Interval


def adjacency(nodes, edges) -> tuple:
    """(pred, succ): node -> tuple of neighbours, in edge order."""
    pred, succ = {n: [] for n in nodes}, {n: [] for n in nodes}
    for src, dst in edges:
        succ[src].append(dst)
        pred[dst].append(src)
    return {n: tuple(ns) for n, ns in pred.items()}, {n: tuple(ns) for n, ns in succ.items()}


def topo_sort(succ, pred):
    """Kahn's order of the nodes of the adjacency (succ, pred) as a tuple; None when its edges close a cycle.

    The ready list starts sorted and is popped from its end; successors are
    pushed in reverse-sorted order, so the order depends on the sets alone.
    """
    indeg = {n: len(ps) for n, ps in pred.items()}
    ready = sorted(n for n, d in indeg.items() if d == 0)
    order = []
    while ready:
        n = ready.pop()
        order.append(n)
        for d in sorted(succ[n], reverse=True):
            indeg[d] -= 1
            if indeg[d] == 0:
                ready.append(d)
    return tuple(order) if len(order) == len(indeg) else None


def _reachable(adj: dict, start: str, stop=()) -> set:
    """The nodes reachable from start over adj, start included; nodes in stop are not expanded."""
    seen = {start}
    stack = [start]
    while stack:
        n = stack.pop()
        if n in stop:
            continue
        for d in adj[n]:
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return seen


def elaborate_loops(task: TaskGraph) -> dict:
    """Derive loop bodies and parents.

    A loop's body is its natural loop: the head plus every block with a path
    to the tail, over all edges, that does not pass through the head.  The
    task's entry block is the one block without a predecessor; a task whose
    every block has one, but with a head reached only over back edges,
    begins inside that loop and is rejected naming it.  So:

    * the head dominates the tail exactly when the entry is not in the body
      past its head; otherwise the loop is rejected as entered from the side;
    * every edge into the body past its head starts inside the body, so the
      head is the loop's only way in and no edge scan has to check it.

    A loop's parent is the innermost loop whose body strictly contains its
    body.  A declared parent must be the derived one; bodies that meet must
    nest, and nested loops must have distinct heads (a loop is entered at its
    head).  Returns (entry block, elaborated loops by id); the blocks a
    body holds find their loops through `TaskGraph.ancestry`.  Errors are
    unlocated: `validate_task_graph` names the task.
    """
    pred = task.predecessors(include_back=True)
    entries = [b for b in task.blocks if not pred[b]]
    if not entries:
        # Every block has a predecessor; a head entered only over back edges
        # is where the task begins, and the entry must lie outside every loop.
        fpred = task.predecessors(include_back=False)
        for lid, loop in task.loops.items():
            if loop.head_block in fpred and not fpred[loop.head_block]:
                raise ValidationError("loop %s: head %s is the task's entry; the entry must lie outside every loop"
                                      % (lid, loop.head_block))
    if len(entries) != 1:
        raise ValidationError("need exactly one entry block, found %r" % sorted(entries))
    entry = entries[0]

    bodies, by_back_edge = {}, {}
    for lid, loop in task.loops.items():
        head, tail = loop.head_block, loop.tail_block
        if loop.back_edge != (tail, head):
            raise ValidationError("loop %s: back edge must run tail->head" % lid)
        other = by_back_edge.setdefault(loop.back_edge, lid)
        if other != lid:
            raise ValidationError("loops %s and %s declare the same back edge %s->%s" % (other, lid, *loop.back_edge))
        if head not in task.blocks or tail not in task.blocks:
            raise ValidationError("loop %s references unknown blocks" % lid)
        body = frozenset(_reachable(pred, tail, (head,))) | {head}
        if entry in body and entry != head:
            raise ValidationError("loop %s: side entry, head %s does not dominate tail %s" % (lid, head, tail))
        bodies[lid] = body

    for a in task.loops:
        for b in task.loops:
            if a >= b:
                continue
            inter = bodies[a] & bodies[b]
            if inter and not (bodies[a] <= bodies[b] or bodies[b] <= bodies[a]):
                raise ValidationError("loops %s and %s overlap without nesting" % (a, b))
            if task.loops[a].head_block == task.loops[b].head_block:
                raise ValidationError("loops %s and %s share the head %s; nested loops need distinct heads"
                                      % (a, b, task.loops[a].head_block))

    # The bodies are laminar, so the loops holding a loop's head are nested
    # and the smallest is the innermost.  The sort is stable, so among equal
    # bodies the first declared wins, as a strict-subset search in
    # declaration order would pick.
    by_size = sorted(bodies, key=lambda lid: len(bodies[lid]))
    parents = {}
    for lid, loop in task.loops.items():
        size = len(bodies[lid])
        parents[lid] = next((m for m in by_size if len(bodies[m]) > size and loop.head_block in bodies[m]), None)
        if loop.parent_loop is not None and loop.parent_loop != parents[lid]:
            raise ValidationError("loop %s: declared parent %s is not its innermost enclosing loop (%s)"
                                  % (lid, loop.parent_loop, "none" if parents[lid] is None else parents[lid]))
    return entry, {
        lid: LoopNode(loop.id, loop.head_block, loop.tail_block, loop.back_edge, loop.min_bound, loop.max_bound,
                      parents[lid], bodies[lid])
        for lid, loop in task.loops.items()
    }


def validate_task_graph(task: TaskGraph) -> TaskGraph:
    """Validate structure and return the elaborated graph.

    Edges must join known blocks, once each.  `elaborate_loops` checks the
    loops against their bodies.  The graph needs one exit block, no cycle
    but the declared back edges, and every block on the forward path from
    the entry; declared endpoints must be the derived ones.  Each loop's
    back edge must be an edge, and the loop may be left only from its tail.
    An exclusive pair names two alternative arms of one branch that no
    forward path joins.  Validation is idempotent: validating the result
    again yields an equal graph and no new diagnostics.  The result holds
    the input's own block records; only its loops are rebuilt.  Every error
    names the task once, here: the checks, `elaborate_loops` and
    `TaskGraph.topo_order` raise unlocated.
    """
    try:
        return _validated(task)
    except ValidationError as exc:
        raise ValidationError(str(exc), task.id)


def _validated(task: TaskGraph) -> TaskGraph:
    """The checks of `validate_task_graph`, raising unlocated errors."""
    if not task.blocks:
        raise ValidationError("task has no blocks")
    ids = set(task.blocks)
    for src, dst in task.edges:
        if src not in ids or dst not in ids:
            raise ValidationError("edge (%s,%s) references unknown block" % (src, dst))
    edge_set = set(task.edges)
    if len(edge_set) != len(task.edges):
        raise ValidationError("duplicate edges")

    entry, loops = elaborate_loops(task)  # raises unless there is exactly one entry block
    # The validated graph is made before its order is checked, so the order
    # cached on it is the one every later stage reads.
    succ = task.successors()
    exits = [b for b in task.blocks if not succ[b]]
    graph = TaskGraph(task.id, task.blocks, task.edges, loops, entry, exits[0] if len(exits) == 1 else "",
                      task.exclusive_pairs)
    object.__setattr__(graph, "_maps", task._maps)  # same block ids and edges: reuse the adjacency
    order = graph.topo_order  # raises on irreducible graphs
    if len(exits) != 1:
        raise ValidationError("need exactly one exit block, found %r" % sorted(exits))
    if task.entry_block and task.entry_block != entry:
        raise ValidationError("declared entry %s is not the unique source" % task.entry_block)
    if task.exit_block and task.exit_block != graph.exit_block:
        raise ValidationError("declared exit %s is not the unique sink" % task.exit_block)

    fpred, fsucc = graph.predecessors(include_back=False), graph.successors(include_back=False)
    seen = _reachable(fsucc, entry)
    if seen != ids:
        raise ValidationError("unreachable blocks: %r" % sorted(ids - seen))

    forward = graph.forward_edges
    for lid, loop in graph.loops.items():
        body = loop.body_blocks
        if loop.back_edge not in edge_set:
            raise ValidationError("loop %s: declared back edge missing from edge set" % lid)
        for src, dst in forward:
            if src in body and dst not in body and src != loop.tail_block:
                raise ValidationError("loop %s: exit from %s (only tail exits supported)" % (lid, src))

    for pair in sorted(map(sorted, task.exclusive_pairs)):  # in sorted order, whatever the string hashing
        if len(pair) != 2:
            raise ValidationError("exclusive pair with identical blocks %s" % pair[0])
        a, b = pair
        if a not in ids or b not in ids:
            raise ValidationError("exclusive pair (%s,%s) references unknown block" % (a, b))
        if not (set(fpred[a]) & set(fpred[b])):
            raise ValidationError("exclusive pair (%s,%s): blocks must be alternative arms of one branch" % (a, b))
        first, second = sorted(pair, key=order.index)  # on the forward DAG only the earlier can reach the later
        if second in _reachable(fsucc, first):
            raise ValidationError("exclusive pair (%s,%s): blocks lie on a common path" % (a, b))

    return graph


@dataclass(frozen=True)
class WorkloadBundle:
    system: SystemSpec
    tasks: dict  # task id -> TaskGraph
    chains: dict  # chain id -> ChainSpec
