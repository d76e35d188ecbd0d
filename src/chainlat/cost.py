"""Per-block execution costs, loop summarization and structural BCET/WCET.

Loops are contracted innermost-first into virtual nodes carrying summarized
best/worst costs.  The program is one more level, summarized last: a loop
that runs once, starts at cycle 0 and holds no persistence scope, so its
summary (summaries[None]) gives the BCET and WCET as shortest and longest
path.  Best-case costs floor every memory access at the L1 hit latency so
that all derived earliest-start times are true lower bounds for any
concrete cache state; worst-case costs follow one refined CHMC map.

There is one cost model: the worst side reads only the refined map, which
is the exclusive-use CHMCs by default, the interference-refined ones for
TLT and TSC, and cache_ai.all_miss for the pessimistic NCT/CIP bound.

Persistent accesses are charged the shared-cache hit latency per iteration
plus a one-time (miss - hit) surcharge per scope entry, accounted on the
virtual node and in the level's persistence prefixes: each level has one
window per iteration, and the first carries the surcharge reached so far
(context.TaskContext builds them).  A level without a persistent access,
the program's included, shares its plan's table of zero prefixes.

A contraction has two parts.  The ContractionPlan depends on the task graph
and the system alone: the innermost-first loop order, each level's nodes
in topological order with their predecessor lists, the code blocks per
level and the whole best-case side.  Best costs never read the
classification or the refined map, because the L1 floor charges every
access alike, so one plan serves every contraction of a task.  What the
refined map decides (worst node costs, persistence surcharges, longest
prefixes, the WCET) is computed by contract_task.  The plan builds every
level in one pass over the task's topological order and one over the
forward edges: a level's order is the task's, each block mapped to its
node at that level, and an edge belongs to the level of the innermost loop
that holds both of its endpoints.  Prefix distances and reach sets do not
depend on which topological order a level follows.

A refined map names every access of the task, so the jobs of one task
that refine to the same CHMCs share one contraction.  The plan memoizes
them, keyed by the map's values in the plan's fixed access order.  An
access that always hits the private cache (BYPASS) is priced by its L1
CHMC alone, whatever the map gives it.  An entry serves a call only if it
was contracted under the very same TaskClassification object (the L1
CHMCs come from it); otherwise the call contracts and replaces the entry.
Contracting without a plan builds a fresh one, whose memo is dropped.  A
memoized ContractedTask is returned to every caller that asks for it, so
all of its fields are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cache_ai import AH, PS, TaskClassification
from .model import SystemSpec, TaskGraph, ValidationError


def virtual_id(loop_id: str) -> str:
    return "V:" + loop_id


def block_cost(block, classification: TaskClassification, system: SystemSpec, refined: dict) -> int:
    """Worst-case cost of one basic block under the refined CHMC map."""
    cost = block.instruction_count * system.base_cpi
    for acc in block.accesses:
        if classification.accesses[acc.id].l1_chmc == AH:
            cost += system.l1.hit_latency
        else:
            cost += system.l2.hit_latency if refined[acc.id] in (AH, PS) else system.mem_latency
    return cost


@dataclass
class LoopCostSummary:
    """One level's costs; the program level (loop_id None) runs once, from cycle 0."""

    loop_id: Optional[str]
    lpsc: int
    lplc: int
    bbsc: dict  # node -> shortest head->node cost excluding the node
    bblc: dict  # node -> longest head->node cost excluding the node
    ps_surcharge: int
    ps_prefix_incl: dict  # node -> surcharge reachable at-or-before the node
    min_bound: int = 1
    max_bound: int = 1


@dataclass
class ContractedTask:
    """One contraction of a task.

    Every field is read-only.  A contraction from a plan is memoized on it
    and handed to every later call with the same effective CHMCs.  These
    dicts are the plan's own, shared by every contraction from it:
    node_best, each summary's bbsc, and the persistence prefixes of every
    level without a persistent access.
    """

    task: TaskGraph
    classification: TaskClassification
    node_best: dict
    node_worst: dict
    summaries: dict  # loop id -> LoopCostSummary, innermost first; None -> the program, last
    bcet: int = 0
    wcet: int = 0


def _level_graphs(task: TaskGraph, levels: tuple) -> dict:
    """Each level's (predecessor lists in topological order, entry, exit),
    keyed by loop id (None for the top level), in one pass over the task's
    order and one over its forward edges; `levels` lists every level,
    innermost first, the order in which their structure is checked.

    A block is a member of its enclosing loop's level, and each loop's
    virtual node one of its parent's.  At a level that holds a block, the
    block maps to its node there: itself, or the virtual node of the child
    loop holding it (node_at).  A level's order is the task's topological
    order with every block mapped to its node, first occurrences kept.  A
    forward edge belongs to exactly one level, the innermost loop that holds
    both endpoints, since at every coarser level both ends map to one
    virtual node.  It enters a child loop at its head, which precedes the
    rest of the child's body in the task's order, so it runs forward in the
    level's order too; a task without an order, or an edge that runs
    backwards, has a cyclic level graph.  Back edges belong to no level.  A
    level's entry and exit (its head and tail, or the task's entry and
    exit) map by the same rule, so a loop may end on a child loop's tail.
    Every other node needs a predecessor: a path into an unreachable node
    starts at a source other than the entry, so checking the sources checks
    every node.
    """
    try:
        order = task.topo_order
    except ValidationError:
        raise ValidationError("cyclic level graph; loops not fully contracted") from None
    ancestry = task.ancestry
    vid = {lid: virtual_id(lid) for lid in task.loops}
    preds = {lid: {} for lid in task.loops}
    top = preds[None] = {}
    rank = {}  # a node's position in its level's order; a node sits at one level
    for i, bid in enumerate(order):
        node = bid
        for lid in ancestry[bid]:
            level = preds[lid]
            if node not in level:
                level[node], rank[node] = [], i
            node = vid[lid]
        if node not in top:
            top[node], rank[node] = [], i

    def node_at(level, bid):
        """The node holding block bid at a level that holds it."""
        chain = ancestry[bid]
        k = chain.index(level) if level is not None else len(chain)
        return vid[chain[k - 1]] if k else bid

    backwards = set()
    for src, dst in task.forward_edges:
        src_loops, dst_loops = ancestry[src], ancestry[dst]
        if src_loops == dst_loops:  # two blocks of one level, in the task's order
            preds[src_loops[0] if src_loops else None][dst].append(src)
            continue
        level = next((lid for lid in src_loops if lid in dst_loops), None)  # the innermost holding both
        rs, rd = node_at(level, src), node_at(level, dst)
        if rs != rd:
            preds[level][rd].append(rs)
            if rank[rs] > rank[rd]:
                backwards.add(level)

    graphs = {}
    for level in levels:
        if level is None:
            entry, exit_ = task.entry_block, task.exit_block
        else:
            entry, exit_ = task.loops[level].head_block, task.loops[level].tail_block
        entry, pred = node_at(level, entry), preds[level]
        if level in backwards:
            raise ValidationError("cyclic level graph; loops not fully contracted")
        unreachable = [n for n, ps in pred.items() if not ps and n != entry]
        if unreachable:
            raise ValidationError("node %s unreachable from %s" % (min(unreachable), entry))
        graphs[level] = (pred, entry, node_at(level, exit_))
    return graphs


class LevelPlan:
    """One level's nodes in topological order, their predecessors and best-case prefixes.

    `loop` is the level's loop, None for the program level, which runs once
    and holds no persistent access: a persistence scope is a loop.
    """

    def __init__(self, task: TaskGraph, pred: dict, entry: str, exit_: str, node_best: dict, loop=None):
        self.pred, self.entry, self.exit = pred, entry, exit_
        self.order = tuple(pred)
        self.min_bound, self.max_bound = (1, 1) if loop is None else (loop.min_bound, loop.max_bound)
        # The code blocks that may carry persistent accesses.
        self.blocks = () if loop is None else tuple(n for n in self.order if n in task.blocks)
        self.no_ps = dict.fromkeys(self.order, 0)  # prefixes when no access persists
        self.best = self.distances(node_best, min)
        self.shortest = self.best[self.exit] + node_best[self.exit]

    def distances(self, node_cost: dict, combine) -> dict:
        """Prefix path cost to each node, excluding the node's own cost."""
        dist = {}
        entry, pred = self.entry, self.pred
        for n in self.order:
            dist[n] = 0 if n == entry else combine(dist[p] + node_cost[p] for p in pred[n])
        return dist

    def ps_reach(self, ps_at: dict, unit: int) -> dict:
        """Surcharge of the persistent accesses reachable at-or-before each node,
        at `unit` per access, in one topological pass.

        A virtual node carries no persistent access of its own in this level,
        so its value is also the surcharge strictly before it, which is what
        a child loop's start reads.
        """
        reach, incl = {}, {}
        for n in self.order:
            ids = set(ps_at.get(n, ()))
            for p in self.pred[n]:
                ids |= reach[p]
            incl[n] = unit * len(ids)
            reach[n] = ids
        return incl


class ContractionPlan:
    """The classification-free part of a task's contraction, built once per task.

    Depends on the task graph and the system only; the structural checks
    (acyclic levels, every member reachable from its entry) run here.  It
    also holds the memo of the task's contractions, keyed by the effective
    CHMCs of access_ids.
    """

    def __init__(self, task: TaskGraph, system: SystemSpec):
        # Any access may hit the private cache; the floor keeps every lower
        # bound sound regardless of the concrete cache state.
        self.node_best = {bid: b.instruction_count * system.base_cpi + len(b.accesses) * system.l1.hit_latency
                          for bid, b in task.blocks.items()}
        self.loops = tuple(sorted(task.loops, key=lambda lid: -task.loop_depth(lid)))
        graphs = _level_graphs(task, (*self.loops, None))
        self.levels = {}
        for lid in self.loops:
            level = self.levels[lid] = LevelPlan(task, *graphs[lid], self.node_best, task.loops[lid])
            self.node_best[virtual_id(lid)] = level.shortest * level.min_bound
        self.levels[None] = LevelPlan(task, *graphs[None], self.node_best)
        self.access_ids = tuple(a.id for b in task.blocks.values() for a in b.accesses)
        self.memo = {}  # effective CHMCs of access_ids -> ContractedTask


def contract_task(task: TaskGraph, classification: TaskClassification, system: SystemSpec,
                  refined: Optional[dict] = None,
                  plan: Optional[ContractionPlan] = None) -> ContractedTask:
    """Summarize all loops innermost-first and compute program bounds.

    Worst costs follow `refined`, which names every access (the
    classification's own CHMCs when None).  `plan` must be the task's own
    ContractionPlan; a call with one may return the contraction memoized on
    it.  Without one a fresh plan is built, and its memo is dropped with it.
    """
    if refined is None:
        refined = {aid: c.l2_chmc for aid, c in classification.accesses.items()}
    plan = plan or ContractionPlan(task, system)
    key = tuple(map(refined.__getitem__, plan.access_ids))  # a partial map raises KeyError
    con = plan.memo.get(key)
    if con is None or con.classification is not classification:
        con = plan.memo[key] = _contract(task, classification, system, refined, plan)
    return con


def _contract(task: TaskGraph, classification: TaskClassification, system: SystemSpec,
              refined: dict, plan: ContractionPlan) -> ContractedTask:
    node_worst = {bid: block_cost(block, classification, system, refined)
                  for bid, block in task.blocks.items()}
    surcharge_unit = system.mem_latency - system.l2.hit_latency

    def ps_ids_of(bid):
        return [a.id for a in task.blocks[bid].accesses
                if refined[a.id] == PS and classification.accesses[a.id].l1_chmc != AH]

    summaries = {}
    for lid in (*plan.loops, None):  # innermost first, the program last
        level = plan.levels[lid]
        exit_ = level.exit
        ps_at = {n: ids for n in level.blocks if (ids := ps_ids_of(n))}
        incl = level.ps_reach(ps_at, surcharge_unit) if ps_at else level.no_ps
        bblc = level.distances(node_worst, max)
        # Each surcharged access is charged once, whichever nodes reach it.
        total = surcharge_unit * len({aid for ids in ps_at.values() for aid in ids})
        s = summaries[lid] = LoopCostSummary(
            loop_id=lid, lpsc=level.shortest, lplc=bblc[exit_] + node_worst[exit_], bbsc=level.best, bblc=bblc,
            ps_surcharge=total, ps_prefix_incl=incl,
            min_bound=level.min_bound, max_bound=level.max_bound)
        if lid is not None:
            node_worst[virtual_id(lid)] = s.lplc * s.max_bound + total

    program = summaries[None]
    return ContractedTask(task, classification, plan.node_best, node_worst, summaries,
                          bcet=program.lpsc, wcet=program.lplc)
