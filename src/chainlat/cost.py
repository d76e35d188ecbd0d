"""Per-block execution costs, loop summarization and structural BCET/WCET.

Loops are contracted innermost-first into virtual nodes carrying summarized
best/worst costs; the remaining DAG yields program bounds by shortest and
longest path.  Best-flavored costs floor every memory access at the L1 hit
latency so that all derived earliest-start times are true lower bounds for
any concrete cache state; worst-flavored costs follow the CHMC table.

Persistent accesses are charged the shared-cache hit latency per iteration
plus a one-time (miss - hit) surcharge per scope entry, accounted on the
virtual node and in the first-iteration offset bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cache_ai import AH, BYPASS, PS, TaskClassification
from .model import SystemSpec, TaskGraph, ValidationError

BEST = "best"
WORST = "worst"
INIT_BEST = "init_best"
INIT_WORST = "init_worst"


def virtual_id(loop_id: str) -> str:
    return "V:" + loop_id


def access_latency(cls, system: SystemSpec, mode: str, refined: Optional[dict] = None) -> int:
    if mode in (BEST, INIT_BEST):
        # Any access may hit the private cache; the floor keeps every
        # lower bound sound regardless of the concrete cache state.
        return system.l1.hit_latency
    if cls.l1_chmc == AH:
        return system.l1.hit_latency
    if mode == INIT_WORST:
        return system.mem_latency
    chmc = cls.l2_chmc if refined is None else refined.get(cls.access_id, cls.l2_chmc)
    if chmc in (AH, PS):
        return system.l2.hit_latency
    return system.mem_latency


def block_cost(block, classification: TaskClassification, system: SystemSpec, mode: str,
               refined: Optional[dict] = None) -> int:
    """Execution cost of one basic block under the given cost mode."""
    cost = block.instruction_count * system.base_cpi
    for acc in block.accesses:
        cls = classification.accesses[acc.id]
        cost += access_latency(cls, system, mode, refined)
    return cost


@dataclass
class LoopCostSummary:
    loop_id: str
    lpsc: int
    lplc: int
    bbsc: dict  # node -> shortest head->node cost excluding the node
    bblc: dict  # node -> longest head->node cost excluding the node
    ps_surcharge: int
    ps_prefix_incl: dict  # node -> surcharge reachable at-or-before the node
    ps_prefix_excl: dict  # node -> surcharge strictly before the node
    min_bound: int = 1
    max_bound: int = 1


@dataclass
class LevelGraph:
    members: tuple
    edges: tuple
    entry: str
    exit: str


@dataclass
class ContractedTask:
    task: TaskGraph
    classification: TaskClassification
    node_best: dict
    node_worst: dict
    summaries: dict  # loop id -> LoopCostSummary
    levels: dict  # loop id or None -> LevelGraph
    bbesot: dict  # top-level node -> earliest start (cost excl. node)
    bbleot: dict  # top-level node -> latest end (cost incl. node)
    bblsot: dict  # top-level node -> latest start (cost excl. node)
    bcet: int = 0
    wcet: int = 0

    def outermost_virtual(self, block_id: str) -> Optional[str]:
        loops = self.task.loop_ancestors(block_id)
        return virtual_id(loops[-1]) if loops else None


def _level_graph(task: TaskGraph, level: Optional[str]) -> LevelGraph:
    if level is None:
        scope = set(task.blocks)
        entry, exit_ = task.entry_block, task.exit_block
        own_back = None
    else:
        loop = task.loops[level]
        scope = set(loop.body_blocks)
        entry, exit_ = loop.head_block, loop.tail_block
        own_back = loop.back_edge

    def rep(bid):
        if task.blocks[bid].enclosing_loop == level:
            return bid
        chain = task.loop_ancestors(bid)
        for lid in chain:
            if task.loops[lid].parent_loop == level:
                return virtual_id(lid)
        return None

    members, edges = set(), set()
    for bid in scope:
        r = rep(bid)
        if r is not None:
            members.add(r)
    if level is not None:
        for child in task.loops[level].children:
            members.add(virtual_id(child))
    else:
        for lid, loop in task.loops.items():
            if loop.parent_loop is None:
                members.add(virtual_id(lid))
    for src, dst in task.edges:
        if (src, dst) == own_back:
            continue
        if src in scope and dst in scope:
            rs, rd = rep(src), rep(dst)
            if rs is None or rd is None or rs == rd:
                continue
            edges.add((rs, rd))
    return LevelGraph(tuple(sorted(members)), tuple(sorted(edges)), entry, exit_)


def _level_topo(level: LevelGraph):
    succ = {m: [] for m in level.members}
    indeg = {m: 0 for m in level.members}
    for src, dst in level.edges:
        succ[src].append(dst)
        indeg[dst] += 1
    ready = sorted(m for m in level.members if indeg[m] == 0)
    order = []
    while ready:
        n = ready.pop()
        order.append(n)
        for d in sorted(succ[n], reverse=True):
            indeg[d] -= 1
            if indeg[d] == 0:
                ready.append(d)
    if len(order) != len(level.members):
        raise ValidationError("cyclic level graph; loops not fully contracted")
    return order


def _dag_distances(level: LevelGraph, node_cost: dict, combine, default):
    """Prefix path cost to each node, excluding the node's own cost."""
    pred = {m: [] for m in level.members}
    for src, dst in level.edges:
        pred[dst].append(src)
    dist = {}
    for n in _level_topo(level):
        if n == level.entry:
            dist[n] = 0
        elif pred[n]:
            dist[n] = combine(dist[p] + node_cost[p] for p in pred[n])
        else:
            dist[n] = default
    for n in level.members:
        if n not in dist or dist[n] == default:
            raise ValidationError("node %s unreachable from %s" % (n, level.entry))
    return dist


def _ps_reach(level: LevelGraph, ps_at: dict):
    """Surcharge sums of scope-persistent accesses reachable before each node."""
    pred = {m: [] for m in level.members}
    for src, dst in level.edges:
        pred[dst].append(src)
    incl_sets = {}
    for n in _level_topo(level):
        ids = set(ps_at.get(n, ()))
        for p in pred[n]:
            ids |= incl_sets[p]
        incl_sets[n] = ids
    excl = {}
    for n in level.members:
        ids = set()
        for p in pred[n]:
            ids |= incl_sets[p]
        excl[n] = ids
    return incl_sets, excl


def contract_task(task: TaskGraph, classification: TaskClassification, system: SystemSpec,
                  refined: Optional[dict] = None, worst_mode: str = WORST) -> ContractedTask:
    """Summarize all loops innermost-first and compute program bounds."""
    node_best, node_worst = {}, {}
    for bid, block in task.blocks.items():
        node_best[bid] = block_cost(block, classification, system, BEST)
        node_worst[bid] = block_cost(block, classification, system, worst_mode, refined)

    surcharge_unit = system.mem_latency - system.l2.hit_latency

    def ps_ids_of(bid, level):
        if worst_mode == INIT_WORST:
            return ()
        out = []
        for acc in task.blocks[bid].accesses:
            cls = classification.accesses[acc.id]
            chmc = cls.l2_chmc if refined is None else refined.get(acc.id, cls.l2_chmc)
            if chmc == PS and cls.l2_chmc != BYPASS and task.blocks[bid].enclosing_loop == level:
                out.append(acc.id)
        return tuple(out)

    summaries, levels = {}, {}
    by_depth = sorted(task.loops, key=lambda lid: -task.loop_depth(lid))
    for lid in by_depth:
        loop = task.loops[lid]
        level = _level_graph(task, lid)
        levels[lid] = level
        ps_at = {n: ps_ids_of(n, lid) for n in level.members if n in task.blocks}
        incl_sets, excl_sets = _ps_reach(level, ps_at)
        surcharges = {
            aid: surcharge_unit for n in level.members for aid in ps_at.get(n, ())
        }
        bbsc = _dag_distances(level, node_best, min, None)
        bblc = _dag_distances(level, node_worst, max, None)
        total = sum(surcharges.values())
        summaries[lid] = LoopCostSummary(
            loop_id=lid,
            lpsc=bbsc[level.exit] + node_best[level.exit],
            lplc=bblc[level.exit] + node_worst[level.exit],
            bbsc=bbsc,
            bblc=bblc,
            ps_surcharge=total,
            ps_prefix_incl={n: sum(surcharges[a] for a in incl_sets[n]) for n in level.members},
            ps_prefix_excl={n: sum(surcharges[a] for a in excl_sets[n]) for n in level.members},
            min_bound=loop.min_bound,
            max_bound=loop.max_bound,
        )
        vid = virtual_id(lid)
        node_best[vid] = summaries[lid].lpsc * loop.min_bound
        node_worst[vid] = summaries[lid].lplc * loop.max_bound + total

    top = _level_graph(task, None)
    levels[None] = top
    best_d = _dag_distances(top, node_best, min, None)
    worst_d = _dag_distances(top, node_worst, max, None)
    bbesot = dict(best_d)
    bblsot = dict(worst_d)
    bbleot = {n: worst_d[n] + node_worst[n] for n in top.members}

    return ContractedTask(
        task=task,
        classification=classification,
        node_best=node_best,
        node_worst=node_worst,
        summaries=summaries,
        levels=levels,
        bbesot=bbesot,
        bbleot=bbleot,
        bblsot=bblsot,
        bcet=best_d[top.exit] + node_best[top.exit],
        wcet=bbleot[top.exit],
    )
