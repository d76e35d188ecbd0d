"""Inter-core interference bounds per access and job instance.

For a target access the foreign cores' blocks whose windows can overlap the
access's reuse window are collected, their same-set contributions weighted,
mutually exclusive blocks reduced through an exact maximum-weight
independent set, and the per-job results accumulated per core.

Every weight is fixed per task and counting unit (distinct lines or access
sites), so set_weights tabulates both units once: per shared-cache set, the
whole-job weight and the weight of each block touching the set, which are
the set's interference candidates.

A job's contribution is a pure function of its task's table for the unit
and set, the task's exclusive pairs and its overlapping blocks, so the
weights and exclusion graph of each distinct block tuple are built once per
task, unit and set, in a memo the caller keeps (TaskAnalysis.contributions),
and every later job of the task with the same overlap reuses them.  Only
the MWIS bound runs per call, on that same graph, so every value and every
count of MWIS solves is the one a fresh build gives.

Jobs on one foreign core execute sequentially, so by default their
contributions add up whenever their windows overlap the target window; the
single-task maximum rule for event-triggered chains is available as an
opt-in counting mode (et_rule="max") for fidelity comparisons, since taking
the maximum can undercount evictions accumulated across consecutive jobs.
groups_jobs says which chains that rule groups; a caller may add the
contributions of any other chain as they come, which is the sum
interference_bound would return.
"""

from __future__ import annotations

import csv
from typing import NamedTuple

from .overlap import hierarchical_overlap

COUNT_DISTINCT = "distinct"
COUNT_ACCESS = "access"
COUNTINGS = (COUNT_DISTINCT, COUNT_ACCESS)

ET_RULE_SUM = "sum"
ET_RULE_MAX = "max"
ET_RULES = (ET_RULE_SUM, ET_RULE_MAX)

MWIS_EXACT_CAP = 40

NO_EDGES = frozenset()  # shared by every edgeless graph, which a memo keeps


class ExclusionGraph(NamedTuple):
    weights: dict  # vertex -> non-negative weight
    edges: frozenset  # frozenset pairs of mutually exclusive vertices


def mwis_bound(graph: ExclusionGraph, exact_cap: int = MWIS_EXACT_CAP) -> int:
    """Maximum-weight independent set value; exact up to exact_cap vertices.

    A graph without edges is one independent set, so its weight sum is the
    exact value at any size; most overlap sets have no exclusive pair.
    Otherwise, above the cap the safe over-approximation sum(weights) is
    returned, and below it the value is solved exactly over vertex
    bitmasks.  A graph's value is the sum of its connected components'
    values, and an isolated vertex is taken whole.  A component is solved
    by memoized branch and bound on a vertex of maximum degree: either it
    is left out, or it is taken and its neighbours go.  Either branch may
    split the component again, so a matching costs one step per edge
    rather than a memo entry per subset of its vertices.
    """
    if not graph.edges:
        return sum(graph.weights.values())
    verts = sorted(graph.weights)
    if len(verts) > exact_cap:
        return sum(graph.weights.values())
    index = {v: i for i, v in enumerate(verts)}
    w = [graph.weights[v] for v in verts]
    adj = [0] * len(verts)
    for pair in graph.edges:
        a, b = tuple(pair)
        adj[index[a]] |= 1 << index[b]
        adj[index[b]] |= 1 << index[a]

    memo = {}

    def solve(mask: int) -> int:
        """The value of the vertices in mask, one connected component at a time."""
        total = 0
        while mask:
            low = mask & -mask
            comp, frontier = low, low
            while frontier:  # grow the component of mask's lowest vertex
                bit = frontier & -frontier
                frontier ^= bit
                new = adj[bit.bit_length() - 1] & mask & ~comp
                comp |= new
                frontier |= new
            mask &= ~comp
            total += w[low.bit_length() - 1] if comp == low else component(comp)
        return total

    def component(comp: int) -> int:
        value = memo.get(comp)
        if value is None:
            v, degree, rest = -1, -1, comp
            while rest:
                bit = rest & -rest
                rest ^= bit
                d = (adj[bit.bit_length() - 1] & comp).bit_count()
                if d > degree:
                    v, degree = bit.bit_length() - 1, d
            without = comp & ~(1 << v)
            memo[comp] = value = max(solve(without), w[v] + solve(without & ~adj[v]))
        return value

    return solve((1 << len(verts)) - 1)


def set_weights(classification) -> dict:
    """One task's weight table per counting unit: {unit: {set: (job weight, {block: weight})}}.

    Only shared-cache visible accesses weigh, grouped once for both units;
    a block appears under a set only if it touches it, in id order.
    """
    lines = {}  # set -> block -> shared lines, one entry per access site
    for c in classification.visible():
        lines.setdefault(c.l2_set, {}).setdefault(c.block_id, []).append(c.l2_line)

    def table(weight):
        return {
            s: (weight([line for sites in blocks.values() for line in sites]),
                {bid: weight(blocks[bid]) for bid in sorted(blocks)})
            for s, blocks in sorted(lines.items())
        }

    return {COUNT_DISTINCT: table(lambda sites: len(set(sites))), COUNT_ACCESS: table(len)}


def collect_overlap_set(target, foreign_views, blocks):
    """Foreign blocks whose windows can overlap the target's block view.

    foreign_views is a JobContext: a foreign task's relative views with the
    target moved into task time (latency.TaskAnalysis.task_views), or a
    job's absolute views.
    """
    return [
        bid for bid in blocks
        if hierarchical_overlap(target, foreign_views.block_view(bid)).result
    ]


def job_contribution(set_table, task_graph, overlapping_blocks, memo=None):
    """Bound on insertions one foreign job adds to the target set.

    set_table is the job's task's (job weight, {block: weight}) entry for
    the set.  Returns (raw block-wise sum, bounded value).  Mutually
    exclusive blocks cannot both run in one job, so an independent set
    bounds their joint contribution; the whole-job weight caps the result
    because block-wise sums may double-count lines shared between blocks.
    A task without exclusive pairs gives an edgeless graph, which mwis_bound
    sums exactly.

    memo maps the tuple of overlapping blocks to (raw sum, ExclusionGraph)
    and must belong to set_table's task, counting unit and set: both are a
    pure function of that table, the task's exclusive pairs and the blocks,
    so every job of the task builds each graph once.  Without one the graph
    is built afresh.  mwis_bound still runs on every call.
    """
    job_weight, block_weights = set_table
    key = tuple(overlapping_blocks)
    if memo is None:
        memo = {}
    entry = memo.get(key)
    if entry is None:
        weights = {bid: block_weights[bid] for bid in key}
        pairs = task_graph.exclusive_pairs if len(weights) > 1 else ()  # a pair needs two blocks
        edges = frozenset(p for p in pairs if weights.keys() >= p) if pairs else NO_EDGES
        entry = memo[key] = sum(weights.values()), ExclusionGraph(weights, edges)
    raw, graph = entry
    return raw, min(mwis_bound(graph), job_weight)


def groups_jobs(trigger: str, et_rule: str) -> bool:
    """Whether interference_bound groups a foreign chain's jobs instead of summing them."""
    return trigger == "ET" and et_rule == ET_RULE_MAX


def interference_bound(per_job, trigger: str, et_rule: str = ET_RULE_SUM) -> int:
    """Combine one foreign core's per-job contributions.

    per_job: list of ((lo, hi) release window, contribution).  With the
    paper-faithful "max" rule, event-triggered jobs whose release windows
    mutually overlap contribute only their maximum.
    """
    if groups_jobs(trigger, et_rule):
        groups = []
        for (lo, hi), contrib in sorted(per_job, key=lambda t: t[0]):
            if groups and lo <= groups[-1][0]:
                last_hi, best = groups[-1]
                groups[-1] = (max(last_hi, hi), max(best, contrib))
            else:
                groups.append((hi, contrib))
        return sum(best for _, best in groups)
    return sum(c for _, c in per_job)


def write_interference_csv(path, report):
    """Debug dump of the block-window interference accounting per access."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["chain", "period", "task", "access", "set", "raw_sum", "after_mwis", "final"])
        for key in sorted(k for k in report.instances if k[0] == "TSC"):
            res = report.instances[key]
            cls_table = report.setup.tasks[res.task_id].classification
            for aid in sorted(res.mc):
                raw, mwis = res.debug[aid]
                w.writerow([res.chain_id, res.period_index, res.task_id, aid,
                            cls_table.accesses[aid].l2_set, raw, mwis, res.mc[aid]])
