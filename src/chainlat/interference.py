"""Inter-core interference bounds per access and job instance.

For a target access the foreign cores' blocks whose windows can overlap the
access's reuse window are collected, their same-set contributions weighted,
mutually exclusive blocks reduced through an exact maximum-weight
independent set, and the per-job results accumulated per core.

Jobs on one foreign core execute sequentially, so by default their
contributions add up whenever their windows overlap the target window; the
single-task maximum rule for event-triggered chains is available as an
opt-in counting mode (et_rule="max") for fidelity comparisons, since taking
the maximum can undercount evictions accumulated across consecutive jobs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .overlap import hierarchical_overlap

COUNT_DISTINCT = "distinct"
COUNT_ACCESS = "access"

ET_RULE_SUM = "sum"
ET_RULE_MAX = "max"

MWIS_EXACT_CAP = 40


@dataclass(frozen=True)
class ExclusionGraph:
    weights: dict  # vertex -> non-negative weight
    edges: frozenset  # frozenset pairs of mutually exclusive vertices


def mwis_bound(graph: ExclusionGraph, exact_cap: int = MWIS_EXACT_CAP) -> int:
    """Maximum-weight independent set value; exact up to exact_cap vertices.

    Above the cap the safe over-approximation sum(weights) is returned.
    Solved by memoized branch and bound over vertex bitmasks.
    """
    verts = sorted(graph.weights)
    if not verts:
        return 0
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
        if mask == 0:
            return 0
        if mask in memo:
            return memo[mask]
        v = (mask & -mask).bit_length() - 1
        excl = solve(mask & ~(1 << v))
        incl = w[v] + solve(mask & ~(1 << v) & ~adj[v])
        memo[mask] = best = max(incl, excl)
        return best

    return solve((1 << len(verts)) - 1)


def block_contribution(classification, block_id: str, l2_set: int, counting: str) -> int:
    """Same-set weight of one foreign block: distinct lines or access sites."""
    if counting == COUNT_ACCESS:
        return classification.block_set_access_count(block_id, l2_set)
    return len(classification.block_set_lines(block_id, l2_set))


def job_set_weight(classification, l2_set: int, counting: str) -> int:
    """Whole-job same-set pressure of one foreign job in the counting unit."""
    if counting == COUNT_ACCESS:
        return sum(1 for c in classification.visible() if c.l2_set == l2_set)
    return len(classification.task_set_lines(l2_set))


def collect_overlap_set(target_view, foreign_job_ctx, blocks):
    """Foreign blocks whose windows can overlap the target window."""
    return [
        bid for bid in blocks
        if hierarchical_overlap(target_view, foreign_job_ctx.block_view(bid))
    ]


def job_contribution(classification, task_graph, overlapping_blocks, l2_set: int,
                     counting: str):
    """Bound on insertions one foreign job adds to the target set.

    Returns (raw block-wise sum, bounded value).  Mutually exclusive blocks
    cannot both run in one job, so an independent set bounds their joint
    contribution; the whole-job pressure caps the result because block-wise
    sums may double-count lines shared between blocks.
    """
    weights = {}
    for bid in overlapping_blocks:
        weight = block_contribution(classification, bid, l2_set, counting)
        if weight:
            weights[bid] = weight
    if not weights:
        return 0, 0
    raw = sum(weights.values())
    edges = frozenset(
        p for p in task_graph.exclusive_pairs if all(b in weights for b in p)
    )
    value = min(mwis_bound(ExclusionGraph(weights, edges)),
                job_set_weight(classification, l2_set, counting))
    return raw, value


def interference_bound(per_job, trigger: str, et_rule: str = ET_RULE_SUM) -> int:
    """Combine one foreign core's per-job contributions.

    per_job: list of (release_window Interval, contribution).  With the
    paper-faithful "max" rule, event-triggered jobs whose release windows
    mutually overlap contribute only their maximum.
    """
    if not per_job:
        return 0
    if trigger == "ET" and et_rule == ET_RULE_MAX:
        groups = []
        for win, contrib in sorted(per_job, key=lambda t: (t[0].lo, t[0].hi)):
            if groups and win.lo <= groups[-1][0]:
                hi, best = groups[-1]
                groups[-1] = (max(hi, win.hi), max(best, contrib))
            else:
                groups.append((win.hi, contrib))
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
                raw, mwis = res.debug.get(aid, (res.mc[aid], res.mc[aid]))
                w.writerow([res.chain_id, res.period_index, res.task_id, aid,
                            cls_table.accesses[aid].l2_set, raw, mwis, res.mc[aid]])
