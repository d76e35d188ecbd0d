"""Independent reference implementations used as test oracles.

Everything here is deliberately written against the plain definitions
(brute force, enumeration, replay) and stays independent of the library
code paths it checks.
"""

import heapq
import random
from collections import namedtuple

import numpy as np


class ReferenceLRU:
    """Dict-of-ages LRU, structurally different from the simulator's lists."""

    def __init__(self, sets, ways):
        self.sets = sets
        self.ways = ways
        self.ages = [{} for _ in range(sets)]

    def access(self, line):
        s = self.ages[line % self.sets]
        hit = line in s
        pivot = s.get(line)
        for other, age in list(s.items()):
            if other == line:
                continue
            if pivot is None or age < pivot:
                if age + 1 > self.ways:
                    del s[other]
                else:
                    s[other] = age + 1
        s[line] = 1
        return hit

    def snapshot(self):
        out = []
        for s in self.ages:
            out.append([line for line, _ in sorted(s.items(), key=lambda kv: kv[1])])
        return out


def brute_force_overlap(a, b):
    """All-pairs closed-interval comparison."""
    return any(max(x.lo, y.lo) <= min(x.hi, y.hi) for x in a for y in b)


def reference_hierarchical_overlap(a, b):
    """The two-phase overlap judgment as (result, decided_at), phase by phase.

    Written straight from the phase definitions, apart from the shared
    verdicts and the single-interval comparison of the library: the
    envelope phase runs when either view (a window, then the envelope of a
    loop block) has more than one level and compares the spans of both
    last levels (min lo, max hi over every interval), then the block phase
    compares all pairs of closed intervals of both windows.  The job phase
    belongs to the lifetime index, not to this judgment.
    """
    def span(view):
        w = view[-1]
        return min(lo for lo, _ in w), max(hi for _, hi in w)

    def meets(x, y):
        return max(x[0], y[0]) <= min(x[1], y[1])

    if len(a) > 1 or len(b) > 1:
        if not meets(span(a), span(b)):
            return False, "outer-loop"
    return any(meets(x, y) for x in a[0] for y in b[0]), "block"


def reference_coarsen(window, limit):
    """A normalized window bridged gap by gap down to `limit` intervals:
    each step bridges the narrowest gap left, the later of equal gaps.
    Bridging a gap leaves every other gap as wide as it was, so the steps
    pop one heap of (width, -position)."""
    gaps = [(window[i][0] - window[i - 1][1], -i) for i in range(1, len(window))]
    heapq.heapify(gaps)
    bridged = {-heapq.heappop(gaps)[1] for _ in range(len(window) - limit)}
    out = [window[0]]
    for i in range(1, len(window)):
        if i in bridged:
            out[-1] = (out[-1][0], window[i][1])
        else:
            out.append(window[i])
    return tuple(out)


def brute_force_mwis(weights, edges):
    """Exhaustive subset enumeration, vectorized over bitmasks."""
    verts = sorted(weights)
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    adj = np.zeros(n, dtype=np.int64)
    for pair in edges:
        a, b = tuple(pair)
        adj[idx[a]] |= 1 << idx[b]
        adj[idx[b]] |= 1 << idx[a]
    w = np.array([weights[v] for v in verts], dtype=np.int64)
    masks = np.arange(1 << n, dtype=np.int64)
    ok = np.ones(len(masks), dtype=bool)
    value = np.zeros(len(masks), dtype=np.int64)
    for i in range(n):
        has_i = (masks >> i) & 1 == 1
        ok &= ~(has_i & ((masks & adj[i]) != 0))
        value += np.where(has_i, w[i], 0)
    return int(value[ok].max()) if ok.any() else 0


def reference_fixpoint(task, transfer, join, entry_state, max_passes):
    """Round-robin fixpoint that transfers every reachable block on every pass.

    Returns (in-states, passes, transfers); the passes are topological
    sweeps over the full CFG, repeated until no out-state changes.
    """
    pred = task.predecessors(include_back=True)
    in_states, out_states = {}, {}
    passes = transfers = 0
    changed = True
    while changed:
        passes += 1
        if passes > max_passes:
            raise RuntimeError("cache fixpoint did not converge in %d passes" % max_passes)
        changed = False
        for bid in task.topo_order:
            preds = [p for p in pred[bid] if p in out_states]
            if bid == task.entry_block:
                state = dict(entry_state)
            elif not preds:
                continue  # not yet reachable this pass
            else:
                state = out_states[preds[0]]
                for p in preds[1:]:
                    state = join(state, out_states[p])
            in_states[bid] = state
            out = transfer(bid, state)
            transfers += 1
            if out_states.get(bid) != out:
                out_states[bid] = out
                changed = True
    return in_states, passes, transfers


def reference_dominators(blocks, edges, entry):
    """Block -> the set of blocks that dominate it, by the iterative dataflow over all edges.

    The sweeps visit the blocks reachable from the entry in reverse
    postorder, then the others.  Iterating down from all blocks reaches the
    greatest fixpoint in any order, so a block no path from the entry
    reaches keeps every block as a dominator.
    """
    pred = {b: [s for s, d in edges if d == b] for b in blocks}
    succ = {b: [d for s, d in edges if s == b] for b in blocks}
    post, seen = [], {entry}
    stack = [(entry, iter(succ[entry]))]
    while stack:
        node, todo = stack[-1]
        for d in todo:
            if d not in seen:
                seen.add(d)
                stack.append((d, iter(succ[d])))
                break
        else:
            stack.pop()
            post.append(node)
    order = post[::-1] + [b for b in blocks if b not in seen]
    all_ids = frozenset(blocks)
    dom = {b: (frozenset({entry}) if b == entry else all_ids) for b in blocks}
    changed = True
    while changed:
        changed = False
        for b in order:
            if b == entry:
                continue
            ps = [dom[p] for p in pred[b]]
            new = frozenset({b}) | (frozenset.intersection(*ps) if ps else frozenset())
            if new != dom[b]:
                dom[b] = new
                changed = True
    return dom


def reference_loop_body(blocks, edges, head, tail):
    """A loop's natural body: the blocks with a path to the tail that does not pass
    through the head, plus the head; each block is tested on its own, by a search from it."""
    succ = {b: [d for s, d in edges if s == b] for b in blocks}

    def reaches_tail(start):
        seen, stack = {start}, [start]
        while stack:
            n = stack.pop()
            if n == tail:
                return True
            for d in succ[n]:
                if d != head and d not in seen:
                    seen.add(d)
                    stack.append(d)
        return False

    return frozenset(b for b in blocks if b != head and reaches_tail(b)) | {head}


def enumerate_task_paths(task, cap=200_000):
    """All feasible block sequences of one job.

    Loop iteration counts range over [max(1, MinBd), MaxBd]; a loop whose
    head executes runs at least once under tail-exit structure.  Paths in
    which both blocks of an exclusive pair appear are infeasible.
    """
    succ = task.successors(include_back=False)
    heads = {l.head_block: lid for lid, l in task.loops.items()}
    out = []

    def walk(cur, stack, seq):
        if len(out) > cap:
            raise RuntimeError("path explosion beyond %d" % cap)
        lid = heads.get(cur)
        if lid is not None and (not stack or stack[-1][0] != lid):
            loop = task.loops[lid]
            for iters in range(max(1, loop.min_bound), loop.max_bound + 1):
                walk_in(cur, stack + [[lid, iters, 1]], seq)
            return
        walk_in(cur, stack, seq)

    def walk_in(cur, stack, seq):
        seq = seq + [cur]
        while stack and task.loops[stack[-1][0]].tail_block == cur:
            lid, iters, done = stack[-1]
            if done < iters:
                stack = stack[:-1] + [[lid, iters, done + 1]]
                walk(task.loops[lid].head_block, stack, seq)
                return
            stack = stack[:-1]
        if cur == task.exit_block:
            out.append(seq)
            return
        for nxt in sorted(succ[cur]):
            walk(nxt, list(stack), seq)

    walk(task.entry_block, [], [])

    feasible = []
    for seq in out:
        present = set(seq)
        if any(len(present & set(p)) > 1 for p in task.exclusive_pairs):
            continue
        feasible.append(seq)
    return feasible


def path_occurrences(path, costs):
    """Start/end window of each block occurrence along one fixed-cost path."""
    t = 0
    occ = []
    for bid in path:
        occ.append((bid, t, t + costs[bid]))
        t += costs[bid]
    return occ


def unrolled_window_oracle(task, costs):
    """Earliest start and latest end per block over all feasible paths."""
    lo, hi = {}, {}
    for path in enumerate_task_paths(task):
        for bid, s, e in path_occurrences(path, costs):
            lo[bid] = min(lo.get(bid, s), s)
            hi[bid] = max(hi.get(bid, e), e)
    return lo, hi


def unrolled_iteration_windows(task, costs, loop_id):
    """Per-iteration earliest start / latest end for blocks of one loop."""
    loop = task.loops[loop_id]
    windows = {}
    for path in enumerate_task_paths(task):
        iteration = 0
        for bid, s, e in path_occurrences(path, costs):
            if bid == loop.head_block:
                iteration += 1
            if bid in loop.body_blocks:
                key = (bid, iteration)
                cur = windows.get(key)
                windows[key] = (s, e) if cur is None else (min(cur[0], s), max(cur[1], e))
    return windows


def path_bounds(task, costs):
    paths = enumerate_task_paths(task)
    totals = [sum(costs[b] for b in p) for p in paths]
    return min(totals), max(totals)


# ---------------------------------------------------------------------------
# Per-call loop contraction, as it was before the structure moved into a
# plan built once per task: every call rebuilds the level graphs, their
# topological orders and the best-case side.  Returns the library's record
# types so results compare field by field.

_O_BEST, _O_INIT_WORST = "best", "init_worst"


def _o_access_latency(cls, system, mode, refined):
    if mode == _O_BEST:
        return system.l1.hit_latency
    if cls.l1_chmc == "AH":
        return system.l1.hit_latency
    if mode == _O_INIT_WORST:
        return system.mem_latency
    chmc = cls.l2_chmc if refined is None else refined.get(cls.access_id, cls.l2_chmc)
    if chmc in ("AH", "PS"):
        return system.l2.hit_latency
    return system.mem_latency


def _o_block_cost(block, classification, system, mode, refined=None):
    cost = block.instruction_count * system.base_cpi
    for acc in block.accesses:
        cost += _o_access_latency(classification.accesses[acc.id], system, mode, refined)
    return cost


def _o_vid(loop_id):
    return "V:" + loop_id


_OLevelGraph = namedtuple("_OLevelGraph", "members edges entry exit")


def _o_enclosing(task, bid):
    """The innermost loop holding bid: the one with the smallest body that holds it."""
    holding = [lid for lid, loop in task.loops.items() if bid in loop.body_blocks]
    return min(holding, key=lambda lid: len(task.loops[lid].body_blocks), default=None)


def _o_level_graph(task, level):
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
        if _o_enclosing(task, bid) == level:
            return bid
        for lid, loop in task.loops.items():
            if bid in loop.body_blocks and loop.parent_loop == level:
                return _o_vid(lid)
        return None

    members, edges = set(), set()
    for bid in scope:
        r = rep(bid)
        if r is not None:
            members.add(r)
    for lid, loop in task.loops.items():
        if loop.parent_loop == level:
            members.add(_o_vid(lid))
    for src, dst in task.edges:
        if (src, dst) == own_back:
            continue
        if src in scope and dst in scope:
            rs, rd = rep(src), rep(dst)
            if rs is None or rd is None or rs == rd:
                continue
            edges.add((rs, rd))
    # The entry and exit map like every other block: a loop may end on a child loop's tail.
    return _OLevelGraph(tuple(sorted(members)), tuple(sorted(edges)), rep(entry), rep(exit_))


def _o_level_topo(level):
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
        raise ValueError("cyclic level graph")
    return order


def _o_dag_distances(level, node_cost, combine):
    pred = {m: [] for m in level.members}
    for src, dst in level.edges:
        pred[dst].append(src)
    dist = {}
    for n in _o_level_topo(level):
        if n == level.entry:
            dist[n] = 0
        elif pred[n]:
            dist[n] = combine(dist[p] + node_cost[p] for p in pred[n])
        else:
            dist[n] = None
    for n in level.members:
        if dist.get(n) is None:
            raise ValueError("node %s unreachable from %s" % (n, level.entry))
    return dist


def _o_ps_reach(level, ps_at):
    pred = {m: [] for m in level.members}
    for src, dst in level.edges:
        pred[dst].append(src)
    incl_sets = {}
    for n in _o_level_topo(level):
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


def reference_contract_task(task, classification, system, refined=None, worst_mode="worst"):
    """Loop contraction rebuilt from scratch on every call."""
    from chainlat.cost import ContractedTask, LoopCostSummary

    node_best, node_worst = {}, {}
    for bid, blk in task.blocks.items():
        node_best[bid] = _o_block_cost(blk, classification, system, _O_BEST)
        node_worst[bid] = _o_block_cost(blk, classification, system, worst_mode, refined)

    surcharge_unit = system.mem_latency - system.l2.hit_latency

    def ps_ids_of(bid, level):
        if worst_mode == _O_INIT_WORST:
            return ()
        out = []
        for a in task.blocks[bid].accesses:
            cls = classification.accesses[a.id]
            chmc = cls.l2_chmc if refined is None else refined.get(a.id, cls.l2_chmc)
            if chmc == "PS" and cls.l2_chmc != "BYPASS" and _o_enclosing(task, bid) == level:
                out.append(a.id)
        return tuple(out)

    summaries = {}
    for lid in sorted(task.loops, key=lambda lid: -task.loop_depth(lid)):
        loop = task.loops[lid]
        level = _o_level_graph(task, lid)
        ps_at = {n: ps_ids_of(n, lid) for n in level.members if n in task.blocks}
        incl_sets, excl_sets = _o_ps_reach(level, ps_at)
        # A virtual node holds no persistent access of its own, so the
        # surcharge reached at it is the one strictly before it.
        assert all(incl_sets[n] == excl_sets[n] for n in level.members if n not in task.blocks)
        surcharges = {aid: surcharge_unit for n in level.members for aid in ps_at.get(n, ())}
        bbsc = _o_dag_distances(level, node_best, min)
        bblc = _o_dag_distances(level, node_worst, max)
        total = sum(surcharges.values())
        summaries[lid] = LoopCostSummary(
            loop_id=lid,
            lpsc=bbsc[level.exit] + node_best[level.exit],
            lplc=bblc[level.exit] + node_worst[level.exit],
            bbsc=bbsc,
            bblc=bblc,
            ps_surcharge=total,
            ps_prefix_incl={n: sum(surcharges[a] for a in incl_sets[n]) for n in level.members},
            min_bound=loop.min_bound,
            max_bound=loop.max_bound,
        )
        vid = _o_vid(lid)
        node_best[vid] = summaries[lid].lpsc * loop.min_bound
        node_worst[vid] = summaries[lid].lplc * loop.max_bound + total

    # The program: a level that runs once and holds no persistence scope.
    top = _o_level_graph(task, None)
    best_d = _o_dag_distances(top, node_best, min)
    worst_d = _o_dag_distances(top, node_worst, max)
    zero = {n: 0 for n in top.members}
    program = summaries[None] = LoopCostSummary(
        loop_id=None,
        lpsc=best_d[top.exit] + node_best[top.exit],
        lplc=worst_d[top.exit] + node_worst[top.exit],
        bbsc=best_d,
        bblc=worst_d,
        ps_surcharge=0,
        ps_prefix_incl=zero,
    )
    return ContractedTask(
        task=task,
        classification=classification,
        node_best=node_best,
        node_worst=node_worst,
        summaries=summaries,
        bcet=program.lpsc,
        wcet=program.lplc,
    )


def reference_bba_time(release, window):
    """A block's absolute window by its definition: each interval of its
    program-relative window widened by the release window, then overlapping
    or touching intervals coalesced."""
    rlo, rhi = release
    out = []
    for lo, hi in sorted((lo + rlo, hi + rhi) for lo, hi in window):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return tuple(out)


def _o_pair_sum(a, b):
    return tuple(sorted((alo + blo, ahi + bhi) for alo, ahi in a for blo, bhi in b))


def reference_windows(contracted):
    """A task's program-relative windows composed as the paper does.

    Each loop member's offset within an iteration of its loop (BBOTime),
    each inner loop's start relative to its parent (LPRTime) and each
    loop's start relative to the program (LPBTime, the outermost loops'
    read off the top-level prefixes) are built separately and summed
    pairwise.  Reads the contraction's loop summaries and node costs only;
    the top-level prefixes are recomputed here.  Returns (bbrp, lpb,
    line_window) as TaskContext holds them, but unnormalized:
    one interval per combination of enclosing-loop iterations.
    """
    task, cls = contracted.task, contracted.classification
    node_best, node_worst = contracted.node_best, contracted.node_worst
    top = _o_level_graph(task, None)
    best_d = _o_dag_distances(top, node_best, min)
    worst_d = _o_dag_distances(top, node_worst, max)

    def bbo(node, lid):
        s = contracted.summaries[lid]
        own = node_worst[node]
        return tuple(((i - 1) * s.lpsc + s.bbsc[node],
                      (i - 1) * s.lplc + s.bblc[node] + own
                      + (s.ps_prefix_incl[node] if i == 1 else s.ps_surcharge))
                     for i in range(1, s.max_bound + 1))

    def lpr(lid):
        s = contracted.summaries[task.loops[lid].parent_loop]
        vid = _o_vid(lid)
        # The virtual node's prefix at-or-before it is the one before it:
        # reference_contract_task checks that it holds no persistent access.
        return tuple(((i - 1) * s.lpsc + s.bbsc[vid],
                      (i - 1) * s.lplc + s.bblc[vid] + (s.ps_prefix_incl[vid] if i == 1 else s.ps_surcharge))
                     for i in range(1, s.max_bound + 1))

    lpb = {}

    def lpb_of(lid):
        if lid not in lpb:
            parent = task.loops[lid].parent_loop
            if parent is None:
                vid = _o_vid(lid)
                lpb[lid] = ((best_d[vid], worst_d[vid]),)
            else:
                lpb[lid] = _o_pair_sum(lpr(lid), lpb_of(parent))
        return lpb[lid]

    bbrp = {n: ((best_d[n], worst_d[n] + node_worst[n]),) for n in top.members}
    for lid in task.loops:
        for n in _o_level_graph(task, lid).members:
            bbrp[n] = _o_pair_sum(lpb_of(lid), bbo(n, lid))

    line_window = {}
    for c in cls.accesses.values():
        if c.l2_chmc == "AH":
            sources = {o.block_id for o in cls.accesses.values()
                       if o.l2_chmc != "BYPASS" and o.l2_line == c.l2_line}
            lo = min(lo for b in sources for lo, _ in bbrp[b])
            line_window[c.access_id] = (lo, max(hi for _, hi in bbrp[c.block_id]))
        elif c.l2_chmc == "PS":
            lid = _o_enclosing(task, c.block_id)
            line_window[c.access_id] = (min(lo for lo, _ in lpb_of(lid)),
                                        max(hi for _, hi in lpb_of(lid)) + node_worst[_o_vid(lid)])
    return bbrp, lpb, line_window


# ---------------------------------------------------------------------------
# Reference simulator: one instruction per clock step, every per-task table
# rebuilt per job, and dict-of-ages LRU caches.


class _RefDecider:
    """Branch and loop-bound choices, drawn exactly as the simulator's contract says."""

    def __init__(self, policy, seed, tape):
        self.policy = policy
        self.seed = seed
        self.tape = list(tape) if tape is not None else None
        self.pos = 0
        self.counts = []
        self.rngs = {}

    def _rng(self, job_key):
        if job_key not in self.rngs:
            self.rngs[job_key] = random.Random("%s|%s" % (self.seed, job_key))
        return self.rngs[job_key]

    def _pick(self, n, job_key, worst_index, rng_pick):
        self.counts.append(n)
        self.pos += 1
        if self.tape is not None:
            if self.pos - 1 < len(self.tape):
                return self.tape[self.pos - 1]
            self.tape.append(0)
            return 0
        if self.policy == "worst":
            return worst_index
        return rng_pick(self._rng(job_key))

    def branch(self, choices, job_key, scores):
        if len(choices) == 1:
            return choices[0]
        worst = max(range(len(choices)), key=lambda i: (scores.get(choices[i], 0), -i))
        return choices[self._pick(len(choices), job_key, worst, lambda r: r.randrange(len(choices)))]

    def iterations(self, lo, hi, job_key):
        if lo == hi:
            return lo
        return lo + self._pick(hi - lo + 1, job_key, hi - lo, lambda r: r.randint(0, hi - lo))


def _ref_suffix_scores(task, node_worst):
    scores = {}
    succ = task.successors(include_back=False)
    for bid in reversed(task.topo_order):
        scores[bid] = node_worst.get(bid, 0) + max((scores[s] for s in succ[bid]), default=0)
    return scores


def _ref_core_walker(core, setup, cid, decider, trace, system, scores_by_task):
    from chainlat.sim import JobRecord

    chain = setup.chains[cid]
    clock = 0
    for k in range(setup.hyper // chain.period):
        for i, tid in enumerate(chain.tasks):
            task = setup.bundle.tasks[tid]
            scores = scores_by_task[tid]
            if chain.trigger == "TT":
                release = k * chain.period + chain.offsets[i]
            elif i == 0:
                release = k * chain.period
            else:
                release = clock
            if clock > release:
                trace.overruns.append((core, cid, k, i, release, clock))
            clock = max(clock, release)
            l1 = ReferenceLRU(system.l1.sets, system.l1.ways)
            job_key = "%s/%d/%d" % (cid, k, i)
            start = clock

            heads = {ln.head_block: lid for lid, ln in task.loops.items()}
            succ_fwd = task.successors(include_back=False)
            exclusive = {}
            for pair in task.exclusive_pairs:
                a, b = tuple(pair)
                exclusive.setdefault(a, set()).add(b)
                exclusive.setdefault(b, set()).add(a)

            cur = task.entry_block
            loop_stack = []  # [loop id, chosen iterations, done count, entry serial]
            entry_serial = {}
            forbidden = set()
            while True:
                lid = heads.get(cur)
                if lid is not None and (not loop_stack or loop_stack[-1][0] != lid):
                    serial = entry_serial.get(lid, 0)
                    entry_serial[lid] = serial + 1
                    ln = task.loops[lid]
                    loop_stack.append([lid, decider.iterations(ln.min_bound, ln.max_bound, job_key), 1, serial])
                block = task.blocks[cur]
                if cur in exclusive:
                    forbidden |= exclusive[cur]
                scope = (loop_stack[-1][0], loop_stack[-1][3]) if loop_stack else None
                b_start = clock
                for j in range(block.instruction_count):
                    clock += system.base_cpi
                    if j < len(block.accesses):
                        acc = block.accesses[j]
                        if l1.access(system.l1.line_of(acc.address)):
                            clock += system.l1.hit_latency
                            level = "L1"
                        else:
                            latency, level = yield (clock, acc.address)
                            clock += latency
                        trace.access_rows.append((clock, core, cid, k, i, cur, acc.id, level, scope))
                trace.block_rows.append((core, cid, k, i, cur, b_start, clock))

                advanced = False
                while loop_stack and task.loops[loop_stack[-1][0]].tail_block == cur:
                    top = loop_stack[-1]
                    if top[2] < top[1]:
                        top[2] += 1
                        cur = task.loops[top[0]].head_block
                        advanced = True
                        break
                    loop_stack.pop()
                if advanced:
                    continue
                if cur == task.exit_block:
                    break
                choices = sorted(s for s in succ_fwd[cur] if s not in forbidden)
                if not choices:
                    choices = sorted(succ_fwd[cur])
                cur = decider.branch(choices, job_key, scores)
            trace.jobs.append(JobRecord(core, cid, k, i, tid, start, clock))


def _ref_run(setup, decider):
    import heapq

    from chainlat.sim import SimTrace

    system = setup.bundle.system
    scores_by_task = {
        tid: _ref_suffix_scores(setup.bundle.tasks[tid], setup.tasks[tid].contracted_init.node_worst)
        for tid in setup.bundle.tasks
    }
    trace = SimTrace()
    l2 = ReferenceLRU(system.l2.sets, system.l2.ways)
    gens = {}
    for cid in sorted(setup.chains):
        core = setup.chains[cid].core
        gens[core] = _ref_core_walker(core, setup, cid, decider, trace, system, scores_by_task)
    heap = []
    for core in sorted(gens):
        try:
            cycle, address = next(gens[core])
            heapq.heappush(heap, (cycle, core, address))
        except StopIteration:
            pass
    while heap:
        cycle, core, address = heapq.heappop(heap)
        hit = l2.access(system.l2.line_of(address))
        latency = system.l2.hit_latency if hit else system.mem_latency
        try:
            nxt = gens[core].send((latency, "L2" if hit else "MEM"))
            heapq.heappush(heap, (nxt[0], core, nxt[1]))
        except StopIteration:
            pass
    trace.jobs.sort(key=lambda j: (j.core, j.period_index, j.task_index))
    trace.l2_state = l2.snapshot()
    return trace


def reference_simulate(setup, policy="random", seed=0, tape=None):
    """One run over the hyperperiod, stepping the clock one instruction at a time."""
    return _ref_run(setup, _RefDecider(policy, seed, tape))


def reference_simulate_exhaustive(setup, limit):
    """The first `limit` traces of the odometer enumeration of decision tapes."""
    tape = []
    for _ in range(limit):
        decider = _RefDecider("tape", 0, tape)
        yield _ref_run(setup, decider)
        grown, counts = decider.tape, decider.counts
        pos = len(grown) - 1
        while pos >= 0 and grown[pos] + 1 >= counts[pos]:
            pos -= 1
        if pos < 0:
            return
        tape = grown[: pos + 1]
        tape[pos] += 1


# ---------------------------------------------------------------------------
# Reference per-instance analysis: every foreign job scanned under every
# hyperperiod shift, every target's pair probed per set, every access
# refined and every contraction made afresh (no per-task tables, no memo,
# no lifetime index, no shared job contexts).


def _ref_foreign_pairs(setup, key):
    """Per foreign chain, its (job key, shift) pairs whose shifted lifetime meets job key's."""
    lo, hi = setup.jobs[key].lifetime
    core = setup.chains[key[0]].core
    out = []
    for cid, chain in setup.chains.items():
        if chain.core == core:
            continue
        pairs = []
        for fkey in sorted(k for k in setup.jobs if k[0] == cid):
            flo, fhi = setup.jobs[fkey].lifetime
            for shift in (-setup.hyper, 0, setup.hyper):
                if max(lo, flo + shift) <= min(hi, fhi + shift):
                    pairs.append((fkey, shift))
        out.append((chain, pairs))
    return out


def _ref_targets(setup, task_id):
    from chainlat.cache_ai import AH, PS

    return [c for c in setup.tasks[task_id].classification.visible() if c.l2_chmc in (AH, PS)]


def _ref_refine(setup, task_id, mc):
    """The refined map of every access and its contraction, without a plan."""
    from chainlat.cache_ai import refine_chmc
    from chainlat.cost import contract_task

    cls_table = setup.tasks[task_id].classification
    ways = setup.bundle.system.l2.ways
    refined = {aid: refine_chmc(cls, mc.get(aid, 0), ways) for aid, cls in cls_table.accesses.items()}
    return refined, contract_task(setup.bundle.tasks[task_id], cls_table, setup.bundle.system, refined=refined)


def _ref_tsc_mc(setup, key, line_window, options, contexts):
    from chainlat.context import JobContext
    from chainlat.interference import collect_overlap_set, interference_bound, job_contribution

    job = setup.jobs[key]
    overlaps = _ref_foreign_pairs(setup, key)
    rlo, rhi = job.release
    mc, debug = {}, {}
    for cls in _ref_targets(setup, job.task_id):
        lo, hi = line_window[cls.access_id]
        lo, hi = lo + rlo, hi + rhi
        total = raw_total = mwis_total = 0
        for fchain, pairs in overlaps:
            per_job = []
            for fkey, shift in pairs:
                fj = setup.jobs[fkey]
                table = setup.tasks[fj.task_id].weights[options.counting].get(cls.l2_set)
                if table is None:
                    continue
                if fkey not in contexts:
                    contexts[fkey] = JobContext(fj.release, setup.tasks[fj.task_id].ctx)
                view = (((lo - shift, hi - shift),),)
                blocks = collect_overlap_set(view, contexts[fkey], table[1])
                # No memo: the reference builds every exclusion graph afresh.
                raw, contrib = job_contribution(table, setup.bundle.tasks[fj.task_id], blocks)
                raw_total += raw
                mwis_total += contrib
                if contrib:
                    flo, fhi = fj.release
                    per_job.append(((flo + shift, fhi + shift), contrib))
            total += interference_bound(per_job, fchain.trigger, options.et_rule)
        mc[cls.access_id] = total
        debug[cls.access_id] = (raw_total, mwis_total)
    return mc, debug


def reference_instance(setup, key, mode, options, contexts=None):
    """(wcet, refined, mc, debug) of one job instance in one mode.

    `contexts` (job key -> fresh JobContext) may be shared across calls on
    one Setup; it is never the Setup's own.
    """
    from chainlat.context import TaskContext

    contexts = {} if contexts is None else contexts
    job = setup.jobs[key]
    ta = setup.tasks[job.task_id]
    if mode == "NCT":
        return ta.cip_wcet, dict(ta.all_miss), {}, {}
    targets = _ref_targets(setup, job.task_id)
    if mode == "TLT":
        # Foreign same-set pressure at job-lifetime scope.
        pressure = {c.l2_set: 0 for c in targets}
        for _, pairs in _ref_foreign_pairs(setup, key):
            for fkey, _ in pairs:
                weights = setup.tasks[setup.jobs[fkey].task_id].weights[options.counting]
                for s in pressure:
                    if s in weights:
                        pressure[s] += weights[s][0]
        mc = {c.access_id: pressure[c.l2_set] for c in targets}
        refined, con = _ref_refine(setup, job.task_id, mc)
        return min(con.wcet, ta.cip_wcet), refined, mc, {}
    line_window = ta.ctx.line_window
    wcet = None
    for p in range(options.refinement_passes):
        mc, debug = _ref_tsc_mc(setup, key, line_window, options, contexts)
        refined, con = _ref_refine(setup, job.task_id, mc)
        wcet = con.wcet if wcet is None else min(wcet, con.wcet)
        line_window = TaskContext(con).line_window
    tlt_wcet = reference_instance(setup, key, "TLT", options, contexts)[0]
    return min(wcet, tlt_wcet), refined, mc, debug


# ---------------------------------------------------------------------------
# Reference safety oracle: the TSC-only check over materialized trace records
# (AccessEvent / BlockOccurrence), with no per-job tables and no caches.


def reference_check_safety(trace, report, setup=None):
    """Violation records of a trace against a report's TSC results, in check order."""
    from chainlat.cache_ai import AH, BYPASS, PS

    setup = setup or report.setup
    tsc = {key[1:]: res for key, res in report.instances.items() if key[0] == "TSC"}
    violations = []

    by_instance = {}
    for j in trace.jobs:
        key = (j.chain_id, j.period_index, j.task_index)
        by_instance[key] = j
        res = tsc.get(key)
        if res is None:
            continue
        if j.finish - j.start > res.wcet:
            violations.append(
                {"kind": "job-latency", "job": key, "latency": j.finish - j.start, "bound": res.wcet}
            )

    for cid, chain in setup.chains.items():
        if (cid, "TSC") not in report.chain_results:
            continue
        mel = report.chain_results[(cid, "TSC")].mel
        for k in range(setup.hyper // chain.period):
            first = by_instance.get((cid, k, 0))
            last = by_instance.get((cid, k, len(chain.tasks) - 1))
            if first and last:
                latency = last.finish - first.start
                if latency > mel:
                    violations.append({"kind": "chain-latency", "chain": cid, "instance": k,
                                       "latency": latency, "bound": mel})

    ps_misses = {}
    for e in trace.accesses:
        job = (e.chain_id, e.period_index, e.task_index)
        res = tsc.get(job)
        if res is None:
            continue
        cls = setup.tasks[res.task_id].classification.accesses[e.access_id]
        chmc = res.refined.get(e.access_id, cls.l2_chmc)
        if cls.l2_chmc == BYPASS and e.level != "L1":
            violations.append({"kind": "l1-ah-miss", "access": e.access_id, "cycle": e.cycle})
        if e.level == "MEM":
            if chmc == AH:
                violations.append({"kind": "ah-miss", "access": e.access_id, "cycle": e.cycle,
                                   "job": job})
            elif chmc == PS:
                key = job + (e.access_id, e.scope)
                ps_misses[key] = ps_misses.get(key, 0) + 1
                if ps_misses[key] > 1:
                    violations.append({"kind": "ps-extra-miss", "access": e.access_id,
                                       "scope": e.scope, "count": ps_misses[key]})

    for occ in trace.blocks:
        key = (occ.chain_id, occ.period_index, occ.task_index, occ.block_id)
        job = setup.jobs[key[:3]]
        window = reference_bba_time(job.release, setup.tasks[job.task_id].ctx.bbrp[occ.block_id])
        if not any(lo <= occ.start and occ.end <= hi for lo, hi in window):
            violations.append({"kind": "context-coverage", "block": occ.block_id,
                               "job": key[:3], "window": (occ.start, occ.end)})

    for core, cid, k, i, release, actual in trace.overruns:
        violations.append({"kind": "deadline-overrun", "job": (cid, k, i),
                           "release": release, "actual_start": actual})
    return violations
