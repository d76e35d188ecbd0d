"""Abstract-interpretation cache analysis.

Step 1 classifies every access assuming the core has the shared cache to
itself: LRU must analysis at both levels plus a persistence analysis whose
scope is the innermost enclosing loop.  Step 2 (refine_chmc) downgrades
AH/PS accesses that interference can evict.

The private L1 additionally runs a may analysis, used only to decide how an
access propagates to L2: a guaranteed L1 hit never reaches L2 (BYPASS), a
guaranteed L1 miss updates the L2 state strongly, anything else joins the
accessed and not-accessed outcomes.  Analysis assumes a cold cache at each
job release; no credit is taken for inter-job reuse.

`classify_task` builds one plan per task: its blocks by position in
topological order, entry first, with each block's predecessor and
successor positions over all edges.  The three fixpoints (L1 must, L1 may,
L2 must) are sweeps of that plan by one function, `_sweep`, and differ only
in their transfer and join.  Each sweep runs round-robin passes in
position order, and a pass still means one such sweep, so the pass counts
(l1_passes, l2_passes) are those of transferring every block every pass.
Only blocks with a changed predecessor are re-transferred, though: the
others would compute the same out-state again (chaotic iteration reaches
the same least fixpoint).  A transfer records each access's verdict as it
runs: whether its line is in the L1 must state, whether it is in the L1
may state, and its age in the L2 must state.  A block's last transfer is
the one from its final in-state, so the verdicts it recorded are the
fixpoint's; the L2 sweep reads the accesses the L1 verdicts leave visible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .model import SystemSpec, TaskGraph

AH = "AH"
PS = "PS"
NC = "NC"
BYPASS = "BYPASS"


def _age_update(state: dict, line: int, ways: int, sets: int) -> dict:
    """LRU age update shared by must and may abstractions.

    Lines younger than the accessed line (or all same-set lines when it is
    absent) age by one and leave the state past the associativity.  States
    are never mutated, so a line already at age 1 returns its input.
    """
    old = state.get(line)
    if old == 1:
        return state
    s = line % sets
    new = {}
    if old is None:
        for l, a in state.items():
            if l % sets != s:
                new[l] = a
            elif a < ways:
                new[l] = a + 1
    else:
        for l, a in state.items():
            if a < old and l % sets == s:
                new[l] = a + 1
            elif l != line:
                new[l] = a
    new[line] = 1
    return new


def _join_must(s1: dict, s2: dict) -> dict:
    """The lines in both states, each at the older of its ages."""
    return {l: a if a >= b else b for l, a in s1.items() if (b := s2.get(l)) is not None}


def _join_may(s1: dict, s2: dict) -> dict:
    """The lines in either state, each at the younger of its ages."""
    out = dict(s2)
    for l, a in s1.items():
        if (b := out.get(l)) is None or a < b:
            out[l] = a
    return out


def _plan(task: TaskGraph) -> tuple:
    """(order, index, preds, succs): the blocks in topological order, entry
    first, each block's position, and by position the positions of its
    predecessors and successors over all edges, back edges included."""
    order = task.topo_order
    assert order[0] == task.entry_block, (task.id, order[0], task.entry_block)
    index = {bid: i for i, bid in enumerate(order)}
    pred, succ = task.predecessors(), task.successors()
    return (order, index, [[index[p] for p in pred[bid]] for bid in order],
            [[index[q] for q in succ[bid]] for bid in order])


def _sweep(plan: tuple, transfer, join, entry_state: dict, max_passes: int) -> tuple:
    """Iterates block transfer functions over the plan to a fixed point.

    Each pass is one round-robin sweep in position order, but only dirty
    blocks are transferred.  Every block starts dirty; a block whose
    out-state changes marks its successors (back edges included) dirty.  A
    clean block's in-state would be joined from unchanged out-states, and a
    dirty block whose joined in-state equals the one it was last transferred
    with is skipped as well (states compare by identity, then equality).
    `transfer(position, state)` is the out-state; it depends on the in-state
    alone (it may note what it passes through), so the skips leave every
    state, every pass's `changed` flag and so the pass count as a full sweep
    would.  Each block's last transfer is from its in-state in the result.

    The entry, position 0, starts from `entry_state`.  On a validated graph
    every other block has a forward predecessor earlier in the order, so
    its joined in-state is never None; on any graph a None state equals the
    missing in-state, so the in-state test skips it.  Returns (in-states by
    position, None where no state reached, passes, transfers made).
    """
    preds, succs = plan[2], plan[3]
    n = len(preds)
    in_states, out_states, dirty = [None] * n, [None] * n, [True] * n
    passes = transfers = 0
    changed = True
    while changed:
        passes += 1
        if passes > max_passes:
            raise RuntimeError("cache fixpoint did not converge in %d passes" % max_passes)
        changed = False
        for i in range(n):
            if not dirty[i]:
                continue
            dirty[i] = False
            if i:
                state = None
                for p in preds[i]:
                    out = out_states[p]
                    if out is not None:
                        state = out if state is None else join(state, out)
                old = in_states[i]
                if old is state or old == state:
                    continue  # a changed predecessor left the joined in-state as it was, or none reaches it yet
            else:
                state = entry_state
            in_states[i] = state
            out = transfer(i, state)
            transfers += 1
            old = out_states[i]
            if old is not out and old != out:
                out_states[i] = out
                for q in succs[i]:
                    dirty[q] = True
                changed = True
    return in_states, passes, transfers


class AccessClassification(NamedTuple):
    """One access's classification; a named tuple, since classify_task makes
    one per access and a frozen dataclass costs about three times as much to
    build."""

    access_id: str
    block_id: str
    l1_chmc: str  # AH | NC
    l2_chmc: str  # AH | PS | NC | BYPASS
    l2_age: Optional[int]
    l2_set: Optional[int]
    l2_line: Optional[int]


@dataclass
class TaskClassification:
    task_id: str
    accesses: dict  # access id -> AccessClassification
    l1_passes: int
    l2_passes: int

    def __post_init__(self):
        self._visible = tuple(c for c in self.accesses.values() if c.l2_chmc != BYPASS)

    def visible(self) -> tuple:
        """Accesses that reach the shared cache, in access order; built once."""
        return self._visible


def classify_task(task: TaskGraph, system: SystemSpec) -> TaskClassification:
    """Exclusive-use CHMC and LRU age for every access of the task."""
    l1, l2 = system.l1, system.l2
    l1_ways, l1_sets, l2_ways, l2_sets = l1.ways, l1.sets, l2.ways, l2.sets
    plan = _plan(task)
    order, index, n = plan[0], plan[1], len(plan[0])
    l1_lines, l2_lines = ([tuple([acc.address // size for acc in task.blocks[bid].accesses]) for bid in order]
                          for size in (l1.line_size, l2.line_size))

    def l1_verdicts(join):
        """By position, per access: whether its L1 line is in the state before it."""
        found = [None] * n

        def transfer(i, state):
            seen = found[i] = []
            for line in l1_lines[i]:
                seen.append(line in state)
                state = _age_update(state, line, l1_ways, l1_sets)
            return state

        return found, _sweep(plan, transfer, join, {}, max(4, n * l1_ways))[1]

    must, must_passes = l1_verdicts(_join_must)
    may, may_passes = l1_verdicts(_join_may)
    # By position, the accesses that reach L2: (L2 line, a guaranteed L1 miss).
    visible = [tuple((line, not reach) for line, hit, reach in zip(l2_lines[i], must[i], may[i]) if not hit)
               for i in range(n)]
    ages = [None] * n  # by position, per visible access: its L2 line's age in the state before it, or None

    def l2_transfer(i, state):
        seen = ages[i] = []
        for line, miss in visible[i]:
            seen.append(state.get(line))
            touched = _age_update(state, line, l2_ways, l2_sets)
            state = touched if miss else _join_must(touched, state)
        return state

    l2_passes = _sweep(plan, l2_transfer, _join_must, {}, max(4, n * l2_ways))[1]

    # Set pressure per loop scope: distinct L2-visible lines per cache set
    # over the whole loop body, nested loops included.
    ancestry = task.ancestry
    per_set = {}
    for bid, rows in zip(order, visible):
        for lid in ancestry[bid]:
            for line, _ in rows:
                per_set.setdefault((lid, line % l2_sets), set()).add(line)
    pressure = {key: len(lines) for key, lines in per_set.items()}

    out = {}
    for bid, block in task.blocks.items():
        i = index[bid]
        scope = ancestry[bid][0] if ancestry[bid] else None
        visible_ages = iter(ages[i])
        for acc, hit, line in zip(block.accesses, must[i], l2_lines[i]):
            aid = acc.id
            if hit:
                out[aid] = AccessClassification(aid, bid, AH, BYPASS, None, None, None)
                continue
            l2_set, age = line % l2_sets, next(visible_ages)
            if age is not None:
                chmc = AH
            elif scope is not None and pressure.get((scope, l2_set), 0) <= l2_ways:
                chmc, age = PS, pressure[(scope, l2_set)]
            else:
                chmc = NC
            out[aid] = AccessClassification(aid, bid, NC, chmc, age, l2_set, line)

    return TaskClassification(task.id, out, max(must_passes, may_passes), l2_passes)


def refine_chmc(cls: AccessClassification, interference: int, ways: int) -> str:
    """Downgrade AH/PS to NC when the ways left cannot absorb the interference."""
    if cls.l2_chmc not in (AH, PS):
        return cls.l2_chmc
    if ways - cls.l2_age < interference:
        return NC
    return cls.l2_chmc


def all_miss(classification: TaskClassification) -> dict:
    """The all-miss refinement: every shared-cache visible access NC.

    It is what refine_chmc yields for every AH/PS access at an interference
    of `ways` or more, and it prices the pessimistic NCT/CIP bound.
    """
    return {aid: (BYPASS if c.l2_chmc == BYPASS else NC) for aid, c in classification.accesses.items()}


def write_classification_csv(path, classification: TaskClassification):
    """Debug dump: one row per access.  The mc column is empty and refined
    repeats the access's own L2 CHMC."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["access", "block", "set", "l1", "l2", "age", "mc", "refined"])
        for aid in sorted(classification.accesses):
            c = classification.accesses[aid]
            w.writerow(
                [
                    c.access_id,
                    c.block_id,
                    "" if c.l2_set is None else c.l2_set,
                    c.l1_chmc,
                    c.l2_chmc,
                    "" if c.l2_age is None else c.l2_age,
                    "",
                    c.l2_chmc,
                ]
            )
