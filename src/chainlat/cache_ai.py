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

Each fixpoint runs round-robin passes in topological order, and a pass
still means one such sweep, so the pass counts (l1_passes, l2_passes) are
those of transferring every block every pass.  Only blocks with a changed
predecessor are re-transferred, though: the others would compute the same
out-state again (chaotic iteration reaches the same least fixpoint).
`classify_task` builds one step table per block, (access id, L1 line, L2
line) in access order, so each line is looked up once per task, not per
pass.  The three fixpoints (L1 must, L1 may, L2 must) run on that table and
differ only in their access update and join (the L2 one reads the rows that
are not guaranteed L1 hits); one function, `_states_before`, runs each
from the empty entry state and records the state before every access.  A
block's last transfer is the one from its final in-state, so the states it
recorded are the fixpoint's; no walk over the blocks repeats it after the
fixpoint.
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

_L1_MISS = "MISS"
_L1_UNC = "UNC"


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
    return {l: max(a, s2[l]) for l, a in s1.items() if l in s2}


def _join_may(s1: dict, s2: dict) -> dict:
    out = dict(s2)
    for l, a in s1.items():
        out[l] = min(a, out.get(l, a))
    return out


class _Fixpoint:
    """Iterates block transfer functions over the full CFG to a fixed point.

    Each pass is one round-robin sweep in topological order, but only dirty
    blocks are transferred.  Every block starts dirty; a block whose
    out-state changes marks its successors (back edges included) dirty.  A
    clean block's in-state would be joined from unchanged out-states, and a
    dirty block whose joined in-state equals the one it was last transferred
    with is skipped as well.  A transfer's out-state depends on its in-state
    alone (it may note the states it passes through), so the skips leave
    every state, every pass's `changed` flag and so the pass count as a full
    sweep would; `transfers` counts the transfers made.  Each block's last
    transfer is from its in-state in the result.

    The entry starts from the empty state.  On a validated graph every other
    block has a forward predecessor earlier in the order, so its joined
    in-state is never None; on any graph a None state equals the missing
    in-state, so the in-state test skips it.
    """

    def __init__(self, task: TaskGraph, transfer, join):
        self.task = task
        self.transfer = transfer
        self.join = join
        self.order = task.topo_order
        self.pred = task.predecessors(include_back=True)
        self.succ = task.successors(include_back=True)
        self.in_states = {}
        self.passes = 0
        self.transfers = 0

    def run(self, max_passes: int) -> dict:
        order, pred, succ, join, transfer = self.order, self.pred, self.succ, self.join, self.transfer
        entry, in_states = self.task.entry_block, self.in_states
        out_states = {}
        dirty = set(order)
        changed = True
        while changed:
            self.passes += 1
            if self.passes > max_passes:
                raise RuntimeError("cache fixpoint did not converge in %d passes" % max_passes)
            changed = False
            for bid in order:
                if bid not in dirty:
                    continue
                dirty.discard(bid)
                if bid == entry:
                    state = {}
                else:
                    state = None
                    for p in pred[bid]:
                        pout = out_states.get(p)
                        if pout is not None:
                            state = pout if state is None else join(state, pout)
                    if in_states.get(bid) == state:
                        continue  # a changed predecessor left the joined in-state as it was, or none reaches it yet
                in_states[bid] = state
                out = transfer(bid, state)
                self.transfers += 1
                if out_states.get(bid) != out:
                    out_states[bid] = out
                    dirty.update(succ[bid])
                    changed = True
        return in_states


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


def _states_before(task: TaskGraph, steps: dict, update, join, ways: int):
    """The state before each access at the fixpoint from the empty entry state.

    `steps` maps each block to its accesses' steps in access order, each a
    tuple whose first item is the access id; `update(state, step)` is the
    state after that access.  Returns (access id -> state before it, pass
    count).
    """
    before = {}

    def transfer(bid, state):
        for step in steps[bid]:
            before[step[0]] = state
            state = update(state, step)
        return state

    fp = _Fixpoint(task, transfer, join)
    fp.run(max(4, len(task.blocks) * ways))
    return before, fp.passes


def _l2_step(state: dict, label: str, line: int, ways: int, sets: int) -> dict:
    """L2 must update for one access that misses or may miss L1."""
    touched = _age_update(state, line, ways, sets)
    return touched if label == _L1_MISS else _join_must(touched, state)


def classify_task(task: TaskGraph, system: SystemSpec) -> TaskClassification:
    """Exclusive-use CHMC and LRU age for every access of the task."""
    l1, l2 = system.l1, system.l2
    l1_ways, l1_sets, l2_ways, l2_sets = l1.ways, l1.sets, l2.ways, l2.sets
    steps = {bid: tuple((acc.id, l1.line_of(acc.address), l2.line_of(acc.address)) for acc in block.accesses)
             for bid, block in task.blocks.items()}

    def l1_update(state, step):
        return _age_update(state, step[1], l1_ways, l1_sets)

    must, must_passes = _states_before(task, steps, l1_update, _join_must, l1_ways)
    may, may_passes = _states_before(task, steps, l1_update, _join_may, l1_ways)
    labels = {aid: AH if line in must[aid] else _L1_MISS if line not in may[aid] else _L1_UNC
              for block_steps in steps.values() for aid, line, _ in block_steps}
    visible = {bid: tuple(step for step in block_steps if labels[step[0]] != AH) for bid, block_steps in steps.items()}

    def l2_update(state, step):
        return _l2_step(state, labels[step[0]], step[2], l2_ways, l2_sets)

    l2_pre, l2_passes = _states_before(task, visible, l2_update, _join_must, l2_ways)

    # Set pressure per loop scope: distinct L2-visible lines per cache set
    # over the whole loop body, nested loops included.
    pressure = {}
    for lid, loop in task.loops.items():
        per_set = {}
        for bid in loop.body_blocks:
            for _, _, line in visible[bid]:
                per_set.setdefault(line % l2_sets, set()).add(line)
        for s, lines in per_set.items():
            pressure[(lid, s)] = len(lines)

    out = {}
    ancestry = task.ancestry
    for bid, block_steps in steps.items():
        scope = ancestry[bid][0] if ancestry[bid] else None
        for aid, _, line in block_steps:
            if labels[aid] == AH:
                out[aid] = AccessClassification(aid, bid, AH, BYPASS, None, None, None)
                continue
            l2_set = line % l2_sets
            pre = l2_pre[aid]
            if line in pre:
                chmc, age = AH, pre[line]
            elif scope is not None and pressure.get((scope, l2_set), 0) <= l2_ways:
                chmc, age = PS, pressure[(scope, l2_set)]
            else:
                chmc, age = NC, None
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
