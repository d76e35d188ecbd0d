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
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

from .model import CacheLevelConfig, SystemSpec, TaskGraph

AH = "AH"
PS = "PS"
NC = "NC"
BYPASS = "BYPASS"

_L1_MISS = "MISS"
_L1_UNC = "UNC"


def _age_update(state: dict, line: int, ways: int, sets: int) -> dict:
    """LRU age update shared by must and may abstractions.

    Lines younger than the accessed line (or all same-set lines when it is
    absent) age by one and leave the state past the associativity.
    """
    s = line % sets
    old = state.get(line)
    new = {}
    for l, a in state.items():
        if l == line:
            continue
        if l % sets != s:
            new[l] = a
        elif old is None or a < old:
            if a + 1 <= ways:
                new[l] = a + 1
        else:
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
    """Iterates block transfer functions over the full CFG to a fixed point."""

    def __init__(self, task: TaskGraph, transfer, join, bottom_entry):
        self.task = task
        self.transfer = transfer
        self.join = join
        self.order = task.topo_order
        self.pred = task.predecessors(include_back=True)
        self.entry_state = bottom_entry
        self.in_states = {}
        self.passes = 0

    def run(self, max_passes: int) -> dict:
        out_states = {}
        changed = True
        while changed:
            self.passes += 1
            if self.passes > max_passes:
                raise RuntimeError("cache fixpoint did not converge in %d passes" % max_passes)
            changed = False
            for bid in self.order:
                preds = [p for p in self.pred[bid] if p in out_states]
                if bid == self.task.entry_block:
                    state = dict(self.entry_state)
                elif not preds:
                    continue  # not yet reachable this pass
                else:
                    state = out_states[preds[0]]
                    for p in preds[1:]:
                        state = self.join(state, out_states[p])
                self.in_states[bid] = state
                out = self.transfer(bid, state)
                if out_states.get(bid) != out:
                    out_states[bid] = out
                    changed = True
        return self.in_states


@dataclass(frozen=True)
class AccessClassification:
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

    def same_line_blocks(self, l2_line: int) -> set:
        return {c.block_id for c in self.visible() if c.l2_line == l2_line}


def l1_analysis(task: TaskGraph, l1: CacheLevelConfig):
    """L1 must and may fixpoints; returns per-access labels and pass count."""
    ways, sets = l1.ways, l1.sets

    def transfer(bid, state):
        for acc in task.blocks[bid].accesses:
            state = _age_update(state, l1.line_of(acc.address), ways, sets)
        return state

    cap = max(4, len(task.blocks) * ways)
    must = _Fixpoint(task, transfer, _join_must, {})
    must_in = must.run(cap)
    may = _Fixpoint(task, transfer, _join_may, {})
    may_in = may.run(cap)

    labels = {}
    for bid in task.blocks:
        ms = dict(must_in.get(bid, {}))
        ys = dict(may_in.get(bid, {}))
        for acc in task.blocks[bid].accesses:
            line = l1.line_of(acc.address)
            if line in ms:
                labels[acc.id] = AH
            elif line not in ys:
                labels[acc.id] = _L1_MISS
            else:
                labels[acc.id] = _L1_UNC
            ms = _age_update(ms, line, ways, sets)
            ys = _age_update(ys, line, ways, sets)
    return labels, max(must.passes, may.passes)


def l2_must_analysis(task: TaskGraph, l2: CacheLevelConfig, l1_labels: dict):
    """L2 must fixpoint under exclusive use, honoring L1 filtering."""
    ways, sets = l2.ways, l2.sets

    def step(state, acc):
        label = l1_labels[acc.id]
        if label == AH:
            return state
        touched = _age_update(state, l2.line_of(acc.address), ways, sets)
        if label == _L1_MISS:
            return touched
        return _join_must(touched, state)

    def transfer(bid, state):
        for acc in task.blocks[bid].accesses:
            state = step(state, acc)
        return state

    fp = _Fixpoint(task, transfer, _join_must, {})
    in_states = fp.run(max(4, len(task.blocks) * ways))

    pre_access = {}
    for bid in task.blocks:
        state = dict(in_states.get(bid, {}))
        for acc in task.blocks[bid].accesses:
            pre_access[acc.id] = state
            state = step(state, acc)
    return pre_access, fp.passes


def classify_task(task: TaskGraph, system: SystemSpec) -> TaskClassification:
    """Exclusive-use CHMC and LRU age for every access of the task."""
    l1, l2 = system.l1, system.l2
    l1_labels, l1_passes = l1_analysis(task, l1)
    l2_pre, l2_passes = l2_must_analysis(task, l2, l1_labels)

    # Set pressure per loop scope: distinct L2-visible lines per cache set
    # over the whole loop body, nested loops included.
    pressure = {}
    for lid, loop in task.loops.items():
        per_set = {}
        for bid in loop.body_blocks:
            for acc in task.blocks[bid].accesses:
                if l1_labels[acc.id] == AH:
                    continue
                line = l2.line_of(acc.address)
                per_set.setdefault(line % l2.sets, set()).add(line)
        for s, lines in per_set.items():
            pressure[(lid, s)] = len(lines)

    out = {}
    for bid, block in task.blocks.items():
        scope = block.enclosing_loop
        for acc in block.accesses:
            if l1_labels[acc.id] == AH:
                out[acc.id] = AccessClassification(acc.id, bid, AH, BYPASS, None, None, None)
                continue
            line = l2.line_of(acc.address)
            l2_set = line % l2.sets
            pre = l2_pre[acc.id]
            if line in pre:
                chmc, age = AH, pre[line]
            elif scope is not None and pressure.get((scope, l2_set), 0) <= l2.ways:
                chmc, age = PS, pressure[(scope, l2_set)]
            else:
                chmc, age = NC, None
            out[acc.id] = AccessClassification(acc.id, bid, NC, chmc, age, l2_set, line)

    return TaskClassification(task.id, out, l1_passes, l2_passes)


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


def write_classification_csv(path, classification: TaskClassification, mc=None, refined=None):
    """Debug dump: one row per access with optional refinement columns."""
    mc = mc or {}
    refined = refined or {}
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
                    mc.get(aid, ""),
                    refined.get(aid, c.l2_chmc),
                ]
            )
