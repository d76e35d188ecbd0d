"""Concrete-execution simulator and safety oracle.

Cores execute their merged chains over one hyperperiod against live LRU
caches: a private first level per core and a shared second level.  Cores
interact only through the shared level, so each core runs eagerly between
its shared-cache lookups while the lookups themselves are applied in global
cycle order, ties resolved by ascending core id.  Caches are cold at time
zero and the private level is cleared at every job release, matching the
per-job cold-start assumption of the analysis.  The shared level is an
LRUCache; the walkers update the private level inline, on per-set lists
kept most recently used first, by the same LRU rule.

Path policies: seeded random choices, a worst-biased walker that steers
branches toward the heavier suffix and runs loops to their upper bounds,
and exhaustive enumeration of all decision tapes for small problems.

A job's blocks, scopes and private-cache outcomes never depend on the
shared level: random draws come from the job's own word stream, the
worst-biased policy reads static scores, and the private level is cold at
every release.  So under the worst-biased policy each task's walk is built
once, before its first job runs, and every job replays it, which is clock
arithmetic, shared-cache lookups and row appends.  The build copies the
loop iterations that repeat the one before instead of walking them.
Random and tape walks walk the graph for every job.

A random walk's job reads the 32-bit words that random.Random("seed|job
key") yields, from the first word, by CPython's randrange rule, so its
draws are those of a freshly seeded generator.  The words depend on the
key string alone, never on the bundle or the Setup, so one bounded,
process-wide memo keeps each key's first STREAM_WORDS words as a compact
word array and shares them, exactly, across paths, Setups and bundles: a
campaign whose seeds and job keys repeat seeds each key once instead of
once per job.  A job reading past them seeds its own generator for the
rest.

Before its first walk on a Setup, the simulator bounds the hyperperiod's
largest walk, every loop at its upper bound, and refuses a bundle above
MAX_TRACE_ROWS trace rows (block rows and access rows) with a
ValidationError.

A Setup keeps the per-task walk tables (with the worst-biased walk) and
the oracle's absolute windows, each built on first use, so every
path after the first on one Setup pays only for its own walk and its own
checks.  The oracle reads each absolute window where the analysis does,
from TaskContext.bba_times: the block's program-relative window shifted by
the job's release window.  It keeps one map per job on the Setup, block id
-> window over all of the job's task's blocks, built at the job's first
block row; a job's rows come in runs, and each run looks its map up once.
The walker records each access and block occurrence as a plain tuple row;
the AccessEvent and BlockOccurrence records are built from the rows at
each read, and the oracle reads the rows.
"""

from __future__ import annotations

import csv
import functools
import heapq
import random
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .cache_ai import AH, BYPASS, PS
from .latency import MODES, prepare
from .model import ValidationError


POLICIES = ("random", "worst", "tape")
# Most decision tapes simulate_exhaustive runs before it refuses the bundle.
MAX_EXHAUSTIVE_PATHS = 100_000
# Most trace rows (block occurrences and the accesses they carry) the largest
# walk of a hyperperiod may hold, every loop at its upper bound; simulate
# refuses a bundle above it before walking.  It keeps every loop's range, and
# so every random draw, under 2**32.
MAX_TRACE_ROWS = 1_000_000
# Most word streams the process keeps, one per job key.
MAX_STREAMS = 4096
# Words of a key's stream the memo keeps, so it holds at most
# MAX_STREAMS * 128 B of words; a job reading past them seeds its own
# generator for the rest.
STREAM_WORDS = 32


@dataclass
class SimConfig:
    policy: str = "random"  # random | worst | tape
    seed: int = 0
    tape: Optional[list] = None  # decision tape when policy == "tape"

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError("unknown simulation policy %r; expected one of %s"
                             % (self.policy, ", ".join(POLICIES)))
        if self.policy == "tape" and self.tape is None:
            raise ValueError("simulation policy 'tape' needs a tape")
        if self.policy != "tape" and self.tape is not None:
            raise ValueError("simulation policy %r takes no tape" % self.policy)


@dataclass
class JobRecord:
    core: int
    chain_id: str
    period_index: int
    task_index: int
    task_id: str
    start: int
    finish: int


@dataclass
class AccessEvent:
    cycle: int
    core: int
    chain_id: str
    period_index: int
    task_index: int
    block_id: str
    access_id: str
    level: str  # L1 | L2 | MEM
    scope: Optional[tuple]  # (loop id, entry serial) of the innermost scope


@dataclass
class BlockOccurrence:
    core: int
    chain_id: str
    period_index: int
    task_index: int
    block_id: str
    start: int
    end: int


@dataclass
class SimTrace:
    """One run.  Accesses and block occurrences are kept as rows: tuples of
    the AccessEvent and BlockOccurrence fields, in the same order.  The
    `accesses` and `blocks` properties are read-only tuples of records built
    from the rows at each read."""

    jobs: list = field(default_factory=list)
    access_rows: list = field(default_factory=list)
    block_rows: list = field(default_factory=list)
    overruns: list = field(default_factory=list)
    l2_state: list = field(default_factory=list)

    @property
    def accesses(self) -> tuple:
        return tuple(AccessEvent(*row) for row in self.access_rows)

    @property
    def blocks(self) -> tuple:
        return tuple(BlockOccurrence(*row) for row in self.block_rows)


class LRUCache:
    """Set-associative LRU cache over line numbers: the simulator's shared level.

    The walkers update the private level inline, on per-set lists, by the
    same rule.  The tests check this class against their reference cache,
    and the walkers against their reference simulator.
    """

    def __init__(self, sets: int, ways: int):
        self.sets = sets
        self.ways = ways
        self.state = [[] for _ in range(sets)]

    def access(self, line: int) -> bool:
        s = self.state[line % self.sets]
        if line in s:
            s.remove(line)
            s.insert(0, line)
            return True
        s.insert(0, line)
        if len(s) > self.ways:
            s.pop()
        return False

    def snapshot(self):
        return [list(s) for s in self.state]


class _Decider:
    """The decision tape of one tape walk.

    Each decision point with n > 1 choices takes the tape's next entry, or
    appends and takes 0 past the tape's end; `counts` records n for every
    point, so simulate_exhaustive can advance the tape like an odometer.
    """

    def __init__(self, tape):
        self.tape = list(tape)
        self.counts = []

    def choose(self, n: int) -> int:
        pos = len(self.counts)
        self.counts.append(n)
        if pos == len(self.tape):
            self.tape.append(0)
        return self.tape[pos]


@functools.lru_cache(maxsize=MAX_STREAMS)
def _word_stream(key: str) -> array:
    """The first STREAM_WORDS 32-bit outputs of random.Random(key), in order."""
    stream = array("I", random.Random(key).getrandbits(32 * STREAM_WORDS).to_bytes(4 * STREAM_WORDS, "little"))
    if sys.byteorder == "big":
        stream.byteswap()
    return stream


def _words(key: str):
    """Yield random.Random(key)'s 32-bit outputs from the first, endlessly.

    The first STREAM_WORDS come from the memo; a job reading past them
    draws the rest from its own random.Random(key), advanced past them.
    """
    yield from _word_stream(key)
    rng = random.Random(key)
    rng.getrandbits(32 * STREAM_WORDS)  # the words the memo holds
    while True:
        yield rng.getrandbits(32)


def _suffix_scores(task, node_worst) -> dict:
    """Worst-remaining-cost per block, the biased walker's branch heuristic."""
    scores = {}
    succ = task.successors(include_back=False)
    for bid in reversed(task.topo_order):
        nxt = 0  # costs are never negative
        for s in succ[bid]:
            if scores[s] > nxt:
                nxt = scores[s]
        scores[bid] = node_worst.get(bid, 0) + nxt
    return scores


class _TaskWalk:
    """Everything the walker reads of one task, as plain data.

    blocks maps a block id to a record (accesses, idle cycles, loop headed,
    exclusive arms, successors):
      - the accesses as (access id, private set, private line, shared
        line), in program order; each is one instruction, issued before the
        access-free ones.  Each line is the address over its level's line
        size, read once per task, and the set is the private line modulo
        the private level's sets;
      - the cycles of the block's access-free instructions;
      - (loop id, tail block, min bound, max bound) of the loop the block
        heads, or None;
      - the blocks its exclusive pairs rule out, or None;
      - its forward successors, sorted.

    worst is the worst-biased walk of a job of the task, built by
    _worst_walk before the first such job runs: one (block id, scope,
    accesses, idle cycles) per block occurrence, each access as (access
    id, shared line), the line None for a private-level hit.  Every job
    takes that walk: the policy reads static scores and maximal bounds, and
    the private level is cold at every release, so only the clock depends
    on the shared level.
    """

    __slots__ = ("entry", "exit", "scores", "blocks", "worst")

    def __init__(self, task, node_worst, system):
        self.worst = None
        self.entry = task.entry_block
        self.exit = task.exit_block
        self.scores = _suffix_scores(task, node_worst)
        heads = {ln.head_block: (lid, ln.tail_block, ln.min_bound, ln.max_bound)
                 for lid, ln in task.loops.items()}
        exclusive = {}
        for pair in task.exclusive_pairs:
            a, b = tuple(pair)
            exclusive.setdefault(a, set()).add(b)
            exclusive.setdefault(b, set()).add(a)
        succ = task.successors(include_back=False)
        l1_size, l1_sets, l2_size, cpi = system.l1.line_size, system.l1.sets, system.l2.line_size, system.base_cpi
        self.blocks = {
            bid: (
                tuple([(a.id, line % l1_sets, line, a.address // l2_size)
                       for a in b.accesses for line in (a.address // l1_size,)]),
                cpi * (b.instruction_count - len(b.accesses)),
                heads.get(bid),
                exclusive.get(bid),
                sorted(succ[bid]),  # filtering a sorted list keeps its order
            )
            for bid, b in task.blocks.items()
        }


def _check_walk_size(setup):
    """Refuse a bundle whose hyperperiod's largest walk exceeds MAX_TRACE_ROWS trace rows.

    A job's largest walk holds each block (one row, and one per access)
    its TaskGraph.max_visits times.  The message names the task with the
    largest share, its loop with the largest bound, and the counts.
    """
    tasks = setup.bundle.tasks
    jobs = Counter(job.task_id for job in setup.jobs.values())
    per_job = {}
    for tid in jobs:
        visits = tasks[tid].max_visits
        per_job[tid] = sum(visits[bid] * (1 + len(b.accesses)) for bid, b in tasks[tid].blocks.items())
    total = sum(jobs[tid] * per_job[tid] for tid in jobs)
    if total > MAX_TRACE_ROWS:
        tid = max(sorted(jobs), key=lambda t: jobs[t] * per_job[t])
        loops = tasks[tid].loops
        cause = ""
        if loops:
            lid = max(sorted(loops), key=lambda lid: loops[lid].max_bound)
            cause = ", its loop %s up to %d iterations" % (lid, loops[lid].max_bound)
        raise ValidationError(
            "simulation walks up to %d trace rows over the hyperperiod, over the limit of %d: "
            "task %s walks up to %d per job (jobs: %d)%s"
            % (total, MAX_TRACE_ROWS, tid, per_job[tid], jobs[tid], cause))


def _walks(setup) -> dict:
    """Task id -> _TaskWalk, built on the Setup's first simulation, once the walk size is checked."""
    if not setup.walks:
        _check_walk_size(setup)
        system = setup.bundle.system
        for tid, ta in setup.tasks.items():
            setup.walks[tid] = _TaskWalk(setup.bundle.tasks[tid], ta.contracted_init.node_worst, system)
    return setup.walks


def _worst_walk(walk, l1_sets, l1_ways) -> tuple:
    """The worst-biased walk of one job of the task, as _TaskWalk.worst holds it.

    Branches take the first successor with the heaviest suffix and loops run
    to their upper bounds, over a cold private level that the walk updates
    inline, on per-set MRU lists, as the random walker does.  A loop
    iteration's records depend only on the state it starts in: the private
    level and the blocks ruled out so far (a growing set, so its size names
    it), and it adds a fixed count to inner loops' entry serials.  Once an
    iteration starts in the state the one before it did, the later ones
    repeat it: they are copied with those inner serials shifted, not walked.
    Each walked record holds its own access tuple; copies share it.
    """
    records, scores = walk.blocks, walk.scores
    l1 = [[] for _ in range(l1_sets)]  # the private LRU level, MRU first
    out = []
    cur = walk.entry
    # Entered loops, innermost last: [scope, max, done, head, tail, and at
    # iteration start: len(out), state, serials]; a scope is (loop id, entry serial).
    loop_stack = []
    scope = None
    entry_serial = {}
    forbidden = set()

    while True:
        block_accesses, idle, loop, excluded, succ = records[cur]
        if loop is not None and (scope is None or scope[0] != loop[0]):
            lid, tail, _, hi = loop
            serial = entry_serial.get(lid, 0)
            entry_serial[lid] = serial + 1
            scope = (lid, serial)
            loop_stack.append([scope, hi, 1, cur, tail, len(out), (tuple(map(tuple, l1)), len(forbidden)),
                               dict(entry_serial)])

        if excluded is not None:
            forbidden |= excluded
        taken = []
        for aid, l1_set, l1_line, l2_line in block_accesses:
            ways = l1[l1_set]
            if l1_line in ways:
                if ways[0] != l1_line:
                    ways.remove(l1_line)
                    ways.insert(0, l1_line)
                taken.append((aid, None))
            else:
                ways.insert(0, l1_line)
                if len(ways) > l1_ways:
                    ways.pop()
                taken.append((aid, l2_line))
        out.append((cur, scope, tuple(taken), idle))

        # Repeat or leave loops whose tail this block is, innermost first.
        advanced = False
        while loop_stack and loop_stack[-1][4] == cur:
            top = loop_stack[-1]
            copies = top[1] - top[2]
            if copies:
                state = (tuple(map(tuple, l1)), len(forbidden))
                if state != top[6]:
                    top[2] += 1
                    top[5:] = len(out), state, dict(entry_serial)
                    cur = top[3]
                    advanced = True
                    break
                body, before = out[top[5]:], top[7]
                shift = {m: n - before.get(m, 0) for m, n in entry_serial.items() if n != before.get(m, 0)}
                if shift:
                    for rep in range(1, copies + 1):
                        out.extend([(b, (sc[0], sc[1] + rep * shift[sc[0]]) if sc[0] in shift else sc, acc, c)
                                    for b, sc, acc, c in body])
                    for m, d in shift.items():
                        entry_serial[m] += copies * d
                else:
                    out.extend(body * copies)
            loop_stack.pop()
            scope = loop_stack[-1][0] if loop_stack else None
        if advanced:
            continue
        if cur == walk.exit:
            return tuple(out)
        if forbidden:
            succ = [s for s in succ if s not in forbidden] or succ
        cur = succ[0] if len(succ) == 1 else max(succ, key=scores.__getitem__)  # the first of the heaviest


def _core_walker(core, setup, cid, config, decider, trace, walks):
    """Generator running one core's chain; yields (cycle, shared line) at shared-cache lookups.

    A TT job or an instance's first job starts no earlier than its release
    in setup.jobs; a later ET job starts when its predecessor completes.

    Under the worst-biased policy every job replays its task's worst walk,
    built before the task's first job runs.  A tape walk takes its choices
    from `decider`.  A random walk draws each choice from its job's word
    stream, keyed "seed|chain/instance/task" and read from its first word:
    a branch takes randrange(n) over its sorted successors and a loop runs
    lo + randint(0, hi - lo) iterations.  CPython's rule for n < 2**32
    takes the top n.bit_length() bits of one word per try and retries
    while the value is >= n, so the draws are those of a fresh
    random.Random(key); MAX_TRACE_ROWS keeps every n below 2**32.  The
    stream depends on the key alone, so the memo shares it, exactly,
    across paths, Setups and bundles.

    A decision point has more than one choice; a single successor or a loop
    whose bounds agree decides nothing and draws nothing.  The walk keeps
    the innermost loop's tail and scope in variables, updated only when a
    loop is entered, repeated or left.
    """
    chain = setup.chains[cid]
    system = setup.bundle.system
    cpi, l1_hit = system.base_cpi, system.l1.hit_latency
    l1_sets, l1_ways = system.l1.sets, system.l1.ways
    access_rows, block_rows = trace.access_rows, trace.block_rows
    replay = decider is None and config.policy == "worst"
    if replay:
        for tid in chain.tasks:
            if walks[tid].worst is None:
                walks[tid].worst = _worst_walk(walks[tid], l1_sets, l1_ways)
    jobs = setup.jobs
    clock = 0

    for k in range(setup.hyper // chain.period):
        for i, tid in enumerate(chain.tasks):
            walk = walks[tid]
            records = walk.blocks
            if chain.trigger == "TT" or i == 0:
                release = jobs[cid, k, i].release.lo  # a window of one instant
            else:
                release = clock  # ET: triggered by predecessor completion
            if clock > release:
                trace.overruns.append((core, cid, k, i, release, clock))
            clock = max(clock, release)
            start = clock

            if replay:
                for cur, scope, accesses, idle in walk.worst:
                    b_start = clock
                    for aid, l2_line in accesses:
                        clock += cpi
                        if l2_line is None:
                            clock += l1_hit
                            level = "L1"
                        else:
                            latency, level = yield (clock, l2_line)
                            clock += latency
                        access_rows.append((clock, core, cid, k, i, cur, aid, level, scope))
                    clock += idle
                    block_rows.append((core, cid, k, i, cur, b_start, clock))
                trace.jobs.append(JobRecord(core, cid, k, i, tid, start, clock))
                continue

            l1 = [[] for _ in range(l1_sets)]  # the private LRU level, cold per job, MRU first
            if decider is None:  # the next 32-bit word of the job's stream
                word = _words("%s|%s/%d/%d" % (config.seed, cid, k, i)).__next__

            cur = walk.entry
            loops = []  # entered loops, innermost last: [iterations left, head, outer tail, outer scope]
            tail = scope = forbidden = None
            entry_serial = {}

            while True:
                block_accesses, idle, loop, excluded, succ = records[cur]
                if loop is not None and (scope is None or scope[0] != loop[0]):
                    lid, loop_tail, lo, hi = loop
                    n = hi - lo + 1
                    if n == 1:
                        r = 0
                    elif decider is not None:
                        r = decider.choose(n)
                    else:  # randrange(n): n.bit_length() bits of a word per try, retried while >= n
                        shift = 32 - n.bit_length()
                        r = word() >> shift
                        while r >= n:
                            r = word() >> shift
                    serial = entry_serial.get(lid, 0)
                    entry_serial[lid] = serial + 1
                    loops.append([lo + r - 1, cur, tail, scope])
                    tail, scope = loop_tail, (lid, serial)

                if excluded is not None:
                    forbidden = excluded if forbidden is None else forbidden | excluded
                b_start = clock
                for aid, l1_set, l1_line, l2_line in block_accesses:
                    clock += cpi
                    ways = l1[l1_set]
                    if l1_line in ways:
                        if ways[0] != l1_line:
                            ways.remove(l1_line)
                            ways.insert(0, l1_line)
                        clock += l1_hit
                        level = "L1"
                    else:
                        ways.insert(0, l1_line)
                        if len(ways) > l1_ways:
                            ways.pop()
                        latency, level = yield (clock, l2_line)
                        clock += latency
                    access_rows.append((clock, core, cid, k, i, cur, aid, level, scope))
                clock += idle
                block_rows.append((core, cid, k, i, cur, b_start, clock))

                # Repeat the innermost loop ending here, or leave it and try the next one out.
                while cur == tail:
                    top = loops[-1]
                    if top[0] > 0:
                        top[0] -= 1
                        cur = top[1]
                        break
                    loops.pop()
                    tail, scope = top[2], top[3]
                else:
                    if cur == walk.exit:
                        break
                    if forbidden is not None:
                        succ = [s for s in succ if s not in forbidden] or succ
                    n = len(succ)
                    if n == 1:
                        r = 0
                    elif decider is not None:
                        r = decider.choose(n)
                    else:  # as at a loop entry
                        shift = 32 - n.bit_length()
                        r = word() >> shift
                        while r >= n:
                            r = word() >> shift
                    cur = succ[r]

            trace.jobs.append(JobRecord(core, cid, k, i, tid, start, clock))


def _run(setup, config, decider) -> SimTrace:
    system = setup.bundle.system
    walks = _walks(setup)
    trace = SimTrace()
    l2 = LRUCache(system.l2.sets, system.l2.ways)
    hit, miss = (system.l2.hit_latency, "L2"), (system.mem_latency, "MEM")

    gens = {}
    for cid in sorted(setup.chains):
        core = setup.chains[cid].core
        gens[core] = _core_walker(core, setup, cid, config, decider, trace, walks)

    heap = []
    for core in sorted(gens):
        try:
            cycle, line = next(gens[core])
            heapq.heappush(heap, (cycle, core, line))
        except StopIteration:
            pass

    while heap:
        cycle, core, line = heapq.heappop(heap)
        try:
            nxt_cycle, nxt_line = gens[core].send(hit if l2.access(line) else miss)
            heapq.heappush(heap, (nxt_cycle, core, nxt_line))
        except StopIteration:
            pass

    trace.jobs.sort(key=lambda j: (j.core, j.period_index, j.task_index))
    trace.l2_state = l2.snapshot()
    return trace


def simulate(bundle, config: SimConfig, setup=None) -> SimTrace:
    """One concrete run of the whole bundle over its hyperperiod.

    The policy alone decides the walk.  The walk tables are built on the
    Setup's first simulation and reused, so a Setup shared across paths
    pays for them once.  A bundle whose largest walk exceeds
    MAX_TRACE_ROWS trace rows raises ValidationError before any walk.
    """
    setup = setup or prepare(bundle)
    return _run(setup, config, _Decider(config.tape) if config.policy == "tape" else None)


def simulate_exhaustive(bundle, setup=None):
    """Yield one trace per decision tape, enumerated like an odometer.

    A tape decides every choice, so no path draws a random number.  The
    walk size is checked, as simulate does, before the first path.  Once
    MAX_EXHAUSTIVE_PATHS paths are yielded and a tape remains, it raises
    ValidationError without walking that tape.
    """
    setup = setup or prepare(bundle)
    tape = []
    paths = 0
    while True:
        decider = _Decider(tape)
        yield _run(setup, SimConfig(policy="tape", tape=tape), decider)
        paths += 1
        grown, counts = decider.tape, decider.counts
        pos = len(grown) - 1
        while pos >= 0 and grown[pos] + 1 >= counts[pos]:
            pos -= 1
        if pos < 0:
            return
        if paths == MAX_EXHAUSTIVE_PATHS:
            raise ValidationError("exhaustive simulation exceeds %d paths" % MAX_EXHAUSTIVE_PATHS)
        tape = grown[: pos + 1]
        tape[pos] += 1


def trace_hit_ratio(trace: SimTrace) -> Optional[float]:
    """Shared-cache hits over shared-cache accesses; None without L2 traffic."""
    levels = [row[7] for row in trace.access_rows if row[7] != "L1"]
    if not levels:
        return None
    return levels.count("L2") / len(levels)


def check_safety(trace: SimTrace, report, setup=None) -> list:
    """Compare a concrete trace against the refined analysis results.

    Returns violation records; an empty list certifies the run.  Checks:
    job and chain latencies against the refined TSC bounds, and every
    block occurrence covered by its absolute window.  For the always-hit
    and persistent claims of every mode in the report: no access the
    private level always hits reaches the shared level, always-hit accesses
    never miss it, and persistent accesses miss at most once per scope
    entry, counted per mode.  A claim record of a mode other than TSC
    carries that mode under "mode".  A report without TSC results raises
    ValueError.  Everything read from the report is read per call: callers
    may edit a report between checks.
    """
    setup = setup or report.setup
    instances = report.instances
    if not any(key[0] == "TSC" for key in instances):
        modes = sorted({key[0] for key in instances} | {key[1] for key in report.chain_results})
        raise ValueError("check_safety needs TSC results; the report has modes %s"
                         % (", ".join(modes) or "none"))
    violations = []

    by_instance = {}
    for j in trace.jobs:
        key = (j.chain_id, j.period_index, j.task_index)
        by_instance[key] = j
        res = instances.get(("TSC",) + key)
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

    # Each job's claims are resolved on its first shared-cache row: the
    # task's base classifications and every mode's refined map.
    # Private-level hits are skipped unread; they break no claim.
    claims = {}  # job key -> (base classifications, ((mode, refined map), ...)) or None
    ps_misses = {}
    for row in trace.access_rows:
        if row[7] == "L1":
            continue
        cycle, _, cid, k, i, _, aid, level, scope = row
        job = (cid, k, i)
        entry = claims.get(job, False)
        if entry is False:
            entry = claims[job] = _job_claims(setup, instances, job)
        if entry is None:
            continue
        base, by_mode = entry
        if base[aid].l2_chmc == BYPASS:
            violations.append({"kind": "l1-ah-miss", "access": aid, "cycle": cycle})
        if level != "MEM":
            continue
        for mode, refined in by_mode:
            chmc = refined[aid]
            if chmc == AH:
                record = {"kind": "ah-miss", "access": aid, "cycle": cycle, "job": job}
            elif chmc == PS:
                key = (mode, job, aid, scope)
                count = ps_misses[key] = ps_misses.get(key, 0) + 1
                if count == 1:
                    continue
                record = {"kind": "ps-extra-miss", "access": aid, "scope": scope, "count": count}
            else:
                continue
            if mode != "TSC":
                record["mode"] = mode
            violations.append(record)

    # A job's block rows come in runs between other cores' rows: its
    # windows are looked up once per run, and built at its first row.
    windows = setup.oracle_windows
    pcid = pk = pi = None
    for _, cid, k, i, bid, start, end in trace.block_rows:
        if i != pi or k != pk or cid != pcid:
            pcid, pk, pi = cid, k, i
            job = (cid, k, i)
            job_windows = windows.get(job)
            if job_windows is None:
                instance = setup.jobs[job]
                ctx = setup.tasks[instance.task_id].ctx
                job_windows = windows[job] = ctx.bba_times(ctx.task.blocks, instance.release)
        # Covered when the occurrence lies inside one interval of the window.
        for lo, hi in job_windows[bid]:
            if lo <= start and end <= hi:
                break
        else:
            violations.append({"kind": "context-coverage", "block": bid,
                               "job": job, "window": (start, end)})

    for core, cid, k, i, release, actual in trace.overruns:
        violations.append({"kind": "deadline-overrun", "job": (cid, k, i),
                           "release": release, "actual_start": actual})
    return violations


def _job_claims(setup, instances, job):
    """(base classifications, ((mode, refined map), ...)) of one job, TSC first; None without results.

    A job without a TSC result is checked against the other modes only.
    """
    cid, k, i = job
    found = [(mode, res) for mode in MODES if (res := instances.get((mode, cid, k, i))) is not None]
    if not found:
        return None
    base = setup.tasks[found[0][1].task_id].classification.accesses
    return base, tuple((mode, res.refined) for mode, res in found)


def write_trace_csv(path, trace: SimTrace):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cycle", "core", "chain", "period", "task", "block", "access", "level"])
        for row in sorted(trace.access_rows, key=lambda r: (r[0], r[1], r[6])):
            w.writerow(row[:8])
