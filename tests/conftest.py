import os

import pytest
from hypothesis import settings

# HYPOTHESIS_PROFILE=ci prints a failing example's reproduction blob; local
# runs keep hypothesis's defaults.
settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# Acceptance verdict lines, echoed after the test run regardless of capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


from chainlat.context import JobContext
from chainlat.model import (
    BasicBlock,
    CacheLevelConfig,
    ChainSpec,
    LoopNode,
    MemAccess,
    SystemSpec,
    TaskGraph,
    WorkloadBundle,
    validate_task_graph,
)


def make_system(cores=1, l1_sets=2, l1_ways=4, l2_sets=32, l2_ways=4, line=32,
                l1_hit=1, l2_hit=6, mem=30, period_table=(2000, 4000, 8000, 16000, 32000)):
    return SystemSpec(
        core_count=cores,
        l1=CacheLevelConfig(l1_sets, l1_ways, line, l1_hit),
        l2=CacheLevelConfig(l2_sets, l2_ways, line, l2_hit),
        mem_latency=mem,
        base_cpi=1,
        period_table=period_table,
    )


def block(bid, instructions, accesses=()):
    return BasicBlock(bid, instructions, tuple(accesses))


def acc(aid, address):
    return MemAccess(aid, address)


def build_task(tid, blocks, edges, loops=(), exclusive=()):
    task = TaskGraph(
        tid,
        {b.id: b for b in blocks},
        tuple(edges),
        {l.id: l for l in loops},
        exclusive_pairs=frozenset(frozenset(p) for p in exclusive),
    )
    return validate_task_graph(task)


def straight_task(tid, costs, accesses=None):
    """Linear chain of blocks; costs are instruction counts (base_cpi 1)."""
    accesses = accesses or {}
    blocks = []
    edges = []
    for i, c in enumerate(costs):
        bid = "%s_b%d" % (tid, i)
        blocks.append(block(bid, c, accesses.get(i, ())))
        if i:
            edges.append(("%s_b%d" % (tid, i - 1), bid))
    return build_task(tid, blocks, edges)


def diamond_loop_task(tid="dl"):
    """Pre-loop block, a three-iteration diamond-body loop, post-loop block.

    Worked path costs: body short 11 / long 14, virtual node 33 / 42,
    program bounds 49 / 58.
    """
    b = lambda n: "%s_%s" % (tid, n)
    blocks = [
        block(b("b0"), 10),
        block(b("h"), 5),
        block(b("a"), 4),
        block(b("bb"), 7),
        block(b("t"), 2),
        block(b("b3"), 6),
    ]
    edges = [
        (b("b0"), b("h")),
        (b("h"), b("a")),
        (b("h"), b("bb")),
        (b("a"), b("t")),
        (b("bb"), b("t")),
        (b("t"), b("h")),
        (b("t"), b("b3")),
    ]
    loops = [LoopNode("%s_l1" % tid, b("h"), b("t"), (b("t"), b("h")), 3, 3)]
    return build_task(tid, blocks, edges, loops)


def shared_tail_task(tid="n"):
    """e -> oh -> ih -> m -> t -> x with back edges t -> ih (li, up to 4) and t -> oh (lo, up to 3).

    Both loops end on t, so the outer loop's tail lies in the inner loop.
    """
    blocks = [block("e", 1, (acc("e0", 0),)), block("oh", 1, (acc("oh0", 32),)),
              block("ih", 2, (acc("ih0", 64),)), block("m", 1, (acc("m0", 1024),)),
              block("t", 2, (acc("t0", 96),)), block("x", 1, (acc("x0", 0),))]
    edges = [("e", "oh"), ("oh", "ih"), ("ih", "m"), ("m", "t"), ("t", "ih"), ("t", "oh"), ("t", "x")]
    loops = [LoopNode("lo", "oh", "t", ("t", "oh"), 1, 3), LoopNode("li", "ih", "t", ("t", "ih"), 1, 4)]
    return build_task(tid, blocks, edges, loops)


def single_chain_bundle(task, system=None, trigger="ET", period=None):
    system = system or make_system(cores=1)
    chain = ChainSpec("c0", trigger, (task.id,), 0, period=period)
    return WorkloadBundle(system, {task.id: task}, {"c0": chain})


def boundary_bundle():
    """Dual-core bundle whose only interference crosses the hyperperiod boundary.

    Chain c1's single job takes its whole period (200 + 1 instructions plus
    one 30-cycle miss = 231), so its copy from the previous hyperperiod ends
    at cycle 0, where the reuse window of c0's always-hit access ``m``
    begins; the unshifted copy starts too late to meet it.
    """
    p = straight_task("p", [1, 4, 1], accesses={
        0: (acc("m0", 0),),
        1: tuple(acc("e%d" % i, 64 * (i + 1)) for i in range(4)),  # evict line 0 from L1 only
        2: (acc("m", 0),),
    })
    f = straight_task("f", [200, 1], accesses={1: (acc("x", 1024),)})  # shared set of line 0
    return WorkloadBundle(
        make_system(cores=2), {"p": p, "f": f},
        {"c0": ChainSpec("c0", "ET", ("p",), 0, 231), "c1": ChainSpec("c1", "ET", ("f",), 1, 231)},
    )


def shift_view(view, delta):
    """A block view (its levels of windows) with every interval moved by delta."""
    return tuple(tuple((lo + delta, hi + delta) for lo, hi in level) for level in view)


def job_context(setup, key):
    """A fresh JobContext of a job: its block views in absolute time."""
    job = setup.jobs[key]
    return JobContext(job.release, setup.tasks[job.task_id].ctx)


def target_view(setup, key, access_id):
    """The one-interval block view of a job's access: its reuse window
    (line_window) widened by the job's release window."""
    job = setup.jobs[key]
    (rlo, rhi), (lo, hi) = job.release, setup.tasks[job.task_id].ctx.line_window[access_id]
    return (((lo + rlo, hi + rhi),),)


@pytest.fixture
def system():
    return make_system()


@pytest.fixture
def diamond():
    return diamond_loop_task()
