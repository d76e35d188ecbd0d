#!/usr/bin/env python3
"""Walk through the interval-sequence algebra and the overlap phases.

Every time quantity in the analysis is a sequence of closed integer-cycle
intervals.  This script shows the three primitive operations (pairwise sum,
normalization, the linear overlap sweep) and then the three overlap
phases on a small looped program: the lifetime index for jobs, then the
loop envelope and the block windows.
"""

from chainlat import Interval
from chainlat.cache_ai import classify_task
from chainlat.context import JobContext, TaskContext
from chainlat.cost import contract_task
from chainlat.latency import LifetimeIndex
from chainlat.model import BasicBlock, JobInstance, LoopNode, TaskGraph, validate_task_graph
from chainlat.overlap import hierarchical_overlap, normalize, seq, seq_merge, seq_overlap

print("=" * 72)
print("1. The pairwise sum combines independent uncertainties")
print("=" * 72)

release = seq((100, 120))            # a job may be released anywhere here
offset = seq((10, 14), (30, 38))     # a block runs in one of two windows
combined = seq_merge(release, offset)
print("release window :", release)
print("block offsets  :", offset)
print("absolute window:", combined)
print("normalized     :", normalize(combined))
print("an Interval equals its (lo, hi) pair:", Interval(110, 158) == (110, 158))
print()

print("=" * 72)
print("2. Overlap is closed: touching endpoints count")
print("=" * 72)
a = seq((0, 5), (10, 15))
b = seq((6, 9))
c = seq((5, 8))
print("A =", a, " B =", b, " C =", c)
print("A overlaps B?", seq_overlap(a, b), " (gaps on both sides)")
print("A overlaps C?", seq_overlap(a, c), " (they meet exactly at 5)")
print()

print("=" * 72)
print("3. Three overlap phases on a looped program")
print("=" * 72)


def looped_task():
    blocks = {
        "b0": BasicBlock("b0", 10),
        "h": BasicBlock("h", 5),
        "a": BasicBlock("a", 4),
        "b": BasicBlock("b", 7),
        "t": BasicBlock("t", 2),
        "b3": BasicBlock("b3", 6),
    }
    edges = (("b0", "h"), ("h", "a"), ("h", "b"), ("a", "t"), ("b", "t"), ("t", "h"), ("t", "b3"))
    loops = {"l1": LoopNode("l1", "h", "t", ("t", "h"), 3, 3)}
    return validate_task_graph(TaskGraph("demo", blocks, edges, loops))


def straight_task(tid, costs):
    blocks = {}
    edges = []
    prev = None
    for i, c in enumerate(costs):
        bid = "%s_b%d" % (tid, i)
        blocks[bid] = BasicBlock(bid, c)
        if prev:
            edges.append((prev, bid))
        prev = bid
    return validate_task_graph(TaskGraph(tid, blocks, tuple(edges), {}))


from chainlat.ingest import default_system

system = default_system(cores=1)
task = looped_task()
con = contract_task(task, classify_task(task, system), system)
ctx = TaskContext(con)

print("loop summary: shortest pass %d, longest pass %d cycles" % (
    con.summaries["l1"].lpsc, con.summaries["l1"].lplc))
print("tail block windows per iteration (relative to the loop start):")
(start_lo, start_hi), = ctx.lpb["l1"]  # the loop starts in one window
for i, (lo, hi) in enumerate(ctx.bbrp["t"], 1):
    print("  iteration %d: [%d, %d]" % (i, lo - start_lo, hi - start_hi))

job = JobInstance("c0", 0, "demo", 0, Interval(0, 0), Interval(0, con.wcet))
jctx = JobContext(job.release, ctx)
peer = straight_task("peer", [10, 30, 5])
pcon = contract_task(peer, classify_task(peer, system), system)
pctx = TaskContext(pcon)

print()
print("job lifetime:", job.lifetime, " loop envelope of the tail block:", jctx.block_view("t")[-1])
for peer_release in (200, 50, 20):
    pjob = JobInstance("c1", 0, "peer", 0, Interval(peer_release, peer_release),
                       Interval(peer_release, peer_release + pcon.wcet))
    # The job phase runs once per foreign job, before any block is tested:
    # the peer chain's lifetime index (hyperperiod 1000) drops a peer whose
    # lifetime misses the job's.
    if not LifetimeIndex({("c1", 0, 0): pjob.lifetime}, 1000).overlapping(job.lifetime):
        print("peer released at %3d -> overlap False (rejected by the lifetime index)" % peer_release)
        continue
    verdict = hierarchical_overlap(jctx.block_view("t"), JobContext(pjob.release, pctx).block_view("peer_b1"))
    print("peer released at %3d -> overlap %-5s (decided at the %s phase)" % (
        peer_release, verdict.result, verdict.decided_at))
