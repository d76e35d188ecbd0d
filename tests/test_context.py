import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from chainlat.cache_ai import AH, NC, PS, all_miss, classify_task
from chainlat.context import (
    PHASE3_THRESHOLD,
    JobContext,
    TaskContext,
    _iterations,
    cap_window,
    compute_prs_time,
)
from chainlat.cost import ContractionPlan, LoopCostSummary, contract_task, virtual_id
from chainlat.ingest import _TaskBuilder, default_system
from chainlat.model import ChainSpec, Interval, JobInstance, LoopNode
from chainlat.overlap import hull, normalize, seq

from conftest import acc, block, build_task, diamond_loop_task, make_system, straight_task
from oracles import (
    reference_bba_time,
    reference_coarsen,
    reference_windows,
    unrolled_iteration_windows,
    unrolled_window_oracle,
)


def contracted(task, system):
    return contract_task(task, classify_task(task, system), system)


def minus(window, start):
    """A window relative to a one-interval start: the pair sum with it undone."""
    (slo, shi), = start
    return tuple((lo - slo, hi - shi) for lo, hi in window)


def iteration_windows(con, node, loop_id):
    """A node's per-iteration windows relative to its loop's start (BBOTime)."""
    ctx = TaskContext(con)
    return minus(ctx.bbrp[node], ctx.lpb[loop_id])


def test_bbo_time_diamond_tail(system, diamond):
    con = contracted(diamond, system)
    bbo = iteration_windows(con, "dl_t", "dl_l1")
    assert len(bbo) == 3
    assert bbo[1] == Interval(20, 28)

    # Oracle: enumerate every unrolled path of the loop.
    costs = {bid: b.instruction_count for bid, b in diamond.blocks.items()}
    windows = unrolled_iteration_windows(diamond, costs, "dl_l1")
    base = windows[("dl_h", 1)][0]  # loop body starts when the head first runs
    lo, hi = windows[("dl_t", 2)]
    assert (lo - base, hi - base) == (20, 28)


def test_bbo_time_head_first_iteration(system, diamond):
    con = contracted(diamond, system)
    bbo = iteration_windows(con, "dl_h", "dl_l1")
    assert bbo[0] == Interval(0, con.node_worst["dl_h"])


def test_post_loop_block_window(system, diamond):
    con = contracted(diamond, system)
    ctx = TaskContext(con)
    assert ctx.bbrp["dl_b3"] == (Interval(43, 58),)

    costs = {bid: b.instruction_count for bid, b in diamond.blocks.items()}
    lo, hi = unrolled_window_oracle(diamond, costs)
    assert (lo["dl_b3"], hi["dl_b3"]) == (43, 58)


def nested_loops_task():
    blocks = [
        block("b0", 10),
        block("ph", 3),
        block("ch", 2),
        block("ct", 1),
        block("pt", 2),
        block("x", 1),
    ]
    edges = [
        ("b0", "ph"), ("ph", "ch"), ("ch", "ct"), ("ct", "ch"),
        ("ct", "pt"), ("pt", "ph"), ("pt", "x"),
    ]
    loops = [
        LoopNode("l1", "ph", "pt", ("pt", "ph"), 2, 2),
        LoopNode("l2", "ch", "ct", ("ct", "ch"), 2, 2, parent_loop="l1"),
    ]
    return build_task("n", blocks, edges, loops)


def test_lpr_time_inner_loop(system):
    task = nested_loops_task()
    con = contracted(task, system)
    ctx = TaskContext(con)
    lpr = minus(ctx.lpb["l2"], ctx.lpb["l1"])  # LPRTime: the start relative to the parent's
    assert lpr[0] == Interval(3, 3)
    # Successive iterations shift by [LPSC, LPLC] of the parent.
    s = con.summaries["l1"]
    assert lpr[1] == Interval(3 + s.lpsc, 3 + s.lplc)


def test_lpr_time_outermost_is_the_program_level(system):
    # An outermost loop has no parent loop: its start is taken in the
    # program level, which runs once from cycle 0.
    task = nested_loops_task()
    con = contracted(task, system)
    program = con.summaries[None]
    assert (program.min_bound, program.max_bound, program.ps_surcharge) == (1, 1, 0)
    v = virtual_id("l1")
    assert TaskContext(con).lpb["l1"] == ((program.bbsc[v], program.bblc[v]),)


def test_lpb_time_outermost(system):
    task = nested_loops_task()
    con = contracted(task, system)
    lpb = TaskContext(con).lpb["l1"]
    assert lpb == (Interval(10, 10),)


def test_lpb_time_nested_composition(system):
    task = nested_loops_task()
    con = contracted(task, system)
    ctx = TaskContext(con)
    lpb2 = ctx.lpb["l2"]
    assert lpb2[0] == Interval(13, 13)
    # |A (x) B| = |A| * |B| before normalization
    assert len(lpb2) == 2 * len(ctx.lpb["l1"])


def test_prs_time_tt():
    chain = ChainSpec("c", "TT", ("t0", "t1"), 0, period=100, offsets=(0, 30))
    assert compute_prs_time(chain, 1, 2, (0, 0), (0, 0)) == Interval(230, 230)


def test_prs_time_et_first_task():
    chain = ChainSpec("c", "ET", ("t0", "t1"), 0, period=100)
    assert compute_prs_time(chain, 0, 3, (8, 9), (12, 15)) == Interval(300, 300)


def test_prs_time_et_prefix():
    chain = ChainSpec("c", "ET", ("t0", "t1"), 0, period=100)
    assert compute_prs_time(chain, 1, 0, (8, 9), (12, 15)) == Interval(8, 12)


def test_bba_time_degenerate_release():
    assert reference_bba_time(Interval(100, 100), seq((43, 58))) == seq((143, 158))


def test_bba_time_et_release():
    assert reference_bba_time(Interval(8, 12), seq((43, 58))) == seq((51, 70))


def test_bba_loop_head_composition(system, diamond):
    con = contracted(diamond, system)
    ctx = TaskContext(con)
    lpb = ctx.lpb["dl_l1"]
    assert lpb == (Interval(10, 10),)
    lo, hi = reference_bba_time(Interval(0, 0), ctx.bbrp["dl_h"])[0]
    assert lo == 10
    assert hi == 10 + con.node_worst["dl_h"]


def test_in_loop_sequence_has_maxbd_intervals(system, diamond):
    con = contracted(diamond, system)
    assert len(iteration_windows(con, "dl_t", "dl_l1")) == diamond.loops["dl_l1"].max_bound


def test_outermost_virtual_window_is_the_loop_envelope(system, diamond):
    # The loop's virtual node spans [earliest start, latest start + worst
    # cost], and it is the last level of a view of a block inside the loop.
    con = contracted(diamond, system)
    ctx = TaskContext(con)
    v = virtual_id("dl_l1")
    assert ctx.bbrp[v] == (Interval(10, 10 + 42),)
    program = con.summaries[None]
    assert ctx.bbrp[v] == (Interval(program.bbsc[v], program.bblc[v] + con.node_worst[v]),)
    job = JobInstance("c", 0, diamond.id, 0, Interval(5, 9), Interval(5, 9 + con.wcet))
    jctx = JobContext(job.release, ctx)
    assert jctx.block_view("dl_t")[-1] == ((15, 61),)
    assert len(jctx.block_view("dl_t")) == 2
    assert len(jctx.block_view("dl_b0")) == 1


def test_coverage_against_exhaustive_enumeration(system, diamond):
    # Every dynamic occurrence over every feasible path must land inside the
    # block's absolute window; costs here are access-free so the sum of
    # instruction counts is the exact concrete time.
    con = contracted(diamond, system)
    ctx = TaskContext(con)
    costs = {bid: b.instruction_count for bid, b in diamond.blocks.items()}
    from oracles import enumerate_task_paths, path_occurrences

    release = Interval(70, 70)
    job = JobInstance("c", 0, diamond.id, 0, release, Interval(70, 70 + con.wcet))
    for path in enumerate_task_paths(diamond):
        for bid, s, e in path_occurrences(path, costs):
            window = ctx.bba_times((bid,), job.release)[bid]
            assert any(lo <= 70 + s and 70 + e <= hi for lo, hi in window), (bid, s, e)


def test_nesting_containment(system):
    # Each block's window lies inside the window of its outermost loop's
    # virtual node: the loop's start stretched by its own worst cost.
    task = nested_loops_task()
    con = contracted(task, system)
    ctx = TaskContext(con)
    for bid in ("ch", "ct"):
        assert task.ancestry[bid] == ("l2", "l1")
        (env_lo, env_hi), = ctx.bbrp[virtual_id("l1")]
        for lo, hi in ctx.bbrp[bid]:
            assert env_lo <= lo and hi <= env_hi


def with_bounds(task, bounds):
    """The task with each loop's (min, max) bound replaced, in loop id order."""
    loops = {lid: dataclasses.replace(task.loops[lid], min_bound=lo, max_bound=hi)
             for lid, (lo, hi) in zip(sorted(task.loops), bounds)}
    return dataclasses.replace(task, loops=loops)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 3), st.integers(2, 24), st.sampled_from((0.2, 0.8)),
       st.sampled_from((None, 45)), st.data())
def test_task_context_matches_reference_windows(seed, depth, n_blocks, collision, large, data):
    # The windows composed per level (offset in the iteration, start relative
    # to the parent, start relative to the program) equal TaskContext's.
    # With `large`, every loop's bounds are redrawn up to it: the closed
    # ladders still cover what the reference enumerates, at most 45^3
    # windows per block at loop depth 3.
    system = default_system()
    task = _TaskBuilder(random.Random(seed), "t0", 0, system, n_blocks, depth, collision).build()
    if large:
        bound = st.integers(1, large).flatmap(lambda hi: st.tuples(st.integers(0, hi), st.just(hi)))
        task = with_bounds(task, [data.draw(bound) for _ in task.loops])
    cls = classify_task(task, system)
    plan = ContractionPlan(task, system)
    refined = {aid: data.draw(st.sampled_from((AH, PS, NC))) for aid in sorted(cls.accesses)}
    for r in (None, refined, all_miss(cls)):
        for con in (contract_task(task, cls, system, refined=r, plan=plan),
                    contract_task(task, cls, system, refined=r)):
            ctx = TaskContext(con)
            bbrp, lpb, line_window = reference_windows(con)
            # TaskContext normalizes its windows where it builds them and
            # caps a code block's; the reference composes them unnormalized.
            assert ctx.bbrp == {n: reference_coarsen(normalize(w), PHASE3_THRESHOLD) if n in task.blocks
                                else normalize(w) for n, w in bbrp.items()}
            assert ctx.lpb == {lid: normalize(w) for lid, w in lpb.items()}
            assert ctx.line_window == line_window


def test_always_hit_window_opens_at_the_lines_earliest_block():
    # The blocks are listed against program order, so the line's first
    # access in listing order (a1 in b1) is not its earliest (a0 in b0).
    # The one-line private cache and az between them keep a1 visible at the
    # shared level, where it always hits.
    system = make_system(l1_sets=1, l1_ways=1)
    a0, az, a1 = acc("a0", 7 * 32), acc("az", 8 * 32), acc("a1", 7 * 32)
    task = build_task("t", [block("b2", 1), block("b1", 1, (a1,)), block("b0", 2, (a0, az))],
                      [("b0", "b1"), ("b1", "b2")])
    con = contracted(task, system)
    assert con.classification.accesses["a1"].l2_chmc == AH
    ctx = TaskContext(con)
    assert ctx.line_window["a1"] == (hull(ctx.bbrp["b0"]).lo, hull(ctx.bbrp["b1"]).hi)
    assert ctx.line_window["a1"].lo < hull(ctx.bbrp["b1"]).lo


def full_ladder(s, node, own):
    """Every iteration's window of a node, relative to its level's start."""
    lo, hi = s.bbsc[node], s.bblc[node] + own
    return [(lo, hi + s.ps_prefix_incl[node])] + [(lo + i * s.lpsc, hi + i * s.lplc + s.ps_surcharge)
                                                   for i in range(1, s.max_bound)]


@st.composite
def level_summaries(draw):
    """One node's level: lpsc <= lplc, bbsc <= bblc, a first surcharge at most
    the level's; deterministic bodies (lpsc == lplc) and lpsc 0 included."""
    lpsc = draw(st.integers(0, 300))
    lplc = draw(st.sampled_from((lpsc, lpsc + draw(st.integers(0, 30)))))
    bbsc = draw(st.integers(0, 200))
    bblc = draw(st.integers(bbsc, bbsc + 60))
    ps = draw(st.sampled_from((0, draw(st.integers(0, 100)))))
    return LoopCostSummary("l", lpsc, lplc, {"n": bbsc}, {"n": bblc}, ps, {"n": draw(st.integers(0, ps))},
                           max_bound=draw(st.integers(1, 3000)))


@settings(max_examples=300, deadline=None)
@given(level_summaries(), st.integers(0, 60))
def test_closed_ladder_equals_the_normalized_enumeration(s, own):
    # The ladder stops at its first touching iteration and closes with one
    # merged tail; that is the normalized enumeration of every iteration.
    assert tuple(_iterations("t", s, "n", own)) == normalize(full_ladder(s, "n", own))



def gapped(start, steps):
    """A normalized window from its first lo and (gap, width) steps, gaps >= 1."""
    out, lo = [], start
    for gap, width in steps:
        out.append((lo, lo + width))
        lo += width + gap
    return tuple(out)


# Gaps from a short range, so equal gaps are common.
gapped_windows = st.builds(gapped, st.integers(-1000, 1000),
                           st.lists(st.tuples(st.integers(1, 8), st.integers(0, 5)), min_size=1, max_size=40))
limits = st.integers(1, 12)


def shifted(window, delta):
    return tuple((lo + delta, hi + delta) for lo, hi in window)


@settings(max_examples=400, deadline=None)
@given(gapped_windows, limits, st.integers(-10**6, 10**6))
def test_cap_window_matches_the_reference(window, limit, delta):
    capped = cap_window(window, limit)
    assert capped == reference_coarsen(window, limit)
    assert normalize(capped) == capped and len(capped) <= limit
    assert all(any(clo <= lo and hi <= chi for clo, chi in capped) for lo, hi in window)
    assert hull(capped) == hull(window)
    if len(window) <= limit:
        assert capped == window
    assert cap_window(shifted(window, delta), limit) == shifted(capped, delta)


@settings(max_examples=400, deadline=None)
@given(gapped_windows, limits, st.integers(0, 10**6), st.integers(0, 10))
def test_cap_window_is_exact_where_the_widened_window_fits(window, limit, rlo, width):
    # A release of width W merges every gap of at most W, and the cap keeps
    # the widest gaps: where the widened window fits the limit, every gap the
    # cap bridged would have merged anyway.  Widening never adds intervals,
    # so a widened capped window always fits.
    release = (rlo, rlo + width)
    widened = reference_bba_time(release, cap_window(window, limit))
    assert len(widened) <= limit
    if len(reference_bba_time(release, window)) <= limit:
        assert widened == reference_bba_time(release, window)


def test_cap_window_keeps_the_earlier_of_equal_gaps():
    window = ((0, 0), (2, 2), (4, 4), (10, 10))  # gaps 2, 2, 6
    assert cap_window(window, 3) == ((0, 0), (2, 4), (10, 10))
    assert cap_window(window, 2) == ((0, 4), (10, 10))
    assert cap_window(window, 1) == ((0, 10),)
