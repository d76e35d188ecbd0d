"""Command-line orchestration: generate, analyze and verify workloads.

Exit codes: 0 success, 1 internal error, 2 input validation failure,
3 safety violation found by verify.  All randomness flows from --seed and
outputs are canonicalized, so repeated invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .ingest import (
    chain_to_doc,
    generate_workload,
    parse_workload,
    system_to_doc,
    task_to_doc,
)
from .interference import COUNT_ACCESS, COUNT_DISTINCT, ET_RULE_MAX, ET_RULE_SUM
from .latency import AnalysisOptions, analyze_bundle, report_to_json, write_report_csv
from .model import ValidationError
from .sim import SimConfig, check_safety, simulate, trace_hit_ratio

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_UNSAFE = 3


def _write(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _manifest(outdir, command, args_doc):
    doc = {"tool": "chainlat", "version": __version__, "command": command, "arguments": args_doc}
    _write(os.path.join(outdir, "manifest.json"), _canonical_json(doc))


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def cmd_generate(args) -> int:
    bundle = generate_workload(
        seed=args.seed,
        cores=args.cores,
        tasks_per_chain=args.tasks_per_chain,
        blocks_per_task=args.blocks_per_task,
        loop_depth=args.loop_depth,
        utilization=args.utilization,
        collision=args.collision,
        trigger=args.trigger,
    )
    os.makedirs(args.output, exist_ok=True)
    _write(os.path.join(args.output, "system.json"), _canonical_json(system_to_doc(bundle.system)))
    for tid in sorted(bundle.tasks):
        _write(os.path.join(args.output, "task_%s.json" % tid), _canonical_json(task_to_doc(bundle.tasks[tid])))
    for cid in sorted(bundle.chains):
        _write(os.path.join(args.output, "chain_%s.json" % cid), _canonical_json(chain_to_doc(bundle.chains[cid])))
    _manifest(args.output, "generate", {
        "seed": args.seed, "cores": args.cores, "tasks_per_chain": args.tasks_per_chain,
        "blocks_per_task": args.blocks_per_task, "loop_depth": args.loop_depth,
        "utilization": args.utilization, "collision": args.collision, "trigger": args.trigger,
    })
    print("generated %d tasks, %d chains -> %s" % (len(bundle.tasks), len(bundle.chains), args.output))
    return EXIT_OK


def _mode_tuple(mode: str):
    return ("TSC", "TLT", "NCT") if mode == "all" else (mode.upper(),)


def cmd_analyze(args) -> int:
    bundle = parse_workload(args.system, args.tasks, args.chains)
    options = AnalysisOptions(
        modes=_mode_tuple(args.mode),
        counting=args.counting,
        et_rule=args.et_rule,
        refinement_passes=args.passes,
        jobs=args.jobs,
    )
    report = analyze_bundle(bundle, options)
    os.makedirs(args.output, exist_ok=True)
    trace = None
    if args.simulate_hit_ratio:
        trace = simulate(bundle, SimConfig(policy="random", seed=args.seed), setup=report.setup)
        ratio = trace_hit_ratio(trace)
        for key in report.chain_results:
            report.chain_results[key].simulated_hit_ratio = ratio
    _write(os.path.join(args.output, "report.json"), report_to_json(report, bundle))
    write_report_csv(os.path.join(args.output, "report.csv"), report)
    if args.debug_dumps:
        from .cache_ai import write_classification_csv
        from .context import write_context_csv
        from .interference import write_interference_csv
        from .sim import write_trace_csv

        for tid in sorted(bundle.tasks):
            write_classification_csv(
                os.path.join(args.output, "classification_%s.csv" % tid),
                report.setup.tasks[tid].classification,
            )
        jobs_with_ctx = [
            (report.setup.jobs[k], report.setup.job_ctx(k)) for k in sorted(report.setup.jobs)
        ]
        write_context_csv(os.path.join(args.output, "contexts.csv"), jobs_with_ctx)
        if "TSC" in options.modes:
            write_interference_csv(os.path.join(args.output, "interference.csv"), report)
        if trace is not None:
            write_trace_csv(os.path.join(args.output, "trace.csv"), trace)
    _manifest(args.output, "analyze", {
        "system": os.path.basename(args.system),
        "tasks": [os.path.basename(t) for t in args.tasks],
        "chains": [os.path.basename(c) for c in args.chains],
        "mode": args.mode, "counting": args.counting, "et_rule": args.et_rule,
        "passes": args.passes, "seed": args.seed, "jobs": args.jobs,
    })
    print("analyzed %d chains over hyperperiod %d -> %s" % (len(bundle.chains), report.hyperperiod, args.output))
    return EXIT_OK


def _inject_mc_fault(report, setup):
    """Force one downgraded access back to always-hit; the oracle must object."""
    for key in sorted(report.instances):
        res = report.instances[key]
        if key[0] != "TSC":
            continue
        cls_table = setup.tasks[res.task_id].classification
        for aid in sorted(res.refined):
            base = cls_table.accesses[aid]
            if base.l2_chmc in ("AH", "PS") and res.refined[aid] == "NC":
                res.refined[aid] = "AH"
                res.mc[aid] = 0
                return True
    return False


def _inject_context_fault(setup):
    """Collapse one task's program-relative windows to instants."""
    from .model import Interval

    tid = sorted(setup.tasks)[0]
    ctx = setup.tasks[tid].ctx
    for node in sorted(ctx.bbrp):
        ctx.bbrp[node] = tuple(Interval(iv.lo, iv.lo) for iv in ctx.bbrp[node])
    return True


def cmd_verify(args) -> int:
    violations = 0
    dominance_checks = 0
    bundles = 0
    for seed in range(args.seed, args.seed + args.seeds):
        bundle = generate_workload(
            seed=seed, cores=args.cores, tasks_per_chain=args.tasks_per_chain,
            blocks_per_task=args.blocks_per_task, utilization=args.utilization,
            collision=args.collision, trigger=args.trigger,
        )
        bundles += 1
        report = analyze_bundle(bundle, AnalysisOptions(jobs=args.jobs))
        setup = report.setup

        if args.inject_fault == "mc":
            _inject_mc_fault(report, setup)
        elif args.inject_fault == "context":
            _inject_context_fault(setup)

        for cid in sorted(bundle.chains):
            dominance_checks += 1
            tsc = report.mel(cid, "TSC")
            tlt = report.mel(cid, "TLT")
            nct = report.mel(cid, "NCT")
            if not (tsc <= tlt <= nct):
                violations += 1
                print("dominance violation on seed %d chain %s: %d/%d/%d" % (seed, cid, tsc, tlt, nct), file=sys.stderr)

        for path_seed in range(args.paths_per_job):
            trace = simulate(bundle, SimConfig(policy="random", seed=path_seed), setup=setup)
            found = check_safety(trace, report, setup)
            violations += len(found)
            for v in found[:5]:
                print("seed %d sim %d: %r" % (seed, path_seed, v), file=sys.stderr)
        if args.sim_policy in ("worst", "both"):
            trace = simulate(bundle, SimConfig(policy="worst", seed=0), setup=setup)
            found = check_safety(trace, report, setup)
            violations += len(found)
            for v in found[:5]:
                print("seed %d worst-biased: %r" % (seed, v), file=sys.stderr)

    print("%d violations / %d bundles (%d dominance checks)" % (violations, bundles, dominance_checks))
    return EXIT_UNSAFE if violations else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="chainlat", description=__doc__)
    p.add_argument("--version", action="version", version="chainlat %s" % __version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a synthetic workload")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--cores", type=int, default=2)
    g.add_argument("--tasks-per-chain", type=int, default=2, choices=(1, 2, 4))
    g.add_argument("--blocks-per-task", type=int, default=8)
    g.add_argument("--loop-depth", type=int, default=2)
    g.add_argument("--utilization", type=float, default=0.9)
    g.add_argument("--collision", type=float, default=0.5)
    g.add_argument("--trigger", choices=("ET", "TT", "mix"), default="mix")
    g.add_argument("--output", required=True)
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analyze", help="run the latency analysis on workload files")
    a.add_argument("--system", required=True)
    a.add_argument("--tasks", nargs="+", required=True)
    a.add_argument("--chains", nargs="+", required=True)
    a.add_argument("--mode", choices=("tsc", "tlt", "nct", "all"), default="all")
    a.add_argument("--counting", choices=(COUNT_DISTINCT, COUNT_ACCESS), default=COUNT_DISTINCT)
    a.add_argument("--et-rule", choices=(ET_RULE_SUM, ET_RULE_MAX), default=ET_RULE_SUM)
    a.add_argument("--passes", type=_positive_int, default=1)
    a.add_argument("--jobs", type=_positive_int, default=1)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--simulate-hit-ratio", action="store_true")
    a.add_argument("--debug-dumps", action="store_true")
    a.add_argument("--output", required=True)
    a.set_defaults(func=cmd_analyze)

    v = sub.add_parser("verify", help="generate, analyze, simulate and cross-check")
    v.add_argument("--seeds", type=_positive_int, default=10)
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--cores", type=int, default=2)
    v.add_argument("--tasks-per-chain", type=int, default=2, choices=(1, 2, 4))
    v.add_argument("--blocks-per-task", type=int, default=8)
    v.add_argument("--utilization", type=float, default=0.9)
    v.add_argument("--collision", type=float, default=0.5)
    v.add_argument("--trigger", choices=("ET", "TT", "mix"), default="mix")
    v.add_argument("--sim-policy", choices=("random", "worst", "both"), default="both")
    v.add_argument("--paths-per-job", type=int, default=10)
    v.add_argument("--inject-fault", choices=("none", "mc", "context"), default="none")
    v.add_argument("--jobs", type=_positive_int, default=1)
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches the validation code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # pragma: no cover - defensive
        print("internal error: %r" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
