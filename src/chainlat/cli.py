"""Command-line orchestration: generate, analyze and verify workloads.

Exit codes: 0 success, 1 internal error, 2 input validation failure,
3 safety violation found by verify.  An internal error prints one line;
--debug (before the command) adds its full traceback.  All randomness
flows from --seed and outputs are canonicalized, so repeated invocations
are byte-identical.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import traceback

from . import __version__
from .cache_ai import write_classification_csv
from .context import write_context_csv
from .ingest import (
    TASKS_PER_CHAIN,
    TRIGGERS,
    chain_to_doc,
    generate_workload,
    parse_workload,
    system_to_doc,
    task_to_doc,
)
from .interference import COUNTINGS, ET_RULES, write_interference_csv
from .latency import MODES, AnalysisOptions, analyze_bundle, report_to_json, write_report_csv
from .model import ValidationError
from .sim import SimConfig, check_safety, simulate, trace_hit_ratio, write_trace_csv

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
    options = dict(seed=args.seed, loop_depth=args.loop_depth, **_generator_options(args))
    bundle = generate_workload(**options)
    os.makedirs(args.output, exist_ok=True)
    _write(os.path.join(args.output, "system.json"), _canonical_json(system_to_doc(bundle.system)))
    for tid in sorted(bundle.tasks):
        _write(os.path.join(args.output, "task_%s.json" % tid), _canonical_json(task_to_doc(bundle.tasks[tid])))
    for cid in sorted(bundle.chains):
        _write(os.path.join(args.output, "chain_%s.json" % cid), _canonical_json(chain_to_doc(bundle.chains[cid])))
    _manifest(args.output, "generate", options)
    print("generated %d tasks, %d chains -> %s" % (len(bundle.tasks), len(bundle.chains), args.output))
    return EXIT_OK


def _mode_tuple(mode: str):
    return MODES if mode == "all" else (mode.upper(),)


def cmd_analyze(args) -> int:
    bundle = parse_workload(args.system, args.tasks, args.chains)
    options = _analysis_options(args, _mode_tuple(args.mode))
    report = analyze_bundle(bundle, options)
    trace = None
    if args.simulate_hit_ratio:
        trace = simulate(bundle, SimConfig(policy="random", seed=args.seed), setup=report.setup)
        ratio = trace_hit_ratio(trace)
        for key in report.chain_results:
            report.chain_results[key].simulated_hit_ratio = ratio
    os.makedirs(args.output, exist_ok=True)
    _write(os.path.join(args.output, "report.json"), report_to_json(report, bundle))
    write_report_csv(os.path.join(args.output, "report.csv"), report)
    if args.debug_dumps:
        for tid in sorted(bundle.tasks):
            write_classification_csv(
                os.path.join(args.output, "classification_%s.csv" % tid),
                report.setup.tasks[tid].classification,
            )
        write_context_csv(os.path.join(args.output, "contexts.csv"), report.setup)
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


def _inject_context_fault(report, setup):
    """Collapse one task's program-relative windows to instants."""
    tid = sorted(setup.tasks)[0]
    ctx = setup.tasks[tid].ctx
    for node in sorted(ctx.bbrp):
        ctx.bbrp[node] = tuple((lo, lo) for lo, _ in ctx.bbrp[node])
    return True


# Fault name -> injector for verify --inject-fault.  An injector corrupts one
# bundle's (report, setup) before its checks and returns whether it changed anything.
FAULTS = {"mc": _inject_mc_fault, "context": _inject_context_fault}


def cmd_verify(args) -> int:
    violations = 0
    dominance_checks = 0
    bundles = 0
    inject = FAULTS.get(args.inject_fault)
    injected = False
    configs = []
    if args.sim_policy in ("random", "both"):
        configs += [SimConfig(policy="random", seed=path_seed) for path_seed in range(args.paths_per_job)]
    if args.sim_policy in ("worst", "both"):
        configs.append(SimConfig(policy="worst", seed=0))
    options = _analysis_options(args, MODES)
    for seed in range(args.seed, args.seed + args.seeds):
        bundle = generate_workload(seed=seed, **_generator_options(args))
        bundles += 1
        report = analyze_bundle(bundle, options)
        setup = report.setup

        if inject is not None:
            injected = inject(report, setup) or injected

        for cid in sorted(bundle.chains):
            dominance_checks += 1
            tsc = report.mel(cid, "TSC")
            tlt = report.mel(cid, "TLT")
            nct = report.mel(cid, "NCT")
            if not (tsc <= tlt <= nct):
                violations += 1
                print("dominance violation on seed %d chain %s: %d/%d/%d" % (seed, cid, tsc, tlt, nct), file=sys.stderr)

        for config in configs:
            found = check_safety(simulate(bundle, config, setup=setup), report, setup)
            violations += len(found)
            path = "worst-biased" if config.policy == "worst" else "sim %d" % config.seed
            for v in found[:5]:
                print("seed %d %s: %r" % (seed, path, v), file=sys.stderr)

    if inject is not None and not injected and not violations:
        # "0 violations" would read as an oracle that missed the fault.  Only
        # the mc injector can find nothing to corrupt.
        print("error: --inject-fault %s corrupted nothing: no bundle had a downgraded access "
              "(a higher --collision makes downgrades likelier)" % args.inject_fault, file=sys.stderr)
        return EXIT_INVALID
    print("%d violations / %d bundles (%d dominance checks)" % (violations, bundles, dominance_checks))
    return EXIT_UNSAFE if violations else EXIT_OK


# The generate_workload parameters that generate and verify share, as (name, type, choices).
_GENERATOR_FLAGS = (("cores", int, None), ("tasks_per_chain", int, TASKS_PER_CHAIN), ("blocks_per_task", int, None),
                    ("utilization", float, None), ("collision", float, None), ("trigger", None, TRIGGERS))
# generate_workload's own defaults, which its flags take.
_GENERATOR_DEFAULTS = {name: p.default for name, p in inspect.signature(generate_workload).parameters.items()}


def _add_generator_options(parser):
    """The generator options that generate and verify share."""
    for name, type_, choices in _GENERATOR_FLAGS:
        parser.add_argument("--" + name.replace("_", "-"), type=type_, choices=choices, default=_GENERATOR_DEFAULTS[name])


def _generator_options(args) -> dict:
    """The values of the flags _add_generator_options declares."""
    return {name: getattr(args, name) for name, _, _ in _GENERATOR_FLAGS}


def _add_analysis_options(parser):
    """The analysis options that analyze and verify share."""
    parser.add_argument("--counting", choices=COUNTINGS, default=AnalysisOptions.counting)
    parser.add_argument("--et-rule", choices=ET_RULES, default=AnalysisOptions.et_rule)
    parser.add_argument("--passes", type=_positive_int, default=AnalysisOptions.refinement_passes)
    parser.add_argument("--jobs", type=_positive_int, default=AnalysisOptions.jobs)


def _analysis_options(args, modes) -> AnalysisOptions:
    """The AnalysisOptions over `modes` that the flags _add_analysis_options declares select."""
    return AnalysisOptions(modes=modes, counting=args.counting, et_rule=args.et_rule,
                           refinement_passes=args.passes, jobs=args.jobs)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="chainlat", description=__doc__)
    p.add_argument("--version", action="version", version="chainlat %s" % __version__)
    p.add_argument("--debug", action="store_true", help="print the traceback of an internal error")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a synthetic workload")
    g.add_argument("--seed", type=int, default=1)
    _add_generator_options(g)
    g.add_argument("--loop-depth", type=int, default=_GENERATOR_DEFAULTS["loop_depth"])
    g.add_argument("--output", required=True)
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analyze", help="run the latency analysis on workload files")
    a.add_argument("--system", required=True)
    a.add_argument("--tasks", nargs="+", required=True)
    a.add_argument("--chains", nargs="+", required=True)
    a.add_argument("--mode", choices=tuple(m.lower() for m in MODES) + ("all",), default="all")
    _add_analysis_options(a)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--simulate-hit-ratio", action="store_true")
    a.add_argument("--debug-dumps", action="store_true")
    a.add_argument("--output", required=True)
    a.set_defaults(func=cmd_analyze)

    v = sub.add_parser("verify", help="generate, analyze, simulate and cross-check")
    v.add_argument("--seeds", type=_positive_int, default=10)
    v.add_argument("--seed", type=int, default=1)
    _add_generator_options(v)
    v.add_argument("--sim-policy", choices=("random", "worst", "both"), default="both")
    v.add_argument("--paths-per-job", type=_positive_int, default=10)
    v.add_argument("--inject-fault", choices=("none", *FAULTS), default="none")
    _add_analysis_options(v)
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
    except Exception as exc:
        if args.debug:
            traceback.print_exc()
        print("internal error: %r" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
