"""Command line front end.

Subcommands: partition, resynth, equiv, metrics, split, flow, bench.
Each takes only the flags it reads, and every setting comes from the
command line. A flag that sets a field of PartitionConfig, ResynConfig
or FlowConfig (--seed, --dies, --d2, --verify, ...) defaults to that
field's default in the config class.

A partition file gives its die count in a `# dies <count>` header. With
`--partition-mode file` (partition, flow) that header must equal
`--dies`, or the run stops with exit 2 before writing anything; a file
without a header takes `--dies`. resynth, metrics and split take the
header's count, or one more than the highest die listed.

Exit codes: 0 success/equivalent, 1 verification counterexample,
2 usage or stage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bench
from .equiv import DEFAULT_VECTOR_BUDGET, MODES, EquivError, check_equivalence
from .flow import FlowConfig, FlowError, _stage, run_flow, split_per_die
from .metrics import (SLL_COUNT_MODES, MetricsError, count_sll, load_placement,
                      load_q_table, report as metrics_report)
from .netlist import (MAX_K, BlifParseError, NetlistError, parse_blif_file, write_blif,
                      write_blif_file)
from .partition import (PartitionConfig, PartitionError, assignment_for,
                        load_assignment, save_assignment)
from .resynth import ResynConfig, resynthesize
from .windows import ResynthError

_MODE_NAMES = {"fm": "fm_mincut", "hash": "hash_label", "file": "external_file"}


def _add_common(p: argparse.ArgumentParser, seed: bool = True, verbose: bool = True):
    """--k-max, with --seed and --verbose for the subcommands that read them."""
    p.add_argument("--k-max", type=int, default=FlowConfig.k_max,
                   help="LUT size bound enforced at parse, at most %d (default %d)"
                   % (MAX_K, FlowConfig.k_max))
    if seed:
        p.add_argument("--seed", type=int, default=PartitionConfig.seed)
    if verbose:
        p.add_argument("--verbose", action="store_true")


def _add_partition_flags(p: argparse.ArgumentParser):
    p.add_argument("--dies", type=int, default=PartitionConfig.num_dies)
    p.add_argument("--ub", type=float, default=PartitionConfig.ub,
                   help="imbalance upper bound (default %(default)s)")
    mode = next(flag for flag, name in _MODE_NAMES.items() if name == PartitionConfig.mode)
    p.add_argument("--partition-mode", choices=_MODE_NAMES, default=mode)
    p.add_argument("--partition-file", default=PartitionConfig.partition_file)


def _add_resyn_flags(p: argparse.ArgumentParser):
    p.add_argument("--d1", type=int, default=ResynConfig.d1)
    p.add_argument("--d2", type=int, default=ResynConfig.d2)
    p.add_argument("--passes", type=int, default=ResynConfig.passes,
                   help="sweep passes; -1 repeats until no commit")
    p.add_argument("--window-pi-cap", type=int, default=ResynConfig.window_pi_cap)
    p.add_argument("--divisor-cap", type=int, default=ResynConfig.divisor_cap)
    p.add_argument("--max-augment", type=int, default=ResynConfig.max_augment)
    p.add_argument("--freeze-die", type=int, default=ResynConfig.freeze_die)
    p.add_argument("--inject-care", default=FlowConfig.inject_care_path,
                   help="test hook: care predicate BLIF over primary inputs")
    p.add_argument("--no-verify-commits", action="store_true",
                   default=not ResynConfig.verify_each_commit)


def _partition_config(args) -> PartitionConfig:
    return PartitionConfig(num_dies=args.dies, ub=args.ub, seed=args.seed,
                           mode=_MODE_NAMES[args.partition_mode],
                           partition_file=args.partition_file)


def _resyn_config(args) -> ResynConfig:
    return ResynConfig(d1=args.d1, d2=args.d2, window_pi_cap=args.window_pi_cap,
                       divisor_cap=args.divisor_cap, passes=args.passes,
                       verify_each_commit=not args.no_verify_commits,
                       max_augment=args.max_augment, freeze_die=args.freeze_die)


def _say(args, msg: str):
    if args.verbose:
        print(msg, file=sys.stderr)


def cmd_partition(args) -> int:
    netlist = parse_blif_file(args.input, args.k_max)
    assignment = assignment_for(netlist, _partition_config(args))
    save_assignment(assignment, args.output)
    if args.verbose:    # the message costs a cut count; build it only when shown
        _say(args, "cut=%d rho=%.4f -> %s"
             % (count_sll(netlist, assignment, "raw-net"), assignment.imbalance(),
                args.output))
    return 0


def cmd_resynth(args) -> int:
    netlist = parse_blif_file(args.input, args.k_max)
    assignment = load_assignment(netlist, args.partition)
    care = parse_blif_file(args.inject_care, args.k_max) if args.inject_care else None
    result = resynthesize(netlist, assignment, _resyn_config(args), injected_care=care)
    write_blif_file(result.netlist, args.output)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(result.report.to_json() + "\n")
    _say(args, "commits=%d n_sll_fo %d -> %d"
         % (result.report.commits, result.report.before["n_sll_fo"],
            result.report.after["n_sll_fo"]))
    return 0


def cmd_equiv(args) -> int:
    a = parse_blif_file(args.a, args.k_max)
    b = parse_blif_file(args.b, args.k_max)
    care = parse_blif_file(args.care, args.k_max) if args.care else None
    mode, budget = "auto", DEFAULT_VECTOR_BUDGET
    if args.exhaustive:
        mode = "exhaustive"
    elif args.random is not None:
        mode, budget = "random", args.random
    verdict = check_equivalence(a, b, mode=mode, seed=args.seed,
                                vector_budget=budget, care=care)
    if verdict.equivalent:
        print("EQUIVALENT (%s, %d vectors)" % (verdict.mode, verdict.vectors_checked))
        return 0
    print("MISMATCH on %s at %r" % (verdict.mismatched_output, verdict.counterexample))
    return 1


def cmd_metrics(args) -> int:
    if args.baseline_partition is not None and not args.baseline:
        raise MetricsError("--baseline-partition needs --baseline")
    netlist = parse_blif_file(args.input, args.k_max)
    assignment = load_assignment(netlist, args.partition)
    if args.baseline:
        base = parse_blif_file(args.baseline, args.k_max)
        base_assignment = load_assignment(
            base, args.baseline_partition or args.partition)
    else:
        base, base_assignment = netlist, assignment
    placement = None
    if args.placement:
        geometry = [(args.die_width, args.die_height)] * assignment.num_dies
        q_table = load_q_table(args.q_table) if args.q_table else None
        placement = load_placement(args.placement, geometry, args.lsll, q_table)
    rep = metrics_report(base, netlist, base_assignment, assignment,
                         placement=placement, sll_mode=args.sll_count)
    print(rep.render_text(), end="")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(rep.to_json() + "\n")
    return 0


def cmd_split(args) -> int:
    netlist = parse_blif_file(args.input, args.k_max)
    assignment = load_assignment(netlist, args.partition)
    subs = split_per_die(netlist, assignment)     # a refusal leaves no --outdir
    os.makedirs(args.outdir, exist_ok=True)
    for die, sub in enumerate(subs):
        path = os.path.join(args.outdir, "die%d.blif" % die)
        write_blif_file(sub, path)
        _say(args, "wrote %s (%d LUTs)" % (path, sub.lut_count()))
    return 0


def cmd_flow(args) -> int:
    with _stage("partition"):
        partition = _partition_config(args)
    with _stage("resynth"):
        resyn = _resyn_config(args)
    config = FlowConfig(args.input, args.outdir, partition=partition, resyn=resyn,
                        k_max=args.k_max, verify_mode=args.verify, vector_budget=args.vectors,
                        inject_care_path=args.inject_care, sll_mode=args.sll_count)
    result = run_flow(config)
    _say(args, "artifacts: %s" % ", ".join(sorted(result.artifacts)))
    if result.verdict is not None and not result.verdict.equivalent:
        print("verification FAILED: %r" % result.verdict.counterexample, file=sys.stderr)
    return result.exit_code


def cmd_bench(args) -> int:
    netlist = bench.build(args.name, args.lut_k)
    text = write_blif(netlist)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="sllresub", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="assign nodes to dies")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    _add_partition_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("resynth", help="cross-die fanin elimination")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--report", default=None)
    _add_resyn_flags(p)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_resynth)

    p = sub.add_parser("equiv", help="combinational equivalence check")
    p.add_argument("a")
    p.add_argument("b")
    how = p.add_mutually_exclusive_group()
    how.add_argument("--exhaustive", action="store_true")
    how.add_argument("--random", type=int, default=None, metavar="N")
    p.add_argument("--care", default=None)
    _add_common(p, verbose=False)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("metrics", help="connectivity and wirelength report")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--baseline", default=None)
    p.add_argument("--baseline-partition", default=None)
    p.add_argument("--placement", default=None)
    p.add_argument("--die-width", type=int, default=325)
    p.add_argument("--die-height", type=int, default=218)
    p.add_argument("--lsll", type=float, default=1.0)
    p.add_argument("--q-table", default=None,
                   help="JSON file mapping terminal count to HPWL weight")
    p.add_argument("--sll-count", choices=SLL_COUNT_MODES, default="per-die")
    p.add_argument("--json", default=None)
    _add_common(p, seed=False, verbose=False)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("split", help="emit per-die sub-netlists")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--outdir", required=True)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("flow", help="partition + resynth + verify + split + report")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--verify", choices=MODES, default=FlowConfig.verify_mode)
    p.add_argument("--vectors", type=int, default=FlowConfig.vector_budget)
    p.add_argument("--sll-count", choices=SLL_COUNT_MODES, default=FlowConfig.sll_mode)
    _add_partition_flags(p)
    _add_resyn_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("bench", help="generate a built-in benchmark netlist")
    p.add_argument("name", choices=sorted(bench.BENCH_NAMES))
    p.add_argument("--lut-k", type=int, default=4)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bench)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BlifParseError, NetlistError, PartitionError, ResynthError,
            EquivError, MetricsError, FlowError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
