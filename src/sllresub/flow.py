"""Pipeline driver: parse -> partition -> resynthesize -> verify -> split -> report.

Also holds the per-die netlist splitter.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import metrics as metrics_mod
from .equiv import (DEFAULT_VECTOR_BUDGET, EquivError, EquivVerdict, check_care,
                    check_equivalence, check_options)
from .netlist import (DEFAULT_K_MAX, SLL_PREFIX, Netlist, NetlistError,
                      has_generated_names, parse_blif_file, write_blif_file)
from .partition import (DieAssignment, PartitionConfig, PartitionError,
                        assignment_for, save_assignment)
from .resynth import ResynConfig, ResynResult, resynthesize
from .truthtab import TruthTable
from .windows import ResynthError


class FlowError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__("[%s] %s" % (stage, message))
        self.stage = stage


# the exceptions each stage reports as its own FlowError
_STAGE_ERRORS = {
    "parse": (OSError, NetlistError, EquivError),
    "verify": (EquivError,),
    "partition": (PartitionError,),
    "resynth": (ResynthError, NetlistError),
    "split": (NetlistError, PartitionError),
    "metrics": (metrics_mod.MetricsError,),
}


@contextmanager
def _stage(name: str, prefix: str = ""):
    """Raise FlowError(name, prefix + text) for the exceptions of stage `name`."""
    try:
        yield
    except _STAGE_ERRORS[name] as exc:
        raise FlowError(name, prefix + str(exc)) from exc


def _import_name(net: str) -> str:
    return "%s%s_in" % (SLL_PREFIX, net)


def _export_name(net: str) -> str:
    return "%s%s_out" % (SLL_PREFIX, net)


def split_per_die(netlist: Netlist, assignment: DieAssignment) -> list[Netlist]:
    """One sub-netlist per die with SLL boundary pins on every crossing net.

    The source die of a crossing net gains a PO `__sll_<net>_out` (via a
    buffer LUT); every destination die gains a PI `__sll_<net>_in` wired
    into the local sinks.
    """
    if has_generated_names(netlist):
        raise NetlistError("input netlist already uses the reserved %r prefix" % SLL_PREFIX)
    die = assignment.die
    # (net, source die, sorted destination dies) per crossing net, by name
    crossing = sorted((net, die(net), dests) for net, dests, _edges
                      in metrics_mod.crossing_nets(netlist, assignment))
    out = [Netlist("%s_die%d" % (netlist.model_name, d), netlist.k_max)
           for d in range(assignment.num_dies)]
    for name in netlist.primary_inputs:
        out[die(name)].add_input(name)
    for net, _src, dests in crossing:
        for d in dests:
            out[d].add_input(_import_name(net))
    for po in netlist.primary_outputs:
        out[die(po)].add_output(po)
    for net, src, _dests in crossing:
        out[src].add_output(_export_name(net))

    def local(net: str, d: int) -> str:
        return net if die(net) == d else _import_name(net)

    for latch in netlist.latches:
        d = die(latch.output_net)
        out[d].add_latch(local(latch.input_net, d), latch.output_net, latch.init_value)
    for node in netlist.nodes.values():
        d = die(node.output_net)
        out[d].add_node(node.output_net, [local(f, d) for f in node.fanins], node.function)
    for net, src, _dests in crossing:
        out[src].add_node(_export_name(net), [net], TruthTable(1, 0b10))
    for sub in out:
        sub.validate()
    return out


@dataclass
class FlowConfig:
    input_path: str
    out_dir: str
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    resyn: ResynConfig = field(default_factory=ResynConfig)
    k_max: int = DEFAULT_K_MAX
    verify_mode: str = "auto"
    vector_budget: int = DEFAULT_VECTOR_BUDGET
    inject_care_path: str | None = None
    sll_mode: str = "per-die"


@dataclass
class FlowResult:
    exit_code: int
    artifacts: dict[str, str]
    verdict: EquivVerdict | None = None
    resyn: ResynResult | None = None


def run_flow(config: FlowConfig) -> FlowResult:
    """Run the full pipeline and write all artifacts into `out_dir`.

    Deterministic for fixed inputs and flags. Exit code 1 flags an
    equivalence failure; stage errors raise FlowError. The SLL count mode,
    the input netlist, the verify mode (with its bound on the number of
    sources), the care predicate, the die assignment and the resynthesis
    are settled before `out_dir` is created, so a bad one (a `freeze_die`
    that names no die, say) leaves no directory and no artifact.
    `partition.txt` holds the input assignment and `partition_post.txt`
    the assignment of `post.blif`, from which `metrics.json`'s `after`
    section and the `die*.blif` files are made.
    """
    if config.sll_mode not in metrics_mod.SLL_COUNT_MODES:
        raise FlowError("metrics", "unknown SLL count mode %r" % config.sll_mode)
    artifacts: dict[str, str] = {}

    def path(key: str, name: str) -> str:
        """The path of artifact `name`, recorded in `artifacts` under `key`."""
        artifacts[key] = os.path.join(config.out_dir, name)
        return artifacts[key]

    with _stage("parse"):
        netlist = parse_blif_file(config.input_path, config.k_max)
        if has_generated_names(netlist):
            raise NetlistError("input uses the reserved %r prefix" % SLL_PREFIX)
    with _stage("verify"):
        check_options(config.verify_mode, config.vector_budget, len(netlist.source_nets()))

    care = None
    if config.inject_care_path:
        with _stage("parse", "care predicate: "):
            care = parse_blif_file(config.inject_care_path, config.k_max)
        with _stage("parse"):
            check_care(care, netlist)

    with _stage("partition"):
        assignment = assignment_for(netlist, config.partition)

    with _stage("resynth"):
        result = resynthesize(netlist, assignment, config.resyn, injected_care=care)
        os.makedirs(config.out_dir, exist_ok=True)
        save_assignment(assignment, path("partition", "partition.txt"))
        write_blif_file(result.netlist, path("post_blif", "post.blif"))
        save_assignment(result.assignment, path("partition_post", "partition_post.txt"))
        with open(path("report", "report.json"), "w", encoding="utf-8") as fh:
            fh.write(result.report.to_json() + "\n")

    with _stage("verify"):
        verdict = check_equivalence(netlist, result.netlist, mode=config.verify_mode,
                                    seed=config.partition.seed,
                                    vector_budget=config.vector_budget, care=care)
    with open(path("equiv", "equiv.txt"), "w", encoding="utf-8") as fh:
        fh.write("%s mode=%s vectors=%d\n"
                 % ("EQUIVALENT" if verdict.equivalent else "MISMATCH",
                    verdict.mode, verdict.vectors_checked))
        if not verdict.equivalent:
            fh.write("counterexample: %r output=%s\n"
                     % (verdict.counterexample, verdict.mismatched_output))

    with _stage("split"):
        for die, sub in enumerate(split_per_die(result.netlist, result.assignment)):
            write_blif_file(sub, path("die%d" % die, "die%d.blif" % die))

    with _stage("metrics"):
        rep = metrics_mod.report(netlist, result.netlist, assignment, result.assignment,
                                 sll_mode=config.sll_mode,
                                 notes={"flow_commits": result.report.commits})
        with open(path("metrics_json", "metrics.json"), "w", encoding="utf-8") as fh:
            fh.write(rep.to_json() + "\n")
        with open(path("metrics_txt", "metrics.txt"), "w", encoding="utf-8") as fh:
            fh.write(rep.render_text())

    return FlowResult(0 if verdict.equivalent else 1, artifacts, verdict, result)
