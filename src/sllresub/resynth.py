"""Greedy cross-die fanin elimination by windowed LUT resubstitution.

The sweep walks pivots in topological order, skips nodes whose fanins
already sit on their own die, and tries to re-express every other pivot
over its remaining fanins plus at most `max_augment` same-die divisors.
A commit strictly reduces the pivot's cross-die fanin count and never
increases the LUT count; the dead fanin cone is swept afterwards.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, asdict

from .equiv import EquivError, check_care
from .metrics import count_sll, count_sll_fo, node_cross_die_fanins
from .netlist import LutNode, Netlist
from .partition import DieAssignment
from .truthtab import TruthTable
from .windows import (ResynthError, ValueCache, WindowSim,
                      build_window, collect_divisors, exist_check, extract_care_set,
                      interpolate)


@dataclass
class ResynConfig:
    d1: int = 2
    d2: int = 8
    window_pi_cap: int = 14
    divisor_cap: int = 150
    passes: int = 1                           # -1: repeat until a pass commits nothing
    verify_each_commit: bool = True
    max_augment: int = 1
    freeze_die: int | None = None

    def __post_init__(self):
        for name in ("d2", "window_pi_cap", "divisor_cap", "max_augment"):
            if getattr(self, name) < 1:
                raise ResynthError("%s must be >= 1" % name)
        if self.d1 < 0:
            raise ResynthError("d1 must be >= 0")
        if self.freeze_die is not None and self.freeze_die < 0:
            raise ResynthError("freeze_die must be >= 0")
        if self.passes == 0 or self.passes < -1:
            raise ResynthError("passes must be >= 1 (or -1 for run-to-fixpoint)")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ResubCandidate:
    pivot_net: str
    removed_fanin: str
    new_support: list[str]
    new_function: TruthTable


@dataclass
class PivotAudit:
    pass_no: int
    pivot: str
    die: int
    outcome: str                  # no-window | no-candidate | cycle-rejected | committed
    cross_die_fanins: int = 0
    removed_fanin: str | None = None
    new_support: list[str] | None = None
    removed_nodes: list[str] | None = None
    window_pis: int | None = None
    n_sll_fo_delta: int | None = None   # crossing edges the commit added (negative: removed)


@dataclass
class ResynReport:
    """What one `resynthesize` run did.

    `audit` holds one row per pivot with a cross-die fanin, in sweep
    order. A LUT the sweep visits without one is a skipped pivot; it gets
    no row, and `skipped` counts them over all passes. A LUT off
    `freeze_die` is not visited, and counts in neither.
    """

    model: str
    config: dict
    before: dict
    after: dict = field(default_factory=dict)
    passes_run: int = 0
    commits: int = 0
    skipped: int = 0
    audit: list[PivotAudit] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "config": self.config,
            "before": self.before,
            "after": self.after,
            "passes_run": self.passes_run,
            "commits": self.commits,
            "skipped": self.skipped,
            "audit": [dict(vars(a)) for a in self.audit],   # flat rows: no deep copy
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def select_cross_die_fanin(netlist: Netlist, assignment: DieAssignment,
                           node: LutNode) -> str | None:
    """Deepest cross-die fanin (highest driver level), ties by fanin position."""
    level = netlist.levels()

    def depth(net: str) -> int:
        drv = netlist.node_of_net(net)
        return level[drv.id] if drv is not None else 0

    # max keeps the first of equally deep fanins
    return max(node_cross_die_fanins(netlist, assignment, node), key=depth, default=None)


def find_equiv_func(netlist: Netlist, sim: WindowSim, care: int,
                    assignment: DieAssignment, config: ResynConfig) -> ResubCandidate | None:
    """One removal attempt per pivot of `sim`'s window: drop a cross-die
    fanin, then try the remaining fanins alone and augmented with same-die
    divisors.

    The divisors are collected only when the remaining fanins alone fail.
    """
    window = sim.window
    pivot = netlist.nodes[window.pivot]
    u = select_cross_die_fanin(netlist, assignment, pivot)
    if u is None:
        return None
    base = [f for f in pivot.fanins if f != u]
    if exist_check(sim, care, base):
        return ResubCandidate(pivot.output_net, u, base, interpolate(sim, care, base))
    divisors = collect_divisors(netlist, window, assignment, config)
    usable = [d for d in divisors.in_die if d not in base and d != pivot.output_net]
    for size in range(1, config.max_augment + 1):
        if len(base) + size > netlist.k_max:
            break
        for combo in itertools.combinations(usable, size):
            support = base + list(combo)
            if exist_check(sim, care, support):
                return ResubCandidate(pivot.output_net, u, support,
                                      interpolate(sim, care, support))
    return None


def _in_fanout_cone(netlist: Netlist, pivot: int, net: str) -> bool:
    """True when `net` is driven by `pivot` or by a node in its TFO.

    Walks back from `net` through drivers above the pivot's level only:
    every node in the TFO sits above it, so the walk stays local.
    """
    level = netlist.levels()
    floor = level[pivot]
    stack, seen = [net], {net}
    while stack:
        drv = netlist.node_of_net(stack.pop())
        if drv is None or level[drv.id] < floor:
            continue
        if drv.id == pivot:
            return True
        if level[drv.id] > floor:
            for f in drv.fanins:
                if f not in seen:
                    seen.add(f)
                    stack.append(f)
    return False


def apply_resubstitution(netlist: Netlist, assignment: DieAssignment,
                         candidate: ResubCandidate) -> dict:
    """Commit a certified candidate: swap the pivot's fanins/function in
    as a fresh node on the same net and die, then sweep the dead cone.

    Raises ResynthError (netlist untouched) when a support net lies in
    the pivot's TFO, which would create a combinational cycle. The
    returned dict holds the nets of the swept nodes (`removed_nodes`) and
    the commit's change in crossing driver->sink edges (`n_sll_fo_delta`).
    """
    node = netlist.node_of_net(candidate.pivot_net)
    if node is None:
        raise ResynthError("pivot %r is not in the netlist" % candidate.pivot_net)
    for s in candidate.new_support:
        if not netlist.has_driver(s):
            raise ResynthError("support net %r has no driver" % s)
        if _in_fanout_cone(netlist, node.id, s):
            raise ResynthError("support net %r is in the pivot's fanout cone" % s)
    old_fanins = list(node.fanins)
    fo_delta = -len(node_cross_die_fanins(netlist, assignment, node))
    new_node = netlist.replace_node(node.id, candidate.new_support, candidate.new_function)
    fo_delta += len(node_cross_die_fanins(netlist, assignment, new_node))
    removed = netlist.sweep_dead(old_fanins)
    # a swept node takes its fanin edges with it; nothing read it any more
    fo_delta -= sum(len(node_cross_die_fanins(netlist, assignment, r)) for r in removed)
    for r in removed:
        del assignment.die_of[r.output_net]
        assignment.weights.pop(r.output_net, None)
    return {"removed_nodes": [r.output_net for r in removed], "n_sll_fo_delta": fo_delta}


@dataclass
class ResynResult:
    netlist: Netlist
    assignment: DieAssignment
    report: ResynReport


def resynthesize(netlist: Netlist, assignment: DieAssignment, config: ResynConfig,
                 injected_care: Netlist | None = None) -> ResynResult:
    """Run the greedy sweep; the inputs are left untouched.

    With `verify_each_commit` on, each commit is certified at its window
    (`WindowSim.check_commit`): every observable window net must keep its
    value on all window-PI minterms, restricted by the care predicate when
    all of its inputs are window PIs. The check is exact for the whole
    netlist and costs O(window). The pivots share window masks through one
    `ValueCache`, invalidated at each commit's pivot. A care predicate that
    is not a single-output function of the primary inputs is refused up
    front, and so is a `freeze_die` that names no die of `assignment`.
    """
    if config.freeze_die is not None and config.freeze_die >= assignment.num_dies:
        raise ResynthError("freeze_die %d is not a die (the assignment has %d)"
                           % (config.freeze_die, assignment.num_dies))
    if injected_care is not None:
        try:
            check_care(injected_care, netlist)
        except EquivError as exc:
            raise ResynthError(str(exc)) from None
    work = netlist.copy()
    asg = assignment.copy()
    report = ResynReport(model=netlist.model_name, config=config.to_dict(),
                         before=_qor(netlist, assignment))
    cache = ValueCache()
    pass_no = 0
    while True:
        pass_no += 1
        commits_this_pass = 0
        order = [n.id for n in work.topological_order()]
        for nid in order:
            if nid not in work.nodes:
                continue  # removed by an earlier commit's dead-cone sweep
            node = work.nodes[nid]
            die = asg.die(node.output_net)
            if config.freeze_die is not None and die != config.freeze_die:
                continue
            cross = node_cross_die_fanins(work, asg, node)
            if not cross:
                report.skipped += 1
                continue
            window = build_window(work, node, config)
            if window is None:
                report.audit.append(PivotAudit(
                    pass_no, node.output_net, die, "no-window", len(cross)))
                continue
            sim = WindowSim(work, window, cache, injected_care)
            care = extract_care_set(work, sim)
            candidate = find_equiv_func(work, sim, care, asg, config)
            if candidate is None:
                report.audit.append(PivotAudit(
                    pass_no, node.output_net, die, "no-candidate", len(cross),
                    window_pis=window.num_pis))
                continue
            # Acceptance rule: strictly fewer cross-die fanins, no area growth.
            # v' is one LUT replacing one LUT, so only the fanin check can
            # reject; it is unreachable by construction but checked as stated.
            new_cross = sum(1 for f in candidate.new_support if asg.die(f) != die)
            if new_cross >= len(cross):
                report.audit.append(PivotAudit(
                    pass_no, node.output_net, die, "no-candidate", len(cross)))
                continue
            try:
                change = apply_resubstitution(work, asg, candidate)
            except ResynthError:
                report.audit.append(PivotAudit(
                    pass_no, node.output_net, die, "cycle-rejected", len(cross)))
                continue
            if config.verify_each_commit:
                sim.check_commit(work)
            cache.invalidate(work, candidate.pivot_net)
            commits_this_pass += 1
            report.commits += 1
            report.audit.append(PivotAudit(
                pass_no, node.output_net, die, "committed", len(cross),
                removed_fanin=candidate.removed_fanin,
                new_support=candidate.new_support,
                removed_nodes=change["removed_nodes"],
                window_pis=window.num_pis,
                n_sll_fo_delta=change["n_sll_fo_delta"],
            ))
        report.passes_run = pass_no
        if config.passes == -1:
            if commits_this_pass == 0:
                break
        elif pass_no >= config.passes:
            break
    report.after = _qor(work, asg)
    return ResynResult(work, asg, report)


def _qor(netlist: Netlist, assignment: DieAssignment) -> dict:
    return {
        "n_sll": count_sll(netlist, assignment),
        "n_sll_fo": count_sll_fo(netlist, assignment),
        "lut_count": netlist.lut_count(),
        "rho": assignment.imbalance(),
    }
