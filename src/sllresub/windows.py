"""Optimization windows: bounded sub-circuits, divisors, and care sets.

A window around a pivot holds the pivot's bounded TFO, its bounded TFI,
and the reconvergent side logic computable from the TFI leaf nets.
Everything inside is exhaustively simulable from the window PIs, which
keeps existence checks and interpolation exact.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .netlist import LutNode, Netlist, eval_nodes
from .partition import DieAssignment
from .truthtab import TruthTable, full_mask, var_mask


class ResynthError(Exception):
    pass


@dataclass
class Window:
    pivot: int                      # node id
    window_pis: list[str]           # sorted; index i = input i of the minterm space
    internal: list[int]             # node ids in topological order
    outputs: list[str]              # nets observable outside the window
    tfo: set[int]                   # the pivot's whole transitive fanout (node ids)

    @property
    def num_pis(self) -> int:
        return len(self.window_pis)

    @property
    def width(self) -> int:
        return 1 << len(self.window_pis)


def _grow_window(netlist: Netlist, pivot: int, d1: int, d2: int,
                 full_tfo: set[int]) -> set[int]:
    """Internal node set for the given depth bounds.

    `full_tfo` is the pivot's whole transitive fanout; no node in it
    becomes side logic.
    """
    tfo_ids = netlist.tfo(pivot, d1) if d1 > 0 else set()
    tfi_ids = netlist.tfi(pivot, d2)
    window = {pivot} | tfo_ids | tfi_ids

    # Side logic: nodes fed entirely by window nets (or free sources such
    # as PIs and latch outputs), reachable forward from the leaf nets
    # within d1+d2 levels. The pivot's deeper TFO stays out; d1 alone
    # bounds how far downstream the window looks, and d1=0 pins the
    # window to the pivot's own input cone.
    if d1 == 0:
        return window
    leaves = set(netlist.cone_input_nets(tfi_ids | {pivot}))
    depth_cap = d1 + d2
    window_nets = {netlist.nodes[n].output_net for n in window}
    free = set(netlist.primary_inputs) | {l.output_net for l in netlist.latches}
    depth: dict[str, int] = {net: 0 for net in leaves}
    level = netlist.levels()

    # Visit order rule. The result depends on the order in which side
    # nodes are tried: a leaf net's depth rises from 0 when its driver
    # joins the window, so a reader tried before that join keeps a lower
    # depth than one tried after it, and may be the only one to fit under
    # depth_cap. Nodes are tried in (level, id) order. A reader sits above
    # every node it reads, so this order is topological: each node is
    # tried once, after every fanin driver that can still join. Only
    # readers of window nets and leaves can join, so those are the ones
    # queued: the readers of the initial window and leaves, then the
    # readers of each node that joins.
    def queue_readers(net):
        for r in netlist.readers_of(net).node_ids:
            if r not in queued and r not in window and r not in full_tfo:
                queued.add(r)
                heapq.heappush(heap, (level[r], r))

    heap: list[tuple[int, int]] = []
    queued: set[int] = set()
    for net in window_nets | leaves:
        queue_readers(net)
    while heap:
        nid = heapq.heappop(heap)[1]
        node = netlist.nodes[nid]
        ok = True
        d = 0
        feeds_leaf = False
        for f in node.fanins:
            if f in window_nets or f in leaves:
                d = max(d, depth.get(f, 0) + 1)
                feeds_leaf = True
            elif f in free:
                d = max(d, 1)
            else:
                ok = False
                break
        if ok and feeds_leaf and d <= depth_cap:
            window.add(nid)
            window_nets.add(node.output_net)
            depth[node.output_net] = d
            queue_readers(node.output_net)
    return window


def build_window(netlist: Netlist, pivot, config) -> Window | None:
    """Construct the pivot's window, shrinking d2 then d1 to honor the PI cap.

    Returns None when even the smallest window has too many PIs (the
    pivot is skipped, not an error).
    """
    node = pivot if isinstance(pivot, LutNode) else netlist.nodes.get(pivot)
    if node is None or node.id not in netlist.nodes:
        raise ResynthError("pivot is not a LUT node in this netlist")
    d1, d2 = config.d1, config.d2
    full_tfo = netlist.tfo(node.id, None)
    while True:
        internal_set = _grow_window(netlist, node.id, d1, d2, full_tfo)
        internal_nets = {netlist.nodes[n].output_net for n in internal_set}
        pis = set()
        consts = set()
        for nid in internal_set:
            for f in netlist.nodes[nid].fanins:
                if f in internal_nets:
                    continue
                drv = netlist.node_of_net(f)
                if drv is not None and not drv.fanins:
                    consts.add(drv.id)  # absorb constants, they cost no PIs
                else:
                    pis.add(f)
        # a constant has no fanins, so absorbing it adds no PIs
        internal_set |= consts
        if len(pis) <= config.window_pi_cap:
            break
        if d2 > 1:
            d2 -= 1
        elif d1 > 0:
            d1 -= 1
        else:
            return None

    level = netlist.levels()
    internal = sorted(internal_set, key=lambda n: (level[n], n))
    outputs = []
    for nid in internal:
        out_net = netlist.nodes[nid].output_net
        use = netlist.readers_of(out_net)
        observable = use.is_po or bool(use.latch_idxs)
        observable = observable or any(r not in internal_set for r in use.node_ids)
        if observable:
            outputs.append(out_net)
    return Window(node.id, sorted(pis), internal, sorted(outputs), full_tfo)


class WindowSim:
    """Exhaustive bit-parallel simulation of a window over its PI space."""

    def __init__(self, netlist: Netlist, window: Window):
        self.window = window
        self.width = window.width
        self.full = full_mask(self.width)
        self.values: dict[str, int] = {
            net: var_mask(i, window.num_pis) for i, net in enumerate(window.window_pis)
        }
        self.pivot_net = netlist.nodes[window.pivot].output_net
        # window nodes the pivot feeds, in topological order
        self.pivot_fanout: list[LutNode] = []
        fed = {self.pivot_net}
        for nid in window.internal:
            node = netlist.nodes[nid]
            self.values[node.output_net] = node.function.eval_masks(
                [self.values[f] for f in node.fanins], self.width)
            if not fed.isdisjoint(node.fanins):
                fed.add(node.output_net)
                self.pivot_fanout.append(node)
        self.pivot_mask = self.values[self.pivot_net]

    def value_of(self, net: str) -> int:
        try:
            return self.values[net]
        except KeyError:
            raise ResynthError("net %r is not evaluable in the window" % net) from None

    def care_mask(self, injected_care: Netlist | None) -> int:
        """An injected care predicate over the window minterms.

        The predicate is a single-output netlist over primary input
        names. It applies when all of its inputs are window PIs; otherwise
        (and without one) every minterm is care.
        """
        if injected_care is None:
            return self.full
        pred_inputs = injected_care.source_nets()
        pis = self.window.window_pis
        if not all(p in pis for p in pred_inputs):
            return self.full
        values = injected_care.eval_masks({p: self.values[p] for p in pred_inputs},
                                          self.width)
        return values[injected_care.primary_outputs[0]]

    def check_commit(self, netlist: Netlist, injected_care: Netlist | None = None):
        """Certify a commit made inside this window; raise ResynthError if not.

        `self` simulated the window before the commit; `netlist` is the
        netlist after it. The surviving window nodes are simulated again as
        they now are, and every one still observable (a PO, a latch input,
        or read by a node outside the window, per `readers_of`) must keep
        its value on every window-PI minterm that `care_mask` allows. It
        reads neither `Window.outputs` nor the care set, so it does not
        rely on the code it checks, and it visits no node outside the
        window.

        Nothing outside the window changed, so when each observable net
        keeps its function of the window PIs the whole netlist keeps its
        function. That holds when a window PI lies in the pivot's fanout
        too: the pivot reaches it only through observable nets.
        """
        pis = self.window.window_pis
        pi_set = set(pis)
        level = netlist.levels()
        live = [netlist.node_of_net(net) for net in self.values if net not in pi_set]
        live = sorted((node for node in live if node is not None),
                      key=lambda node: (level[node.id], node.id))
        members = {node.id for node in live}
        values = {net: self.values[net] for net in pis}
        for node in live:
            try:
                ins = [values[f] for f in node.fanins]
            except KeyError as exc:
                raise ResynthError("window node %r reads %r from outside the window"
                                   % (node.output_net, exc.args[0])) from None
            values[node.output_net] = node.function.eval_masks(ins, self.width)
        care = self.care_mask(injected_care)
        for node in live:
            net = node.output_net
            use = netlist.readers_of(net)
            if not (use.is_po or use.latch_idxs
                    or any(r not in members for r in use.node_ids)):
                continue
            diff = (values[net] ^ self.values[net]) & care
            if diff:
                minterm = (diff & -diff).bit_length() - 1
                raise ResynthError("commit on %r changed window output %r at %s" % (
                    self.pivot_net, net,
                    {pi: (minterm >> i) & 1 for i, pi in enumerate(pis)}))

    def resim_with_pivot(self, forced: int) -> dict[str, int]:
        """Window values with the pivot output forced to a constant.

        Only the nodes the pivot feeds are evaluated again; every other
        net keeps its value from the first simulation.
        """
        values = dict(self.values)
        values[self.pivot_net] = self.full if forced else 0
        eval_nodes(self.pivot_fanout, values, self.width)
        return values


@dataclass
class CareSet:
    """Care predicate over the window PI minterm space (1 = care)."""

    over: list[str]
    care_bits: int

    @property
    def width(self) -> int:
        return 1 << len(self.over)

    def is_all_dont_care(self) -> bool:
        return self.care_bits == 0


def extract_care_set(netlist: Netlist, window: Window, sim: WindowSim | None = None,
                     injected_care: Netlist | None = None) -> CareSet:
    """Observability care set by dual simulation with the pivot forced.

    A window minterm is care iff flipping the pivot changes some window
    output. An injected care predicate (single-output netlist over
    primary input names) is intersected when all of its inputs are
    window PIs; otherwise it is ignored for this window, which only
    makes the care set conservative.
    """
    sim = sim or WindowSim(netlist, window)
    pivot_net = sim.pivot_net
    if pivot_net in window.outputs:
        care = sim.full
    else:
        v0 = sim.resim_with_pivot(0)
        v1 = sim.resim_with_pivot(1)
        care = 0
        for out in window.outputs:
            care |= v0[out] ^ v1[out]
    care &= sim.care_mask(injected_care)
    return CareSet(list(window.window_pis), care)


# ----------------------------------------------------------------------
# divisors


@dataclass
class DivisorSet:
    candidates: list[tuple[str, int, int]]   # (net, die, window level)
    in_die: list[str] = field(default_factory=list)


def collect_divisors(netlist: Netlist, window: Window, assignment: DieAssignment,
                     config) -> DivisorSet:
    """Divisor candidates: window signals reusable to re-express the pivot.

    Every window PI and internal node qualifies except the pivot itself,
    its MFFC, and window nodes in the pivot's TFO (those would create
    cycles). Candidates are ordered by (window level, name), truncated at
    the divisor cap; `in_die` keeps the ones sharing the pivot's die.
    """
    pivot_node = netlist.nodes[window.pivot]
    excluded = {netlist.nodes[n].output_net for n in netlist.mffc(window.pivot)}
    excluded.update(netlist.nodes[n].output_net for n in window.internal if n in window.tfo)
    excluded.add(pivot_node.output_net)

    levels: dict[str, int] = {net: 0 for net in window.window_pis}
    for nid in window.internal:
        node = netlist.nodes[nid]
        levels[node.output_net] = 1 + max((levels[f] for f in node.fanins), default=0)

    ordered = sorted(levels.items(), key=lambda kv: (kv[1], kv[0]))
    candidates = []
    for net, lvl in ordered:
        if net in excluded or lvl > config.d2:
            continue
        candidates.append((net, assignment.die(net), lvl))
        if len(candidates) >= config.divisor_cap:
            break
    pivot_die = assignment.die(pivot_node.output_net)
    in_die = [net for net, die, _lvl in candidates if die == pivot_die]
    return DivisorSet(candidates, in_die)


# ----------------------------------------------------------------------
# existence check and interpolation


def exist_check(sim: WindowSim, care: CareSet, support: list[str]) -> bool:
    """True iff the pivot is a well-defined function of `support` on the care set.

    Canonical pairwise-distinguishability semantics: no two care minterms
    may agree on every support net yet disagree on the pivot.
    """
    if care.is_all_dont_care():
        return True
    masks = [sim.value_of(net) for net in support]
    if len(support) > 16:
        raise ResynthError("support of %d nets is too wide to tabulate" % len(support))
    full = sim.full
    on = sim.pivot_mask & care.care_bits
    off = ~sim.pivot_mask & full & care.care_bits
    for t in range(1 << len(support)):
        part = care.care_bits
        for i, vm in enumerate(masks):
            part &= vm if (t >> i) & 1 else full & ~vm
            if not part:
                break
        if part and (part & on) and (part & off):
            return False
    return True


def interpolate(sim: WindowSim, care: CareSet, support: list[str]) -> TruthTable:
    """Truth table over `support` agreeing with the pivot on all care minterms.

    Support patterns never hit by a care minterm are filled with 0.
    Raises when the support cannot express the pivot (exist_check false).
    """
    masks = [sim.value_of(net) for net in support]
    full = sim.full
    on = sim.pivot_mask & care.care_bits
    off = ~sim.pivot_mask & full & care.care_bits
    bits = 0
    for t in range(1 << len(support)):
        part = care.care_bits
        for i, vm in enumerate(masks):
            part &= vm if (t >> i) & 1 else full & ~vm
            if not part:
                break
        if not part:
            continue
        hit_on = part & on
        hit_off = part & off
        if hit_on and hit_off:
            raise ResynthError("interpolate called on an infeasible support")
        if hit_on:
            bits |= 1 << t
    return TruthTable(len(support), bits)
