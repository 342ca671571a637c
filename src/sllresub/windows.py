"""Optimization windows: bounded sub-circuits, divisors, and care sets.

A window around a pivot holds the pivot's bounded TFO, its bounded TFI,
and the reconvergent side logic computable from the TFI leaf nets.
Everything inside is exhaustively simulable from the window PIs, which
keeps existence checks and interpolation exact.

A care set is an int mask over the window-PI minterms. The existence
check and the interpolation split it into the same care cofactors of a
support, as in ABC `mfs` (Mishchenko, Brayton, Jiang, Jang, ACM TRETS
2011).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from . import equiv
from .netlist import LutNode, Netlist, eval_nodes
from .partition import DieAssignment
from .truthtab import TruthTable, full_mask, minterm_masks


class ResynthError(Exception):
    pass


@dataclass
class Window:
    pivot: int                      # node id
    window_pis: list[str]           # sorted; index i = input i of the minterm space
    internal: list[int]             # node ids in topological order
    tfo: set[int]                   # the pivot's TFO up to the level bound of build_window

    @property
    def num_pis(self) -> int:
        return len(self.window_pis)

    @property
    def width(self) -> int:
        return 1 << len(self.window_pis)


def _fanin_layers(netlist: Netlist, pivot: LutNode,
                  depth: int) -> tuple[list[list[str]], dict[str, LutNode]]:
    """Nets of the pivot's fanin cone by BFS distance, up to `depth`.

    Layer 0 holds the pivot's own net. A LUT net in layer k is the output
    of a node a breadth-first walk over fanins first reaches at depth k;
    sources (PIs, latch outputs) sit at the first distance they are read
    from and end the walk. The dict maps each LUT net in the layers to
    its driver.
    """
    layers = [[pivot.output_net]]
    drivers = {pivot.output_net: pivot}
    seen = {pivot.output_net}
    nodes = netlist.nodes
    node_of_net = netlist._node_of_net      # read directly: one lookup per fanin walked
    for _ in range(depth):
        layer = []
        for net in layers[-1]:
            drv = drivers.get(net)
            if drv is None:
                continue
            for f in drv.fanins:
                if f not in seen:
                    seen.add(f)
                    layer.append(f)
                    fid = node_of_net.get(f)
                    if fid is not None:
                        drivers[f] = nodes[fid]
        layers.append(layer)
    return layers, drivers


def _fanout_layers(netlist: Netlist, pivot: int, d1: int, d2: int,
                   level: dict[int, int]) -> tuple[list[list[LutNode]], set[int], int]:
    """The pivot's TFO by BFS distance up to `d1`, its TFO up to a level,
    and that level.

    Layer 0 holds the pivot. The set holds the id of every TFO node at
    level at most L0 + d1 + d2, where L0 is the highest level in layers
    0..d1. Every node on a path to a TFO node sits below it, so the walk
    can skip the nodes above that level.
    """
    nodes = netlist.nodes
    readers = netlist.reader_ids.get
    seen: set[int] = set()

    def next_layer(frontier, bound):
        layer = []
        for cur in frontier:
            for r in readers(cur.output_net, ()):
                if r not in seen and level[r] <= bound:
                    seen.add(r)
                    layer.append(nodes[r])
        return layer

    layers = [[nodes[pivot]]]
    for _ in range(d1):
        layers.append(next_layer(layers[-1], float("inf")))
    bound = max(level[n.id] for layer in layers for n in layer) + d1 + d2
    frontier = layers[-1]
    while frontier:
        frontier = next_layer(frontier, bound)
    return layers, seen, bound


def build_window(netlist: Netlist, pivot: LutNode, config) -> Window | None:
    """Construct the pivot's window, shrinking d2 then d1 to honor the PI cap.

    Returns None when even the smallest window has too many PIs (the
    pivot is skipped, not an error).

    The window at bounds (d1, d2) is its core (the pivot, its TFO up to
    distance d1 and its TFI up to distance d2) plus side logic, none of
    it with d1 = 0. A side node lies outside the pivot's TFO, and each of
    its fanins is a window net, a leaf (a net feeding the pivot or its TFI
    from outside) or a free source (a PI or latch output), at least one of
    them not free. Its depth is one more than the highest depth among
    those fanins: core nets and leaves count 0, free sources add nothing,
    and a leaf whose driver joins as side logic takes that driver's depth.
    It joins when its depth is at most d1 + d2.

    Nodes are decided level by level, from one list of queued nodes per
    level. A node's fanin drivers all sit at lower levels, so each node is
    decided after every fanin driver, and a decision queues only readers,
    which sit at higher levels than the node. Two nodes of one level never
    read each other, so the order within a level does not matter, and the
    outcome is that of deciding in (level, id) order.

    The side logic is grown once, at the configured bounds. Each shrink
    step is derived from the previous one by change propagation: it
    decides again, level by level, only the readers of base nets (core
    nets and leaves) that dropped out, the side nodes now deeper than
    d1 + d2, the TFI nodes that left the core, and the readers of every
    node whose membership or depth changed. Filtering the previous window
    would not do: when a leaf's driver drops out of the side logic the
    leaf's depth falls back to 0, so a reader rejected before may now
    join, and consecutive windows need not be nested.

    A side node of depth d sits at level at most L0 + d, where L0 is the
    highest level among the pivot and its TFO up to d1: core nets and
    leaves sit at or below L0. So the pivot's TFO up to level L0 + d1 + d2
    keeps out the same side logic as its whole TFO at every step, and it
    covers every window node and window PI in the TFO. `Window.tfo` is
    that set. No node above that level can join at any step, so none is
    queued.

    A step's window PIs are the leaves, the fanins of the TFO up to d1 and
    the free sources side nodes read, less the window nets. The side
    nodes that read a free source outside the base are kept by net, so a
    step unions only their fanins, not those of all side logic.
    """
    if pivot.id not in netlist.nodes:
        raise ResynthError("pivot is not a LUT node in this netlist")
    nodes = netlist.nodes
    node_of_net = netlist.node_of_net
    readers = netlist.reader_ids.get
    level = netlist.levels()
    d1, d2 = config.d1, config.d2
    ins, drivers = _fanin_layers(netlist, pivot, d2 + 1)
    outs, tfo, top = _fanout_layers(netlist, pivot.id, d1, d2, level)
    free = set(netlist.source_nets())

    core_nodes = [drivers[net] for layer in ins[:d2 + 1] for net in layer if net in drivers]
    core_nodes += [n for layer in outs[1:] for n in layer]
    core = {n.id for n in core_nodes}
    core_nets = {n.output_net for n in core_nodes}
    leaves = set(ins[d2 + 1])
    leaves.update(net for layer in ins[1:d2 + 1] for net in layer if net not in drivers)
    base = core_nets | leaves
    # constants cost no PIs and have no fanins, so absorbing one adds none
    consts = {net for net, drv in drivers.items() if not drv.fanins}
    consts.update(f for layer in outs[1:] for n in layer for f in n.fanins
                  if (drv := node_of_net(f)) is not None and not drv.fanins)
    side: dict[str, LutNode] = {}   # side logic by net
    depth: dict[str, int] = {}      # side net -> depth
    # side nodes that read a free source outside the base, by net
    free_readers: dict[str, LutNode] = {}
    # the first step decides every reader of a base net
    seeds = [r for net in base for r in readers(net, ())] if d1 else []

    def decide_again(seeds, cap):
        """Decide `seeds` again, and the readers of every node that changes."""
        queued = core | tfo
        buckets: dict[int, list[int]] = {}     # level -> queued node ids
        for nid in seeds:
            if nid not in queued:
                queued.add(nid)
                lv = level[nid]
                if lv <= top:
                    buckets.setdefault(lv, []).append(nid)
        while buckets:
            for nid in buckets.pop(min(buckets)):
                cur = nodes[nid]
                d = 0
                reads_free = False
                for f in cur.fanins:
                    fd = depth.get(f)
                    if fd is None:
                        if f in base:
                            fd = 0
                        elif f in free:
                            reads_free = True
                            continue
                        else:
                            d = 0
                            break
                    if fd >= d:
                        d = fd + 1
                new = d if 0 < d <= cap else None
                out = cur.output_net
                if new is not None and reads_free:
                    # also at an unchanged depth: a source leaf that left
                    # the base turns free under its side readers
                    free_readers[out] = cur
                if new == depth.get(out):
                    continue
                if new is None:
                    del depth[out], side[out]
                    free_readers.pop(out, None)
                else:
                    depth[out], side[out] = new, cur
                for r in readers(out, ()):
                    if r not in queued:
                        queued.add(r)
                        lv = level[r]
                        if lv <= top:
                            buckets.setdefault(lv, []).append(r)

    while True:
        if d1 > 0:
            decide_again(seeds, d1 + d2)
        # the pivot and its TFI read only TFI nets and leaves, and a side
        # node reads only window nets, leaves and free sources
        pis = leaves.union(*[n.fanins for layer in outs[1:d1 + 1] for n in layer],
                           *[n.fanins for n in free_readers.values()])
        pis -= core_nets
        pis.difference_update(side)
        absorbed = pis & consts
        if len(pis) - len(absorbed) <= config.window_pi_cap:
            break
        if d2 > 1:
            # TFI nodes at distance d2 leave the core; their nets become leaves
            exits = [net for net in ins[d2] if net in drivers]
            seeds = [drivers[net].id for net in exits]
            dropped = ins[d2 + 1]
            core.difference_update(seeds)
            core_nets.difference_update(exits)
            leaves.update(exits)
            leaves.difference_update(dropped)
            d2 -= 1
        elif d1 > 0:
            dropped = [n.output_net for n in outs[d1]]
            core.difference_update(n.id for n in outs[d1])
            core_nets.difference_update(dropped)
            seeds = []
            d1 -= 1
        else:
            return None
        base.difference_update(dropped)
        seeds += [r for net in dropped for r in readers(net, ())]
        seeds += [side[net].id for net, d in depth.items() if d > d1 + d2]
        if d1 == 0:
            side.clear()
            depth.clear()
            free_readers.clear()

    pis -= absorbed
    internal_set = core | {n.id for n in side.values()}
    internal_set.update(node_of_net(net).id for net in absorbed)
    return Window(pivot.id, sorted(pis), netlist.level_order(internal_set), tfo)


# Window-PI tuples whose masks one run keeps. On `chain` seed 1 a run
# without sharing evaluates 63,117 window nets; keeping 1/4/16/all tuples
# saves 64/87/92/92 % of those evaluations, with tables peaking at
# 0.4/1.4/2.3/6.3 MB.
SHARED_PI_TUPLES = 4


class ValueCache:
    """Window masks shared by the pivots of one run, one table per window-PI tuple.

    The mask of a window net over a sorted window-PI tuple is the net's
    function of those PIs, found by expanding drivers down to them. It
    depends on the netlist and the tuple, not on the window, so windows
    over the same PIs can share it. A table maps window nets (never PIs)
    to masks and is downward closed: each fanin of a cached net is a PI of
    its tuple or cached too, because `WindowSim.value_of` publishes a net
    only after its fanins. The tables of the last `SHARED_PI_TUPLES` tuples
    used are kept.

    A commit changes the function of one node, the pivot's.
    `invalidate(netlist, pivot_net)` drops the pivot net from every table
    and then each cached net that reads a dropped one. A cached net that
    depends on the pivot reaches it through cached nets, by downward
    closure, so the walk is exact and visits only cached nets; where the
    pivot is a PI of a tuple, nothing above it changes. Nodes a commit
    sweeps leave entries behind, but no later window holds their nets.
    """

    def __init__(self):
        self.tables: OrderedDict[tuple[str, ...], dict[str, int]] = OrderedDict()

    def table(self, pis: tuple[str, ...]) -> dict[str, int]:
        """The masks over `pis`; a new table evicts the least recently used."""
        tables = self.tables
        table = tables.get(pis)
        if table is None:
            table = tables[pis] = {}
            if len(tables) > SHARED_PI_TUPLES:
                tables.popitem(last=False)
        else:
            tables.move_to_end(pis)
        return table

    def invalidate(self, netlist: Netlist, net: str):
        """Drop `net` and every cached net reading it, transitively."""
        readers = netlist.reader_ids.get
        nodes = netlist.nodes
        for table in self.tables.values():
            if table.pop(net, None) is None:
                continue
            stack = [net]
            while stack:
                for r in readers(stack.pop(), ()):
                    out = nodes[r].output_net
                    if table.pop(out, None) is not None:
                        stack.append(out)


class WindowSim:
    """Exhaustive bit-parallel simulation of a window over its PI space.

    The window nodes are captured at construction, and each net is
    evaluated on its first read through `value_of` and then kept, so a
    pivot pays only for the nets its decision reads: the pivot's input
    cone (`pivot_mask`), the side inputs of the nets the pivot feeds, and
    the divisors it tries. The values are those of a full simulation.

    Given a `ValueCache`, the pivots of a run share their masks:
    `value_of` takes a window net's mask from the table of the window's PI
    tuple before evaluating it, and publishes each mask it evaluates
    there. It looks a net up only once the net is known to be a window
    node, so a net outside the window is refused as before. The masks in
    the table are those of the netlist as it is, so after a commit, and
    after `check_commit` (whose pre-commit reads publish too), the caller
    calls `cache.invalidate(netlist, pivot_net)`. Without a cache the
    window keeps its masks to itself.

    `care_mask` is an injected care predicate (a single-output netlist
    over primary input names) over the window minterms, evaluated once
    here. It applies when all of its inputs are window PIs; otherwise, and
    without one, every minterm is care, which only makes the care set
    conservative.
    """

    def __init__(self, netlist: Netlist, window: Window, cache: ValueCache | None = None,
                 injected_care: Netlist | None = None):
        self.window = window
        self.width = window.width
        self.full = full_mask(self.width)
        self.values: dict[str, int] = minterm_masks(window.window_pis)
        # `values` holds the window PIs, and only them, until a net is read
        if injected_care is not None and all(p in self.values
                                             for p in injected_care.source_nets()):
            self.care_mask = equiv.care_mask(injected_care, self.values, self.width)
        else:
            self.care_mask = self.full
        self.shared = cache.table(tuple(window.window_pis)) if cache is not None else {}
        self.pivot_net = netlist.nodes[window.pivot].output_net
        self.nodes: dict[str, LutNode] = {}     # window nodes by output net
        # window nodes the pivot feeds, in topological order: the core TFO
        # nodes, since side logic lies outside the pivot's TFO
        self.pivot_fanout: list[LutNode] = []
        tfo = window.tfo
        for nid in window.internal:
            node = netlist.nodes[nid]
            self.nodes[node.output_net] = node
            if nid in tfo:
                self.pivot_fanout.append(node)
        self.pivot_mask = self.value_of(self.pivot_net)
        # support prefix and care mask -> mixed care cofactors (exist_check)
        self.mixed_blocks: dict[tuple[tuple[str, ...], int], list[int]] = {}

    def value_of(self, net: str) -> int:
        """The mask of a window net: kept, shared, or evaluated after its
        missing fanins."""
        values = self.values
        if net in values:
            return values[net]
        shared = self.shared
        stack = [net]
        while stack:
            cur = stack[-1]
            if cur in values:       # pushed twice, by two readers
                stack.pop()
                continue
            node = self.nodes.get(cur)
            if node is None:
                raise ResynthError("net %r is not evaluable in the window" % cur)
            mask = shared.get(cur)
            if mask is None:
                missing = [f for f in node.fanins if f not in values]
                if missing:
                    stack.extend(missing)
                    continue
                mask = shared[cur] = node.function.eval_masks(
                    [values[f] for f in node.fanins], self.width)
            stack.pop()
            values[cur] = mask
        return values[net]

    def check_commit(self, netlist: Netlist):
        """Certify a commit made inside this window; raise ResynthError if not.

        `self` holds the window nodes as they were before the commit;
        `netlist` is the netlist after it. Every surviving window node still
        `observable` must keep its value on every window-PI minterm that
        `care_mask` allows. The live window nodes are visited twice in
        (level, id) order: first each fanin must be a window PI or an
        earlier live net, then values are propagated from the change.

        The value pass applies the twin rule of `equiv._changed_cone`: a
        node with the same fanins and an equal function as its captured
        node, none of whose fanins changed, keeps its pre-commit mask and is
        not evaluated. Any other node is evaluated from the changed masks
        and the pre-commit ones (`value_of`), and counts as changed only if
        its mask differs. By induction in that order every live net gets
        the mask a full simulation would give it, so the verdict, the net
        and the minterm reported are those of a full re-simulation, at the
        cost of the nodes the commit changed. A pre-commit value not read
        before comes from the shared table, which is not yet invalidated, or
        from the captured nodes, never from `netlist`; those of the nodes
        the pivot feeds are mostly kept by `extract_care_set`. The check
        reads no care set, and it visits no node outside the window.

        Nothing outside the window changed, so when each observable net
        keeps its function of the window PIs the whole netlist keeps its
        function. That holds when a window PI lies in the pivot's fanout
        too: the pivot reaches it only through observable nets.
        """
        pis = self.window.window_pis
        nodes = netlist.nodes
        live = [netlist.node_of_net(net) for net in self.nodes]
        live = [nodes[nid] for nid in netlist.level_order(
            node.id for node in live if node is not None)]
        known = set(pis)
        for node in live:
            for f in node.fanins:
                if f not in known:
                    raise ResynthError("window node %r reads %r from outside the window"
                                       % (node.output_net, f))
            known.add(node.output_net)
        value_of = self.value_of
        changed: dict[str, int] = {}    # live net -> its new mask, where it differs
        for node in live:
            net = node.output_net
            twin = self.nodes[net]
            if ((twin is node or twin.fanins == node.fanins and twin.function == node.function)
                    and (not changed or changed.keys().isdisjoint(node.fanins))):
                continue
            mask = node.function.eval_masks(
                [changed[f] if f in changed else value_of(f) for f in node.fanins], self.width)
            diff = mask ^ value_of(net)
            if not diff:
                continue
            changed[net] = mask
            diff &= self.care_mask
            if diff and observable(netlist, net, self.nodes):
                minterm = (diff & -diff).bit_length() - 1
                raise ResynthError("commit on %r changed window output %r at %s" % (
                    self.pivot_net, net,
                    {pi: (minterm >> i) & 1 for i, pi in enumerate(pis)}))

    def resim_with_pivot(self, forced: int) -> dict[str, int]:
        """Values of the window nets the pivot feeds, with the pivot forced.

        The other inputs of those nets are read first, through
        `value_of`. The returned dict holds the forced pivot, the nets it
        feeds, and those inputs.
        """
        fed = {self.pivot_net}.union(node.output_net for node in self.pivot_fanout)
        values = {f: self.value_of(f) for node in self.pivot_fanout
                  for f in node.fanins if f not in fed}
        values[self.pivot_net] = self.full if forced else 0
        eval_nodes(self.pivot_fanout, values, self.width)
        return values


def observable(netlist: Netlist, net: str, members) -> bool:
    """True when `net` is a PO, a latch input, or read by a LUT whose
    output net is not in `members` (the nets of a window's nodes)."""
    if netlist.is_sink(net):
        return True
    nodes = netlist.nodes
    return any(nodes[r].output_net not in members for r in netlist.reader_ids.get(net, ()))


def extract_care_set(netlist: Netlist, sim: WindowSim) -> int:
    """Observability care mask of `sim`'s window by dual simulation with
    the pivot forced.

    Bit m of the returned int is set iff window minterm m is care:
    flipping the pivot there changes some `observable` window net, and
    the sim's `care_mask` allows it.

    The two forced simulations also give the mask of each window node the
    pivot feeds: on each minterm the pivot's own value picks the forcing.
    Those masks go into `sim.values` for `check_commit`, so it need not
    evaluate them again. Only that check reads them, and the commit it
    certifies invalidates them, so they are not published.

    So a check evaluates the new pivot and at most one node per node the
    pivot feeds when the pivot is not `observable` (the masks are kept) or
    when `care_mask` is full (the new pivot keeps its mask). An observable
    pivot under a partial `care_mask` may change outside it; the check
    then evaluates the pre-commit masks of the nodes the pivot feeds and
    of their side inputs, which nothing kept.
    """
    if observable(netlist, sim.pivot_net, sim.nodes):
        care = sim.full
    else:
        # an output the pivot does not feed is equal under both forcings
        v0 = sim.resim_with_pivot(0)
        v1 = sim.resim_with_pivot(1)
        care = 0
        for node in sim.pivot_fanout:
            net = node.output_net
            flips = v0[net] ^ v1[net]
            if observable(netlist, net, sim.nodes):
                care |= flips
            sim.values[net] = v0[net] ^ (flips & sim.pivot_mask)
    return care & sim.care_mask


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

    Window levels are computed in one pass over `window.internal`, and each
    qualifying net at level at most `d2` goes into the list of its level.
    Names are sorted only within a level, and collection stops at the cap,
    so only the levels the cap reaches are sorted.
    """
    nodes = netlist.nodes
    pivot_node = nodes[window.pivot]
    excluded = {nodes[n].output_net for n in netlist.mffc(window.pivot)}
    tfo = window.tfo
    excluded.update(nodes[n].output_net for n in window.internal if n in tfo)
    excluded.add(pivot_node.output_net)

    top = config.d2
    by_level = [[net for net in window.window_pis if net not in excluded]]
    by_level += [[] for _ in range(top)]
    levels = dict.fromkeys(window.window_pis, 0)
    for nid in window.internal:
        node = nodes[nid]
        lvl = 0
        for f in node.fanins:
            if levels[f] > lvl:
                lvl = levels[f]
        lvl += 1
        net = node.output_net
        levels[net] = lvl
        if lvl <= top and net not in excluded:
            by_level[lvl].append(net)

    candidates = []
    cap = config.divisor_cap
    die = assignment.die
    for lvl, nets in enumerate(by_level):
        nets.sort()
        for net in nets[:cap - len(candidates)]:
            candidates.append((net, die(net), lvl))
        if len(candidates) >= cap:
            break
    pivot_die = die(pivot_node.output_net)
    in_die = [net for net, d, _lvl in candidates if d == pivot_die]
    return DivisorSet(candidates, in_die)


# ----------------------------------------------------------------------
# existence check and interpolation


def _support_masks(sim: WindowSim, support: list[str]) -> list[int]:
    """The window masks of `support`, which must be narrow enough to tabulate."""
    masks = [sim.value_of(net) for net in support]
    if len(support) > 16:
        raise ResynthError("support of %d nets is too wide to tabulate" % len(support))
    return masks


def _cofactors(care: int, masks: list[int]) -> list[tuple[int, int]]:
    """The nonempty care cofactors of a support whose nets have `masks`.

    Each pair is a support pattern t (bit i: the value of net i) and the
    care minterms on which the support takes that pattern. The care set
    is split by one net at a time, and empty blocks are dropped.
    """
    blocks = [(0, care)]
    for i, vm in enumerate(masks):
        bit = 1 << i
        split = []
        for t, part in blocks:
            hi = part & vm
            if hi != part:
                split.append((t, part ^ hi))
            if hi:
                split.append((t | bit, hi))
        blocks = split
    return blocks


def exist_check(sim: WindowSim, care: int, support: list[str]) -> bool:
    """True iff the pivot is a well-defined function of `support` on the care set.

    Canonical pairwise-distinguishability semantics: no two care minterms
    may agree on every support net yet disagree on the pivot.

    The answer is read from the care cofactors of `support` that hold both
    onset and offset minterms of the pivot (mixed blocks): it is True when
    there are none. A block that is not mixed stays so when split further,
    so the mixed blocks of `support` are those of its prefix (every net but
    the last), each split by the last net. `sim.mixed_blocks` keeps the
    mixed blocks of each prefix, keyed by the prefix and `care`, so the
    calls `base + [d]` over many divisors d cofactor `base` once and then
    split only its mixed blocks.
    """
    if not care:
        return True
    masks = _support_masks(sim, support)
    pivot = sim.pivot_mask
    key = (tuple(support[:-1]), care)
    mixed = sim.mixed_blocks.get(key)
    if mixed is None:
        mixed = sim.mixed_blocks[key] = [part for _t, part in _cofactors(care, masks[:-1])
                                         if 0 != part & pivot != part]
    if not masks:
        return not mixed
    vm = masks[-1]
    for part in mixed:
        hi = part & vm
        lo = part ^ hi
        if 0 != hi & pivot != hi or 0 != lo & pivot != lo:
            return False
    return True


def interpolate(sim: WindowSim, care: int, support: list[str]) -> TruthTable:
    """Truth table over `support` agreeing with the pivot on all care minterms.

    Support patterns never hit by a care minterm are filled with 0.
    Raises when the support cannot express the pivot (exist_check false).
    """
    if not care:
        return TruthTable(len(support), 0)
    masks = _support_masks(sim, support)
    pivot = sim.pivot_mask
    bits = 0
    for t, part in _cofactors(care, masks):
        on = part & pivot
        if on:
            if on != part:
                raise ResynthError("interpolate called on an infeasible support")
            bits |= 1 << t
    return TruthTable(len(support), bits)
