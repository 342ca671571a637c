"""Combinational equivalence checking by bit-parallel miter simulation.

Latch boundaries are compared combinationally: latch outputs join the
primary inputs and latch inputs join the primary outputs, so both
netlists must hold the same latches, each with the same input, output
and init value. Exhaustive mode misses nothing; random mode misses a
mismatch of density p with probability (1 - p)^N after N vectors.

Only values that a comparison reads are computed. A node of the second
netlist with a twin in `a` (same output net, fanins and function) whose
fanins all carry `a`'s values takes its twin's value; the other nodes
form the changed cone. The check compares only the sinks the changed
cone drives: every other sink is a source, or its driver is identical in
both netlists with identical inputs, so it cannot differ. `a` is
evaluated only on the fanin cone of the compared sinks and of the nets
the changed cone reads from outside it. When the changed cone drives no
sink, no node is evaluated. A counterexample is named, and in random
mode minimized, by the same evaluation one vector wide, so this holds
for counterexamples too. Every value computed is exactly that of a full
simulation, so the verdict is too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .netlist import LutNode, Netlist, eval_nodes
from .truthtab import full_mask, minterm_masks

EXHAUSTIVE_PI_BOUND = 18
DEFAULT_VECTOR_BUDGET = 100_000
MODES = ("auto", "exhaustive", "random")
_CHUNK = 8192


class EquivError(Exception):
    pass


@dataclass
class EquivVerdict:
    equivalent: bool
    mode: str                      # 'exhaustive' | 'random'
    vectors_checked: int
    counterexample: dict[str, int] | None = None
    mismatched_output: str | None = None

    def __bool__(self):
        return self.equivalent


def _check_interfaces(a: Netlist, b: Netlist):
    if set(a.primary_inputs) != set(b.primary_inputs):
        raise EquivError("primary input name sets differ")
    if set(a.primary_outputs) != set(b.primary_outputs):
        raise EquivError("primary output name sets differ")
    if _latch_set(a) != _latch_set(b):
        raise EquivError("latch sets differ (input, output and init value)")


def _latch_set(netlist: Netlist) -> set[tuple[str, str, str]]:
    return {(l.input_net, l.output_net, l.init_value) for l in netlist.latches}


def check_care(care: Netlist, netlist: Netlist):
    """Raise EquivError unless `care` is a predicate over `netlist`'s inputs.

    A care predicate has exactly one output, and each of its inputs is a
    primary input of `netlist` (a latch output counts as one, as it does
    in every combinational check).
    """
    if len(care.primary_outputs) != 1:
        raise EquivError("care predicate must have exactly one output")
    sources = set(netlist.source_nets())
    missing = [p for p in care.source_nets() if p not in sources]
    if missing:
        raise EquivError("care predicate inputs %s are not primary inputs" % missing)


def care_mask(care: Netlist | None, source_masks: dict[str, int], width: int) -> int:
    """The care predicate's output over `width` patterns; all ones without one."""
    full = full_mask(width)
    if care is None:
        return full
    values = {p: source_masks[p] & full for p in care.source_nets()}
    eval_nodes(care.topological_order(), values, width)
    return values[care.primary_outputs[0]]


def check_options(mode: str, vector_budget: int, num_sources: int) -> str:
    """The mode a check over `num_sources` sources runs in.

    'auto' is exhaustive up to `EXHAUSTIVE_PI_BOUND` sources and random
    beyond. Raises EquivError for an unknown mode, a vector budget below 1
    and exhaustive mode beyond the bound.
    """
    if mode not in MODES:
        raise EquivError("unknown mode %r" % mode)
    if vector_budget < 1:
        raise EquivError("vector budget must be >= 1 (got %d)" % vector_budget)
    if mode == "exhaustive" and num_sources > EXHAUSTIVE_PI_BOUND:
        raise EquivError("exhaustive mode refused beyond %d inputs (have %d)"
                         % (EXHAUSTIVE_PI_BOUND, num_sources))
    if mode == "auto":
        return "exhaustive" if num_sources <= EXHAUSTIVE_PI_BOUND else "random"
    return mode


def _changed_cone(a: Netlist, b: Netlist) -> list[LutNode]:
    """Nodes of `b`, in topological order, that may differ in value from `a`.

    A node is left out when `a` has a node with the same output net, the
    same fanin list and an equal function, and none of its fanins is
    driven by a node in the list.
    """
    changed: set[str] = set()
    cone = []
    for node in b.topological_order():
        twin = a.node_of_net(node.output_net)
        if (twin is None or twin.fanins != node.fanins or twin.function != node.function
                or not changed.isdisjoint(node.fanins)):
            changed.add(node.output_net)
            cone.append(node)
    return cone


def _read_cone(a: Netlist, nets) -> list[LutNode]:
    """Nodes of `a` that the values of `nets` depend on, in (level, id) order."""
    seen = set(nets)
    stack = list(seen)
    ids = []
    while stack:
        drv = a.node_of_net(stack.pop())
        if drv is None:
            continue
        ids.append(drv.id)
        for f in drv.fanins:
            if f not in seen:
                seen.add(f)
                stack.append(f)
    return [a.nodes[nid] for nid in a.level_order(ids)]


def _eval_both(a_cone, b_cone, source_masks, width):
    """Values of `a` on `a_cone`, and of `b` from those and its changed cone."""
    full = full_mask(width)
    a_vals = {net: mask & full for net, mask in source_masks.items()}
    eval_nodes(a_cone, a_vals, width)
    b_vals = dict(a_vals)
    eval_nodes(b_cone, b_vals, width)
    return a_vals, b_vals


def _first_mismatch(a_vals, b_vals, sinks, care_bits):
    for sink in sinks:
        diff = (a_vals[sink] ^ b_vals[sink]) & care_bits
        if diff:
            return sink, (diff & -diff).bit_length() - 1
    return None, None


def check_equivalence(a: Netlist, b: Netlist, mode: str = "auto", seed: int = 0,
                      vector_budget: int = DEFAULT_VECTOR_BUDGET,
                      care: Netlist | None = None) -> EquivVerdict:
    """Compare two netlists with identical PI/PO/latch interfaces.

    mode 'exhaustive' enumerates all input minterms (inputs capped at
    `EXHAUSTIVE_PI_BOUND`), 'random' draws `vector_budget` seeded vectors,
    'auto' picks exhaustive when it fits (`check_options`). An optional
    single-output `care` netlist over the primary inputs restricts the
    compared input space.
    """
    _check_interfaces(a, b)
    sources = sorted(a.source_nets())
    mode = check_options(mode, vector_budget, len(sources))
    if care is not None:
        check_care(care, a)
    # exhaustive mode is one chunk holding every minterm
    total = 1 << len(sources) if mode == "exhaustive" else vector_budget
    cone = _changed_cone(a, b)
    changed = {node.output_net for node in cone}
    sinks = [net for net in sorted(a.sink_nets()) if net in changed]
    if not sinks:
        return EquivVerdict(True, mode, total)
    outside = {f for node in cone for f in node.fanins if f not in changed}
    a_cone = _read_cone(a, outside.union(sinks))

    def mismatch(masks, width):
        a_vals, b_vals = _eval_both(a_cone, cone, masks, width)
        return _first_mismatch(a_vals, b_vals, sinks, care_mask(care, masks, width))

    rng = random.Random(seed)
    checked = 0
    while checked < total:
        if mode == "exhaustive":
            width, masks = total, minterm_masks(sources)
        else:
            width = min(_CHUNK, total - checked)
            masks = {net: rng.getrandbits(width) for net in sources}
        sink, bit = mismatch(masks, width)
        checked += width
        if sink is not None:
            assignment = {net: (masks[net] >> bit) & 1 for net in sources}
            if mode == "random":
                assignment = _minimize(assignment, lambda v: mismatch(v, 1)[0] is not None)
            sink = mismatch(assignment, 1)[0]
            if sink is None:
                raise EquivError("counterexample does not re-simulate to a mismatch")
            return EquivVerdict(False, mode, checked, assignment, sink)
    return EquivVerdict(True, mode, checked)


def _minimize(assignment: dict[str, int], differs) -> dict[str, int]:
    """Greedily clear set bits, in name order, while `differs` holds."""
    current = dict(assignment)
    for net in sorted(current):
        if current[net] == 0:
            continue
        trial = dict(current)
        trial[net] = 0
        if differs(trial):
            current = trial
    return current
