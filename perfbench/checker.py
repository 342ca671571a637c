"""Independent check of a flow's `post.blif` against the flow's input.

It has its own BLIF reader and bit-parallel simulator and imports
nothing from `sllresub`, so a defect in the program's netlist, truth
table or equivalence code cannot also hide in the check. Latches are
cut: latch outputs act as inputs and latch inputs as outputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

PATTERNS = 4096   # seeded random patterns simulated per check


class BlifError(ValueError):
    pass


@dataclass
class Blif:
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    latches: list[tuple[str, str]] = field(default_factory=list)   # (input net, output net)
    # output net -> (fanin nets, cover rows as (input cube, output bit))
    luts: dict[str, tuple[list[str], list[tuple[str, str]]]] = field(default_factory=dict)


def read_blif(text: str) -> Blif:
    """Parse one flat BLIF model made of `.names` and `.latch` only."""
    model = Blif()
    rows = None
    pending = ""
    for raw in text.splitlines():
        line = pending + raw.split("#", 1)[0]
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        if not head.startswith("."):
            if rows is None:
                raise BlifError("cover row outside .names: %r" % raw)
            cube, bit = (tokens if len(tokens) == 2 else ("", tokens[0]))
            rows.append((cube, bit))
            continue
        rows = None
        if head == ".model" or head == ".end":
            continue
        if head == ".inputs":
            model.inputs.extend(tokens[1:])
        elif head == ".outputs":
            model.outputs.extend(tokens[1:])
        elif head == ".latch":
            model.latches.append((tokens[1], tokens[2]))
        elif head == ".names":
            out = tokens[-1]
            if out in model.luts:
                raise BlifError("net %r is driven twice" % out)
            rows = []
            model.luts[out] = (tokens[1:-1], rows)
        else:
            raise BlifError("unsupported directive %s" % head)
    for out, (fanins, cover) in model.luts.items():
        for cube, bit in cover:
            if len(cube) != len(fanins) or bit not in "01" or set(cube) - set("01-"):
                raise BlifError("bad cover row %r %r for %r" % (cube, bit, out))
        if len({bit for _cube, bit in cover}) > 1:
            raise BlifError("mixed on-set and off-set rows for %r" % out)
    return model


def simulate(model: Blif, source_masks: dict[str, int], width: int) -> dict[str, int]:
    """Value of every net over `width` patterns packed into Python ints."""
    full = (1 << width) - 1
    values = dict(source_masks)
    waiting = {}                          # LUT output -> fanins not yet valued
    readers: dict[str, list[str]] = {}
    for out, (fanins, _cover) in model.luts.items():
        pending = {f for f in fanins if f not in values}
        for f in pending:
            if f not in model.luts:
                raise BlifError("net %r has no driver" % f)
            readers.setdefault(f, []).append(out)
        waiting[out] = len(pending)
    ready = [out for out, n in waiting.items() if n == 0]
    while ready:
        net = ready.pop()
        fanins, cover = model.luts[net]
        acc = 0
        for cube, _bit in cover:
            term = full
            for lit, f in zip(cube, fanins):
                if lit == "1":
                    term &= values[f]
                elif lit == "0":
                    term &= ~values[f]
            acc |= term
        if cover and cover[0][1] == "0":
            acc = ~acc
        values[net] = acc & full
        for r in readers.get(net, ()):
            waiting[r] -= 1
            if waiting[r] == 0:
                ready.append(r)
    if len(values) < len(source_masks) + len(model.luts):
        raise BlifError("combinational cycle among the LUTs")
    return values


def check(before_text: str, after_text: str, k_max: int, seed: int | str) -> str | None:
    """None if `after` is a legal result for `before`, else the reason it is not.

    Legal: the same interface, no more LUTs, no LUT over `k_max` fanins,
    and the same value on every output and latch input for `PATTERNS`
    seeded random patterns over the inputs and latch outputs.
    """
    try:
        before, after = read_blif(before_text), read_blif(after_text)
    except BlifError as exc:
        return "unreadable BLIF: %s" % exc
    if (sorted(before.inputs), sorted(before.outputs), sorted(before.latches)) != \
            (sorted(after.inputs), sorted(after.outputs), sorted(after.latches)):
        return "interface changed"
    if len(after.luts) > len(before.luts):
        return "LUT count grew from %d to %d" % (len(before.luts), len(after.luts))
    wide = [net for net, (fanins, _cover) in after.luts.items() if len(fanins) > k_max]
    if wide:
        return "LUT %r has more than %d fanins" % (wide[0], k_max)
    rng = random.Random(seed)
    sources = sorted(before.inputs + [q for _d, q in before.latches])
    masks = {net: rng.getrandbits(PATTERNS) for net in sources}
    try:
        vb, va = simulate(before, masks, PATTERNS), simulate(after, masks, PATTERNS)
    except BlifError as exc:
        return "cannot simulate: %s" % exc
    for net in sorted(before.outputs + [d for d, _q in before.latches]):
        if net not in vb or net not in va:
            return "output %r has no driver" % net
        if vb[net] != va[net]:
            diff = vb[net] ^ va[net]
            pattern = (diff & -diff).bit_length() - 1
            return "output %r differs on pattern %d" % (net, pattern)
    return None
