"""Truth tables packed into Python integers.

Bit ``m`` of a table is the output value for the input minterm ``m``,
where input 0 is the least significant bit of the minterm index. Any
comparison against tables produced with another bit order has to be
normalized first.

Bit-parallel evaluation (`TruthTable.eval_masks`) walks a mux plan
compiled once per table by reduced Shannon expansion, the reduced
ordered BDD of Bryant (IEEE TC 1986) with the highest input on top:
``f = x ? f1 : f0``, where ``f0``/``f1`` are the low/high halves of the
table for the top input ``x``. A cofactor pair with equal halves needs
no mux (the function does not read that input), and equal
sub-functions share one slot. Slots 0 and 1 hold the constants 0 and
all-ones; mux op ``j`` writes slot ``j + 2`` from two lower slots, so
the ops run in list order. A table of n inputs needs at most
``2**n - 1`` ops and a constant none; no minterm is enumerated.

Every exhaustive minterm space is `minterm_masks(names)`: name ``i``
takes the `var_mask` of input ``i``, so pattern ``m`` of each mask is
minterm ``m``. `eval_masks` over those masks tabulates a function;
`cover_to_table` ORs one cube mask per cover row, the AND of the
literals' input masks or their complements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache


@lru_cache(maxsize=64)
def full_mask(width: int) -> int:
    """All-ones mask of `width` bits."""
    return (1 << width) - 1


@lru_cache(maxsize=512)
def var_mask(i: int, num_vars: int) -> int:
    """Bit-parallel value of variable `i` over all 2**num_vars minterms.

    Bit m of the result is ((m >> i) & 1). Used to seed exhaustive
    bit-parallel simulation. The mask repeats a period of 2**i zeros and
    2**i ones, built as bytes (little-endian), so it costs linear time.
    """
    if i >= num_vars:
        return 0
    if i < 3:
        period = bytes([(0xAA, 0xCC, 0xF0)[i]])     # one byte holds 8 >> i periods
    else:
        half = 1 << (i - 3)
        period = bytes(half) + b"\xff" * half
    copies = max(1, (1 << num_vars) // (8 * len(period)))
    return int.from_bytes(period * copies, "little") & full_mask(1 << num_vars)


@dataclass(frozen=True)
class TruthTable:
    """Boolean function of `num_inputs` variables, one bit per minterm."""

    num_inputs: int
    bits: int

    def __post_init__(self):
        if self.num_inputs < 0:
            raise ValueError("num_inputs must be >= 0")
        if not 0 <= self.bits <= full_mask(self.num_minterms):
            raise ValueError("truth table bits out of range for %d inputs" % self.num_inputs)

    @property
    def num_minterms(self) -> int:
        return 1 << self.num_inputs

    def on_minterms(self) -> list[int]:
        return [m for m in range(self.num_minterms) if (self.bits >> m) & 1]

    @cached_property
    def mux_plan(self) -> tuple[tuple[tuple[int, int, int], ...], int]:
        """(ops, output slot): the compiled form `eval_masks` walks.

        Each op is (input, slot if 0, slot if 1); see the module
        docstring for the slot convention.
        """
        ops: list[tuple[int, int, int]] = []
        slot_of: dict[tuple[int, int], int] = {}

        def build(n: int, bits: int) -> int:
            while n:
                half = 1 << (n - 1)
                lo = bits & full_mask(half)
                hi = bits >> half
                if lo != hi:
                    break
                n -= 1
                bits = lo
            else:
                return bits                  # constant slot 0 or 1
            slot = slot_of.get((n, bits))
            if slot is None:
                op = (n - 1, build(n - 1, lo), build(n - 1, hi))
                ops.append(op)
                slot = slot_of[(n, bits)] = len(ops) + 1
            return slot

        out = build(self.num_inputs, self.bits)
        return tuple(ops), out

    def eval_masks(self, fanin_masks: list[int], width: int) -> int:
        """Bit-parallel evaluation over `width` patterns.

        `fanin_masks[i]` holds the value of input i in each pattern; the
        result packs the function output the same way, within
        `full_mask(width)` even where a fanin mask has higher bits set.
        """
        ops, out = self.mux_plan
        vals = [0, full_mask(width)]
        # f0 ^ ((f0 ^ f1) & x) is x ? f1 : f0, and it has no bit that
        # neither f0 nor f1 has, so every slot stays within the width
        for i, lo, hi in ops:
            f0 = vals[lo]
            vals.append(f0 ^ ((f0 ^ vals[hi]) & fanin_masks[i]))
        return vals[out]


def minterm_masks(names: list[str]) -> dict[str, int]:
    """Masks enumerating every minterm of `names`: name i takes bit i of m."""
    return {name: var_mask(i, len(names)) for i, name in enumerate(names)}


def cover_to_table(num_inputs: int, rows: list[str]) -> TruthTable:
    """Compile BLIF on-set cover rows (strings over 0/1/-) to a table."""
    full = full_mask(1 << num_inputs)
    bits = 0
    for row in rows:
        if len(row) != num_inputs:
            raise ValueError("cover row %r does not match %d inputs" % (row, num_inputs))
        cube = full
        for i, c in enumerate(row):
            if c == "1":
                cube &= var_mask(i, num_inputs)
            elif c == "0":
                cube &= ~var_mask(i, num_inputs)
            elif c != "-":
                raise ValueError("bad cover character %r" % c)
        bits |= cube
    return TruthTable(num_inputs, bits)


def table_to_cover(table: TruthTable) -> list[str]:
    """On-set cover rows for a table, one row per minterm."""
    return ["".join("1" if (m >> i) & 1 else "0" for i in range(table.num_inputs))
            for m in table.on_minterms()]
