import random

import pytest
from hypothesis import given, settings, strategies as st

from sllresub.truthtab import (TruthTable, cover_to_table, full_mask, minterm_masks,
                               table_to_cover, var_mask)


def test_var_mask_small():
    assert var_mask(0, 2) == 0b1010
    assert var_mask(1, 2) == 0b1100
    assert var_mask(0, 3) == 0b10101010
    assert var_mask(2, 3) == 0b11110000


def test_var_mask_matches_definition():
    for n in range(1, 13):
        for i in range(n):
            assert var_mask(i, n) == sum(1 << m for m in range(1 << n) if (m >> i) & 1), (i, n)


def test_constants_and_bit_access():
    t0 = TruthTable(3, 0)
    t1 = TruthTable(3, full_mask(8))
    assert t0.on_minterms() == [] and t1.on_minterms() == list(range(8))
    assert (t1.bits >> 5) & 1 == 1
    assert TruthTable(0, 1).num_minterms == 1
    assert TruthTable(2, 0b1000).on_minterms() == [3]
    with pytest.raises(ValueError):
        TruthTable(1, 0b100)       # a bit beyond the 2 minterms
    with pytest.raises(ValueError):
        TruthTable(-1, 0)


def _eval_assignment(table, values):
    """Pointwise reference: the table's bit at the minterm `values` spell
    (values[i] is input i, the least significant bit)."""
    m = sum(1 << i for i, v in enumerate(values) if v)
    return (table.bits >> m) & 1


def test_eval_assignment_is_indexing():
    t = TruthTable(2, 0b0110)  # xor
    assert _eval_assignment(t, [0, 0]) == 0
    assert _eval_assignment(t, [1, 0]) == 1
    assert _eval_assignment(t, [0, 1]) == 1
    assert _eval_assignment(t, [1, 1]) == 0


def test_eval_masks_agrees_with_pointwise():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(0, 5)
        t = TruthTable(n, rng.getrandbits(1 << n))
        width = 32
        fanins = [rng.getrandbits(width) for _ in range(n)]
        out = t.eval_masks(fanins, width)
        for b in range(width):
            vals = [(f >> b) & 1 for f in fanins]
            assert (out >> b) & 1 == _eval_assignment(t, vals)


def _minterm_sum_eval(table, fanin_masks, width):
    """The former `eval_masks`, kept as the reference: the OR of one
    product term per on-set (or, inverted, off-set) minterm."""
    full = full_mask(width)
    if table.num_inputs == 0:
        return full if table.bits else 0
    ons = table.on_minterms()
    invert = len(ons) > table.num_minterms // 2
    if invert:
        ons = [m for m in range(table.num_minterms) if not (table.bits >> m) & 1]
    out = 0
    for m in ons:
        term = full
        for i, vm in enumerate(fanin_masks):
            term &= vm if (m >> i) & 1 else full & ~vm
            if not term:
                break
        out |= term
    if invert:
        out = full & ~out
    return out


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 8))
    full = full_mask(1 << n)
    bits = draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    return TruthTable(n, bits)


@settings(max_examples=300, deadline=None)
@given(table=_tables(), width=st.sampled_from([1, 63, 64, 65, 8192]),
       above=st.sampled_from([0, 1, 70]), seed=st.integers(0, 2**32))
def test_eval_masks_matches_minterm_sum(table, width, above, seed):
    """The compiled plan equals the minterm sum on any fanin masks,
    including masks with bits at or above `width`, and stays within
    `full_mask(width)`."""
    rng = random.Random(seed)
    masks = [rng.getrandbits(width + above) | ((1 << (width + above - 1)) if above else 0)
             for _ in range(table.num_inputs)]
    out = table.eval_masks(masks, width)
    assert out == _minterm_sum_eval(table, masks, width)
    assert 0 <= out <= full_mask(width)
    ops, slot = table.mux_plan
    assert len(ops) <= (1 << table.num_inputs) - 1
    if table.bits in (0, full_mask(table.num_minterms)):
        assert ops == () and slot == (1 if table.bits else 0)
        assert out == (full_mask(width) if table.bits else 0)


def test_mux_plan_is_reduced_and_shared():
    x0, x1, x2 = (var_mask(i, 3) for i in range(3))
    parity = TruthTable(3, x0 ^ x1 ^ x2)
    majority = TruthTable(3, (x0 & x1) | (x0 & x2) | (x1 & x2))
    no_x1 = TruthTable(3, x0 & x2)
    # a full Shannon tree over 3 inputs has 7 muxes
    assert len(parity.mux_plan[0]) == 5        # x0 and ~x0 shared below x1
    assert len(majority.mux_plan[0]) == 4      # x0 shared by x0&x1 and x0|x1
    assert [op[0] for op in no_x1.mux_plan[0]] == [0, 2]   # no mux on x1
    assert parity.mux_plan is parity.mux_plan
    for t in (parity, majority, no_x1):
        masks = [var_mask(i, 3) for i in range(3)]
        assert t.eval_masks(masks, 8) == t.bits


def test_cover_to_table_and_expansion():
    assert cover_to_table(2, ["11"]).bits == 0b1000
    assert cover_to_table(2, ["1-"]).bits == 0b1010  # a=1, b free
    assert cover_to_table(2, []).bits == 0
    assert cover_to_table(0, [""]).bits == 1
    with pytest.raises(ValueError):
        cover_to_table(2, ["1"])
    with pytest.raises(ValueError):
        cover_to_table(2, ["1x"])


def _cover_by_enumeration(rows):
    """The former `cover_to_table`, kept as the reference: every free
    position of every cube, one minterm at a time."""
    bits = 0
    for row in rows:
        free = [i for i, c in enumerate(row) if c == "-"]
        base = sum(1 << i for i, c in enumerate(row) if c == "1")
        for k in range(1 << len(free)):
            m = base
            for j, i in enumerate(free):
                if (k >> j) & 1:
                    m |= 1 << i
            bits |= 1 << m
    return bits


@st.composite
def _covers(draw):
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.text(alphabet="01-", min_size=n, max_size=n), max_size=8))
    return n, rows


@settings(max_examples=300, deadline=None)
@given(cover=_covers())
def test_cover_to_table_matches_cube_enumeration(cover):
    n, rows = cover
    assert cover_to_table(n, rows) == TruthTable(n, _cover_by_enumeration(rows))


def test_minterm_masks_enumerate_every_minterm():
    for names in ([], ["a"], ["b", "a", "c"], ["x%d" % i for i in range(6)]):
        masks = minterm_masks(names)
        assert list(masks) == names
        for m in range(1 << len(names)):
            assert {n: (v >> m) & 1 for n, v in masks.items()} == \
                {n: (m >> i) & 1 for i, n in enumerate(names)}


def test_cover_round_trip():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(0, 4)
        t = TruthTable(n, rng.getrandbits(1 << n))
        assert cover_to_table(n, table_to_cover(t)) == t


def test_full_mask():
    assert full_mask(0) == 0
    assert full_mask(4) == 0xF
