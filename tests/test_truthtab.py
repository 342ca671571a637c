import random

import pytest

from sllresub.truthtab import (TruthTable, cover_to_table, full_mask,
                               table_to_cover, var_mask)


def test_var_mask_small():
    assert var_mask(0, 2) == 0b1010
    assert var_mask(1, 2) == 0b1100
    assert var_mask(0, 3) == 0b10101010
    assert var_mask(2, 3) == 0b11110000


def test_var_mask_matches_definition():
    for n in range(1, 6):
        for i in range(n):
            vm = var_mask(i, n)
            for m in range(1 << n):
                assert (vm >> m) & 1 == (m >> i) & 1


def test_constants_and_bit_access():
    t0 = TruthTable.constant(0, 3)
    t1 = TruthTable.constant(1, 3)
    assert t0.bits == 0 and t1.bits == 0xFF
    assert t1.bit(5) == 1
    assert TruthTable.constant(1).num_minterms == 1


def test_from_bit_list_and_minterms():
    t = TruthTable.from_bit_list([0, 0, 0, 1])
    assert t.num_inputs == 2 and t.bits == 0b1000
    assert t.on_minterms() == [3]
    assert TruthTable.from_minterms(2, [3]) == t
    with pytest.raises(ValueError):
        TruthTable.from_bit_list([0, 1, 1])


def test_eval_assignment_is_indexing():
    t = TruthTable(2, 0b0110)  # xor
    assert t.eval_assignment([0, 0]) == 0
    assert t.eval_assignment([1, 0]) == 1
    assert t.eval_assignment([0, 1]) == 1
    assert t.eval_assignment([1, 1]) == 0


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
            assert (out >> b) & 1 == t.eval_assignment(vals)


def test_depends_on():
    t = TruthTable(3, 0)
    assert not any(t.depends_on(i) for i in range(3))
    x = TruthTable(3, var_mask(1, 3))
    assert x.depends_on(1) and not x.depends_on(0) and not x.depends_on(2)


def test_cover_to_table_and_expansion():
    assert cover_to_table(2, ["11"]).bits == 0b1000
    assert cover_to_table(2, ["1-"]).bits == 0b1010  # a=1, b free
    assert cover_to_table(2, []).bits == 0
    assert cover_to_table(0, [""]).bits == 1
    with pytest.raises(ValueError):
        cover_to_table(2, ["1"])
    with pytest.raises(ValueError):
        cover_to_table(2, ["1x"])


def test_cover_round_trip():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(0, 4)
        t = TruthTable(n, rng.getrandbits(1 << n))
        assert cover_to_table(n, table_to_cover(t)) == t


def test_full_mask():
    assert full_mask(0) == 0
    assert full_mask(4) == 0xF
