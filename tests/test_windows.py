import os
import random
import sys
from unittest import mock

import pytest

from sllresub import bench, resynth
from sllresub.netlist import Netlist, parse_blif
from sllresub.partition import DieAssignment, partition_hash
from sllresub.metrics import node_cross_die_fanins
from sllresub.resynth import ResynConfig, resynthesize, select_cross_die_fanin
from sllresub.truthtab import TruthTable
from sllresub.windows import (ResynthError, ValueCache, WindowSim, build_window,
                              collect_divisors, exist_check, extract_care_set, interpolate,
                              observable)

from conftest import TABLE2, random_netlist

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from workloads import tiled  # noqa: E402  (the benchmark's tile generator)

WIDE = ResynConfig(d1=30, d2=30, window_pi_cap=14)


def _observable_nets(netlist, window):
    """The window nets `observable` keeps, sorted."""
    return [net for net in sorted(window.nodes) if observable(netlist, net, window.nodes)]


def test_window_covers_whole_demo_circuit(demo_netlist):
    w = build_window(demo_netlist, demo_netlist.node_of_net("F"), WIDE)
    assert sorted(w.nodes) == ["F", "X", "Y"]
    assert w.window_pis == ["a", "b", "c", "d"]
    assert _observable_nets(demo_netlist, w) == ["F", "Y"]


def test_window_pi_only_pivot_d1_zero(demo_netlist):
    cfg = ResynConfig(d1=0, d2=1, window_pi_cap=14)
    f = demo_netlist.node_of_net("F")
    w = build_window(demo_netlist, f, cfg)
    assert w.nodes == {"F": f}
    assert _observable_nets(demo_netlist, w) == ["F"]
    assert w.window_pis == ["a", "d"]


def _deep_cone(width):
    """Balanced xor tree over `width` leaves."""
    lines = [".model cone", ".inputs " + " ".join("i%d" % i for i in range(width)),
             ".outputs r"]
    layer = ["i%d" % i for i in range(width)]
    nid = 0
    while len(layer) > 1:
        nxt = []
        for j in range(0, len(layer) - 1, 2):
            name = "t%d" % nid
            nid += 1
            lines += [".names %s %s %s" % (layer[j], layer[j + 1], name),
                      "10 1", "01 1"]
            nxt.append(name)
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    lines += [".names %s r" % layer[0], "1 1", ".end"]
    return parse_blif("\n".join(lines))


def test_window_cap_shrinks_or_skips():
    n = _deep_cone(20)
    root = n.node_of_net("r")
    cfg = ResynConfig(d1=2, d2=8, window_pi_cap=14)
    w = build_window(n, root, cfg)
    if w is not None:
        assert w.num_pis <= 14
    tiny = ResynConfig(d1=2, d2=8, window_pi_cap=1)
    assert build_window(n, root, tiny) is None


def test_window_caps_hold_across_random_pivots():
    for seed in range(5):
        n = random_netlist(seed, num_pis=10, num_nodes=40, k=4, num_pos=5)
        cfg = ResynConfig(d1=2, d2=8, window_pi_cap=8)
        for node in n.topological_order():
            w = build_window(n, node, cfg)
            if w is None:
                continue
            assert w.num_pis <= 8
            for node in w.nodes.values():
                for f in node.fanins:
                    assert f in w.nodes or f in w.window_pis


def test_divisors_demo(demo_netlist, demo_assignment):
    w = build_window(demo_netlist, demo_netlist.node_of_net("F"), WIDE)
    d = collect_divisors(demo_netlist, w, demo_assignment, WIDE)
    nets = [net for net, _die, _lvl in d.candidates]
    assert set(nets) == {"a", "b", "c", "d", "X", "Y"}
    assert d.in_die == ["c", "d", "Y"]
    for bad in ("a", "b", "X"):
        assert bad not in d.in_die  # die-0 signals


def test_divisors_single_die_keeps_all(demo_netlist):
    one_die = DieAssignment(2, {k: 0 for k in "abcdXYF"}, {k: 1 for k in "XYF"})
    w = build_window(demo_netlist, demo_netlist.node_of_net("F"), WIDE)
    d = collect_divisors(demo_netlist, w, one_die, WIDE)
    assert d.in_die == [net for net, _die, _lvl in d.candidates]


def test_divisor_cap_keeps_first(demo_netlist, demo_assignment):
    w = build_window(demo_netlist, demo_netlist.node_of_net("F"), WIDE)
    capped = ResynConfig(d1=30, d2=30, window_pi_cap=14, divisor_cap=1)
    d = collect_divisors(demo_netlist, w, demo_assignment, capped)
    assert len(d.candidates) == 1
    assert d.candidates[0][0] == "a"  # (level 0, lexicographic)


def test_divisors_exclude_mffc_and_tfo(demo_netlist, demo_assignment):
    w = build_window(demo_netlist, demo_netlist.node_of_net("Y"), WIDE)
    d = collect_divisors(demo_netlist, w, demo_assignment, WIDE)
    nets = {net for net, _die, _lvl in d.candidates}
    assert "Y" not in nets
    assert "X" not in nets  # in mffc(Y)


def _reference_collect_divisors(netlist, window, assignment, config):
    """Divisors by sorting every window net by (window level, name)."""
    pivot_node = netlist.nodes[window.pivot]
    excluded = {netlist.nodes[n].output_net for n in netlist.mffc(window.pivot)}
    tfo = netlist.tfo(window.pivot)
    excluded.update(net for net, node in window.nodes.items() if node.id in tfo)
    excluded.add(pivot_node.output_net)
    levels = {net: 0 for net in window.window_pis}
    for node in window.nodes.values():
        levels[node.output_net] = 1 + max((levels[f] for f in node.fanins), default=0)
    candidates = []
    for net, lvl in sorted(levels.items(), key=lambda kv: (kv[1], kv[0])):
        if net in excluded or lvl > config.d2:
            continue
        candidates.append((net, assignment.die(net), lvl))
        if len(candidates) >= config.divisor_cap:
            break
    pivot_die = assignment.die(pivot_node.output_net)
    return candidates, [net for net, die, _lvl in candidates if die == pivot_die]


def _divisors_against_reference(netlist, assignment, config):
    """Sweep, and compare the divisors of every window built with the
    reference: under the divisor caps 1 and 5 at the sweep's d2, and under
    the cap 150 at each d2 from 1 to 8. Returns the number of windows.

    A commit keeps the die of every net it leaves, so `assignment` gives
    the dies of the working netlist."""
    real_build = resynth.build_window
    probes = [ResynConfig(d2=config.d2, divisor_cap=cap) for cap in (1, 5)]
    probes += [ResynConfig(d2=d2, divisor_cap=150) for d2 in range(1, 9)]
    windows = []

    def build(work, pivot, cfg):
        window = real_build(work, pivot, cfg)
        if window is not None:
            windows.append(window)
            for probe in probes:
                got = collect_divisors(work, window, assignment, probe)
                want = _reference_collect_divisors(work, window, assignment, probe)
                assert (got.candidates, got.in_die) == want, (
                    pivot.output_net, probe.divisor_cap, probe.d2)
        return window

    with mock.patch.object(resynth, "build_window", build):
        resynthesize(netlist, assignment, config)
    return len(windows)


@pytest.mark.parametrize("k", [4, 6])
def test_divisors_match_sort_everything_reference_on_builtins(k):
    compared = 0
    for i, name in enumerate(bench.BENCH_NAMES):
        n = bench.build(name, k)
        config = ResynConfig(d2=1 + i % 8)
        compared += _divisors_against_reference(n, partition_hash(n, 2 + i % 3), config)
    assert compared > 300


def test_divisors_match_sort_everything_reference_with_latches():
    compared = 0
    for seed in range(6):
        n = random_netlist(seed, num_pis=8, num_nodes=40, k=4, num_pos=5,
                           num_latches=1 + seed % 2)
        config = ResynConfig(d2=1 + seed, window_pi_cap=10)
        compared += _divisors_against_reference(n, partition_hash(n, 2 + seed % 3), config)
    assert compared > 50


def test_care_pivot_is_window_output(demo_netlist, demo_assignment):
    w = build_window(demo_netlist, demo_netlist.node_of_net("F"), WIDE)
    care = extract_care_set(demo_netlist, WindowSim(demo_netlist, w, ValueCache()))
    assert care == (1 << 16) - 1  # F is a PO: every minterm matters


def test_care_constant_masked_pivot_all_dont_care():
    text = (".model m\n.inputs a b\n.outputs y\n"
            ".names a b p\n11 1\n"
            ".names p zero y\n11 1\n"
            ".names zero\n.end")
    n = parse_blif(text)
    w = build_window(n, n.node_of_net("p"), WIDE)
    care = extract_care_set(n, WindowSim(n, w, ValueCache()))
    assert care == 0


def test_care_demo_with_injected_predicate(demo_netlist, demo_care):
    w = build_window(demo_netlist, demo_netlist.node_of_net("F"), WIDE)
    care = extract_care_set(demo_netlist, WindowSim(demo_netlist, w, ValueCache(), demo_care))
    expected = set()
    for a, b, c, d, _X, _Y, _F, _Fp, is_care in TABLE2:
        idx = {"a": a, "b": b, "c": c, "d": d}
        m = sum(idx[net] << i for i, net in enumerate(w.window_pis))
        if is_care:
            expected.add(m)
    assert {m for m in range(16) if (care >> m) & 1} == expected
    assert bin(care).count("1") == 8


def test_care_ignores_predicate_outside_window():
    # predicate over a PI that is not a window PI: conservatively ignored
    text = (".model m\n.inputs a b e\n.outputs y z\n"
            ".names a b y\n11 1\n.names e z\n1 1\n.end")
    n = parse_blif(text)
    pred = parse_blif(".model p\n.inputs e\n.outputs c\n.names e c\n1 1\n.end")
    w = build_window(n, n.node_of_net("y"), ResynConfig(d1=1, d2=1))
    care = extract_care_set(n, WindowSim(n, w, ValueCache(), pred))
    assert care == (1 << w.width) - 1


def test_exist_check_demo(demo_netlist, demo_care):
    w = build_window(demo_netlist, demo_netlist.node_of_net("F"), WIDE)
    sim = WindowSim(demo_netlist, w, ValueCache(), demo_care)
    care = extract_care_set(demo_netlist, sim)
    assert exist_check(sim, care, ["a", "d"])      # own fanins
    assert not exist_check(sim, care, ["d"])       # base divisors alone fail
    assert exist_check(sim, care, ["d", "Y"])      # augmented with Y succeeds


def test_interpolate_demo(demo_netlist, demo_care):
    w = build_window(demo_netlist, demo_netlist.node_of_net("F"), WIDE)
    sim = WindowSim(demo_netlist, w, ValueCache(), demo_care)
    care = extract_care_set(demo_netlist, sim)
    table = interpolate(sim, care, ["d", "Y"])
    assert table == TruthTable(2, 0b0110)  # F' = Y xor d
    for _a, _b, _c, d, _X, Y, F, Fp, is_care in TABLE2:
        got = (table.bits >> (d | Y << 1)) & 1
        assert got == Fp                   # rebuilt column of the grid
        if is_care:
            assert got == F                # agrees with the original on care rows


def test_interpolate_own_fanins_recovers_function(demo_netlist):
    w = build_window(demo_netlist, demo_netlist.node_of_net("F"), WIDE)
    sim = WindowSim(demo_netlist, w, ValueCache())
    care = extract_care_set(demo_netlist, sim)  # full care
    table = interpolate(sim, care, ["a", "d"])
    assert table == demo_netlist.node_of_net("F").function


def test_interpolate_contract_violation(demo_netlist, demo_care):
    w = build_window(demo_netlist, demo_netlist.node_of_net("F"), WIDE)
    sim = WindowSim(demo_netlist, w, ValueCache(), demo_care)
    care = extract_care_set(demo_netlist, sim)
    with pytest.raises(ResynthError):
        interpolate(sim, care, ["d"])


def test_exist_check_unknown_net(demo_netlist):
    w = build_window(demo_netlist, demo_netlist.node_of_net("F"), WIDE)
    sim = WindowSim(demo_netlist, w, ValueCache())
    care = extract_care_set(demo_netlist, sim)
    with pytest.raises(ResynthError):
        exist_check(sim, care, ["nope"])


def _oracle_exist_and_table(sim, care, support):
    """Dict-grouped enumeration over every window minterm."""
    groups = {}
    for m in range(sim.width):
        if not (care >> m) & 1:
            continue
        key = tuple((sim.value_of(s) >> m) & 1 for s in support)
        val = (sim.pivot_mask >> m) & 1
        if key in groups and groups[key] != val:
            return False, None
        groups[key] = val
    bits = 0
    for t in range(1 << len(support)):
        key = tuple((t >> i) & 1 for i in range(len(support)))
        if groups.get(key, 0):
            bits |= 1 << t
    return True, TruthTable(len(support), bits)


def test_exist_and_interpolate_match_bruteforce_oracle():
    rng = random.Random(9)
    cfg = ResynConfig(d1=2, d2=4, window_pi_cap=10)
    checked = 0
    for seed in range(8):
        n = random_netlist(seed, num_pis=8, num_nodes=30, k=4, num_pos=5)
        asg = partition_hash(n, 2)
        for node in n.topological_order():
            w = build_window(n, node, cfg)
            if w is None or w.num_pis > 10:
                continue
            sim = WindowSim(n, w, ValueCache())
            care = extract_care_set(n, sim)
            divisors = collect_divisors(n, w, asg, cfg)
            pool = [net for net, _d, _l in divisors.candidates]
            if not pool:
                continue
            for _ in range(3):
                support = rng.sample(pool, min(len(pool), rng.randint(1, 4)))
                want_ok, want_table = _oracle_exist_and_table(sim, care, support)
                got_ok = exist_check(sim, care, support)
                assert got_ok == want_ok, (seed, node.output_net, support)
                if got_ok:
                    assert interpolate(sim, care, support) == want_table
                checked += 1
    assert checked > 100


def test_exist_check_memo_answers_every_care_mask_of_one_sim():
    """The calls find_equiv_func makes, base then base + [d] for every
    usable divisor d, under three care masks on one sim: the extracted
    care set, the full mask and a random sub-mask. The memo holds the
    mixed cofactors of each prefix under each care mask."""
    rng = random.Random(12)
    cfg = ResynConfig(window_pi_cap=10)
    answers = []
    for name in ("i2c", "dec"):
        n = bench.build(name, 4)
        asg = partition_hash(n, 2)
        for node in n.topological_order():
            u = select_cross_die_fanin(n, node_cross_die_fanins(n, asg, node))
            w = build_window(n, node, cfg) if u is not None else None
            if w is None:
                continue
            sim = WindowSim(n, w, ValueCache())
            base = [f for f in node.fanins if f != u]
            usable = [d for d in collect_divisors(n, w, asg, cfg).in_die if d not in base]
            cares = [extract_care_set(n, sim), sim.full, rng.getrandbits(w.width)]
            for care in cares:
                for support in [base] + [base + [d] for d in usable]:
                    want, _table = _oracle_exist_and_table(sim, care, support)
                    got = exist_check(sim, care, support)
                    assert got == want, (name, node.output_net, support, care == sim.full)
                    answers.append(got)
            assert set(sim.mixed_blocks) == {(tuple(prefix), care) for care in cares if care
                                             for prefix in [base[:-1]] + [base] * bool(usable)}
    assert answers.count(True) > 100 and answers.count(False) > 100


def test_build_window_copies_no_source_list():
    # a window tests fanins against the netlist's own source set; a copy of
    # every PI and latch output per pivot made a sweep cost pivots x sources
    n = parse_blif(tiled("i2c", 2, 6, 14, 1))
    real_build, real_sources = resynth.build_window, Netlist.source_nets
    builds, inside, calls = [], [], []

    def build(work, pivot, cfg):
        builds.append(pivot.id)
        inside.append(pivot.id)
        try:
            return real_build(work, pivot, cfg)
        finally:
            inside.pop()

    def source_nets(netlist):
        calls.extend(inside)
        return real_sources(netlist)

    with mock.patch.object(resynth, "build_window", build), \
            mock.patch.object(Netlist, "source_nets", source_nets):
        resynthesize(n, partition_hash(n, 4), ResynConfig(verify_each_commit=False))
    assert len(builds) > 100
    assert calls == []
