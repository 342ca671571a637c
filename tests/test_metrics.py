import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from sllresub.flow import split_per_die
from sllresub.metrics import (MetricsError, PlacementData, bbox_cost_md,
                              bbox_cost_sd, count_sll, count_sll_fo, crossing_nets,
                              load_placement, load_q_table, report, snapshot,
                              wire_delay_table)
from sllresub.metrics import _hpwl
from sllresub.netlist import SLL_PREFIX, net_terminals, parse_blif
from sllresub.partition import DieAssignment, PartitionError, entities, partition_hash
from sllresub.resynth import ResynConfig, resynthesize

from conftest import random_netlist


def test_count_sll_demo(demo_netlist, demo_assignment, demo_care):
    assert count_sll(demo_netlist, demo_assignment) == 2   # X->Y and a->F
    post = resynthesize(demo_netlist, demo_assignment, ResynConfig(),
                        injected_care=demo_care)
    assert count_sll(post.netlist, post.assignment) == 1


def test_count_sll_single_die(demo_netlist):
    asg = DieAssignment(1, {k: 0 for k in "abcdXYF"}, {k: 1 for k in "XYF"})
    assert count_sll(demo_netlist, asg) == 0
    assert count_sll_fo(demo_netlist, asg) == 0


def _fanout_net():
    text = (".model m\n.inputs s\n.outputs y0 y1 y2\n"
            ".names s y0\n1 1\n.names s y1\n1 1\n.names s y2\n0 1\n.end")
    n = parse_blif(text)
    asg = DieAssignment(2, {"s": 0, "y0": 1, "y1": 1, "y2": 1},
                        {"y0": 1, "y1": 1, "y2": 1})
    return n, asg


def test_multi_sink_net_counts_once_but_three_edges():
    n, asg = _fanout_net()
    assert count_sll(n, asg) == 1       # one SLL channel to die 1
    assert count_sll_fo(n, asg) == 3    # three crossing edges


def test_per_destination_die_counting():
    text = (".model m\n.inputs s\n.outputs y0 y1\n"
            ".names s y0\n1 1\n.names s y1\n1 1\n.end")
    n = parse_blif(text)
    asg = DieAssignment(3, {"s": 0, "y0": 1, "y1": 2}, {"y0": 1, "y1": 1})
    assert count_sll(n, asg, "per-die") == 2
    assert count_sll(n, asg, "raw-net") == 1
    with pytest.raises(MetricsError):
        count_sll(n, asg, "bogus")


def test_count_sll_fo_demo(demo_netlist, demo_assignment):
    assert count_sll_fo(demo_netlist, demo_assignment) == 2


def _brute_force_edges(netlist, assignment):
    total = 0
    for node in netlist.nodes.values():
        for f in node.fanins:
            if assignment.die(f) != assignment.die(node.output_net):
                total += 1
    for latch in netlist.latches:
        if assignment.die(latch.input_net) != assignment.die(latch.output_net):
            total += 1
    return total


def test_count_sll_fo_matches_bruteforce_on_100_instances():
    for seed in range(100):
        n = random_netlist(seed, num_pis=6, num_nodes=25, k=4,
                           num_pos=4, num_latches=seed % 3)
        asg = partition_hash(n, 2 + seed % 3)
        assert count_sll_fo(n, asg) == _brute_force_edges(n, asg)
        assert count_sll(n, asg) <= count_sll_fo(n, asg)


def _brute_force_counts(netlist, assignment):
    """(per-die SLLs, raw-net SLLs, crossing edges) over (net, sink) pairs.

    A sink is a reading LUT or latch; a pair crosses when the sink sits on
    another die than the net's driver. A channel is one (net, sink die) of
    a crossing pair.
    """
    pairs = [(f, node.output_net) for node in netlist.nodes.values() for f in node.fanins]
    pairs += [(latch.input_net, latch.output_net) for latch in netlist.latches]
    crossing = [(net, assignment.die(sink)) for net, sink in pairs
                if assignment.die(sink) != assignment.die(net)]
    return len(set(crossing)), len({net for net, _die in crossing}), len(crossing)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), dies=st.integers(2, 4), latches=st.integers(0, 3),
       hashed=st.booleans())
def test_crossing_counts_match_bruteforce_and_split_pins(seed, dies, latches, hashed):
    n = random_netlist(seed, num_pis=6, num_nodes=30, k=4, num_pos=4,
                       num_latches=latches)
    if hashed:
        asg = partition_hash(n, dies)
    else:
        rng = random.Random(seed)
        asg = DieAssignment(dies, {name: rng.randrange(dies) for name, _w in entities(n)},
                            dict(entities(n)))
    per_die, raw_net, edges = _brute_force_counts(n, asg)
    assert count_sll(n, asg, "per-die") == per_die
    assert count_sll(n, asg, "raw-net") == raw_net
    assert count_sll_fo(n, asg) == edges
    snap = snapshot(n, asg)
    assert (snap["n_sll"], snap["n_sll_fo"]) == (per_die, edges)
    # every channel is one import PI on its destination die, and every
    # crossing net one export PO on its driver's die
    subs = split_per_die(n, asg)
    imports = [pi for sub in subs for pi in sub.primary_inputs
               if pi.startswith(SLL_PREFIX) and pi.endswith("_in")]
    exports = [po for sub in subs for po in sub.primary_outputs
               if po.startswith(SLL_PREFIX) and po.endswith("_out")]
    assert len(imports) == per_die
    assert len(exports) == raw_net


def _reference_crossing_nets(netlist, assignment):
    """`crossing_nets` as one die lookup per terminal of `net_terminals`."""
    for driver, sinks in net_terminals(netlist):
        if not sinks:
            continue
        dd = assignment.die(driver)
        sink_dies = [assignment.die(s) for s in sinks]
        edges = len(sink_dies) - sink_dies.count(dd)
        if edges:
            yield driver, sorted(set(sink_dies) - {dd}), edges


def _walk(crossings):
    """The tuples `crossings` yields, then the PartitionError text it ends
    with (None when it ends without one)."""
    got = []
    try:
        for item in crossings:
            got.append(item)
    except PartitionError as exc:
        return got, str(exc)
    return got, None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), dies=st.integers(2, 4), latches=st.integers(1, 3),
       missing=st.lists(st.sampled_from(["pi", "lut", "latch"]), max_size=3))
def test_crossing_nets_match_a_walk_over_net_terminals(seed, dies, latches, missing):
    # entries dropped from the assignment must raise the same error at the
    # same net: the first terminal without a die, the driver before sinks
    n = random_netlist(seed, num_pis=6, num_nodes=30, k=4, num_pos=4,
                       num_latches=latches)
    rng = random.Random(seed)
    asg = DieAssignment(dies, {name: rng.randrange(dies) for name, _w in entities(n)},
                        dict(entities(n)))
    names = {"pi": n.primary_inputs,
             "lut": [node.output_net for node in n.nodes.values()],
             "latch": [latch.output_net for latch in n.latches]}
    for kind in missing:
        asg.die_of.pop(rng.choice(names[kind]), None)
    got = _walk(crossing_nets(n, asg))
    assert got == _walk(_reference_crossing_nets(n, asg))
    if "lut" in missing or "latch" in missing:
        # a LUT or latch reads a net, so the walk meets it as a sink
        assert got[1] is not None and got[1].startswith("no die assignment for")


def _place(coords, dies=2, w=10, h=10, l_sll=1.0, q=None):
    return PlacementData(coords, [(w, h)] * dies, l_sll, q or {})


def test_hpwl_two_pin():
    n = parse_blif(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end")
    p = _place({"a": (0, 0, 0), "y": (3, 4, 0)})
    assert bbox_cost_sd(n, p, 0) == 7.0


def test_hpwl_three_pin():
    n = parse_blif(".model m\n.inputs a\n.outputs y z\n"
                   ".names a y\n1 1\n.names a z\n0 1\n.end")
    p = _place({"a": (0, 0, 0), "y": (2, 1, 0), "z": (1, 5, 0)})
    assert bbox_cost_sd(n, p, 0) == 7.0  # x span 2 + y span 5


def test_empty_die_costs_zero(demo_netlist):
    coords = {k: (1, 1, 0) for k in "abcdXYF"}
    p = _place(coords)
    assert bbox_cost_sd(demo_netlist, p, 1) == 0.0


def test_q_table_weighting():
    n = parse_blif(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end")
    p = _place({"a": (0, 0, 0), "y": (3, 4, 0)}, q={2: 2.5})
    assert bbox_cost_sd(n, p, 0) == 17.5


def test_unplaced_terminal_errors(demo_netlist):
    p = _place({"a": (0, 0, 0)})
    with pytest.raises(MetricsError):
        bbox_cost_sd(demo_netlist, p, 0)


def test_placement_validation():
    with pytest.raises(MetricsError):
        _place({"a": (12, 0, 0)}).validate()
    with pytest.raises(MetricsError):
        _place({"a": (0, 0, 5)}).validate()
    with pytest.raises(MetricsError):
        PlacementData({}, [(4, 4)], l_sll=0).validate()


def test_bbox_md_hand_example():
    # one 2-pin net crossing from die 0 (top edge) to die 1 (bottom edge)
    n = parse_blif(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end")
    asg = DieAssignment(2, {"a": 0, "y": 1}, {"y": 1})
    p = _place({"a": (2, 9, 0), "y": (2, 0, 1)}, l_sll=10.0)
    # die-local boxes: a at (2,9) + virtual (2,9) -> 0; y at (2,0) + virtual (2,0) -> 0
    assert bbox_cost_md(n, p, asg) == pytest.approx(10.0)
    # shifting the sink adds local wirelength on die 1 only
    p2 = _place({"a": (2, 9, 0), "y": (5, 3, 1)}, l_sll=10.0)
    assert bbox_cost_md(n, p2, asg) == pytest.approx(10.0 + (5 - 2) + 3)


def test_bbox_md_without_crossings_collapses(demo_netlist):
    coords = {k: ((i + 1) % 7, (2 * i) % 9, 0) for i, k in enumerate("abcdXYF")}
    p = _place(coords)
    asg = DieAssignment(2, {k: 0 for k in "abcdXYF"}, {k: 1 for k in "XYF"})
    assert bbox_cost_md(demo_netlist, p, asg) == bbox_cost_sd(demo_netlist, p, 0)


def test_bbox_md_linear_in_link_length():
    n = random_netlist(4, num_pis=5, num_nodes=20, k=4, num_pos=4)
    asg = partition_hash(n, 2)
    rng = random.Random(0)
    coords = {}
    for name, _w in [(x, 0) for x in n.primary_inputs] + \
            [(nd.output_net, 1) for nd in n.nodes.values()]:
        coords[name] = (rng.randrange(10), rng.randrange(10), asg.die(name))
    p1 = _place(coords, l_sll=5.0)
    p2 = _place(coords, l_sll=10.0)
    n_sll = count_sll(n, asg)
    assert n_sll > 0
    assert bbox_cost_md(n, p2, asg) - bbox_cost_md(n, p1, asg) == \
        pytest.approx(5.0 * n_sll)


def test_bbox_md_degenerates_to_sd_with_one_die():
    for seed in range(5):
        n = random_netlist(seed, num_pis=5, num_nodes=20, k=4, num_pos=4)
        asg = DieAssignment(1, {name: 0 for name, _w in
                                [(x, 0) for x in n.primary_inputs]
                                + [(nd.output_net, 1) for nd in n.nodes.values()]},
                            {nd.output_net: 1 for nd in n.nodes.values()})
        rng = random.Random(seed)
        coords = {name: (rng.randrange(12), rng.randrange(9), 0)
                  for name in asg.die_of}
        p = PlacementData(coords, [(12, 9)], l_sll=7.0)
        md = bbox_cost_md(n, p, asg)
        sd = bbox_cost_sd(n, p, 0)
        assert abs(md - sd) <= 1e-9 * max(1.0, abs(sd))


def _reference_box_costs(netlist, p, assignment, sll_mode):
    """The single-die costs, one scan per die, and the multi-die cost,
    summed net by net in `net_terminals` order."""
    sd = []
    for die in range(len(p.die_geometry)):
        cost = 0.0
        for driver, sinks in net_terminals(netlist):
            placed = [p.place_of(t) for t in [driver] + sinks]
            if sinks and {d for _x, _y, d in placed} == {die}:
                cost += p.q(len(placed)) * _hpwl([(x, y) for x, y, _d in placed])
        sd.append(cost)
    md = 0.0
    for driver, sinks in net_terminals(netlist):
        if not sinks:
            continue
        placed = [p.place_of(t) for t in [driver] + sinks]
        dies = sorted({d for _x, _y, d in placed})
        med = sorted(x for x, _y, _d in placed)[(len(placed) - 1) // 2]
        for d in dies:
            w, h = p.die_geometry[d]
            ext = [(x, y) for x, y, pd in placed if pd == d]
            if d < dies[-1]:
                ext.append((min(max(med, 0), w - 1), h - 1))
            if d > dies[0]:
                ext.append((min(max(med, 0), w - 1), 0))
            md += p.q(len(placed)) * _hpwl(ext)
    return sd, md + count_sll(netlist, assignment, sll_mode) * p.l_sll


@pytest.mark.parametrize("sll_mode", ["per-die", "raw-net"])
def test_snapshot_boxes_equal_the_public_costs_exactly(sll_mode):
    n = random_netlist(6, num_pis=6, num_nodes=40, k=4, num_pos=4, num_latches=2)
    asg = partition_hash(n, 3)
    rng = random.Random(6)
    coords = {name: (rng.randrange(12), rng.randrange(9), asg.die(name)) for name in asg.die_of}
    p = PlacementData(coords, [(12, 9)] * 3, l_sll=2.5,
                      q_table={2: 1.0, 3: 1.0828, 4: 1.1536, 5: 1.2206, 6: 1.2823})
    sd, md = _reference_box_costs(n, p, asg, sll_mode)
    assert count_sll(n, asg, "raw-net") > 0 and all(sd)   # crossing and one-die nets
    snap = snapshot(n, asg, p, sll_mode)
    assert snap["bbox_sd"] == [bbox_cost_sd(n, p, d) for d in range(3)] == sd
    assert snap["bbox_md"] == bbox_cost_md(n, p, asg, sll_mode) == md
    with pytest.raises(MetricsError, match="die 3"):
        bbox_cost_sd(n, p, 3)


def test_hpwl_translation_invariance_and_monotonicity():
    rng = random.Random(2)
    n = parse_blif(".model m\n.inputs a b c\n.outputs y\n.names a b c y\n111 1\n.end")
    for _ in range(20):
        pts = {name: (rng.randrange(20), rng.randrange(20), 0)
               for name in ("a", "b", "c", "y")}
        p = _place(pts, w=64, h=64)
        base = bbox_cost_sd(n, p, 0)
        shifted = {k: (x + 3, y + 5, d) for k, (x, y, d) in pts.items()}
        p2 = _place(shifted, w=64, h=64)
        assert bbox_cost_sd(n, p2, 0) == pytest.approx(base)
        # dropping a terminal never increases the box: compare via subnet
        sub = parse_blif(".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end")
        p3 = _place({k: pts[k] for k in ("a", "b", "y")}, w=64, h=64)
        assert bbox_cost_sd(sub, p3, 0) <= base + 1e-12


def test_report_demo_delta(demo_netlist, demo_assignment, demo_care):
    post = resynthesize(demo_netlist, demo_assignment, ResynConfig(),
                        injected_care=demo_care)
    rep = report(demo_netlist, post.netlist, demo_assignment, post.assignment)
    assert rep.delta()["n_sll"] == -1
    assert rep.delta_pct()["n_sll"] == pytest.approx(-50.0)
    assert rep.delta()["lut_count"] == 0


def test_report_identity_all_zero(demo_netlist, demo_assignment):
    rep = report(demo_netlist, demo_netlist, demo_assignment, demo_assignment)
    assert all(v == 0 for v in rep.delta().values())


def test_report_roundtrips_through_json(demo_netlist, demo_assignment):
    rep = report(demo_netlist, demo_netlist, demo_assignment, demo_assignment)
    blob = json.loads(rep.to_json())
    assert blob["before"] == blob["after"]
    assert blob["before"]["n_sll"] == 2
    assert blob["interconnect_delays"]["L36"]["delay_ps"] == 2223.7
    text = rep.render_text()
    assert "n_sll" in text and "2223.7" in text


def test_wire_delay_table_values():
    t = wire_delay_table()
    assert t["L1"]["delay_ps"] == 76.2
    assert t["L2"]["delay_ps"] == 94.9
    assert t["L6"]["delay_ps"] == 212.0
    assert t["L36"]["track_share_pct"] == 48


def test_load_placement_and_q_table(tmp_path):
    pfile = tmp_path / "pl.txt"
    pfile.write_text("# blocks\na 0 0 0\ny 3 4 0\n")
    p = load_placement(pfile, [(10, 10)], l_sll=2.0)
    assert p.place_of("a") == (0, 0, 0)
    qfile = tmp_path / "q.json"
    qfile.write_text('{"2": 1.5, "3": 2.0}')
    q = load_q_table(qfile)
    assert q == {2: 1.5, 3: 2.0}
    bad = tmp_path / "bad.txt"
    bad.write_text("a 0 0\n")
    with pytest.raises(MetricsError):
        load_placement(bad, [(10, 10)])


def test_snapshot_contains_bbox_when_placed(demo_netlist, demo_assignment):
    coords = {k: (1, 1, demo_assignment.die(k)) for k in "abcdXYF"}
    p = _place(coords)
    s = snapshot(demo_netlist, demo_assignment, p)
    assert "bbox_md" in s and len(s["bbox_sd"]) == 2
