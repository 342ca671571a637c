import random

import pytest
from hypothesis import given, settings, strategies as st

from sllresub import bench
from sllresub.flow import split_per_die
from sllresub.netlist import (MAX_K, SLL_PREFIX, BlifParseError, Netlist, NetlistError,
                              has_generated_names, parse_blif, write_blif)
from sllresub.partition import partition_hash
from sllresub.truthtab import TruthTable, minterm_masks, table_to_cover

from conftest import (DEMO_BLIF, TABLE2, cone_input_nets, eval_netlist, random_netlist,
                      simulate, tfi)


def test_parse_and_cover():
    n = parse_blif(".model c\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end")
    assert n.lut_count() == 1
    node = n.node_of_net("y")
    assert node.fanins == ["a", "b"]
    assert node.function == TruthTable(2, 0b1000)


def test_empty_cover_is_constant_zero():
    n = parse_blif(".model c\n.outputs y\n.names y\n.end")
    node = n.node_of_net("y")
    assert node.function == TruthTable(0, 0)


def test_bare_one_is_constant_one():
    n = parse_blif(".model c\n.outputs y\n.names y\n1\n.end")
    assert n.node_of_net("y").function == TruthTable(0, 1)


def test_parse_demo_circuit(demo_netlist):
    n = demo_netlist
    assert n.primary_inputs == ["a", "b", "c", "d"]
    assert n.primary_outputs == ["Y", "F"]
    assert n.lut_count() == 3
    for name in ("X", "Y", "F"):
        assert n.node_of_net(name).function.bits == 0b0110  # 2-input xor


@pytest.mark.parametrize("text,message", [
    (".model m\n.inputs a\n.outputs y\n.subckt foo x=a y=y\n.end", "subckt"),
    (".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n0 1\n.end",
     "multiple drivers"),
    (".model m\n.inputs a\n.outputs y\n.names a q y\n11 1\n.end", "no driver"),
    (".model m\n.inputs a\n.outputs y\n.end", "primary output 'y' has no driver"),
    (".model m\n.inputs a\n.outputs q\n.latch d q 0\n.end",
     "latch input 'd' has no driver"),
    (".model m\n.inputs a\n.outputs y\n.names a y\n1 0\n.end", "off-set"),
    (".model m\n.inputs a\n.outputs y\n.names a y\n1 -\n.end", "don't-care output"),
    (".model m\n.inputs a\n.outputs y\n.names a a y\n11 1\n.end", "duplicate fanins"),
    (".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n.names a z\n1 1",
     "after .end"),
    (".model m\n.outputs y\n.names y\n.end\n.model m2\n.end", "after .end"),
    (".model m\n.inputs a\n.outputs y\n.latch a y q\n.end", "init"),
    (".model m\n.inputs a\n.outputs y\n.gate and2 a=a y=y\n.end", "unsupported"),
])
def test_parse_errors(text, message):
    with pytest.raises(BlifParseError) as err:
        parse_blif(text)
    assert message in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(BlifParseError) as err:
        parse_blif(".model m\n.inputs a\n.outputs y\n.names a y\n1 0\n.end")
    assert "line 5" in str(err.value)


def test_cycle_detection():
    text = ".model m\n.inputs a\n.outputs y\n.names y2 y\n1 1\n.names y y2\n1 1\n.end"
    with pytest.raises(BlifParseError) as err:
        parse_blif(text)
    assert "cycle" in str(err.value)


def test_k_max_enforced():
    fanins = " ".join("i%d" % i for i in range(7))
    text = ".model m\n.inputs %s\n.outputs y\n.names %s y\n%s 1\n.end" % (
        fanins, fanins, "1" * 7)
    with pytest.raises(BlifParseError) as err:
        parse_blif(text, k_max=6)
    assert "k_max" in str(err.value)
    parse_blif(text, k_max=7)  # configurable


def test_k_max_is_bounded_by_the_tabulation_width():
    assert Netlist(k_max=MAX_K).k_max == MAX_K
    with pytest.raises(NetlistError, match="k_max must be <= 16 \\(got 17\\)"):
        Netlist(k_max=MAX_K + 1)
    with pytest.raises(NetlistError, match="k_max must be <= 16"):
        parse_blif(DEMO_BLIF, k_max=MAX_K + 1)


def test_latch_forms_and_roundtrip():
    text = (".model m\n.inputs d0 d1 d2\n.outputs q0\n"
            ".latch d0 q0 0\n.latch d1 q1 re clk 1\n.latch d2 q2\n.end")
    n = parse_blif(text)
    assert [l.init_value for l in n.latches] == ["0", "1", "unknown"]
    again = parse_blif(write_blif(n))
    assert [l.init_value for l in again.latches] == ["0", "1", "unknown"]
    assert {l.output_net for l in again.latches} == {"q0", "q1", "q2"}


def test_comments_and_continuations():
    text = (".model m  # a model\n.inputs a \\\n b\n.outputs y\n"
            ".names a b y  # and\n11 1\n.end\n")
    n = parse_blif(text)
    assert n.primary_inputs == ["a", "b"]
    assert n.node_of_net("y").function.bits == 0b1000


def test_write_is_topological_with_name_tiebreak(demo_netlist):
    text = write_blif(demo_netlist)
    names = [l.split()[-1] for l in text.splitlines() if l.startswith(".names")]
    assert names == ["F", "X", "Y"]  # level 1: F, X (name order), then Y


def test_roundtrip_demo_circuit(demo_netlist):
    again = parse_blif(write_blif(demo_netlist))
    assert again.primary_inputs == demo_netlist.primary_inputs
    assert again.primary_outputs == demo_netlist.primary_outputs
    assert again.lut_count() == demo_netlist.lut_count()
    for node in demo_netlist.nodes.values():
        twin = again.node_of_net(node.output_net)
        assert twin.fanins == node.fanins
        assert twin.function == node.function


def test_buffer_feedthrough_roundtrip():
    text = ".model m\n.inputs a b\n.outputs ya yb\n.names a ya\n1 1\n.names b yb\n1 1\n.end"
    n = parse_blif(text)
    assert write_blif(parse_blif(write_blif(n))) == write_blif(n)


def test_random_netlists_roundtrip_bit_exact():
    for seed in range(100):
        n = random_netlist(seed, num_pis=6, num_nodes=14, k=4,
                           num_pos=3, num_latches=seed % 3)
        again = parse_blif(write_blif(n))
        assert again.lut_count() == n.lut_count()
        for node in n.nodes.values():
            twin = again.node_of_net(node.output_net)
            assert twin.fanins == node.fanins, node.output_net
            assert twin.function == node.function, node.output_net
        assert write_blif(again) == write_blif(n)


def test_topological_order_demo(demo_netlist):
    order = [nd.output_net for nd in demo_netlist.topological_order()]
    assert order.index("X") < order.index("Y")
    assert order == ["X", "F", "Y"]  # (level, id) determinism


def test_topological_order_single_node():
    n = parse_blif(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end")
    assert [nd.output_net for nd in n.topological_order()] == ["y"]


def test_topological_order_buffer_chain():
    lines = [".model m", ".inputs a", ".outputs b9"]
    prev = "a"
    for i in range(10):
        lines += [".names %s b%d" % (prev, i), "1 1"]
        prev = "b%d" % i
    n = parse_blif("\n".join(lines) + "\n.end")
    assert [nd.output_net for nd in n.topological_order()] == ["b%d" % i for i in range(10)]


def test_tfi_tfo_demo(demo_netlist):
    n = demo_netlist
    Y, X, F = (n.node_of_net(s) for s in "YXF")
    assert {n.nodes[i].output_net for i in tfi(n, Y.id)} == {"X"}
    assert cone_input_nets(n, tfi(n, Y.id) | {Y.id}) == ["a", "b", "c"]
    assert {n.nodes[i].output_net for i in n.tfo(X.id, 1)} == {"Y"}
    assert tfi(n, F.id) == set()      # PI-only fanins
    assert tfi(n, Y.id, 0) == set()
    assert n.tfo(Y.id) == set()          # PO terminates


def test_tfi_tfo_depth_limits():
    lines = [".model m", ".inputs a", ".outputs c2"]
    prev = "a"
    for i in range(3):
        lines += [".names %s c%d" % (prev, i), "1 1"]
        prev = "c%d" % i
    n = parse_blif("\n".join(lines) + "\n.end")
    c2 = n.node_of_net("c2")
    assert {n.nodes[i].output_net for i in tfi(n, c2.id, 1)} == {"c1"}
    assert {n.nodes[i].output_net for i in tfi(n, c2.id, 2)} == {"c0", "c1"}
    c0 = n.node_of_net("c0")
    assert {n.nodes[i].output_net for i in n.tfo(c0.id, 1)} == {"c1"}
    with pytest.raises(NetlistError):
        n.tfo(9999)


def test_mffc_demo(demo_netlist):
    n = demo_netlist
    assert {n.nodes[i].output_net for i in n.mffc(n.node_of_net("F").id)} == {"F"}
    assert {n.nodes[i].output_net for i in n.mffc(n.node_of_net("Y").id)} == {"X", "Y"}


def test_mffc_singleton():
    n = parse_blif(".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end")
    y = n.node_of_net("y")
    assert n.mffc(y.id) == {y.id}


def test_mffc_chain():
    n = parse_blif(".model m\n.inputs i\n.outputs c\n"
                   ".names i a\n1 1\n.names a b\n1 1\n.names b c\n1 1\n.end")
    c = n.node_of_net("c")
    assert {n.nodes[i].output_net for i in n.mffc(c.id)} == {"a", "b", "c"}


def _mffc_by_deletion(netlist, root_id):
    """Brute-force oracle: delete the root, then sweep zero-fanout nodes."""
    sinks = set(netlist.sink_nets())
    removed = {root_id}
    changed = True
    while changed:
        changed = False
        for node in netlist.nodes.values():
            if node.id in removed or node.output_net in sinks:
                continue
            readers = netlist.reader_ids.get(node.output_net, [])
            if readers and all(r in removed for r in readers):
                removed.add(node.id)
                changed = True
    return removed


def test_mffc_matches_deletion_fixpoint_on_random_netlists():
    for seed in range(25):
        n = random_netlist(seed, num_pis=5, num_nodes=30, k=4, num_pos=4,
                           num_latches=seed % 2)
        for node in n.nodes.values():
            assert n.mffc(node.id) == _mffc_by_deletion(n, node.id), \
                "seed %d node %s" % (seed, node.output_net)


def _assert_indexes_match_scan(m, nets, rng):
    """`reader_ids`, `is_sink`, `reader_names`, `has_driver` and
    `level_order` agree with a scan of the nodes, latches and POs."""
    readers = {}
    for node in m.nodes.values():
        for f in node.fanins:
            readers.setdefault(f, []).append(node.id)
    assert {net: ids for net, ids in m.reader_ids.items() if ids} == readers
    sinks = set(m.primary_outputs) | {l.input_net for l in m.latches}
    drivers = set(m.source_nets()) | {node.output_net for node in m.nodes.values()}
    for net in nets:
        assert m.is_sink(net) == (net in sinks), net
        assert m.has_driver(net) == (net in drivers), net
        assert m.reader_names(net) == (
            [m.nodes[r].output_net for r in readers.get(net, [])]
            + [l.output_net for l in m.latches if l.input_net == net]), net
    level = {}
    for nid in m.nodes:
        stack = [nid]
        while stack:
            node = m.nodes[stack[-1]]
            fanin_ids = [d.id for f in node.fanins if (d := m.node_of_net(f)) is not None]
            todo = [d for d in fanin_ids if d not in level]
            if todo:
                stack.extend(todo)
                continue
            level[node.id] = 1 + max((level[d] for d in fanin_ids), default=0)
            stack.pop()
    assert m.levels() == level
    ids = list(m.nodes)
    rng.shuffle(ids)
    for subset in (ids, ids[:len(ids) // 2]):
        assert m.level_order(subset) == sorted(subset, key=lambda n: (level[n], n))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), latches=st.integers(0, 2), edits=st.integers(1, 12))
def test_nodes_and_readers_stay_in_id_order_under_edits(seed, latches, edits):
    rng = random.Random(seed)
    n = random_netlist(seed, num_pis=5, num_nodes=20, k=4, num_pos=3,
                       num_latches=latches)
    # every net the edits may touch, plus one nobody drives or reads
    nets = n.source_nets() + [x.output_net for x in n.nodes.values()] + ["nowhere"]
    for _ in range(edits):
        if not n.nodes:
            break
        nid = rng.choice(sorted(n.nodes))
        banned = n.tfo(nid) | {nid}
        pool = sorted(net for net in n.source_nets() + [x.output_net for x in n.nodes.values()]
                      if n.node_of_net(net) is None or n.node_of_net(net).id not in banned)
        fanins = rng.sample(pool, rng.randint(1, min(4, len(pool))))
        n.replace_node(nid, fanins, TruthTable(len(fanins), rng.getrandbits(1 << len(fanins))))
        n.sweep_dead(pool)
        for m in (n, n.copy()):
            assert list(m.nodes) == sorted(m.nodes)
            assert all(ids == sorted(ids) for ids in m.reader_ids.values())
            _assert_indexes_match_scan(m, nets, rng)


def _snapshot(n):
    """What a refused edit must leave as it was."""
    return (write_blif(n), {net: list(ids) for net, ids in n.reader_ids.items()},
            dict(n.levels()), n.level_order(n.nodes))


@pytest.mark.parametrize("fanins, width, message", [
    (["a", "d"], 3, "2 fanins but 3-input function"),
    (["a", "b", "d"], 3, "has 3 fanins, exceeds k_max=2"),
    (["a", "a"], 2, "duplicate fanins"),
    (["a", "nowhere"], 2, "replacement fanin 'nowhere' has no driver"),
])
def test_replace_node_refusal_leaves_netlist_untouched(fanins, width, message):
    n = parse_blif(DEMO_BLIF, k_max=2)
    before = _snapshot(n)
    with pytest.raises(NetlistError, match=message):
        n.replace_node(n.node_of_net("F").id, fanins, TruthTable(width, 1))
    assert _snapshot(n) == before


@pytest.fixture
def lut_checks(monkeypatch):
    """The output nets that `Netlist._check_lut` is called on, in call order."""
    calls = []
    check = Netlist._check_lut

    def spy(self, output_net, fanins, function):
        calls.append(output_net)
        return check(self, output_net, fanins, function)

    monkeypatch.setattr(Netlist, "_check_lut", spy)
    return calls


# each LUT is checked once, where it enters a netlist; a built-in with
# latches and one without
CHECKED = ["i2c", "diffeq_like"]


def _lut_nets(n):
    return sorted(x.output_net for x in n.nodes.values())


@pytest.mark.parametrize("name", CHECKED)
def test_pack_to_luts_checks_each_lut_once(lut_checks, name):
    n = bench.build(name, 6)
    assert sorted(lut_checks) == _lut_nets(n)


@pytest.mark.parametrize("name", CHECKED)
def test_parse_blif_checks_each_lut_once(lut_checks, name):
    text = write_blif(bench.build(name, 6))
    lut_checks.clear()
    n = parse_blif(text)
    assert sorted(lut_checks) == _lut_nets(n)
    assert write_blif(n) == text


@pytest.mark.parametrize("name", CHECKED)
def test_copy_checks_no_lut(lut_checks, name):
    n = bench.build(name, 6)
    lut_checks.clear()
    assert write_blif(n.copy()) == write_blif(n)
    assert lut_checks == []


@pytest.mark.parametrize("name", CHECKED)
def test_replace_node_checks_one_lut(lut_checks, name):
    n = bench.build(name, 6)
    node = n.topological_order()[-1]
    lut_checks.clear()
    n.replace_node(node.id, node.fanins, node.function)
    assert lut_checks == [node.output_net]


@pytest.mark.parametrize("name", CHECKED)
def test_split_per_die_checks_each_lut_and_buffer_once(lut_checks, name):
    n = bench.build(name, 6)
    lut_checks.clear()
    subs = split_per_die(n, partition_hash(n, 3))
    buffers = sum(po.startswith(SLL_PREFIX) for sub in subs for po in sub.primary_outputs)
    assert buffers > 0
    assert len(lut_checks) == n.lut_count() + buffers


def test_simulate_demo_row(demo_netlist):
    out = simulate(demo_netlist, {"a": 1, "b": 0, "c": 0, "d": 0})
    assert out == {"Y": 1, "F": 1}


def test_simulate_exhaustive_matches_reference_grid(demo_netlist):
    n = demo_netlist
    for a, b, c, d, X, Y, F, _Fp, _care in TABLE2:
        out = simulate(n, {"a": a, "b": b, "c": c, "d": d})
        assert out["Y"] == Y and out["F"] == F
        # X is internal; check through the bit-parallel evaluator
        vals = eval_netlist(n, {"a": a, "b": b, "c": c, "d": d}, 1)
        assert vals["X"] == X


def test_simulate_all_zero_xor_chain():
    lines = [".model m", ".inputs a b c d", ".outputs x2"]
    lines += [".names a b x0", "10 1", "01 1"]
    lines += [".names x0 c x1", "10 1", "01 1"]
    lines += [".names x1 d x2", "10 1", "01 1"]
    n = parse_blif("\n".join(lines) + "\n.end")
    assert simulate(n, {"a": 0, "b": 0, "c": 0, "d": 0}) == {"x2": 0}


def test_simulate_missing_bit(demo_netlist):
    with pytest.raises(NetlistError):
        simulate(demo_netlist, {"a": 1, "b": 0, "c": 0})


def test_simulate_latch_boundaries():
    text = (".model m\n.inputs d\n.outputs y\n.latch nd q 0\n"
            ".names d q nd\n10 1\n01 1\n.names q y\n1 1\n.end")
    n = parse_blif(text)
    out = simulate(n, {"d": 1, "q": 0})
    assert out == {"y": 0, "nd": 1}  # latch input is a pseudo-PO


def test_simulate_matches_masks_on_random_netlists():
    rng = random.Random(7)
    for seed in range(10):
        n = random_netlist(seed, num_pis=5, num_nodes=20, k=4, num_pos=4)
        sources = sorted(n.source_nets())
        values = eval_netlist(n, minterm_masks(sources), 1 << len(sources))
        for _ in range(20):
            m = rng.randrange(1 << len(sources))
            assignment = {net: (m >> i) & 1 for i, net in enumerate(sources)}
            sim = simulate(n, assignment)
            for sink, v in sim.items():
                assert (values[sink] >> m) & 1 == v


def test_generated_prefix_detection(demo_netlist):
    assert not has_generated_names(demo_netlist)
    n = parse_blif(".model m\n.inputs __sll_x_in\n.outputs y\n"
                   ".names __sll_x_in y\n1 1\n.end")
    assert has_generated_names(n)


def test_equal_covers_share_one_table():
    n = parse_blif(".model m\n.inputs a b c\n.outputs x y z w\n"
                   ".names a b x\n11 1\n.names b c y\n11 1\n"
                   ".names a c z\n1- 1\n-1 1\n.names c b w\n1- 1\n-1 1\n.end")
    x, y, z, w = (n.node_of_net(s).function for s in "xyzw")
    assert x is y and z is w
    assert x == TruthTable(2, 0b1000) and z == TruthTable(2, 0b1110)


@pytest.mark.parametrize("cover,line,message", [
    ("1- 0", 7, "off-set"),            # a bad row is named by its own line
    ("1- 1\n-1 -", 8, "don't-care"),
    ("11- 1", 6, "does not match"),    # a row-width error names the .names line
])
def test_bad_cover_reports_its_first_line(cover, line, message):
    # lines 4-5 compile a cover first; y (line 6) and z carry the same bad one
    text = (".model m\n.inputs a b\n.outputs x y z\n.names a b x\n11 1\n"
            ".names a b y\n%s\n.names b a z\n%s\n.end" % (cover, cover))
    with pytest.raises(BlifParseError) as err:
        parse_blif(text)
    assert err.value.line_no == line
    assert message in str(err.value)


def test_equal_rows_of_another_arity_are_not_shared():
    text = ".model m\n.inputs a b\n.outputs x y\n.names a b x\n11 1\n.names a y\n11 1\n.end"
    with pytest.raises(BlifParseError) as err:
        parse_blif(text)
    assert err.value.line_no == 6
    assert "does not match 1 inputs" in str(err.value)


def _reference_write_blif(netlist):
    """The BLIF writer with each node's cover rendered on its own."""
    lines = [".model %s" % netlist.model_name,
             ".inputs" + "".join(" " + n for n in netlist.primary_inputs),
             ".outputs" + "".join(" " + n for n in netlist.primary_outputs)]
    for latch in netlist.latches:
        init = " " + latch.init_value if latch.init_value in ("0", "1") else ""
        lines.append(".latch %s %s%s" % (latch.input_net, latch.output_net, init))
    level = netlist.levels()
    for node in sorted(netlist.nodes.values(), key=lambda n: (level[n.id], n.output_net)):
        lines.append(".names" + "".join(" " + f for f in node.fanins) + " " + node.output_net)
        lines += [row + " 1" if row else "1" for row in table_to_cover(node.function)]
    return "\n".join(lines + [".end"]) + "\n"


def _with_constants(netlist):
    """`netlist` plus 0-input LUTs, empty covers and a latch, all read."""
    pi = netlist.primary_inputs[0]
    for bits in (0, 1):
        netlist.add_node("const%d" % bits, [], TruthTable(0, bits))
        netlist.add_node("one_in%d" % bits, [pi], TruthTable(1, bits))  # bits 1 is NOT
        netlist.add_output("const%d" % bits)
        netlist.add_output("one_in%d" % bits)
    netlist.add_node("never", [pi, "const1"], TruthTable(2, 0))
    netlist.add_latch("never", "held", "1")
    netlist.add_node("uses_held", ["held", "const0"], TruthTable(2, 0b0110))
    netlist.add_output("uses_held")
    return netlist


@pytest.mark.parametrize("k", [4, 6])
def test_write_blif_matches_per_node_covers_on_builtins(k):
    for name in bench.BENCH_NAMES:
        n = bench.build(name, k)
        assert write_blif(n) == _reference_write_blif(n), name
    n = _with_constants(bench.build("dec", k))
    assert write_blif(n) == _reference_write_blif(n)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), latches=st.integers(0, 3), constants=st.booleans())
def test_write_blif_matches_per_node_covers_on_random_netlists(seed, latches, constants):
    n = random_netlist(seed, num_pis=5, num_nodes=25, k=4, num_pos=3, num_latches=latches)
    if constants:
        n = _with_constants(n)
    text = write_blif(n)
    assert text == _reference_write_blif(n)
    assert write_blif(parse_blif(text)) == text
