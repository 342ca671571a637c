import random

import pytest
from hypothesis import given, settings, strategies as st

from sllresub import bench, equiv
from sllresub.equiv import MODES, EquivError, EquivVerdict, check_equivalence
from sllresub.netlist import Netlist, parse_blif, write_blif
from sllresub.partition import DieAssignment
from sllresub.resynth import ResynConfig, resynthesize
from sllresub.truthtab import TruthTable, full_mask, minterm_masks

from conftest import (DEMO_BLIF, LATCH_MISMATCH_BLIF, LATCH_PAIR_BLIF, TABLE2,
                      eval_netlist, random_netlist, simulate)


def test_netlist_vs_itself_exhaustive(demo_netlist):
    v = check_equivalence(demo_netlist, demo_netlist.copy())
    assert v.equivalent and v.mode == "exhaustive"
    assert v.vectors_checked == 16  # 2^|PI|


def test_demo_care_restricted_and_full(demo_netlist, demo_assignment, demo_care):
    post = resynthesize(demo_netlist, demo_assignment, ResynConfig(),
                        injected_care=demo_care).netlist
    assert check_equivalence(demo_netlist, post, care=demo_care).equivalent
    full = check_equivalence(demo_netlist, post)
    assert not full.equivalent
    # mismatches happen exactly on the don't-care rows of the grid
    mismatch_rows = set()
    for a, b, c, d, _X, _Y, F, fp, care in TABLE2:
        if F != fp:
            mismatch_rows.add((a, b, c, d))
            assert care == 0
    got = []
    for a, b, c, d, _X, _Y, _F, _fp, _care in TABLE2:
        s1 = simulate(demo_netlist, {"a": a, "b": b, "c": c, "d": d})
        s2 = simulate(post, {"a": a, "b": b, "c": c, "d": d})
        if s1 != s2:
            got.append((a, b, c, d))
    assert set(got) == mismatch_rows
    assert len(got) == 8


def test_mutation_is_caught_with_counterexample():
    for seed in range(10):
        n = random_netlist(seed, num_pis=6, num_nodes=15, k=4, num_pos=4)
        mutated = n.copy()
        # flip the PO driver's table at the minterm its fanins reach under
        # the all-zero input: reachable by construction, observable at a PO
        po_driver = mutated.node_of_net(mutated.primary_outputs[0])
        values = eval_netlist(n, {net: 0 for net in n.source_nets()}, 1)
        minterm = sum((values[f] & 1) << i for i, f in enumerate(po_driver.fanins))
        flipped = po_driver.function.bits ^ (1 << minterm)
        mutated.replace_node(po_driver.id, list(po_driver.fanins),
                             TruthTable(po_driver.function.num_inputs, flipped))
        v = check_equivalence(n, mutated)
        assert not v.equivalent
        # the counterexample re-simulates to a real mismatch
        s1 = simulate(n, v.counterexample)
        s2 = simulate(mutated, v.counterexample)
        assert s1 != s2
        assert s1[v.mismatched_output] != s2[v.mismatched_output]


def test_symmetry(demo_netlist, demo_assignment, demo_care):
    post = resynthesize(demo_netlist, demo_assignment, ResynConfig(),
                        injected_care=demo_care).netlist
    ab = check_equivalence(demo_netlist, post)
    ba = check_equivalence(post, demo_netlist)
    assert ab.equivalent == ba.equivalent
    assert ab.counterexample == ba.counterexample


def test_interface_mismatch_errors(demo_netlist):
    other = parse_blif(".model m\n.inputs a b c\n.outputs Y\n"
                       ".names a b Y\n11 1\n.end")
    with pytest.raises(EquivError):
        check_equivalence(demo_netlist, other)


def test_latch_interface_compared(demo_netlist):
    seq = parse_blif(".model m\n.inputs a\n.outputs y\n.latch y q 0\n"
                     ".names a q y\n11 1\n.end")
    with pytest.raises(EquivError):
        check_equivalence(seq, parse_blif(
            ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end"))
    assert check_equivalence(seq, seq.copy()).equivalent


@pytest.mark.parametrize("kind", sorted(LATCH_MISMATCH_BLIF))
def test_latches_compared_as_input_output_init_triples(kind):
    seq = parse_blif(LATCH_PAIR_BLIF)
    other = parse_blif(LATCH_MISMATCH_BLIF[kind])
    assert {l.input_net for l in seq.latches} == {l.input_net for l in other.latches}
    assert {l.output_net for l in seq.latches} == {l.output_net for l in other.latches}
    for a, b in ((seq, other), (other, seq)):
        with pytest.raises(EquivError, match="latch sets differ"):
            check_equivalence(a, b)
    assert check_equivalence(seq, parse_blif(LATCH_PAIR_BLIF)).equivalent


def test_exhaustive_bound_enforced(monkeypatch):
    n = random_netlist(0, num_pis=8, num_nodes=10, k=4, num_pos=2)
    monkeypatch.setattr(equiv, "EXHAUSTIVE_PI_BOUND", 4)
    with pytest.raises(EquivError):
        check_equivalence(n, n.copy(), mode="exhaustive")
    v = check_equivalence(n, n.copy(), mode="auto", vector_budget=1000)
    assert v.mode == "random" and v.vectors_checked == 1000


@pytest.mark.parametrize("mode", ["auto", "exhaustive", "random"])
@pytest.mark.parametrize("budget", [0, -1])
def test_vector_budget_below_one_is_refused(demo_netlist, mode, budget):
    with pytest.raises(EquivError, match="vector budget"):
        check_equivalence(demo_netlist, demo_netlist.copy(), mode=mode, vector_budget=budget)


def test_random_mode_deterministic_and_minimized():
    n = random_netlist(3, num_pis=10, num_nodes=25, k=4, num_pos=4)
    mutated = n.copy()
    po_driver = mutated.node_of_net(mutated.primary_outputs[0])
    mutated.replace_node(po_driver.id, list(po_driver.fanins),
                         TruthTable(po_driver.function.num_inputs,
                                    po_driver.function.bits ^ 1))
    a = check_equivalence(n, mutated, mode="random", seed=5, vector_budget=50_000)
    b = check_equivalence(n, mutated, mode="random", seed=5, vector_budget=50_000)
    assert not a.equivalent
    assert a.counterexample == b.counterexample
    assert a.vectors_checked == b.vectors_checked
    # greedy minimization still yields a real mismatch
    s1, s2 = simulate(n, a.counterexample), simulate(mutated, a.counterexample)
    assert s1 != s2


def test_care_predicate_validation(demo_netlist, demo_care):
    two_pos = parse_blif(".model p\n.inputs b c\n.outputs x y\n"
                         ".names b x\n1 1\n.names c y\n1 1\n.end")
    with pytest.raises(EquivError):
        check_equivalence(demo_netlist, demo_netlist.copy(), care=two_pos)
    foreign = parse_blif(".model p\n.inputs zz\n.outputs c\n.names zz c\n1 1\n.end")
    with pytest.raises(EquivError):
        check_equivalence(demo_netlist, demo_netlist.copy(), care=foreign)


# The final check compares only the sinks the changed cone drives, and
# evaluates `a` only where those comparisons read it, counterexamples
# included. The reference below is the check without either restriction:
# it evaluates all of `a` and all of `b` and compares every sink, drawing
# the same random vectors, and names and minimizes a counterexample by
# simulating both whole netlists once per trial.

def _reference_still_differs(a, b, assignment, care):
    if care is not None and not eval_netlist(
            care, {p: assignment[p] for p in care.source_nets()}, 1)[care.primary_outputs[0]]:
        return False
    va, vb = simulate(a, assignment), simulate(b, assignment)
    return any(va[s] != vb[s] for s in va)


def _reference_minimize(a, b, assignment, care):
    current = dict(assignment)
    for net in sorted(current):
        if current[net] == 0:
            continue
        trial = dict(current)
        trial[net] = 0
        if _reference_still_differs(a, b, trial, care):
            current = trial
    return current


def _reference_mismatch_output(a, b, assignment):
    va, vb = simulate(a, assignment), simulate(b, assignment)
    for sink in sorted(va):
        if va[sink] != vb[sink]:
            return sink
    raise AssertionError("counterexample does not re-simulate to a mismatch")


def _reference_check(a, b, mode, seed=0, vector_budget=equiv.DEFAULT_VECTOR_BUDGET,
                     care=None):
    sources = sorted(a.source_nets())
    sinks = sorted(a.sink_nets())
    if mode == "auto":
        mode = "exhaustive" if len(sources) <= equiv.EXHAUSTIVE_PI_BOUND else "random"

    def first_mismatch(masks, width):
        va, vb = eval_netlist(a, masks, width), eval_netlist(b, masks, width)
        care_bits = full_mask(width)
        if care is not None:
            care_bits = eval_netlist(care, {p: masks[p] for p in care.source_nets()},
                                     width)[care.primary_outputs[0]]
        for sink in sinks:
            diff = (va[sink] ^ vb[sink]) & care_bits
            if diff:
                return sink, (diff & -diff).bit_length() - 1
        return None, None

    if mode == "exhaustive":
        masks, width = minterm_masks(sources), 1 << len(sources)
        sink, bit = first_mismatch(masks, width)
        if sink is None:
            return EquivVerdict(True, mode, width)
        return EquivVerdict(False, mode, width,
                            {net: (bit >> i) & 1 for i, net in enumerate(sources)}, sink)
    rng = random.Random(seed)
    checked = 0
    while checked < vector_budget:
        width = min(equiv._CHUNK, vector_budget - checked)
        masks = {net: rng.getrandbits(width) for net in sources}
        sink, bit = first_mismatch(masks, width)
        checked += width
        if sink is not None:
            assignment = _reference_minimize(
                a, b, {net: (masks[net] >> bit) & 1 for net in sources}, care)
            return EquivVerdict(False, mode, checked, assignment,
                                _reference_mismatch_output(a, b, assignment))
    return EquivVerdict(True, mode, checked)


def _flip_row(netlist, node, row):
    netlist.replace_node(node.id, list(node.fanins),
                         TruthTable(node.function.num_inputs, node.function.bits ^ (1 << row)))


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_changed_cone_one_row_flip_matches_full_evaluation(mode):
    kwargs = {"mode": mode, "seed": 3, "vector_budget": 20_000}
    mismatches = 0
    for seed in range(4):
        n = random_netlist(seed, num_pis=6, num_nodes=15, k=4, num_pos=4)
        for net in sorted(node.output_net for node in n.nodes.values()):
            post = n.copy()
            node = post.node_of_net(net)
            _flip_row(post, node, seed % node.function.num_minterms)
            assert [c.output_net for c in equiv._changed_cone(n, post)][0] == net
            got = check_equivalence(n, post, **kwargs)
            assert got == _reference_check(n, post, **kwargs)
            mismatches += not got.equivalent
    assert mismatches > 0


def test_changed_cone_reevaluates_unchanged_readers(demo_netlist):
    post = demo_netlist.copy()
    _flip_row(post, post.node_of_net("X"), 0)      # X = a xor b, now 1 at a=b=0
    # Y = X xor c keeps its fanins and function but reads the changed X
    assert [n.output_net for n in equiv._changed_cone(demo_netlist, post)] == ["X", "Y"]
    for mode in ("exhaustive", "random"):
        got = check_equivalence(demo_netlist, post, mode=mode, vector_budget=64)
        assert not got.equivalent and got.mismatched_output == "Y"
        assert got.counterexample["a"] == got.counterexample["b"] == 0
        assert got == _reference_check(demo_netlist, post, mode=mode, vector_budget=64)


def test_changed_cone_empty_for_separately_parsed_netlists():
    i2c = write_blif(bench.build("i2c", 4))
    for text, mode in ((DEMO_BLIF, "exhaustive"), (i2c, "random")):
        a, b = parse_blif(text), parse_blif(text)
        assert equiv._changed_cone(a, b) == []
        got = check_equivalence(a, b, mode=mode, vector_budget=10_000)
        assert got.equivalent
        assert got == _reference_check(a, b, mode=mode, vector_budget=10_000)


def _edit(netlist, kind, pick):
    """A copy of `netlist`, unchanged, with one table row flipped, or with
    one fanin of a node rewired to a net outside the node's fanout cone."""
    post = netlist.copy()
    nodes = sorted(post.nodes.values(), key=lambda n: n.output_net)
    node = nodes[pick % len(nodes)]
    if kind == "rewire":
        banned = post.tfo(node.id) | {node.id}
        pool = sorted(net for net in post.source_nets() + [n.output_net for n in nodes]
                      if net not in node.fanins
                      and (post.node_of_net(net) is None or post.node_of_net(net).id not in banned))
        if pool:
            post.replace_node(node.id, [pool[pick % len(pool)]] + node.fanins[1:], node.function)
            return post
        kind = "flip"
    if kind == "flip":
        _flip_row(post, node, pick % node.function.num_minterms)
    return post


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), latches=st.integers(0, 2),
       kind=st.sampled_from(["copy", "flip", "rewire"]), pick=st.integers(0, 10**6),
       mode=st.sampled_from(["exhaustive", "random"]), care_bits=st.integers(0, 16))
def test_restricted_final_check_matches_full_reference(seed, latches, kind, pick, mode,
                                                       care_bits):
    a = random_netlist(seed, num_pis=6, num_nodes=20, k=4, num_pos=5,
                       num_latches=latches)
    b = _edit(a, kind, pick)
    care = None
    if care_bits < 16:     # 16: no predicate
        care = Netlist("care", 4)
        inputs = sorted(a.source_nets())[pick % 3:][:2]
        for net in inputs:
            care.add_input(net)
        care.add_output("care")
        care.add_node("care", inputs, TruthTable(2, care_bits))
    kwargs = {"mode": mode, "seed": seed % 7, "vector_budget": 20_000, "care": care}
    got = check_equivalence(a, b, **kwargs)
    assert got == _reference_check(a, b, **kwargs)


def _pi_pair_care(netlist):
    """The care predicate pi0 == pi1 over `netlist`'s first two inputs."""
    care = Netlist("care", 2)
    for net in ("pi0", "pi1"):
        care.add_input(net)
    care.add_output("care")
    care.add_node("care", ["pi0", "pi1"], TruthTable(2, 0b1001))
    return care


def test_counterexamples_match_whole_netlist_reference_sweep():
    """One-row flips of every third node of 40 random netlists, in every
    mode, with and without a care predicate: each verdict, counterexample
    and mismatched output is the whole-netlist reference's. A reference
    test: a check that simulates whole netlists passes it too."""
    mismatches = checks = 0
    for seed in range(40):
        a = random_netlist(seed, num_pis=8, num_nodes=30, k=4, num_pos=5)
        care = _pi_pair_care(a)
        nets = sorted(node.output_net for node in a.nodes.values())
        for i, net in enumerate(nets[::3]):
            b = a.copy()
            node = b.node_of_net(net)
            _flip_row(b, node, (seed + i) % node.function.num_minterms)
            for mode in MODES:
                for pred in (None, care):
                    kwargs = {"mode": mode, "seed": seed, "vector_budget": 20_000,
                              "care": pred}
                    got = check_equivalence(a, b, **kwargs)
                    assert got == _reference_check(a, b, **kwargs), (seed, net, mode)
                    checks += 1
                    mismatches += not got.equivalent
    assert checks == 40 * 10 * 6
    assert 0 < mismatches < checks


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
@pytest.mark.parametrize("with_care", [False, True])
def test_failing_check_never_evaluates_a_whole_netlist(monkeypatch, mode, with_care):
    a = random_netlist(5, num_pis=8, num_nodes=30, k=4, num_pos=5)
    b = a.copy()
    _flip_row(b, b.node_of_net(a.primary_outputs[0]), 0)
    care = _pi_pair_care(a) if with_care else None
    evaluated = []
    real = equiv.eval_nodes

    def spied(nodes, values, width):
        evaluated.append({id(node) for node in nodes})
        return real(nodes, values, width)

    def whole(netlist):
        return {id(node) for node in netlist.nodes.values()}

    monkeypatch.setattr(equiv, "eval_nodes", spied)
    got = check_equivalence(a, b, mode=mode, vector_budget=20_000, care=care)
    assert not got.equivalent and got.counterexample is not None
    assert whole(a) not in evaluated and whole(b) not in evaluated
    assert with_care == (care is not None and whole(care) in evaluated)


def _count_evaluations(monkeypatch):
    calls = []
    real = TruthTable.eval_masks

    def counted(self, fanin_masks, width):
        calls.append(self)
        return real(self, fanin_masks, width)

    monkeypatch.setattr(TruthTable, "eval_masks", counted)
    return calls


def test_unchanged_copy_evaluates_no_node(monkeypatch, demo_netlist, demo_care):
    i2c = parse_blif(write_blif(bench.build("i2c", 4)))     # the packer evaluates
    calls = _count_evaluations(monkeypatch)
    got = check_equivalence(i2c, i2c.copy(), mode="random", vector_budget=20_000)
    assert got == EquivVerdict(True, "random", 20_000)
    got = check_equivalence(demo_netlist, demo_netlist.copy(), care=demo_care)
    assert got == EquivVerdict(True, "exhaustive", 16)
    assert calls == []


def test_changed_sink_evaluates_only_its_cone(monkeypatch, demo_netlist):
    post = demo_netlist.copy()
    x = post.node_of_net("X")
    post.replace_node(x.id, ["b", "a"], x.function)      # xor: the same function
    assert [n.output_net for n in equiv._changed_cone(demo_netlist, post)] == ["X", "Y"]
    calls = _count_evaluations(monkeypatch)
    assert check_equivalence(demo_netlist, post).equivalent
    # X and Y of each netlist; F drives no changed sink
    assert len(calls) == 4
