import collections
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import sllresub
from sllresub import bench
from sllresub.equiv import check_equivalence
from sllresub.truthtab import TruthTable

from conftest import random_netlist, simulate


@pytest.mark.parametrize("name", bench.BENCH_NAMES)
def test_benchmarks_build_and_validate(name):
    for k in (4, 6):
        n = bench.build(name, k)
        n.validate()
        assert n.lut_count() > 5
        assert all(len(nd.fanins) <= k for nd in n.nodes.values())
        assert n.k_max == k


@pytest.mark.parametrize("name", ["voter", "max", "dec", "div", "int2float",
                                  "tseng_like"])
def test_lut4_and_lut6_mappings_are_equivalent(name):
    n4 = bench.build(name, 4)
    n6 = bench.build(name, 6)
    v = check_equivalence(n4, n6, seed=0, vector_budget=30_000)
    assert v.equivalent, v.counterexample


def test_known_functions_spot_checks():
    mult = bench.build("multiplier", 4)
    for x, y in ((3, 5), (7, 9), (127, 127), (0, 88)):
        bits = {"x%d" % i: (x >> i) & 1 for i in range(7)}
        bits |= {"y%d" % i: (y >> i) & 1 for i in range(7)}
        out = simulate(mult, bits)
        got = sum(v << i for i, (k, v) in
                  enumerate(sorted(out.items(), key=lambda kv: int(kv[0][1:]))))
        # outputs are named g<n>; recompute by PO order instead
        got = sum(out[po] << i for i, po in enumerate(mult.primary_outputs))
        assert got == x * y, (x, y, got)

    mx = bench.build("max", 6)
    for a, b in ((12, 200), (255, 3), (77, 77)):
        bits = {"a%d" % i: (a >> i) & 1 for i in range(8)}
        bits |= {"b%d" % i: (b >> i) & 1 for i in range(8)}
        out = simulate(mx, bits)
        got = sum(out[po] << i for i, po in enumerate(mx.primary_outputs[:8]))
        assert got == max(a, b)
        assert out[mx.primary_outputs[8]] == (1 if a >= b else 0)

    sq = bench.build("square", 4)
    for x in (0, 1, 13, 200, 255):
        bits = {"x%d" % i: (x >> i) & 1 for i in range(8)}
        out = simulate(sq, bits)
        got = sum(out[po] << i for i, po in enumerate(sq.primary_outputs))
        assert got == x * x

    add = bench.build("adder", 4)
    for a, b in ((100, 200), (511, 511), (0, 1)):
        bits = {"a%d" % i: (a >> i) & 1 for i in range(9)}
        bits |= {"b%d" % i: (b >> i) & 1 for i in range(9)}
        out = simulate(add, bits)
        got = sum(out[po] << i for i, po in enumerate(add.primary_outputs))
        assert got == a + b

    div = bench.build("div", 4)
    for nval, dval in ((37, 5), (63, 7), (11, 1)):
        bits = {"n%d" % i: (nval >> i) & 1 for i in range(6)}
        bits |= {"d%d" % i: (dval >> i) & 1 for i in range(3)}
        out = simulate(div, bits)
        q = sum(out[po] << i for i, po in enumerate(div.primary_outputs[:6]))
        r = sum(out[po] << i for i, po in enumerate(div.primary_outputs[6:]))
        assert q == nval // dval and r == nval % dval, (nval, dval, q, r)


def test_voter_is_majority_of_redundant_channels():
    n = bench.build("voter", 4)
    # all channels compute the same function, so each output equals the
    # single-channel value; spot-check one input vector directly
    bits = {"x%d" % i: (i * 5 % 3 == 1) for i in range(9)}
    xs = [bits["x%d" % i] & 1 for i in range(9)]
    t = [xs[i] ^ xs[(i + 1) % 9] for i in range(9)]
    u = [t[i] ^ (xs[(i + 4) % 9] & t[(i + 2) % 9]) for i in range(9)]
    out = simulate(n, {k: int(v) for k, v in bits.items()})
    got = [out[po] for po in n.primary_outputs]
    assert got == u


# The former per-minterm packer tabulation, kept as the reference: one env
# dict per support minterm, walked through a gate interpreter with its own
# op table, so a wrong entry in `bench._OPS` shows.
_REF_OPS = {
    "CONST0": (0, 0b0),
    "CONST1": (0, 0b1),
    "BUF": (1, 0b10),
    "NOT": (1, 0b01),
    "AND": (2, 0b1000),
    "OR": (2, 0b1110),
    "XOR": (2, 0b0110),
    "NAND": (2, 0b0111),
    "NOR": (2, 0b0001),
    "XNOR": (2, 0b1001),
    "ANDN": (2, 0b0010),
    "MUX": (3, 0b11001010),
    "MAJ": (3, 0b11101000),
}


def _gate_eval(op, vals):
    idx = 0
    for i, v in enumerate(vals):
        idx |= (v & 1) << i
    return (_REF_OPS[op][1] >> idx) & 1


def _ref_value(net, env, n):
    """Net `n` of gate network `net` under the 0/1 values in `env`, which
    it extends."""
    if n not in env:
        op, ins = net.gates[n]
        env[n] = _gate_eval(op, [_ref_value(net, env, i) for i in ins])
    return env[n]


def _reference_tables(net, packed):
    """Each LUT's table of its support, one minterm at a time."""
    tables = {}
    for node in packed.nodes.values():
        bits = 0
        for m in range(1 << len(node.fanins)):
            env = {s: (m >> i) & 1 for i, s in enumerate(node.fanins)}
            bits |= _ref_value(net, env, node.output_net) << m
        tables[node.output_net] = TruthTable(len(node.fanins), bits)
    return tables


def _packed_tables(net, k):
    packed = bench.pack_to_luts(net, k)
    return {node.output_net: node.function for node in packed.nodes.values()}, packed


def test_op_tables_match_the_reference():
    assert {op: (t.num_inputs, t.bits) for op, t in bench._OPS.items()} == _REF_OPS


@pytest.mark.parametrize("name", bench.BENCH_NAMES)
def test_packer_tables_match_per_minterm_reference(name):
    net = bench.gate_network(name)
    for k in (3, 4, 5, 6):
        got, packed = _packed_tables(net, k)
        assert got == _reference_tables(net, packed), k


@st.composite
def _gate_networks(draw):
    """A small gate network that uses every op, constants included, and
    reads 0-2 latch outputs."""
    g = bench.GateNetwork("h")
    pool = g.pis("x", draw(st.integers(1, 4)))
    qs = ["q%d" % i for i in range(draw(st.integers(0, 2)))]
    pool += qs
    ops = draw(st.permutations(sorted(_REF_OPS)))
    ops += draw(st.lists(st.sampled_from(sorted(_REF_OPS)), max_size=12))
    gates = []
    for op in ops:
        ins = [draw(st.sampled_from(pool)) for _ in range(_REF_OPS[op][0])]
        gates.append(g.gate(op, *ins))
        pool.append(gates[-1])
    for q in qs:
        g.latch(draw(st.sampled_from(gates)), q)
    for net in draw(st.lists(st.sampled_from(gates), min_size=1, max_size=4, unique=True)):
        g.po(net)
    return g


@settings(max_examples=150, deadline=None)
@given(net=_gate_networks(), k=st.integers(3, 6))
def test_packer_matches_per_minterm_reference_on_random_networks(net, k):
    got, packed = _packed_tables(net, k)
    assert got == _reference_tables(net, packed)
    # the LUTs compose to the network: every sink agrees on every minterm
    sources = net.inputs + [q for _d, q in net.latches]
    sinks = [po for po, _net in net.outputs] + [d for d, _q in net.latches]
    for m in range(1 << len(sources)):
        env = {s: (m >> i) & 1 for i, s in enumerate(sources)}
        out = simulate(packed, env)
        assert {s: out[s] for s in sinks} == {s: _ref_value(net, env, s) for s in sinks}


# The former root closure of the packer, kept as the reference: each
# promotion round grows every root again, not only the promoted ones.

def _reference_supports(net, k):
    """(support by LUT root, rounds) of the grow-everything root closure."""
    fanout = collections.Counter(i for _op, ins in net.gates.values() for i in ins)
    fanout.update(po for po, _net in net.outputs)
    fanout.update(d for d, _q in net.latches)
    sources = set(net.inputs) | {q for _d, q in net.latches}
    observable = {po for po, _ in net.outputs} | {d for d, _ in net.latches}
    roots = {g for g in net.gates if g in observable or fanout[g] != 1}

    def grow(root):
        cluster = {root}
        support = list(dict.fromkeys(net.gates[root][1]))
        while True:
            best = None
            best_support = None
            for cand in support:
                if cand in roots or cand in sources or cand in cluster or cand not in net.gates:
                    continue
                new_support = [s for s in support if s != cand]
                for s in net.gates[cand][1]:
                    if s not in new_support:
                        new_support.append(s)
                if len(new_support) <= k and (
                        best_support is None or len(new_support) < len(best_support)
                        or (len(new_support) == len(best_support) and cand < best)):
                    best, best_support = cand, new_support
            if best is None:
                break
            cluster.add(best)
            support = best_support
        return support

    rounds = 1
    while True:
        supports = {root: grow(root) for root in sorted(roots)}
        missing = {s for support in supports.values() for s in support
                   if s in net.gates and s not in roots}
        if not missing:
            return supports, rounds
        roots |= missing
        rounds += 1


def _packed_supports(net, k):
    return {node.output_net: node.fanins for node in bench.pack_to_luts(net, k).nodes.values()}


@pytest.mark.parametrize("name", bench.BENCH_NAMES)
def test_packer_roots_match_the_grow_everything_reference(name):
    net = bench.gate_network(name)
    for k in (3, 4, 5, 6):
        assert _packed_supports(net, k) == _reference_supports(net, k)[0], k


def _chained_gates(seed, num_inputs=6, num_gates=40):
    """A seeded gate network whose gates mostly read recent gates, so most
    gates have one reader and long single-reader cones form."""
    rng = random.Random(seed)
    g = bench.GateNetwork("chained%d" % seed)
    pool = g.pis("x", num_inputs)
    for _ in range(num_gates):
        op = rng.choice(["AND", "OR", "XOR", "NAND", "ANDN", "MUX", "MAJ", "NOT"])
        ins = [pool[-1 - min(int(rng.expovariate(0.3)), len(pool) - 1)]
               for _ in range(_REF_OPS[op][0])]
        pool.append(g.gate(op, *ins))
    for net in pool[-3:]:
        g.po(net)
    return g


def test_packer_roots_match_the_grow_everything_reference_over_promotion_rounds():
    rounds = {}
    for seed in range(100):
        net = _chained_gates(seed)
        for k in (3, 4, 6):
            want, rounds[seed, k] = _reference_supports(net, k)
            assert _packed_supports(net, k) == want, (seed, k)
    # most networks promote gates, some over three rounds or more
    assert sum(r >= 2 for r in rounds.values()) > 100
    assert sum(r >= 3 for r in rounds.values()) > 10


def _not_chain(length, every_gate_a_po):
    """`length` chained NOT gates from the PI x to the PO g0: gate gi reads
    g(i+1), and the last one reads x. So a walk from g0, the first root
    in name order, goes down the whole chain. Returns the network and
    the gate names, g0 first."""
    g = bench.GateNetwork("not_chain")
    g.pi("x")
    chain = ["g%d" % i for i in range(length)]
    for i in range(length):
        g.gate("NOT", chain[i + 1] if i + 1 < length else "x")
    for net in chain if every_gate_a_po else chain[:1]:
        g.po(net)
    return g, chain


def test_packer_takes_chains_deeper_than_the_recursion_limit():
    # one root absorbs the whole chain: an even number of NOTs is a buffer
    net, chain = _not_chain(1500, every_gate_a_po=False)
    packed = bench.pack_to_luts(net, 4)
    assert [(n.output_net, n.fanins, n.function) for n in packed.nodes.values()] \
        == [("g0", ["x"], TruthTable(1, 0b10))]
    # every gate a root: one inverter LUT per gate, each after its fanin
    net, chain = _not_chain(1500, every_gate_a_po=True)
    packed = bench.pack_to_luts(net, 4)
    assert [n.output_net for n in packed.nodes.values()] == chain[::-1]
    assert [n.fanins for n in packed.nodes.values()] == [["x"]] + [[g] for g in chain[:0:-1]]
    assert all(n.function == TruthTable(1, 0b01) for n in packed.nodes.values())
    for x in (0, 1):
        out = simulate(packed, {"x": x})
        assert [out[g] for g in chain] == [x ^ (len(chain) - i) % 2 for i in range(len(chain))]


def test_random_netlist_determinism():
    a = random_netlist(9, num_pis=6, num_nodes=20, k=4, num_pos=3)
    b = random_netlist(9, num_pis=6, num_nodes=20, k=4, num_pos=3)
    from sllresub.netlist import write_blif
    assert write_blif(a) == write_blif(b)


def test_gate_network_errors():
    g = bench.GateNetwork("t")
    a = g.pi("a")
    with pytest.raises(ValueError):
        g.gate("AND", a)
    with pytest.raises(KeyError):
        bench.gate_network("nonesuch")
    with pytest.raises(ValueError):
        bench.pack_to_luts(bench.gate_network("voter"), 2)


# Builds voter at k=4 and resynthesizes it in memory (hash partition on 2
# dies); prints the node (id, net) list and the report.
_HASH_SEED_PROBE = """
import json
from sllresub import bench
from sllresub.partition import partition_hash
from sllresub.resynth import ResynConfig, resynthesize
n = bench.build("voter", 4)
ids = [(node.id, node.output_net) for node in n.nodes.values()]
report = resynthesize(n, partition_hash(n, 2), ResynConfig()).report
print(json.dumps({"ids": ids, "report": report.to_dict()}))
"""


def test_in_memory_netlists_do_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sllresub.__file__)))
    runs = []
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _HASH_SEED_PROBE], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        runs.append(json.loads(out.stdout))
    assert runs[0]["report"]["commits"] > 0
    for run in runs[1:]:
        assert run["ids"] == runs[0]["ids"]
        assert run["report"] == runs[0]["report"]
