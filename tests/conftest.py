import random

import pytest

from sllresub.netlist import Netlist, NetlistError, eval_nodes, parse_blif
from sllresub.partition import DieAssignment
from sllresub.truthtab import TruthTable, full_mask

DEMO_BLIF = """\
.model twodie_xor
.inputs a b c d
.outputs Y F
.names a b X
10 1
01 1
.names X c Y
10 1
01 1
.names a d F
10 1
01 1
.end
"""

CARE_BLIF = """\
.model twodie_xor_care
.inputs b c
.outputs care
.names b c care
00 1
11 1
.end
"""

# Care predicates the demo must refuse: one with a second output, and one
# whose input names the demo's internal net X.
BAD_CARE = {
    "two_outputs": ".model p\n.inputs b c\n.outputs care other\n"
                   ".names b c care\n00 1\n11 1\n.names b other\n1 1\n.end\n",
    "internal_input": ".model p\n.inputs X\n.outputs care\n.names X care\n0 1\n.end\n",
}

# A netlist with no LUT or latch: its one PI is its PO. No partition mode
# takes it, since every die weight would be zero.
NO_LOGIC_BLIF = ".model t\n.inputs a\n.outputs a\n.end\n"

# Two latches in a row: d1 = a, d2 = q1, o = q2, so o(t) = a(t-2).
LATCH_PAIR_BLIF = (".model seq\n.inputs a\n.outputs o\n"
                   ".latch d1 q1 0\n.latch d2 q2 0\n"
                   ".names a d1\n1 1\n.names q1 d2\n1 1\n.names q2 o\n1 1\n.end\n")

# Netlists with the same combinational logic and the same latch input and
# output names as LATCH_PAIR_BLIF that are not equivalent to it: one pairs
# the latches the other way round (o(t) = a(t-1)), one starts q1 at 1.
LATCH_MISMATCH_BLIF = {
    "swapped_pairs": LATCH_PAIR_BLIF.replace(".latch d1 q1 0\n.latch d2 q2 0\n",
                                             ".latch d1 q2 0\n.latch d2 q1 0\n"),
    "init_value": LATCH_PAIR_BLIF.replace(".latch d1 q1 0\n", ".latch d1 q1 1\n"),
}

# Pivot truth table rows in (a, b, c, d) order: X, Y, original F, rebuilt
# F' = Y xor d, and the care flag (b == c). The reference grid every
# demo-circuit test checks against.
TABLE2 = [
    # a  b  c  d   X  Y  F  F' care
    (0, 0, 0, 0,   0, 0, 0, 0, 1),
    (0, 0, 0, 1,   0, 0, 1, 1, 1),
    (0, 0, 1, 0,   0, 1, 0, 1, 0),
    (0, 0, 1, 1,   0, 1, 1, 0, 0),
    (0, 1, 0, 0,   1, 1, 0, 1, 0),
    (0, 1, 0, 1,   1, 1, 1, 0, 0),
    (0, 1, 1, 0,   1, 0, 0, 0, 1),
    (0, 1, 1, 1,   1, 0, 1, 1, 1),
    (1, 0, 0, 0,   1, 1, 1, 1, 1),
    (1, 0, 0, 1,   1, 1, 0, 0, 1),
    (1, 0, 1, 0,   1, 0, 1, 0, 0),
    (1, 0, 1, 1,   1, 0, 0, 1, 0),
    (1, 1, 0, 0,   0, 0, 1, 0, 0),
    (1, 1, 0, 1,   0, 0, 0, 1, 0),
    (1, 1, 1, 0,   0, 1, 1, 1, 1),
    (1, 1, 1, 1,   0, 1, 0, 0, 1),
]


@pytest.fixture
def demo_netlist():
    return parse_blif(DEMO_BLIF)


@pytest.fixture
def demo_assignment():
    return DieAssignment(
        2,
        {"a": 0, "b": 0, "c": 1, "d": 1, "X": 0, "Y": 1, "F": 1},
        {"a": 0, "b": 0, "c": 0, "d": 0, "X": 1, "Y": 1, "F": 1},
    )


@pytest.fixture
def demo_care():
    return parse_blif(CARE_BLIF)


# Cone helpers of the window references in test_incremental.py, and the
# whole-netlist evaluators of the reference checks; the program itself
# walks cones inside build_window and evaluates only what it compares.

def tfi(netlist, nid, depth_limit=None):
    """Node ids in the transitive fanin of node `nid`, BFS-bounded by `depth_limit`.

    PIs and latch outputs end the walk; the node itself is excluded.
    depth_limit=0 yields the empty set.
    """
    out = set()
    frontier = [nid]
    depth = 0
    while frontier and (depth_limit is None or depth < depth_limit):
        depth += 1
        nxt = []
        for cur in frontier:
            for f in netlist.nodes[cur].fanins:
                drv = netlist.node_of_net(f)
                if drv is not None and drv.id not in out and drv.id != nid:
                    out.add(drv.id)
                    nxt.append(drv.id)
        frontier = nxt
    return out


def cone_input_nets(netlist, node_ids):
    """Nets feeding the node set from outside it, sorted by name."""
    inner = {netlist.nodes[n].output_net for n in node_ids}
    return sorted({f for n in node_ids for f in netlist.nodes[n].fanins if f not in inner})


def eval_netlist(netlist, source_masks, width):
    """Bit-parallel evaluation of every net from PI/latch-output masks."""
    full = full_mask(width)
    values = {}
    for net in netlist.source_nets():
        if net not in source_masks:
            raise NetlistError("missing assignment for input %r" % net)
        values[net] = source_masks[net] & full
    eval_nodes(netlist.topological_order(), values, width)
    return values


def simulate(netlist, assignment):
    """Single-vector simulation: PI/latch-output bits in, PO/latch-input bits out."""
    values = eval_netlist(netlist, {net: 1 if v else 0 for net, v in assignment.items()}, 1)
    return {net: values[net] & 1 for net in netlist.sink_nets()}


# Random netlists of the property tests; the program never builds one.

def random_netlist(seed: int, num_pis: int = 8, num_nodes: int = 30, k: int = 4,
                   num_pos: int = 4, num_latches: int = 0) -> Netlist:
    """Seeded random k-LUT DAG for property tests."""
    rng = random.Random(seed)
    n = Netlist("rand%d" % seed, k)
    pool = []
    for i in range(num_pis):
        n.add_input("pi%d" % i)
        pool.append("pi%d" % i)
    for i in range(num_latches):
        pool.append("lq%d" % i)
    for i in range(num_nodes):
        nf = rng.randint(1, min(k, len(pool)))
        fanins = rng.sample(pool, nf)
        bits = rng.getrandbits(1 << nf)
        n.add_node("n%d" % i, fanins, TruthTable(nf, bits))
        pool.append("n%d" % i)
    node_nets = ["n%d" % i for i in range(num_nodes)]
    for i in range(num_latches):
        n.add_latch(rng.choice(node_nets), "lq%d" % i, "0")
    for net in rng.sample(node_nets, min(num_pos, len(node_nets))):
        n.add_output(net)
    n.validate()
    return n
