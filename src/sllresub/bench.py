"""Benchmark netlist generators for tests and demos.

Circuits named after the usual EPFL/MCNC suspects are synthesized from
2-input gate networks and packed into k-LUTs by a greedy single-fanout
cone packer, so the same function maps to different granularities for
k=4/5/6. The builders intentionally skip common-subexpression sharing
across blocks (like a mapper that duplicated logic), which leaves the
redundancy that resubstitution feeds on in real netlists.

Each gate op is a `TruthTable`, so the packer tabulates a LUT by one
bit-parallel pass of `TruthTable.eval_masks` over the cluster's gates,
fed the `minterm_masks` of the LUT's support.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .netlist import Netlist
from .truthtab import TruthTable, minterm_masks

_OPS = {
    "CONST0": TruthTable(0, 0),
    "CONST1": TruthTable(0, 1),
    "BUF": TruthTable(1, 0b10),
    "NOT": TruthTable(1, 0b01),
    "AND": TruthTable(2, 0b1000),
    "OR": TruthTable(2, 0b1110),
    "XOR": TruthTable(2, 0b0110),
    "NAND": TruthTable(2, 0b0111),
    "NOR": TruthTable(2, 0b0001),
    "XNOR": TruthTable(2, 0b1001),
    "ANDN": TruthTable(2, 0b0010),   # a & ~b
    "MUX": TruthTable(3, 0b11001010),  # s ? a : b  (inputs: b, a, s)
    "MAJ": TruthTable(3, 0b11101000),
}


@dataclass
class GateNetwork:
    """2-input-ish gate DAG; the staging form every generator builds."""

    name: str
    inputs: list[str] = field(default_factory=list)
    gates: dict[str, tuple[str, tuple[str, ...]]] = field(default_factory=dict)
    outputs: list[tuple[str, str]] = field(default_factory=list)   # (po name == net)
    latches: list[tuple[str, str]] = field(default_factory=list)   # (d net, q net)
    _n: int = 0

    def pi(self, name: str) -> str:
        self.inputs.append(name)
        return name

    def pis(self, prefix: str, n: int) -> list[str]:
        return [self.pi("%s%d" % (prefix, i)) for i in range(n)]

    def gate(self, op: str, *ins: str) -> str:
        arity = _OPS[op].num_inputs
        if len(ins) != arity:
            raise ValueError("%s expects %d inputs" % (op, arity))
        name = "g%d" % self._n
        self._n += 1
        self.gates[name] = (op, tuple(ins))
        return name

    def const(self, value: int) -> str:
        return self.gate("CONST1" if value else "CONST0")

    def po(self, net: str):
        self.outputs.append((net, net))

    def latch(self, d_net: str, q_name: str) -> str:
        self.latches.append((d_net, q_name))
        return q_name

    # -- helpers used by the circuit builders ---------------------------

    def and_(self, a, b):
        return self.gate("AND", a, b)

    def or_(self, a, b):
        return self.gate("OR", a, b)

    def xor(self, a, b):
        return self.gate("XOR", a, b)

    def xnor(self, a, b):
        return self.gate("XNOR", a, b)

    def not_(self, a):
        return self.gate("NOT", a)

    def mux(self, s, a, b):
        """s ? a : b"""
        return self.gate("MUX", b, a, s)

    def maj(self, a, b, c):
        return self.gate("MAJ", a, b, c)

    def reduce_(self, op: str, nets: list[str]) -> str:
        acc = nets[0]
        for n in nets[1:]:
            acc = self.gate(op, acc, n)
        return acc


def pack_to_luts(net: GateNetwork, k: int) -> Netlist:
    """Greedy cone packing of a gate network into k-input LUTs.

    Roots: PO/latch drivers and multi-fanout gates. Each root absorbs its
    single-fanout gate fanins while the merged support stays within k.
    """
    if k < 3:
        raise ValueError("LUT size below 3 cannot host the gate primitives")
    fanout: dict[str, int] = {g: 0 for g in net.gates}
    for _g, (_op, ins) in net.gates.items():
        for i in ins:
            if i in fanout:
                fanout[i] += 1
    for po, _net in net.outputs:
        if po in fanout:
            fanout[po] += 1
    for d, _q in net.latches:
        if d in fanout:
            fanout[d] += 1

    sources = set(net.inputs) | {q for _d, q in net.latches}
    observable = {po for po, _ in net.outputs} | {d for d, _ in net.latches}
    roots = {g for g in net.gates if g in observable or fanout[g] != 1}

    def grow(root: str) -> list[str]:
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

    # A gate left on some cluster's support must emit its own LUT: promote
    # such gates to roots and grow them, until the root set closes. Only
    # the new roots are grown: a promoted gate has one reader and no
    # cluster absorbed it, so no grown cluster changes when it is excluded.
    supports: dict[str, list[str]] = {}
    grown = roots
    while grown:
        for root in grown:
            supports[root] = grow(root)
        grown = {s for root in grown for s in supports[root]
                 if s in net.gates and s not in roots}
        roots |= grown

    out = Netlist(net.name, max(k, 3))
    for name in net.inputs:
        out.add_input(name)
    for po, _net_name in net.outputs:
        out.add_output(po)
    for d, q in net.latches:
        out.add_latch(d, q, "0")

    # LUTs in post-order of a depth-first walk over the roots' supports,
    # with an explicit stack so that long chains do not hit the recursion limit
    order: list[str] = []
    seen = set()
    for root in sorted(roots):
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(supports[root]))]
        while stack:
            g, rest = stack[-1]
            for s in rest:
                if s not in sources and s not in seen and s in supports:
                    seen.add(s)
                    stack.append((s, iter(supports[s])))
                    break
            else:
                stack.pop()
                order.append(g)
    for root in order:
        support = supports[root]
        values = minterm_masks(support)
        width = 1 << len(support)
        # Every cluster gate but the root has one reader, in the cluster, so
        # the cluster is a tree: found from the root down, each gate once,
        # and tabulated in the reverse order, after its fanins.
        cluster = [root]
        for g in cluster:
            for i in net.gates[g][1]:
                if i not in values:
                    cluster.append(i)
        for g in reversed(cluster):
            op, ins = net.gates[g]
            values[g] = _OPS[op].eval_masks([values[i] for i in ins], width)
        out.add_node(root, list(support), TruthTable(len(support), values[root]))
    out.validate()
    return out


# ----------------------------------------------------------------------
# arithmetic / control building blocks


def _adder(b: GateNetwork, xs, ys, cin=None):
    """Ripple-carry add; returns (sum bits, carry out)."""
    sums = []
    c = cin
    for x, y in zip(xs, ys):
        p = b.xor(x, y)
        g = b.and_(x, y)
        if c is None:
            sums.append(p)
            c = g
        else:
            sums.append(b.xor(p, c))
            c = b.or_(g, b.and_(p, c))
    return sums, c


def _subtract(b: GateNetwork, xs, ys):
    """xs - ys; returns (difference bits, borrow out)."""
    diff = []
    brw = None
    for x, y in zip(xs, ys):
        d = b.xor(x, y)
        bo = b.gate("ANDN", y, x)           # y & ~x
        if brw is not None:
            bo = b.or_(bo, b.gate("ANDN", brw, d))
            d = b.xor(d, brw)
        diff.append(d)
        brw = bo
    return diff, brw


def _greater_equal(b: GateNetwork, xs, ys) -> str:
    """xs >= ys, MSB-last bit lists."""
    ge = b.const(1)
    for x, y in zip(xs, ys):  # LSB to MSB; later bits dominate
        eq = b.xnor(x, y)
        gt = b.gate("ANDN", x, y)
        ge = b.or_(gt, b.and_(eq, ge))
    return ge


def _mux_bus(b: GateNetwork, s, ones, zeros):
    return [b.mux(s, o, z) for o, z in zip(ones, zeros)]


def _decoder(b: GateNetwork, addr, en=None):
    """One-hot decode of the address bits."""
    hots = []
    for v in range(1 << len(addr)):
        bits = [a if (v >> i) & 1 else b.not_(a) for i, a in enumerate(addr)]
        hot = b.reduce_("AND", bits if en is None else bits + [en])
        hots.append(hot)
    return hots


def _priority_grants(b: GateNetwork, reqs):
    """grant_i = req_i & none of req_0..req_{i-1}."""
    grants = [reqs[0]]
    blocked = reqs[0]
    for r in reqs[1:]:
        grants.append(b.gate("ANDN", r, blocked))
        blocked = b.or_(blocked, r)
    return grants, blocked


def _encode_onehot(b: GateNetwork, hots):
    """Binary index of the active one-hot line."""
    width = max(1, (len(hots) - 1).bit_length())
    out = []
    for j in range(width):
        ins = [h for i, h in enumerate(hots) if (i >> j) & 1]
        out.append(b.reduce_("OR", ins) if ins else b.const(0))
    return out


def _barrel_shift_left(b: GateNetwork, data, amt):
    """Shift data left by the binary amount, zero fill."""
    cur = list(data)
    zero = b.const(0)
    for j, s in enumerate(amt):
        step = 1 << j
        shifted = [zero] * min(step, len(cur)) + cur[:-step] if step < len(cur) \
            else [zero] * len(cur)
        cur = _mux_bus(b, s, shifted, cur)
    return cur


def _multiplier_rows(b: GateNetwork, xs, ys):
    """Array multiply via ripple-added partial product rows."""
    acc = [b.and_(x, ys[0]) for x in xs]
    result = [acc[0]]
    for y in ys[1:]:
        row = [b.and_(x, y) for x in xs]
        high = acc[1:] + [b.const(0)]
        summed, cout = _adder(b, high, row)
        acc = summed + [cout]
        result.append(acc[0])
    return result + acc[1:]


def _lfsr_like_mix(b: GateNetwork, bits, rounds, salt):
    """Cheap bijective-ish mixing rounds used by the control circuits."""
    cur = list(bits)
    n = len(cur)
    for r in range(rounds):
        nxt = []
        for i in range(n):
            a = cur[i]
            c = cur[(i + 1 + r) % n]
            d = cur[(i + 3 + salt) % n]
            nxt.append(b.xor(a, b.and_(c, d)) if (i + r) % 3 else b.xor(a, b.or_(c, d)))
        cur = nxt
    return cur


def _random_control(b: GateNetwork, pool, n_gates, seed, dup_rate=0.15):
    """Seeded random control logic with occasional duplicated subtrees."""
    rng = random.Random(seed)
    ops = ["AND", "OR", "XOR", "NAND", "NOR", "XNOR", "ANDN"]
    made = []
    recipes = {}
    for _ in range(n_gates):
        if made and rng.random() < dup_rate:
            # re-derive an earlier gate from its own recipe: a duplicate
            # computation the way separate mapping passes leave them
            src = rng.choice(made)
            op, ins = recipes[src]
            g = b.gate(op, *ins)
        else:
            op = rng.choice(ops)
            ins = tuple(rng.choice(pool + made[-12:]) for _ in range(2))
            g = b.gate(op, *ins)
            recipes[g] = (op, ins)
            made.append(g)
            continue
        recipes[g] = recipes[src]
        made.append(g)
    return made


# ----------------------------------------------------------------------
# named circuits


def _voter(b: GateNetwork):
    xs = b.pis("x", 9)
    channels = []
    for _rep in range(3):  # triplicated channels over the same inputs
        t = [b.xor(xs[i], xs[(i + 1) % 9]) for i in range(9)]
        u = [b.xor(t[i], b.and_(xs[(i + 4) % 9], t[(i + 2) % 9])) for i in range(9)]
        channels.append(u)
    for i in range(9):
        b.po(b.maj(channels[0][i], channels[1][i], channels[2][i]))


def _multiplier(b: GateNetwork):
    xs = b.pis("x", 7)
    ys = b.pis("y", 7)
    for bit in _multiplier_rows(b, xs, ys):
        b.po(bit)


def _square(b: GateNetwork):
    xs = b.pis("x", 8)
    # the naive generator recomputes symmetric partial products
    for bit in _multiplier_rows(b, xs, list(xs)):
        b.po(bit)


def _max(b: GateNetwork):
    xs = b.pis("a", 8)
    ys = b.pis("b", 8)
    ge = _greater_equal(b, xs, ys)
    for o in _mux_bus(b, ge, xs, ys):
        b.po(o)
    b.po(ge)


def _div(b: GateNetwork):
    xs = b.pis("n", 6)
    ds = b.pis("d", 3)
    zero = b.const(0)
    dsx = ds + [zero]                     # divisor widened so the shift never overflows
    rem = [zero] * 4
    qs = []
    for i in reversed(range(6)):          # restoring division, MSB first
        rem = [xs[i]] + rem[:3]
        ge = _greater_equal(b, rem, dsx)
        sub, _ = _subtract(b, rem, dsx)
        rem = _mux_bus(b, ge, sub, rem)
        qs.append(ge)
    for q in reversed(qs):
        b.po(q)
    for r in rem[:3]:
        b.po(r)


def _sqrt(b: GateNetwork):
    xs = b.pis("x", 8)
    root = []
    rem = list(xs)
    for step in reversed(range(4)):  # digit-recurrence on the remainder
        trial = [b.const(0)] * 8
        trial[2 * step] = b.const(1)
        for j, r in enumerate(root):
            pos = step + 3 - j
            if pos < 8:
                trial[pos] = r
        ge = _greater_equal(b, rem, trial)
        sub, _ = _subtract(b, rem, trial)
        rem = _mux_bus(b, ge, sub, rem)
        root = [ge] + root
    for r in root:
        b.po(r)
    for r in rem[:4]:
        b.po(r)


def _log2(b: GateNetwork):
    xs = b.pis("x", 12)
    hots, _blocked = _priority_grants(b, list(reversed(xs)))
    exp = _encode_onehot(b, list(reversed(hots)))
    for e in exp:
        b.po(e)
    inv = [b.not_(e) for e in exp]
    frac = _barrel_shift_left(b, xs, inv[:3])
    for f in frac[-6:]:
        b.po(f)


def _sin(b: GateNetwork):
    xs = b.pis("x", 6)
    sq = _multiplier_rows(b, xs, list(xs))[6:]     # x^2 high half
    corr = _multiplier_rows(b, sq[:4], xs[:4])[4:]  # x^2 * x high-ish half
    base = xs + [b.const(0)] * 2
    diff, _ = _subtract(b, base[:6], (corr + [b.const(0)] * 6)[:6])
    for d in diff:
        b.po(d)


def _int2float(b: GateNetwork):
    xs = b.pis("x", 8)
    hots, any_set = _priority_grants(b, list(reversed(xs)))
    lzc = _encode_onehot(b, hots)
    mant = _barrel_shift_left(b, xs, lzc)
    for m in mant[-4:]:
        b.po(m)
    for e in lzc:
        b.po(e)
    b.po(any_set)


def _priority(b: GateNetwork):
    reqs = b.pis("r", 16)
    grants, valid = _priority_grants(b, reqs)
    for g in grants:
        b.po(g)
    b.po(valid)


def _dec(b: GateNetwork):
    addr = b.pis("a", 5)
    en = b.pi("en")
    for hot in _decoder(b, addr, en):
        b.po(hot)


def _ctrl(b: GateNetwork):
    op = b.pis("op", 4)
    flags = b.pis("f", 4)
    hots = _decoder(b, op)
    groups = [
        (0, 3, 5, 9), (1, 2, 12, 15), (4, 6, 8, 10), (7, 11, 13, 14),
        (0, 1, 2, 3), (12, 13, 14, 15), (5, 6, 9, 10),
    ]
    for gi, grp in enumerate(groups):
        sel = b.reduce_("OR", [hots[i] for i in grp])
        gated = b.and_(sel, flags[gi % 4])
        b.po(b.xor(gated, flags[(gi + 1) % 4]) if gi % 2 else b.or_(gated, b.and_(flags[(gi + 2) % 4], sel)))


def _router(b: GateNetwork):
    data = [b.pis("d%d_" % p, 4) for p in range(2)]
    sel = b.pis("s", 2)
    hots = _decoder(b, sel)
    for out_port in range(2):
        for bit in range(4):
            picked = b.or_(b.and_(hots[out_port * 2], data[0][bit]),
                           b.and_(hots[out_port * 2 + 1], data[1][bit]))
            b.po(picked)
    b.po(b.reduce_("OR", hots[:2]))


def _arbiter(b: GateNetwork):
    reqs = b.pis("r", 10)
    mask = b.pis("m", 4)
    masked = [b.and_(r, mask[i % 4]) for i, r in enumerate(reqs)]
    g1, any1 = _priority_grants(b, masked)
    g2, _any2 = _priority_grants(b, reqs)   # fallback chain over the same requests
    no1 = b.not_(any1)
    for a, fallback in zip(g1, g2):
        b.po(b.or_(a, b.and_(no1, fallback)))
    b.po(any1)


def _cavlc(b: GateNetwork):
    pis = b.pis("x", 10)
    mixed = _lfsr_like_mix(b, pis, 2, salt=1)
    made = _random_control(b, mixed, 60, seed=0xCA)
    for g in made[-12:]:
        b.po(g)


def _i2c(b: GateNetwork):
    pis = b.pis("x", 14)
    mixed = _lfsr_like_mix(b, pis, 2, salt=3)
    made = _random_control(b, mixed, 110, seed=0x12C)
    for g in made[-16:]:
        b.po(g)


def _mem_ctrl(b: GateNetwork):
    addr = b.pis("a", 6)
    reqs = b.pis("r", 6)
    datap = b.pis("w", 8)
    banks = _decoder(b, addr[:3])
    grants, _v = _priority_grants(b, reqs)
    made = _random_control(b, banks + grants + datap + addr[3:], 150, seed=0xEC)
    for hot, g in zip(banks, grants):
        b.po(b.and_(hot, g))
    for g in made[-18:]:
        b.po(g)


def _bar(b: GateNetwork):
    data = b.pis("d", 8)
    amt = b.pis("s", 3)
    for o in _barrel_shift_left(b, data, amt):
        b.po(o)


def _adder_bench(b: GateNetwork):
    xs = b.pis("a", 9)
    ys = b.pis("b", 9)
    sums, c = _adder(b, xs, ys)
    for s in sums:
        b.po(s)
    b.po(c)


_EPFL_BUILDERS = {
    "int2float": _int2float,
    "ctrl": _ctrl,
    "router": _router,
    "cavlc": _cavlc,
    "priority": _priority,
    "dec": _dec,
    "i2c": _i2c,
    "arbiter": _arbiter,
    "mem_ctrl": _mem_ctrl,
    "sin": _sin,
    "max": _max,
    "square": _square,
    "sqrt": _sqrt,
    "multiplier": _multiplier,
    "log2": _log2,
    "div": _div,
    "voter": _voter,
    "bar": _bar,
    "adder": _adder_bench,
}


def _bigkey_like(b: GateNetwork):
    xs = b.pis("k", 10)
    qs = [b.latch("tmp%d_d" % i, "q%d" % i) for i in range(6)]
    mixed = _lfsr_like_mix(b, xs[:6], 1, salt=2)
    nxt = [b.xor(m, q) for m, q in zip(mixed, qs)]
    for i, n in enumerate(nxt):
        b.gates["tmp%d_d" % i] = ("BUF", (n,))
    for q, x in zip(qs, xs[4:]):
        b.po(b.xor(q, x))


def _diffeq_like(b: GateNetwork):
    xs = b.pis("u", 6)
    ys = b.pis("v", 6)
    qs = [b.latch("acc%d_d" % i, "s%d" % i) for i in range(6)]
    prod = _multiplier_rows(b, xs[:3], ys[:3])
    term = prod + qs[len(prod):]
    sums, _c = _adder(b, qs, term[:6])
    for i, s in enumerate(sums):
        b.gates["acc%d_d" % i] = ("BUF", (s,))
    for s in sums[:4]:
        b.po(s)


def _tseng_like(b: GateNetwork):
    xs = b.pis("p", 8)
    qs = [b.latch("st%d_d" % i, "t%d" % i) for i in range(4)]
    grants, valid = _priority_grants(b, xs[:6])
    mix = [b.xor(g, q) for g, q in zip(grants, qs + qs[:2])]
    for i in range(4):
        b.gates["st%d_d" % i] = ("MUX", (qs[i], mix[i], valid))
    for m in mix[4:]:
        b.po(m)
    for q in qs[:2]:
        b.po(b.and_(q, xs[6]))


_MCNC_BUILDERS = {
    "bigkey_like": _bigkey_like,
    "diffeq_like": _diffeq_like,
    "tseng_like": _tseng_like,
}

EPFL_NAMES = tuple(sorted(_EPFL_BUILDERS))
MCNC_NAMES = tuple(sorted(_MCNC_BUILDERS))
BENCH_NAMES = EPFL_NAMES + MCNC_NAMES


def gate_network(name: str) -> GateNetwork:
    builders = {**_EPFL_BUILDERS, **_MCNC_BUILDERS}
    if name not in builders:
        raise KeyError("unknown benchmark %r (choose from %s)" % (name, sorted(builders)))
    b = GateNetwork(name)
    builders[name](b)
    return b


def build(name: str, lut_k: int = 4) -> Netlist:
    """Named benchmark mapped to k-input LUTs."""
    return pack_to_luts(gate_network(name), lut_k)

