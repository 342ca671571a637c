"""LUT-level netlists: BLIF parsing/writing, traversal, and simulation.

A netlist is a DAG of k-input LUT nodes plus opaque latch elements.
Latches act as sequential boundaries everywhere: a latch output is a
pseudo primary input and a latch input is a pseudo primary output for
all combinational analyses. Node levels are computed on the first
`levels()` call and from then on kept current by every edit, so the
mutation helpers used by resubstitution (`replace_node`, `sweep_dead`)
cost time in proportion to the logic they touch. Edits require exclusive
access (no internal locking).

Each structural fact has one index: `reader_ids` holds the LUTs reading
a net, and the PO, latch-reader and source indexes stay private behind
`has_driver`, `is_sink` (a PO or a latch input reads the net) and
`reader_names` (the LUT readers, then the latch readers). `level_order`
is the one (level, id) order, the tie-break of every topological walk.

A LUT's shape (arity, `k_max`, distinct fanins) and each net's single
driver are checked once, where the LUT or driver enters (`add_node`,
`replace_node`, `add_input`, `add_latch`); `copy` enters its already
checked nodes unchecked. `validate` checks what construction cannot, as
a net may be read before it is driven: a driver for every LUT fanin, PO
and latch input, and no combinational cycle.
"""

from __future__ import annotations

import heapq
import io
from collections import deque
from dataclasses import dataclass

from .truthtab import TruthTable, cover_to_table, table_to_cover

DEFAULT_K_MAX = 6
# the largest k_max: resynthesis tabulates each rewritten LUT's function
# over its support of at most k_max nets, and no support wider than this
MAX_K = 16


class NetlistError(Exception):
    pass


class BlifParseError(NetlistError):
    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = "line %d: %s" % (line_no, message)
        super().__init__(message)
        self.line_no = line_no


@dataclass
class LutNode:
    """One LUT. `fanins[i]` is input i of `function` (i = LSB of the minterm)."""

    id: int
    output_net: str
    fanins: list[str]
    function: TruthTable


@dataclass
class LatchElement:
    input_net: str
    output_net: str
    init_value: str = "unknown"  # '0' | '1' | 'unknown'


class Netlist:
    def __init__(self, model_name: str = "top", k_max: int = DEFAULT_K_MAX):
        if k_max > MAX_K:
            raise NetlistError("k_max must be <= %d (got %d): wider supports are "
                               "not tabulated" % (MAX_K, k_max))
        self.model_name = model_name
        self.k_max = k_max
        self.primary_inputs: list[str] = []
        self.primary_outputs: list[str] = []
        # in id order: `add_node` appends increasing ids and `_unlink` only deletes
        self.nodes: dict[int, LutNode] = {}
        self.latches: list[LatchElement] = []
        self._next_id = 0
        self._node_of_net: dict[str, int] = {}
        self._sources: set[str] = set()     # PIs and latch outputs
        self._pos: set[str] = set()
        # net -> output nets of the latches reading it, in latch index order
        self._latch_readers: dict[str, list[str]] = {}
        # net -> ids of the LUTs reading it, in id order; read-only outside
        # this class, and a net nobody reads may be absent
        self.reader_ids: dict[str, list[int]] = {}
        self._level: dict[int, int] | None = None   # built by the first levels() call

    # ------------------------------------------------------------------
    # construction

    def _check_new_driver(self, net: str):
        if self.has_driver(net):
            raise NetlistError("net %r has multiple drivers" % net)

    def _check_lut(self, output_net: str, fanins: list[str], function: TruthTable):
        """Raise NetlistError unless `fanins` and `function` form a valid LUT."""
        if len(fanins) != function.num_inputs:
            raise NetlistError("node %r: %d fanins but %d-input function"
                               % (output_net, len(fanins), function.num_inputs))
        if len(fanins) > self.k_max:
            raise NetlistError("node %r has %d fanins, exceeds k_max=%d"
                               % (output_net, len(fanins), self.k_max))
        if len(set(fanins)) != len(fanins):
            raise NetlistError("node %r has duplicate fanins" % output_net)

    def add_input(self, name: str):
        self._check_new_driver(name)
        self.primary_inputs.append(name)
        self._sources.add(name)

    def add_output(self, name: str):
        if name in self._pos:
            raise NetlistError("output %r declared twice" % name)
        self.primary_outputs.append(name)
        self._pos.add(name)

    def add_node(self, output_net: str, fanins: list[str], function: TruthTable) -> LutNode:
        self._check_new_driver(output_net)
        self._check_lut(output_net, fanins, function)
        return self._link(output_net, list(fanins), function)

    def _link(self, output_net: str, fanins: list[str], function: TruthTable) -> LutNode:
        """Enter a checked LUT under the next id; the counterpart of `_unlink`."""
        node = LutNode(self._next_id, output_net, fanins, function)
        self._next_id += 1
        self.nodes[node.id] = node
        self._node_of_net[output_net] = node.id
        for f in fanins:
            self.reader_ids.setdefault(f, []).append(node.id)
        if self._level is not None:
            self._relevel(node.id)
        return node

    def add_latch(self, input_net: str, output_net: str, init_value: str = "unknown") -> LatchElement:
        self._check_new_driver(output_net)
        if init_value not in ("0", "1", "unknown"):
            raise NetlistError("bad latch init value %r" % init_value)
        latch = LatchElement(input_net, output_net, init_value)
        self.latches.append(latch)
        self._sources.add(output_net)
        self._latch_readers.setdefault(input_net, []).append(output_net)
        return latch

    # ------------------------------------------------------------------
    # lookup

    def has_driver(self, net: str) -> bool:
        """True when a PI, a LUT or a latch drives `net`."""
        return net in self._node_of_net or net in self._sources

    def is_sink(self, net: str) -> bool:
        """True when a PO or a latch input reads `net`."""
        return net in self._pos or net in self._latch_readers

    def reader_names(self, net: str) -> list[str]:
        """Output nets of the LUTs reading `net` in id order, then of the
        latches reading it in index order."""
        nodes = self.nodes
        return ([nodes[r].output_net for r in self.reader_ids.get(net, ())]
                + self._latch_readers.get(net, []))

    def node_of_net(self, net: str) -> LutNode | None:
        nid = self._node_of_net.get(net)
        return self.nodes[nid] if nid is not None else None

    def lut_count(self) -> int:
        return len(self.nodes)

    def source_nets(self) -> list[str]:
        """Combinational sources: PIs then latch outputs, in declaration order."""
        return list(self.primary_inputs) + [l.output_net for l in self.latches]

    def sink_nets(self) -> list[str]:
        """Combinational sinks: POs then latch inputs, in declaration order."""
        return list(self.primary_outputs) + [l.input_net for l in self.latches]

    # ------------------------------------------------------------------
    # validation / ordering

    def validate(self):
        """Raise NetlistError unless every LUT fanin, PO and latch input
        has a driver and the LUTs form no combinational cycle. LUT shape
        and single drivers were checked as they entered."""
        for node in self.nodes.values():
            for f in node.fanins:
                if not self.has_driver(f):
                    raise NetlistError("net %r used by %r has no driver" % (f, node.output_net))
        for po in self.primary_outputs:
            if not self.has_driver(po):
                raise NetlistError("primary output %r has no driver" % po)
        for latch in self.latches:
            if not self.has_driver(latch.input_net):
                raise NetlistError("latch input %r has no driver" % latch.input_net)
        self.levels()  # raises on combinational cycles

    def levels(self) -> dict[int, int]:
        """Topological level per node id (longest path from a source).

        The returned dict is live: later edits update it in place.
        """
        if self._level is None:
            self._level = self._levels_from_scratch()
        return self._level

    def _levels_from_scratch(self) -> dict[int, int]:
        indeg = {nid: sum(1 for f in node.fanins if f in self._node_of_net)
                 for nid, node in self.nodes.items()}
        ready = deque(nid for nid, d in indeg.items() if d == 0)
        level: dict[int, int] = {}
        while ready:
            nid = ready.popleft()
            node = self.nodes[nid]
            level[nid] = self._fanin_level(node, level)
            for rid in self.reader_ids.get(node.output_net, ()):
                indeg[rid] -= 1
                if indeg[rid] == 0:
                    ready.append(rid)
        if len(level) != len(self.nodes):
            stuck = sorted(self.nodes[n].output_net for n, d in indeg.items() if d > 0)
            raise NetlistError("combinational cycle through: %s" % ", ".join(stuck[:8]))
        return level

    def _fanin_level(self, node: LutNode, level: dict[int, int]) -> int:
        """One above the highest `level` among the LUTs driving `node`."""
        lvl = 0
        for f in node.fanins:
            drv = self._node_of_net.get(f)
            if drv is not None and level[drv] > lvl:
                lvl = level[drv]
        return lvl + 1

    def _relevel(self, nid: int):
        """Level the new node `nid` and carry any change forward to its readers.

        Readers are re-levelled in order of their previous level: every
        fanin whose level changes has a lower previous level than its
        reader, so each reader is recomputed once, after all of them.
        Reaching `nid` again means the edit closed a combinational cycle;
        the levels are then dropped so that the next `levels()` call
        reports the cycle.
        """
        level = self._level
        level[nid] = 0          # read only when nid feeds itself
        heap = [(-1, nid)]      # -1 is no level, so nid is always levelled
        queued = {nid}
        while heap:
            old, cur = heapq.heappop(heap)
            new = self._fanin_level(self.nodes[cur], level)
            if new == old:
                continue
            level[cur] = new
            for rid in self.reader_ids.get(self.nodes[cur].output_net, ()):
                if rid == nid:
                    self._level = None
                    return
                if rid not in queued:
                    queued.add(rid)
                    heapq.heappush(heap, (level[rid], rid))

    def level_order(self, ids) -> list[int]:
        """The node ids `ids` in (level, id) order: sorted by id, then
        stably by level."""
        order = sorted(ids)
        order.sort(key=self.levels().__getitem__)
        return order

    def topological_order(self) -> list[LutNode]:
        """Nodes ordered by (level, id); deterministic for a fixed netlist."""
        return [self.nodes[nid] for nid in self.level_order(self.nodes)]

    # ------------------------------------------------------------------
    # traversal

    def _node_id(self, nid: int) -> int:
        if nid not in self.nodes:
            raise NetlistError("unknown node %r" % nid)
        return nid

    def tfo(self, nid: int, depth_limit: int | None = None) -> set[int]:
        """Ids of the transitive fanout of node `nid`, BFS-bounded by
        `depth_limit`.

        POs and latch inputs terminate the walk; the node itself is excluded.
        """
        nid = self._node_id(nid)
        if depth_limit is not None and depth_limit <= 0:
            return set()
        out: set[int] = set()
        frontier = [nid]
        depth = 0
        while frontier and (depth_limit is None or depth < depth_limit):
            depth += 1
            nxt = []
            for cur in frontier:
                for rid in self.reader_ids.get(self.nodes[cur].output_net, ()):
                    if rid not in out and rid != nid:
                        out.add(rid)
                        nxt.append(rid)
            frontier = nxt
        return out

    def mffc(self, nid: int) -> set[int]:
        """Maximum fanout-free cone of node `nid` (ids, including `nid`).

        Every member other than the root has all of its fanouts inside
        the set, so deleting the set dangles nothing else.
        """
        root = self._node_id(nid)
        member = {root}
        # Reference counting: each member takes one reference from every LUT
        # driving it; a driver joins when its last reader joined, unless it
        # feeds a PO or a latch.
        refs: dict[int, int] = {}
        stack = [root]
        while stack:
            for f in self.nodes[stack.pop()].fanins:
                drv = self._node_of_net.get(f)
                if drv is None or self.is_sink(f):
                    continue
                refs[drv] = refs.get(drv, len(self.reader_ids[f])) - 1
                if refs[drv] == 0:
                    member.add(drv)
                    stack.append(drv)
        return member

    # ------------------------------------------------------------------
    # mutation (resubstitution support)

    def replace_node(self, nid: int, fanins: list[str], function: TruthTable) -> LutNode:
        """Swap in a fresh node for node `nid`, driving the same net with
        new fanins/function.

        The old node id disappears; every reader keeps working because the
        output net is preserved. The LUT and the drivers of its fanins are
        checked first, so a NetlistError leaves the netlist untouched.
        """
        old = self.nodes[self._node_id(nid)]
        self._check_lut(old.output_net, fanins, function)
        for f in fanins:
            if not self.has_driver(f):
                raise NetlistError("replacement fanin %r has no driver" % f)
        self._unlink(old)
        return self._link(old.output_net, list(fanins), function)

    def _unlink(self, node: LutNode):
        """Drop `node` and its fanin edges; its net is left undriven."""
        for f in node.fanins:
            self.reader_ids[f].remove(node.id)
        del self.nodes[node.id]
        del self._node_of_net[node.output_net]
        if self._level is not None:
            del self._level[node.id]

    def sweep_dead(self, seed_nets) -> list[LutNode]:
        """Remove the nodes of `seed_nets` that have no readers, cascading
        through fanins. Returns the removed nodes sorted by output net name.
        """
        work = deque(seed_nets)
        removed = []
        while work:
            net = work.popleft()
            nid = self._node_of_net.get(net)
            if nid is None or self.reader_ids.get(net) or self.is_sink(net):
                continue
            node = self.nodes[nid]
            self._unlink(node)
            removed.append(node)
            work.extend(node.fanins)
        return sorted(removed, key=lambda n: n.output_net)

    def copy(self) -> "Netlist":
        out = Netlist(self.model_name, self.k_max)
        for name in self.primary_inputs:
            out.add_input(name)
        for name in self.primary_outputs:
            out.add_output(name)
        for latch in self.latches:
            out.add_latch(latch.input_net, latch.output_net, latch.init_value)
        for node in self.nodes.values():
            out._link(node.output_net, list(node.fanins), node.function)
        if self._level is not None:
            # the copy numbers the nodes in this netlist's id order
            out._level = dict(zip(out.nodes, map(self._level.__getitem__, self.nodes)))
        return out


def net_terminals(netlist: Netlist):
    """Yield (driver_name, [sink names]) for every driven net, stable order.

    The sinks are the reading LUTs and latches; a PO is not a sink.
    """
    for name in netlist.source_nets() + [n.output_net for n in netlist.nodes.values()]:
        yield name, netlist.reader_names(name)


def eval_nodes(nodes, values: dict[str, int], width: int):
    """Evaluate `nodes` in the given (topological) order into `values`.

    `values` maps each net to its mask over `width` patterns; every fanin
    of a node must be in it before the node is reached.
    """
    for node in nodes:
        values[node.output_net] = node.function.eval_masks(
            [values[f] for f in node.fanins], width)


# ----------------------------------------------------------------------
# BLIF I/O

SLL_PREFIX = "__sll_"        # reserved for the per-die split's boundary pins


def _logical_lines(text: str):
    """Yield (line_no, tokens) merging continuations and dropping comments."""
    pending = ""
    pending_no = 0
    for no, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        raw = raw.rstrip()
        if pending:
            line = pending + " " + raw.strip()
            line_no = pending_no
        else:
            line = raw.strip()
            line_no = no
        if line.endswith("\\"):
            pending = line[:-1].strip()
            pending_no = line_no
            continue
        pending = ""
        if line:
            yield line_no, line.split()
    if pending:
        yield pending_no, pending.split()


def _cover_table(out_net: str, num_inputs: int, rows: list[str], row_nos: list[int],
                 line_no: int) -> TruthTable:
    """Compile the cover `rows`, read from lines `row_nos`, of the `.names`
    block at `line_no`."""
    in_rows = []
    for row_no, row in zip(row_nos, rows):
        parts = row.split()
        if len(parts) == 1:
            in_part, out_part = "", parts[0]
        else:
            in_part, out_part = parts
        if out_part == "-":
            raise BlifParseError(
                "don't-care output plane on %r is rejected" % out_net, row_no)
        if out_part == "0":
            raise BlifParseError(
                "off-set cover on %r is rejected; use the on-set" % out_net, row_no)
        if out_part != "1":
            raise BlifParseError("bad cover output %r" % out_part, row_no)
        in_rows.append(in_part)
    try:
        return cover_to_table(num_inputs, in_rows)
    except ValueError as exc:
        raise BlifParseError(str(exc), line_no) from exc


def parse_blif(text: str, k_max: int = DEFAULT_K_MAX) -> Netlist:
    """Parse flat BLIF (.model/.inputs/.outputs/.names/.latch/.end).

    SOP covers are expanded to truth tables at parse time; only on-set
    covers are accepted (output column must be `1`). `.subckt` is
    rejected: this tool works on flat netlists only.
    """
    netlist: Netlist | None = None
    model_seen = False
    ended = False
    inputs: list[str] = []
    outputs: list[str] = []
    # (line_no, signals, cover rows, the rows' line_nos)
    names: list[tuple[int, list[str], list[str], list[int]]] = []
    latches: list[tuple[int, list[str]]] = []
    cur_rows: list[str] | None = None
    cur_nos: list[int] = []

    for line_no, tokens in _logical_lines(text):
        if ended:
            raise BlifParseError("content after .end", line_no)
        cmd = tokens[0]
        if not cmd.startswith("."):
            if cur_rows is None:
                raise BlifParseError("cover row outside .names", line_no)
            if len(tokens) == 1 and not names[-1][1][:-1]:
                # constant node: a bare output value
                cur_rows.append(tokens[0])
            elif len(tokens) == 2:
                cur_rows.append(tokens[0] + " " + tokens[1])
            else:
                raise BlifParseError("malformed cover row %r" % " ".join(tokens), line_no)
            cur_nos.append(line_no)
            continue
        cur_rows = None
        if cmd == ".model":
            if model_seen:
                raise BlifParseError("multiple .model sections; flat netlists only", line_no)
            model_seen = True
            netlist = Netlist(tokens[1] if len(tokens) > 1 else "top", k_max)
        elif cmd == ".inputs":
            inputs.extend(tokens[1:])
        elif cmd == ".outputs":
            outputs.extend(tokens[1:])
        elif cmd == ".names":
            if len(tokens) < 2:
                raise BlifParseError(".names needs at least an output", line_no)
            sig = tokens[1:]
            if len(sig) - 1 > k_max:
                raise BlifParseError("node %r has %d fanins, exceeds k_max=%d"
                                     % (sig[-1], len(sig) - 1, k_max), line_no)
            cur_rows, cur_nos = [], []
            names.append((line_no, sig, cur_rows, cur_nos))
        elif cmd == ".latch":
            if len(tokens) < 3:
                raise BlifParseError(".latch needs input and output", line_no)
            latches.append((line_no, tokens[1:]))
        elif cmd == ".end":
            ended = True
        elif cmd == ".subckt":
            raise BlifParseError(
                ".subckt is not supported: flatten the netlist first", line_no)
        else:
            raise BlifParseError("unsupported construct %r" % cmd, line_no)

    if netlist is None:
        netlist = Netlist("top", k_max)

    try:
        for name in inputs:
            netlist.add_input(name)
        for name in outputs:
            netlist.add_output(name)
    except NetlistError as exc:
        raise BlifParseError(str(exc)) from exc

    for line_no, spec in latches:
        # .latch <in> <out> [<type> <ctrl>] [<init>]
        if len(spec) in (2, 3):
            in_net, out_net = spec[0], spec[1]
            init_tok = spec[2] if len(spec) == 3 else None
        elif len(spec) in (4, 5):
            in_net, out_net = spec[0], spec[1]
            init_tok = spec[4] if len(spec) == 5 else None
        else:
            raise BlifParseError("malformed .latch", line_no)
        init = {"0": "0", "1": "1", "2": "unknown", "3": "unknown", None: "unknown"}.get(init_tok)
        if init is None:
            raise BlifParseError("bad latch init value %r" % init_tok, line_no)
        try:
            netlist.add_latch(in_net, out_net, init)
        except NetlistError as exc:
            raise BlifParseError(str(exc), line_no) from exc

    # identical covers share one table, and so its compiled mux plan; only
    # a cover that compiled is stored, so an error names its first line
    tables: dict[tuple[int, tuple[str, ...]], TruthTable] = {}
    for line_no, sig, rows, row_nos in names:
        fanins, out_net = sig[:-1], sig[-1]
        key = (len(fanins), tuple(rows))
        table = tables.get(key)
        if table is None:
            table = tables[key] = _cover_table(out_net, len(fanins), rows, row_nos, line_no)
        try:
            netlist.add_node(out_net, fanins, table)
        except NetlistError as exc:
            raise BlifParseError(str(exc), line_no) from exc

    try:
        netlist.validate()
    except NetlistError as exc:
        raise BlifParseError(str(exc)) from exc
    return netlist


def parse_blif_file(path, k_max: int = DEFAULT_K_MAX) -> Netlist:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_blif(fh.read(), k_max)


def write_blif(netlist: Netlist) -> str:
    """Emit BLIF with deterministic (topological, name-tiebreak) node order."""
    out = io.StringIO()
    out.write(".model %s\n" % netlist.model_name)
    out.write(".inputs%s\n" % "".join(" " + n for n in netlist.primary_inputs))
    out.write(".outputs%s\n" % "".join(" " + n for n in netlist.primary_outputs))
    for latch in netlist.latches:
        if latch.init_value in ("0", "1"):
            out.write(".latch %s %s %s\n" % (latch.input_net, latch.output_net, latch.init_value))
        else:
            out.write(".latch %s %s\n" % (latch.input_net, latch.output_net))
    covers: dict[tuple[int, int], str] = {}    # one cover text per distinct function
    level = netlist.levels()
    for node in sorted(netlist.nodes.values(), key=lambda n: (level[n.id], n.output_net)):
        out.write(".names%s %s\n" % ("".join(" " + f for f in node.fanins), node.output_net))
        fn = node.function
        key = (fn.num_inputs, fn.bits)
        cover = covers.get(key)
        if cover is None:
            cover = covers[key] = "".join("%s 1\n" % row if row else "1\n"
                                          for row in table_to_cover(fn))
        out.write(cover)
    out.write(".end\n")
    return out.getvalue()


def write_blif_file(netlist: Netlist, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_blif(netlist))


def has_generated_names(netlist: Netlist) -> bool:
    """True when any interface or net name uses the reserved split prefix."""
    nets = (list(netlist.primary_inputs) + list(netlist.primary_outputs)
            + [n.output_net for n in netlist.nodes.values()]
            + [l.output_net for l in netlist.latches]
            + [l.input_net for l in netlist.latches])
    return any(n.startswith(SLL_PREFIX) for n in nets)
