"""Die assignment: FM min-cut bipartitioning, hash labeling, assignment files.

Every net driver (primary input, LUT node, latch) gets a die label.
LUTs and latches carry logic weight 1, primary inputs weight 0, so the
imbalance ratio counts logic only while cross-die edges from PIs still
count as inter-die connections.

FM minimizes the hyperedge cut: the nets whose pins (driver plus reading
LUTs and latches) sit on two or more dies. That cut is the 'raw-net' SLL
count of `metrics.count_sll`, which is how it is reported.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass

from .netlist import Netlist


class PartitionError(Exception):
    pass


@dataclass
class DieAssignment:
    """Total map driver-name -> die index, with per-entity logic weights."""

    num_dies: int
    die_of: dict[str, int]
    weights: dict[str, int]

    def die_weights(self) -> list[int]:
        out = [0] * self.num_dies
        for name, die in self.die_of.items():
            out[die] += self.weights.get(name, 0)
        return out

    def total_weight(self) -> int:
        return sum(self.weights.values())

    def imbalance(self) -> float:
        """max_k |V_k| / (|V| / K) over logic weights (double precision)."""
        total = self.total_weight()
        if total == 0:
            raise PartitionError("imbalance undefined: no weighted nodes")
        return max(self.die_weights()) * self.num_dies / total

    def copy(self) -> "DieAssignment":
        return DieAssignment(self.num_dies, dict(self.die_of), dict(self.weights))

    def die(self, name: str) -> int:
        try:
            return self.die_of[name]
        except KeyError:
            raise PartitionError("no die assignment for %r" % name) from None


@dataclass
class PartitionConfig:
    num_dies: int = 2
    ub: float = 1.25
    seed: int = 0
    mode: str = "fm_mincut"  # fm_mincut | hash_label | external_file
    partition_file: str | None = None

    def __post_init__(self):
        if self.num_dies < 1:
            raise PartitionError("die count must be >= 1 (got %d)" % self.num_dies)
        if not 1.0 <= self.ub < math.inf:     # refuses nan too
            raise PartitionError("imbalance upper bound must be finite and >= 1.0 (got %s)"
                                 % self.ub)


def entities(netlist: Netlist) -> list[tuple[str, int]]:
    """(name, weight) for every die-assignable driver, in stable order.

    Every partition mode starts here, so each refuses a netlist with no
    LUT or latch, whose die weights (and imbalance) are all zero.
    """
    if not netlist.nodes and not netlist.latches:
        raise PartitionError("cannot partition an empty netlist")
    out = [(name, 0) for name in netlist.primary_inputs]
    out.extend((latch.output_net, 1) for latch in netlist.latches)
    out.extend((node.output_net, 1) for node in netlist.nodes.values())
    return out


def hyperedges(netlist: Netlist, ents: list[tuple[str, int]]) -> list[tuple[int, ...]]:
    """Pins per net with at least two distinct entity pins, as indices into
    `ents`, which is `entities(netlist)`.

    Pins are the driver entity plus every reading LUT/latch entity; POs
    are not physical pins. Nets are in driver (`entities`) order, and the
    pins of a net in name order.

    `ents` lists PIs, then latches, then LUTs in id order, so a LUT
    reader's index comes from its id and a latch reader's from its
    position in `netlist.latches`.
    """
    names = [name for name, _w in ents]
    index_of = dict(zip(netlist.nodes, range(len(names) - len(netlist.nodes), len(names))))
    latch_pins: dict[str, list[int]] = {}
    for i, latch in enumerate(netlist.latches, len(netlist.primary_inputs)):
        latch_pins.setdefault(latch.input_net, []).append(i)
    pin_sets = ({i, *map(index_of.__getitem__, netlist.reader_ids.get(name, ())),
                 *latch_pins.get(name, ())} for i, name in enumerate(names))
    return [tuple(sorted(pins, key=names.__getitem__)) for pins in pin_sets if len(pins) >= 2]


# ----------------------------------------------------------------------
# FM bipartitioning


MAX_FM_PASSES = 16


class _FmGraph:
    """Vertex weights and nets (tuples of vertex indices, two pins or more)."""

    def __init__(self, weights: list[int], nets: list[tuple[int, ...]]):
        self.weights = weights
        self.nets = nets
        self.nets_of = [[] for _ in weights]
        for ni, pins in enumerate(nets):
            for p in pins:
                self.nets_of[p].append(ni)


def _bfs_order(graph: _FmGraph, rng: random.Random) -> tuple[list[int], bool]:
    """Deterministic seeded BFS over shared-net adjacency, all components.

    Returns the visit order and whether the first start reached every
    vertex, i.e. whether the nets join a non-empty graph into one component.
    """
    n = len(graph.weights)
    seen = [False] * n
    order = []
    first = None        # vertices reached from the first start
    queue = deque()
    remaining = list(range(n))
    rng.shuffle(remaining)
    for start in remaining:
        if seen[start]:
            continue
        seen[start] = True
        queue.append(start)
        while queue:
            v = queue.popleft()
            order.append(v)
            for ni in graph.nets_of[v]:
                for p in graph.nets[ni]:
                    if not seen[p]:
                        seen[p] = True
                        queue.append(p)
        if first is None:
            first = len(order)
    return order, first == n


def _fm_seed(graph: _FmGraph, caps: tuple[int, int], rng: random.Random,
             target0: float) -> tuple[list[int], list[int], bool]:
    """(side per vertex index, weight per side, connected) of FM's starting
    bisection; `connected` is what `_bfs_order` reports.

    A seeded BFS fills side 0 up to weight `target0`, then vertices move
    to side 0 until side 1 fits its cap.
    """
    n = len(graph.weights)
    total = sum(graph.weights)
    # BFS fill keeps connected logic together in the seed; FM refines it.
    side = [1] * n
    side_w = [0, total]
    order, connected = _bfs_order(graph, rng)
    for v in order:
        if side_w[0] >= target0:
            break
        w = graph.weights[v]
        if side_w[0] + w > caps[0]:
            continue
        side[v] = 0
        side_w[0] += w
        side_w[1] -= w
    # Caps must hold on both sides before any pass runs.
    if side_w[1] > caps[1]:
        for v in range(n):
            if side_w[1] <= caps[1]:
                break
            w = graph.weights[v]
            if side[v] == 1 and w > 0 and side_w[0] + w <= caps[0]:
                side[v] = 0
                side_w[0] += w
                side_w[1] -= w
    if side_w[0] > caps[0] or side_w[1] > caps[1]:
        raise PartitionError("infeasible balance bound: cannot seed partition")
    return side, side_w, connected


def _fm_bipartition(graph: _FmGraph, caps: tuple[int, int], rng: random.Random,
                    target0: float, trace: list | None = None) -> list[int]:
    """Two-way FM from `_fm_seed`; returns side (0/1) per vertex index.

    Each pass moves the unlocked vertex of highest gain (lowest index on
    ties) that fits the target side's cap, taken from a lazy heap, locks
    it, and keeps the best prefix of its moves. A net with locked pins on
    both sides stays cut for the rest of the pass, so once the count of
    such nets reaches the best cut so far no later prefix can beat it,
    and the pass ends there.

    A heap entry is the int `(top - gain) * n + index`, with n vertices
    and `top` the highest vertex degree + 2. A gain lies within minus and
    plus the vertex's degree, so `top - gain` is positive and the index
    is the remainder below n: the ints order exactly as (-gain, index)
    pairs. An int entry allocates no GC-tracked tuple per push, and the
    heap compares it in C. Per-net pin and lock counts are flat lists,
    one per side, for the same reason.

    The cut also has a floor. The seed and every move keep both sides
    within their caps, so when both caps are below the total weight, both
    sides keep some weight; if the nets also connect every vertex, each
    state cuts at least one net. A pass then ends once its best cut is 1
    (Fiduccia and Mattheyses, DAC 1982: the best prefix is the same).
    `trace`, when given, collects (pass start cut, accepted cut) pairs.
    """
    n = len(graph.weights)
    side, side_w, connected = _fm_seed(graph, caps, rng, target0)
    total = side_w[0] + side_w[1]
    floor = 1 if max(caps) < total and connected else 0
    top = max(map(len, graph.nets_of), default=0) + 2

    for _pass in range(MAX_FM_PASSES):
        # counts[s][ni]: net ni's pins on side s. A pin's gain is -1 per uncut
        # net; a cut net gives back 1, or 2 when the pin is alone on its side.
        ones = [sum(map(side.__getitem__, pins)) for pins in graph.nets]
        counts = ([len(pins) - c1 for pins, c1 in zip(graph.nets, ones)], ones)
        cut = 0
        gains = [-len(nets) for nets in graph.nets_of]
        for pins, c0, c1 in zip(graph.nets, *counts):
            if c1 and c0:
                cut += 1
                for p in pins:
                    gains[p] += 2 if (c1 if side[p] else c0) == 1 else 1
        locked = [False] * n
        locks = ([0] * len(ones), [0] * len(ones))     # locks[s][ni]: locked pins, likewise
        dead = 0            # nets with locked pins on both sides: cut until the pass ends
        heap = [(top - g) * n + v for v, g in enumerate(gains)]
        heapq.heapify(heap)        # exact: the entries are distinct
        moves = []
        best_cut, best_len = cut, 0
        cur_cut = cut
        while len(moves) < n and max(dead, floor) < best_cut:
            entry = None
            skipped = []
            while heap:
                key = heapq.heappop(heap)
                v = key % n
                if locked[v] or key != (top - gains[v]) * n + v:
                    continue
                t = 1 - side[v]
                if side_w[t] + graph.weights[v] > caps[t]:
                    skipped.append(key)
                    continue
                entry = v
                break
            for key in skipped:
                heapq.heappush(heap, key)
            if entry is None:
                break
            v = entry
            f = side[v]
            t = 1 - f
            count_f, count_t, lock_f, lock_t = counts[f], counts[t], locks[f], locks[t]
            move_gain = gains[v]
            locked[v] = True
            # FM incremental gain update around the move of v.
            for ni in graph.nets_of[v]:
                pins = graph.nets[ni]
                lock_t[ni] += 1
                if lock_t[ni] == 1 and lock_f[ni]:
                    dead += 1
                if count_t[ni] == 0:
                    for p in pins:
                        if not locked[p]:
                            gains[p] += 1
                            heapq.heappush(heap, (top - gains[p]) * n + p)
                elif count_t[ni] == 1:
                    for p in pins:
                        if not locked[p] and side[p] == t:
                            gains[p] -= 1
                            heapq.heappush(heap, (top - gains[p]) * n + p)
                count_f[ni] -= 1
                count_t[ni] += 1
                if count_f[ni] == 0:
                    for p in pins:
                        if not locked[p]:
                            gains[p] -= 1
                            heapq.heappush(heap, (top - gains[p]) * n + p)
                elif count_f[ni] == 1:
                    for p in pins:
                        if not locked[p] and side[p] == f:
                            gains[p] += 1
                            heapq.heappush(heap, (top - gains[p]) * n + p)
            cur_cut -= move_gain
            side[v] = t
            side_w[f] -= graph.weights[v]
            side_w[t] += graph.weights[v]
            moves.append(v)
            if cur_cut < best_cut:
                best_cut, best_len = cur_cut, len(moves)
        # Roll back to the best prefix; reject the pass when nothing improved.
        for v in reversed(moves[best_len:]):
            t = side[v]
            side[v] = 1 - t
            side_w[t] -= graph.weights[v]
            side_w[1 - t] += graph.weights[v]
        if trace is not None:
            trace.append((cut, min(best_cut, cut)))
        if best_cut >= cut:
            break
    return side


def partition_fm(netlist: Netlist, config: PartitionConfig) -> DieAssignment:
    """Fiduccia-Mattheyses min-cut assignment; K > 2 via recursive bisection.

    The per-die capacity is max(UB * W/K, ceil(W/K)) logic weight, so the
    imbalance bound holds whenever it is satisfiable at all. Each half of
    a bisection keeps, in order, the parent's nets with two or more pins
    in it, renumbered to positions in the half.
    """
    if config.num_dies < 2:
        raise PartitionError("partitioning needs at least 2 dies")
    ents = entities(netlist)
    weights = [w for _n, w in ents]
    total = sum(weights)
    # Integer per-die capacity; the ceiling term keeps tiny instances
    # feasible when UB*W/K rounds below a whole node.
    cap_per_die = max(int(math.floor(config.ub * total / config.num_dies + 1e-9)),
                      math.ceil(total / config.num_dies))
    if cap_per_die < max(weights):
        raise PartitionError("infeasible imbalance bound for the node weights")
    die_of: dict[str, int] = {}

    def recurse(region: list[int], nets: list[tuple[int, ...]], dies: range):
        # region: indices into `ents`; nets: pins as positions in `region`
        if len(dies) == 1:
            for v in region:
                die_of[ents[v][0]] = dies[0]
            return
        k1 = len(dies) // 2
        caps = (cap_per_die * k1, cap_per_die * (len(dies) - k1))
        graph = _FmGraph([weights[v] for v in region], nets)
        rng = random.Random("%s/%d:%d" % (config.seed, dies[0], dies[-1]))
        sides = _fm_bipartition(graph, caps, rng,
                                target0=sum(graph.weights) * k1 / len(dies))
        halves = ([], [])
        pos = []            # each region vertex's position in its half
        for v, s in zip(region, sides):
            pos.append(len(halves[s]))
            halves[s].append(v)
        for s, half_dies in enumerate((dies[:k1], dies[k1:])):
            half_nets = []
            if len(half_dies) > 1:
                for pins in nets:
                    inside = tuple([pos[p] for p in pins if sides[p] == s])
                    if len(inside) >= 2:
                        half_nets.append(inside)
            recurse(halves[s], half_nets, half_dies)

    recurse(list(range(len(ents))), hyperedges(netlist, ents), range(config.num_dies))
    return DieAssignment(config.num_dies, die_of, dict(ents))


# ----------------------------------------------------------------------
# hash labeling

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(name: str) -> int:
    h = _FNV_OFFSET
    for b in name.encode("utf-8"):
        h ^= b
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def partition_hash(netlist: Netlist, num_dies: int) -> DieAssignment:
    """Deterministic per-name labeling: fnv1a64(name) mod K.

    Independent of mapping LUT size for identically named logic and
    stable across runs and platforms.
    """
    if num_dies < 2:
        raise PartitionError("partitioning needs at least 2 dies")
    ents = entities(netlist)
    die_of = {name: fnv1a64(name) % num_dies for name, _w in ents}
    return DieAssignment(num_dies, die_of, dict(ents))


# ----------------------------------------------------------------------
# assignment files


def save_assignment(assignment: DieAssignment, path):
    die_of = assignment.die_of
    text = "".join(["# dies %d\n" % assignment.num_dies]
                   + ["%s %d\n" % (name, die_of[name]) for name in sorted(die_of)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_assignment(netlist: Netlist, path, num_dies: int | None = None) -> DieAssignment:
    """Read `<name> <die>` lines; must cover every weighted node.

    Unlisted primary inputs default to the die of their first listed
    reader, LUTs in id order before latches (die 0 when none is listed),
    so hand-written files may list logic only.

    The die count is `num_dies` when given (at least 1), else the
    `# dies <count>` header, else one more than the highest die listed.
    A header that disagrees with a given `num_dies` is an error naming
    the header line.
    """
    if num_dies is not None and num_dies < 1:
        raise PartitionError("die count must be >= 1 (got %d)" % num_dies)
    entries: dict[str, int] = {}
    header_dies = header = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#")[0].strip()
            tokens = raw.split()
            if tokens[:2] == ["#", "dies"]:
                try:
                    header_dies = int(tokens[2])
                except (IndexError, ValueError):
                    header_dies = 0
                if header_dies < 1:
                    raise PartitionError("line %d: expected '# dies <count>'" % line_no)
                header = "line %d: %r" % (line_no, raw.strip())
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise PartitionError("line %d: expected '<name> <die>'" % line_no)
            name, die_s = parts
            if name in entries:
                raise PartitionError("line %d: duplicate entry for %r" % (line_no, name))
            try:
                entries[name] = int(die_s)
            except ValueError:
                raise PartitionError("line %d: bad die index %r" % (line_no, die_s)) from None

    ents = entities(netlist)
    known = {name for name, _w in ents}
    for name in entries:
        if name not in known:
            raise PartitionError("assignment names unknown node %r" % name)
    if None not in (num_dies, header_dies) and num_dies != header_dies:
        raise PartitionError("%s disagrees with the %d dies asked for" % (header, num_dies))
    k = num_dies if num_dies is not None else header_dies
    if k is None:
        k = max([0, *entries.values()]) + 1
    for name, die in entries.items():
        if not 0 <= die < k:
            raise PartitionError("die index %d for %r out of range [0, %d)" % (die, name, k))

    die_of: dict[str, int] = {}
    weights = dict(ents)
    for name, w in ents:
        if name in entries:
            die_of[name] = entries[name]
        elif w == 0:
            die_of[name] = next((entries[r] for r in netlist.reader_names(name)
                                 if r in entries), 0)
        else:
            raise PartitionError("assignment file is missing node %r" % name)
    return DieAssignment(k, die_of, weights)


def assignment_for(netlist: Netlist, config: PartitionConfig) -> DieAssignment:
    """Dispatch on the configured partitioning mode."""
    if config.mode == "fm_mincut":
        return partition_fm(netlist, config)
    if config.mode == "hash_label":
        return partition_hash(netlist, config.num_dies)
    if config.mode == "external_file":
        if not config.partition_file:
            raise PartitionError("external_file mode needs a partition file")
        return load_assignment(netlist, config.partition_file, config.num_dies)
    raise PartitionError("unknown partition mode %r" % config.mode)

