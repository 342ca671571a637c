"""Connectivity and wirelength metrics for partitioned netlists.

Two inter-die counts are reported: the net-level SLL channel count
(one channel per destination die of a crossing net) and the edge-level
fanout count (every crossing driver->sink edge individually). Both, and
the per-die split's boundary pins, come from one walk, `crossing_nets`:
a net crosses when a reading LUT or latch sits on another die than its
driver (a PO is no sink). The 'raw-net' SLL count, one per crossing net,
is the hyperedge cut the partitioner minimizes. Bounding box costs follow
the weighted-HPWL model; inter-die nets decompose into die-local boxes
joined by fixed-length interposer links.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .netlist import Netlist, net_terminals
from .partition import DieAssignment

SLL_COUNT_MODES = ("per-die", "raw-net")


class MetricsError(Exception):
    pass


def crossing_nets(netlist: Netlist, assignment: DieAssignment):
    """Yield (net, sorted destination dies, crossing edges) per crossing net,
    in `net_terminals` order: the dies of its sinks other than its driver's,
    and its driver->sink edges into them.

    Each LUT's and latch's die is looked up once per walk. A net whose
    driver or sink has no die raises the `PartitionError` of
    `DieAssignment.die` for its first terminal without one, in
    `net_terminals` order, the driver first.
    """
    die_of = assignment.die_of
    nodes = netlist.nodes
    lut_die = {nid: die_of.get(node.output_net) for nid, node in nodes.items()}
    latch_dies: dict[str, list[int | None]] = {}    # net -> its latch readers' dies
    for latch in netlist.latches:
        latch_dies.setdefault(latch.input_net, []).append(die_of.get(latch.output_net))
    readers = netlist.reader_ids.get
    drivers = [(net, die_of.get(net)) for net in netlist.source_nets()]
    drivers += [(node.output_net, lut_die[nid]) for nid, node in nodes.items()]
    for net, dd in drivers:
        sink_dies = [lut_die[r] for r in readers(net, ())]
        latch_sinks = latch_dies.get(net)
        if latch_sinks:
            sink_dies += latch_sinks
        if not sink_dies:
            continue
        if dd is None or None in sink_dies:
            for name in [net] + netlist.reader_names(net):
                assignment.die(name)    # raises at the first terminal without a die
        edges = len(sink_dies) - sink_dies.count(dd)
        if edges:
            yield net, sorted(set(sink_dies) - {dd}), edges


def sll_counts(netlist: Netlist, assignment: DieAssignment,
               mode: str = "per-die") -> tuple[int, int]:
    """(SLL count in `mode`, crossing edge count) from one walk.

    'per-die': a net spanning m sink dies besides its driver die occupies
    m SLL channels. 'raw-net': any crossing net counts once.
    """
    if mode not in SLL_COUNT_MODES:
        raise MetricsError("unknown SLL count mode %r" % mode)
    n_sll = n_sll_fo = 0
    for _net, dests, edges in crossing_nets(netlist, assignment):
        n_sll += len(dests) if mode == "per-die" else 1
        n_sll_fo += edges
    return n_sll, n_sll_fo


def count_sll(netlist: Netlist, assignment: DieAssignment, mode: str = "per-die") -> int:
    """Net-level SLL count (see `sll_counts` for the modes)."""
    return sll_counts(netlist, assignment, mode)[0]


def count_sll_fo(netlist: Netlist, assignment: DieAssignment) -> int:
    """Edge-level count: driver->sink edges with endpoints on different dies."""
    return sll_counts(netlist, assignment)[1]


def node_cross_die_fanins(netlist: Netlist, assignment: DieAssignment, node) -> list[str]:
    """The pivot-side view: fanin nets whose driver sits on another die."""
    nd = assignment.die(node.output_net)
    return [f for f in node.fanins if assignment.die(f) != nd]


# ----------------------------------------------------------------------
# placement / bounding boxes


@dataclass
class PlacementData:
    """Block coordinates in tile units plus die geometry and link length."""

    coords: dict[str, tuple[int, int, int]]          # name -> (x, y, die)
    die_geometry: list[tuple[int, int]]               # per die (width, height)
    l_sll: float = 1.0
    q_table: dict[int, float] = field(default_factory=dict)

    def q(self, num_terminals: int) -> float:
        return self.q_table.get(num_terminals, 1.0)

    def place_of(self, name: str) -> tuple[int, int, int]:
        try:
            return self.coords[name]
        except KeyError:
            raise MetricsError("block %r is not placed" % name) from None

    def validate(self):
        if self.l_sll <= 0:
            raise MetricsError("interposer link length must be positive")
        for name, (x, y, die) in self.coords.items():
            if not 0 <= die < len(self.die_geometry):
                raise MetricsError("block %r placed on unknown die %d" % (name, die))
            w, h = self.die_geometry[die]
            if not (0 <= x < w and 0 <= y < h):
                raise MetricsError("block %r at (%d, %d) outside die %d geometry"
                                   % (name, x, y, die))


def load_q_table(path) -> dict[int, float]:
    """Terminal-count -> weight factor table from a JSON object file."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        return {int(k): float(v) for k, v in raw.items()}
    except (TypeError, ValueError, AttributeError) as exc:
        raise MetricsError("malformed q-table %r: %s" % (path, exc)) from exc


def load_placement(path, die_geometry, l_sll: float = 1.0,
                   q_table: dict[int, float] | None = None) -> PlacementData:
    """Read `<block> <x> <y> <die>` lines into PlacementData."""
    coords = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#")[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise MetricsError("line %d: expected '<block> <x> <y> <die>'" % line_no)
            coords[parts[0]] = (int(parts[1]), int(parts[2]), int(parts[3]))
    placement = PlacementData(coords, list(die_geometry), l_sll, dict(q_table or {}))
    placement.validate()
    return placement


def _hpwl(points) -> float:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def _median_x(placed) -> int:
    xs = sorted(p[0] for p in placed)
    return xs[(len(xs) - 1) // 2]


def _bbox_costs(netlist: Netlist, placement: PlacementData) -> tuple[list[float], float]:
    """Box costs from one walk over the nets: per die, the weighted HPWL of
    the nets placed entirely on it, and the multi-die box cost without
    its interposer term.

    A net on one die adds its weighted HPWL to both. A crossing net adds
    to the multi-die cost a die-local box per die, extended by a virtual
    boundary terminal in the median-x column (clamped to the die) on the
    edge facing the neighbouring die; dies stack vertically by index.
    Each sum runs in `net_terminals` order.
    """
    placement.validate()
    sd = [0.0] * len(placement.die_geometry)
    md = 0.0
    for driver, sinks in net_terminals(netlist):
        if not sinks:
            continue
        terms = [driver] + sinks
        placed = [placement.place_of(t) for t in terms]
        by_die: dict[int, list[tuple[int, int]]] = {}
        for x, y, d in placed:
            by_die.setdefault(d, []).append((x, y))
        q = placement.q(len(terms))
        if len(by_die) == 1:
            [(d, pts)] = by_die.items()
            cost = q * _hpwl(pts)
            sd[d] += cost
            md += cost
            continue
        med = _median_x(placed)
        for d, pts in sorted(by_die.items()):
            w, h = placement.die_geometry[d]
            vx = min(max(med, 0), w - 1)
            ext = list(pts)
            if any(other > d for other in by_die):
                ext.append((vx, h - 1))
            if any(other < d for other in by_die):
                ext.append((vx, 0))
            md += q * _hpwl(ext)
    return sd, md


def bbox_cost_sd(netlist: Netlist, placement: PlacementData, die: int) -> float:
    """Weighted HPWL over nets placed entirely on `die`."""
    per_die = _bbox_costs(netlist, placement)[0]
    if not 0 <= die < len(per_die):
        raise MetricsError("die %d is not in the placement geometry" % die)
    return per_die[die]


def bbox_cost_md(netlist: Netlist, placement: PlacementData,
                 assignment: DieAssignment, sll_mode: str = "per-die") -> float:
    """Multi-die cost: per-die boxes (see `_bbox_costs`) plus one
    interposer link per SLL, count_sll * l_sll."""
    return (_bbox_costs(netlist, placement)[1]
            + count_sll(netlist, assignment, sll_mode) * placement.l_sll)


# ----------------------------------------------------------------------
# reporting


def wire_delay_table() -> dict:
    """Interconnect delay annotations shipped with the package."""
    with resources.files("sllresub.data").joinpath("wire_delays.json").open() as fh:
        return json.load(fh)


_CORE_METRICS = ("n_sll", "n_sll_fo", "lut_count", "rho")


def snapshot(netlist: Netlist, assignment: DieAssignment,
             placement: PlacementData | None = None,
             sll_mode: str = "per-die") -> dict:
    """All scalar metrics for one (netlist, assignment) state."""
    n_sll, n_sll_fo = sll_counts(netlist, assignment, sll_mode)
    out = {
        "n_sll": n_sll,
        "n_sll_fo": n_sll_fo,
        "lut_count": netlist.lut_count(),
        "rho": assignment.imbalance(),
    }
    if placement is not None:
        out["bbox_sd"], md = _bbox_costs(netlist, placement)
        out["bbox_md"] = md + n_sll * placement.l_sll
    return out


@dataclass
class MetricsReport:
    before: dict
    after: dict
    sll_mode: str = "per-die"
    notes: dict = field(default_factory=dict)

    def delta(self) -> dict:
        out = {}
        for key in self.before:
            if key in self.after and isinstance(self.before[key], (int, float)):
                out[key] = self.after[key] - self.before[key]
        return out

    def delta_pct(self) -> dict:
        out = {}
        for key, d in self.delta().items():
            base = self.before[key]
            out[key] = (100.0 * d / base) if base else 0.0
        return out

    def to_dict(self) -> dict:
        return {
            "sll_count_mode": self.sll_mode,
            "before": self.before,
            "after": self.after,
            "delta": self.delta(),
            "delta_pct": self.delta_pct(),
            "notes": self.notes,
            "interconnect_delays": wire_delay_table(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        rows = [("metric", "before", "after", "delta", "delta%")]
        delta = self.delta()
        pct = self.delta_pct()
        keys = [k for k in _CORE_METRICS if k in self.before]
        keys += sorted(k for k in self.before if k not in _CORE_METRICS)
        for key in keys:
            b, a = self.before.get(key), self.after.get(key)
            if isinstance(b, list):
                rows.append((key, "/".join("%g" % x for x in b),
                             "/".join("%g" % x for x in a), "", ""))
                continue
            fmt = "%.4f" if isinstance(b, float) else "%d"
            rows.append((key, fmt % b, fmt % a,
                         "%+.4f" % delta[key] if isinstance(b, float) else "%+d" % delta[key],
                         "%+.2f" % pct[key]))
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
                 for row in rows]
        inter = wire_delay_table().get("L36", {})
        lines.append("")
        lines.append("# SLL counting mode: %s; inter-die link delay %s ps (annotation only)"
                     % (self.sll_mode, inter.get("delay_ps", "?")))
        return "\n".join(lines) + "\n"


def report(netlist_before: Netlist, netlist_after: Netlist,
           assignment_before: DieAssignment, assignment_after: DieAssignment,
           placement: PlacementData | None = None,
           sll_mode: str = "per-die", notes: dict | None = None) -> MetricsReport:
    return MetricsReport(
        before=snapshot(netlist_before, assignment_before, placement, sll_mode),
        after=snapshot(netlist_after, assignment_after, placement, sll_mode),
        sll_mode=sll_mode,
        notes=dict(notes or {}),
    )
