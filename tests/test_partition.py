import heapq
import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sllresub import bench, partition
from sllresub.metrics import count_sll
from sllresub.netlist import parse_blif
from sllresub.partition import (MAX_FM_PASSES, DieAssignment, PartitionConfig, PartitionError,
                                _bfs_order, _FmGraph, _fm_bipartition, _fm_seed, assignment_for,
                                entities, fnv1a64, hyperedges,
                                load_assignment, partition_fm, partition_hash,
                                save_assignment)

from conftest import random_netlist


def validate_assignment(netlist, assignment):
    """Every entity assigned, die indices in range."""
    for name, _w in entities(netlist):
        die = assignment.die(name)
        if not 0 <= die < assignment.num_dies:
            raise PartitionError("die index %d for %r out of range" % (die, name))


def _cut(netlist, assignment):
    """The hyperedge cut: nets whose pins span two or more dies."""
    return count_sll(netlist, assignment, "raw-net")


def _graph(names, weights, nets):
    """`_FmGraph` over `names` from a name -> weight dict and name-tuple nets."""
    index = {v: i for i, v in enumerate(names)}
    return _FmGraph([weights[v] for v in names],
                    [tuple(index[p] for p in pins) for pins in nets])


def _entity_graph(netlist):
    """`_FmGraph` over every entity of `netlist`, with its hyperedges."""
    ents = entities(netlist)
    return _FmGraph([w for _e, w in ents], hyperedges(netlist, ents))


def _uniform(names, dies):
    return DieAssignment(max(dies.values()) + 1,
                         dict(dies), {n: 1 for n in names})


def test_config_rejects_bad_ub():
    with pytest.raises(PartitionError):
        PartitionConfig(num_dies=2, ub=0.9)


@pytest.mark.parametrize("ub", [math.inf, math.nan])
def test_config_rejects_non_finite_ub(ub):
    with pytest.raises(PartitionError, match="imbalance upper bound must be finite"):
        PartitionConfig(num_dies=2, ub=ub)


@pytest.mark.parametrize("dies", [0, -2])
def test_die_count_below_one_is_refused(tmp_path, demo_netlist, dies):
    with pytest.raises(PartitionError, match="die count must be >= 1 \\(got %d\\)" % dies):
        PartitionConfig(num_dies=dies, mode="external_file")
    path = tmp_path / "p.txt"
    path.write_text("X 0\nY 0\nF 0\n")
    with pytest.raises(PartitionError, match="die count must be >= 1"):
        load_assignment(demo_netlist, path, dies)
    assert load_assignment(demo_netlist, path, 1).num_dies == 1


def test_imbalance_hand_values():
    a = _uniform([f"n{i}" for i in range(10)],
                 {f"n{i}": 0 if i < 6 else 1 for i in range(10)})
    assert a.imbalance() == pytest.approx(1.2)
    b = _uniform([f"n{i}" for i in range(10)],
                 {f"n{i}": i % 2 for i in range(10)})
    assert b.imbalance() == 1.0
    c = _uniform([f"n{i}" for i in range(9)],
                 {f"n{i}": 0 if i < 5 else 1 for i in range(9)})
    assert c.imbalance() == pytest.approx(5 / 4.5)


def test_imbalance_empty_errors():
    with pytest.raises(PartitionError):
        DieAssignment(2, {}, {}).imbalance()


def test_disjoint_groups_cut_zero():
    txt = [".model cl", ".inputs x0 x1 x2 x3 y0 y1 y2 y3", ".outputs px py"]
    txt += [".names x0 x1 ax", "11 1", ".names ax x2 bx", "11 1",
            ".names bx x3 px", "11 1"]
    txt += [".names y0 y1 ay", "11 1", ".names ay y2 by", "11 1",
            ".names by y3 py", "11 1", ".end"]
    n = parse_blif("\n".join(txt))
    for seed in range(4):
        a = partition_fm(n, PartitionConfig(num_dies=2, ub=1.25, seed=seed))
        assert _cut(n, a) == 0
        assert a.imbalance() == 1.0


def test_demo_circuit_split_matches_enumeration(demo_netlist):
    n = demo_netlist
    names = [e for e, _w in entities(n)]
    nets = [[names[p] for p in pins] for pins in hyperedges(n, entities(n))]
    logic = ["X", "Y", "F"]
    pis = ["a", "b", "c", "d"]
    best = None
    for logic_dies in itertools.product((0, 1), repeat=3):
        if len(set(logic_dies)) < 2:
            continue  # only 2/1 splits
        for pi_dies in itertools.product((0, 1), repeat=4):
            die_of = dict(zip(logic, logic_dies)) | dict(zip(pis, pi_dies))
            cut = sum(1 for pins in nets
                      if len({die_of[p] for p in pins}) > 1)
            best = cut if best is None else min(best, cut)
    assert best <= 2  # a balanced 2/1 split with small cut exists
    a = partition_fm(n, PartitionConfig(num_dies=2, ub=1.25, seed=0))
    assert sorted(a.die_weights()) == [1, 2]
    assert _cut(n, a) == best


def test_fm_deterministic_for_fixed_seed():
    n = random_netlist(42, num_pis=12, num_nodes=100, k=4, num_pos=8)
    cfg = PartitionConfig(num_dies=2, ub=1.25, seed=5)
    a = partition_fm(n, cfg)
    b = partition_fm(n, cfg)
    assert a.die_of == b.die_of


def test_fm_respects_imbalance_bound_randomized():
    for seed in range(6):
        n = random_netlist(seed + 100, num_pis=10,
                           num_nodes=60 + 15 * seed, k=4, num_pos=6,
                           num_latches=seed % 3)
        for k in (2, 3, 4):
            a = partition_fm(n, PartitionConfig(num_dies=k, ub=1.25, seed=seed))
            assert a.imbalance() <= 1.25 + 1e-12, (seed, k)
            validate_assignment(n, a)


def test_fm_pass_cuts_never_increase():
    n = random_netlist(7, num_pis=10, num_nodes=80, k=4, num_pos=6)
    graph = _entity_graph(n)
    total = sum(graph.weights)
    trace = []
    _fm_bipartition(graph, (total, total), random.Random(3), total / 2, trace)
    for start, accepted in trace:
        assert accepted <= start
    starts = [s for s, _a in trace]
    assert starts == sorted(starts, reverse=True)


def test_fm_rejects_empty_netlist():
    empty = parse_blif(".model m\n.inputs a\n.end")
    with pytest.raises(PartitionError):
        partition_fm(empty, PartitionConfig(num_dies=2))
    # a single weighted node still splits (the other die stays empty)
    n = parse_blif(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end")
    a = partition_fm(n, PartitionConfig(num_dies=2))
    assert sorted(a.die_weights()) == [0, 1]


def test_hash_known_vector_and_stability(demo_netlist):
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    a = partition_hash(demo_netlist, 3)
    b = partition_hash(demo_netlist, 3)
    assert a.die_of == b.die_of


def test_hash_rename_changes_only_that_label(demo_netlist):
    a = partition_hash(demo_netlist, 2)
    renamed = parse_blif(
        ".model m\n.inputs a b c d\n.outputs Y F\n"
        ".names a b Xz\n10 1\n01 1\n.names Xz c Y\n10 1\n01 1\n"
        ".names a d F\n10 1\n01 1\n.end")
    b = partition_hash(renamed, 2)
    for name in ("a", "b", "c", "d", "Y", "F"):
        assert a.die_of[name] == b.die_of[name]


def test_hash_balance_on_large_netlist():
    n = random_netlist(1, num_pis=16, num_nodes=1200, k=4, num_pos=10)
    a = partition_hash(n, 2)
    assert a.imbalance() <= 1.15


def test_assignment_file_roundtrip(tmp_path, demo_netlist, demo_assignment):
    path = tmp_path / "p.txt"
    save_assignment(demo_assignment, path)
    loaded = load_assignment(demo_netlist, path)
    assert loaded.die_of == demo_assignment.die_of
    assert loaded.num_dies == demo_assignment.num_dies


def test_assignment_file_errors(tmp_path, demo_netlist):
    missing = tmp_path / "missing.txt"
    missing.write_text("# dies 2\nX 0\nY 1\n")  # F absent
    with pytest.raises(PartitionError) as err:
        load_assignment(demo_netlist, missing)
    assert "'F'" in str(err.value)

    out_of_range = tmp_path / "range.txt"
    out_of_range.write_text("# dies 2\nX 0\nY 1\nF 2\n")
    with pytest.raises(PartitionError) as err:
        load_assignment(demo_netlist, out_of_range)
    assert "out of range" in str(err.value)

    dup = tmp_path / "dup.txt"
    dup.write_text("X 0\nX 1\nY 0\nF 0\n")
    with pytest.raises(PartitionError) as err:
        load_assignment(demo_netlist, dup)
    assert "duplicate" in str(err.value)

    unknown = tmp_path / "unk.txt"
    unknown.write_text("X 0\nY 1\nF 0\nnope 1\n")
    with pytest.raises(PartitionError) as err:
        load_assignment(demo_netlist, unknown)
    assert "unknown" in str(err.value)


def test_dies_header_must_match_a_given_die_count(tmp_path, demo_netlist):
    path = tmp_path / "p.txt"
    path.write_text("X 0\n# dies 3\nY 1\nF 1\n")
    assert load_assignment(demo_netlist, path).num_dies == 3
    assert load_assignment(demo_netlist, path, 3).num_dies == 3
    with pytest.raises(PartitionError, match="line 2: '# dies 3' disagrees with the 2 dies"):
        load_assignment(demo_netlist, path, 2)
    # without a header a given count rules, and the file's highest die otherwise
    path.write_text("X 0\nY 1\nF 1\n")
    assert load_assignment(demo_netlist, path, 4).num_dies == 4
    assert load_assignment(demo_netlist, path).num_dies == 2


def test_assignment_file_defaults_pis_to_reader_die(tmp_path, demo_netlist):
    path = tmp_path / "p.txt"
    path.write_text("# dies 2\nX 0\nY 1\nF 1\n")
    loaded = load_assignment(demo_netlist, path)
    assert loaded.die_of["b"] == 0  # b feeds only X
    assert loaded.die_of["c"] == 1  # c feeds only Y
    assert loaded.die_of["a"] == 0  # lowest-id reader is X


def test_assignment_for_dispatch(tmp_path, demo_netlist, demo_assignment):
    path = tmp_path / "p.txt"
    save_assignment(demo_assignment, path)
    cfg = PartitionConfig(num_dies=2, mode="external_file", partition_file=str(path))
    assert assignment_for(demo_netlist, cfg).die_of == demo_assignment.die_of
    with pytest.raises(PartitionError):
        assignment_for(demo_netlist, PartitionConfig(num_dies=2, mode="bogus"))


def test_cut_equals_net_level_sll_on_two_pin_nets():
    # chain netlist: every net has exactly one reader
    lines = [".model chain", ".inputs a", ".outputs n9"]
    prev = "a"
    for i in range(10):
        lines += [".names %s n%d" % (prev, i), "0 1"]
        prev = "n%d" % i
    n = parse_blif("\n".join(lines) + "\n.end")
    for seed in range(4):
        a = partition_fm(n, PartitionConfig(num_dies=2, ub=1.25, seed=seed))
        assert _cut(n, a) == count_sll(n, a, "per-die")


@pytest.mark.parametrize("header", ["# dies\n", "# dies \n", "# dies x\n", "# dies 0\n",
                                    "# dies -3\n"])
def test_malformed_dies_header_names_line_1(tmp_path, demo_netlist, header):
    path = tmp_path / "bad.dies"
    path.write_text(header + "X 0\nY 1\nF 1\n")
    with pytest.raises(PartitionError, match="line 1: expected '# dies <count>'"):
        load_assignment(demo_netlist, path)


def _pin_sets(netlist):
    """Reference hyperedges: driver -> sorted pins (the driver plus every
    LUT and latch reading it), for nets with two pins or more."""
    readers = {}
    for node in netlist.nodes.values():
        for f in node.fanins:
            readers.setdefault(f, set()).add(node.output_net)
    for latch in netlist.latches:
        readers.setdefault(latch.input_net, set()).add(latch.output_net)
    out = {}
    for name, _w in entities(netlist):
        pins = {name} | readers.get(name, set())
        if len(pins) >= 2:
            out[name] = tuple(sorted(pins))
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), dies=st.integers(2, 4), latches=st.integers(0, 3))
def test_hyperedges_match_pin_sets_and_cut_is_raw_net_sll(seed, dies, latches):
    n = random_netlist(seed, num_pis=6, num_nodes=30, k=4, num_pos=4,
                       num_latches=latches)
    names = [e for e, _w in entities(n)]
    edges = [tuple(names[p] for p in pins) for pins in hyperedges(n, entities(n))]
    ref = _pin_sets(n)
    assert edges == [ref[name] for name in names if name in ref]
    rng = random.Random(seed)
    for a in (partition_hash(n, dies),
              partition_fm(n, PartitionConfig(num_dies=dies, seed=seed)),
              DieAssignment(dies, {name: rng.randrange(dies) for name, _w in entities(n)},
                            dict(entities(n)))):
        cut = sum(1 for pins in edges if len({a.die(p) for p in pins}) > 1)
        assert _cut(n, a) == cut


def _reference_partition_fm(netlist, config):
    """`partition_fm` in name space: each bisection rescans every hyperedge
    of `_pin_sets` by membership of its region's names."""
    ents = entities(netlist)
    weights = dict(ents)
    total = sum(weights.values())
    cap_per_die = max(int(math.floor(config.ub * total / config.num_dies + 1e-9)),
                      math.ceil(total / config.num_dies))
    all_nets = list(_pin_sets(netlist).values())
    die_of = {}

    def recurse(region, dies):
        if len(dies) == 1:
            for v in region:
                die_of[v] = dies[0]
            return
        k1 = len(dies) // 2
        caps = (cap_per_die * k1, cap_per_die * (len(dies) - k1))
        region_set = set(region)
        sub_nets = []
        for pins in all_nets:
            inside = tuple(p for p in pins if p in region_set)
            if len(inside) >= 2:
                sub_nets.append(inside)
        rng = random.Random("%s/%d:%d" % (config.seed, dies[0], dies[-1]))
        region_w = sum(weights[v] for v in region)
        sides = _fm_bipartition(_graph(region, weights, sub_nets), caps, rng,
                                target0=region_w * k1 / len(dies))
        recurse([v for v, s in zip(region, sides) if s == 0], dies[:k1])
        recurse([v for v, s in zip(region, sides) if s == 1], dies[k1:])

    recurse([name for name, _w in ents], range(config.num_dies))
    return die_of


@pytest.mark.parametrize("k", [4, 6])
@pytest.mark.parametrize("name", bench.BENCH_NAMES)
def test_fm_matches_name_space_reference_on_builtins(name, k):
    n = bench.build(name, k)
    for dies in (2, 3, 4):
        config = PartitionConfig(num_dies=dies)
        ref = _reference_partition_fm(n, config)
        assert list(partition_fm(n, config).die_of.items()) == list(ref.items())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), dies=st.integers(2, 4), latches=st.integers(1, 3))
def test_fm_matches_name_space_reference_on_random_netlists(seed, dies, latches):
    n = random_netlist(seed, num_pis=8, num_nodes=60, k=4, num_pos=4,
                       num_latches=latches)
    config = PartitionConfig(num_dies=dies, seed=seed)
    ref = _reference_partition_fm(n, config)
    assert list(partition_fm(n, config).die_of.items()) == list(ref.items())


def _reference_fm_bipartition(graph, caps, rng, target0, trace):
    """FM as `_fm_bipartition` runs it, but every pass moves until no
    unlocked vertex fits its target side, with no cut-off."""
    n = len(graph.weights)
    side, side_w, _connected = _fm_seed(graph, caps, rng, target0)
    for _pass in range(MAX_FM_PASSES):
        counts = [[0, 0] for _ in graph.nets]
        for ni, pins in enumerate(graph.nets):
            for p in pins:
                counts[ni][side[p]] += 1
        cut = sum(1 for c in counts if c[0] and c[1])
        gains = [0] * n
        for ni, pins in enumerate(graph.nets):
            for p in pins:
                f = side[p]
                if counts[ni][f] == 1:
                    gains[p] += 1
                if counts[ni][1 - f] == 0:
                    gains[p] -= 1
        locked = [False] * n
        heap = []
        for v in range(n):
            heapq.heappush(heap, (-gains[v], v, gains[v]))
        moves = []
        best_cut, best_len = cut, 0
        cur_cut = cut
        while len(moves) < n:
            entry = None
            skipped = []
            while heap:
                g, v, g_at_push = heapq.heappop(heap)
                if locked[v] or g_at_push != gains[v]:
                    continue
                t = 1 - side[v]
                if side_w[t] + graph.weights[v] > caps[t]:
                    skipped.append((g, v, g_at_push))
                    continue
                entry = v
                break
            for s in skipped:
                heapq.heappush(heap, s)
            if entry is None:
                break
            v = entry
            f = side[v]
            t = 1 - f
            move_gain = gains[v]
            locked[v] = True
            for ni in graph.nets_of[v]:
                pins = graph.nets[ni]
                if counts[ni][t] == 0:
                    for p in pins:
                        if not locked[p]:
                            gains[p] += 1
                            heapq.heappush(heap, (-gains[p], p, gains[p]))
                elif counts[ni][t] == 1:
                    for p in pins:
                        if not locked[p] and side[p] == t:
                            gains[p] -= 1
                            heapq.heappush(heap, (-gains[p], p, gains[p]))
                counts[ni][f] -= 1
                counts[ni][t] += 1
                if counts[ni][f] == 0:
                    for p in pins:
                        if not locked[p]:
                            gains[p] -= 1
                            heapq.heappush(heap, (-gains[p], p, gains[p]))
                elif counts[ni][f] == 1:
                    for p in pins:
                        if not locked[p] and side[p] == f:
                            gains[p] += 1
                            heapq.heappush(heap, (-gains[p], p, gains[p]))
            cur_cut -= move_gain
            side[v] = t
            side_w[f] -= graph.weights[v]
            side_w[t] += graph.weights[v]
            moves.append(v)
            if cur_cut < best_cut:
                best_cut, best_len = cur_cut, len(moves)
        for v in reversed(moves[best_len:]):
            t = side[v]
            side[v] = 1 - t
            side_w[t] -= graph.weights[v]
            side_w[1 - t] += graph.weights[v]
        trace.append((cut, min(best_cut, cut)))
        if best_cut >= cut:
            break
    return side


def _assert_fm_matches_reference(netlist, num_dies, seed=0):
    """Partition `netlist`, checking every bisection against the reference."""
    checked = []

    def both(graph, caps, rng, target0, trace=None):
        ref_rng = random.Random()
        ref_rng.setstate(rng.getstate())
        ref_trace, got_trace = [], []
        ref = _reference_fm_bipartition(graph, caps, ref_rng, target0, ref_trace)
        got = _fm_bipartition(graph, caps, rng, target0, got_trace)
        assert got == ref
        assert got_trace == ref_trace
        checked.append(len(graph.weights))
        return got

    with mock.patch.object(partition, "_fm_bipartition", both):
        partition_fm(netlist, PartitionConfig(num_dies=num_dies, seed=seed))
    assert len(checked) == num_dies - 1


@pytest.mark.parametrize("k", [4, 6])
@pytest.mark.parametrize("name", bench.BENCH_NAMES)
def test_fm_cutoff_matches_full_passes_on_builtins(name, k):
    n = bench.build(name, k)
    for dies in (2, 3, 4):
        _assert_fm_matches_reference(n, dies)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), dies=st.integers(2, 4), latches=st.integers(0, 3))
def test_fm_cutoff_matches_full_passes_on_random_netlists(seed, dies, latches):
    n = random_netlist(seed, num_pis=8, num_nodes=60, k=4, num_pos=4,
                       num_latches=latches)
    _assert_fm_matches_reference(n, dies, seed)


class _CountingList(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_fm_cutoff_ends_passes_early():
    # FM reads nets_of[v] once per vertex in the seed's BFS and once per
    # move; with caps that block no move, a pass without the cut-off moves
    # all n vertices
    n = bench.build("i2c", 6)
    graph = _entity_graph(n)
    total = sum(graph.weights)
    size = len(graph.weights)
    graph.nets_of = _CountingList(graph.nets_of)
    trace = []
    _fm_bipartition(graph, (total, total), random.Random(0), total / 2, trace)
    moves = graph.nets_of.reads - size
    assert 0 < moves < len(trace) * size


def _random_hypergraph(rng, size, connected):
    """`size` vertices of weight 0 to 2 and random nets of 2 to 4 pins. A
    connected graph gets a spanning tree of 2-pin nets first; otherwise
    every net stays within one of two halves."""
    names = ["v%d" % i for i in range(size)]
    weights = {v: rng.choice((0, 1, 1, 2)) for v in names}
    nets = []
    if connected:
        nets += [(names[rng.randrange(i)], names[i]) for i in range(1, size)]
        groups = [names]
    else:
        half = rng.randint(1, size - 1)
        groups = [names[:half], names[half:]]
    for _ in range(rng.randint(0, 2 * size)):
        group = rng.choice(groups)
        if len(group) >= 2:
            nets.append(tuple(rng.sample(group, rng.randint(2, min(4, len(group))))))
    return _graph(names, weights, nets)


def _connected(graph):
    """True when the nets join every vertex of a graph with at least one
    vertex into one component."""
    n = len(graph.weights)
    seen = [False] * n
    expanded = [False] * len(graph.nets)
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        for ni in graph.nets_of[stack.pop()]:
            if expanded[ni]:
                continue
            expanded[ni] = True
            for p in graph.nets[ni]:
                if not seen[p]:
                    seen[p] = True
                    reached += 1
                    stack.append(p)
    return reached == n


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), size=st.integers(2, 24), connected=st.booleans())
def test_bfs_reports_connectivity_on_random_hypergraphs(seed, size, connected):
    rng = random.Random(seed)
    graph = _random_hypergraph(rng, size, connected)
    order, reached_all = _bfs_order(graph, rng)
    assert sorted(order) == list(range(size))
    assert reached_all == _connected(graph) == connected


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), size=st.integers(2, 24), connected=st.booleans(),
       slack=st.integers(-2, 3), lopsided=st.booleans())
def test_fm_floor_matches_full_passes_on_random_hypergraphs(seed, size, connected,
                                                            slack, lopsided):
    # caps from below half the weight up to ones that let a side hold it all
    rng = random.Random(seed)
    graph = _random_hypergraph(rng, size, connected)
    total = sum(graph.weights)
    cap = max(-(-total // 2) + slack, max(graph.weights))
    caps = (total, cap) if lopsided else (cap, cap)
    target0 = total / 2
    ref_trace, got_trace = [], []
    try:
        ref = _reference_fm_bipartition(graph, caps, random.Random(seed), target0, ref_trace)
    except PartitionError:
        with pytest.raises(PartitionError):
            _fm_bipartition(graph, caps, random.Random(seed), target0)
        return
    assert _fm_bipartition(graph, caps, random.Random(seed), target0, got_trace) == ref
    assert got_trace == ref_trace


def _hub_hypergraph(rng, size, hubs):
    """`size` vertices of weight 0 to 3; each of the first `hubs` vertices
    sits on 2 to 12 nets of 2 to 8 pins, and random nets of 2 to 8 pins
    join the rest."""
    names = ["v%d" % i for i in range(size)]
    weights = {v: rng.choice((0, 1, 1, 2, 3)) for v in names}
    nets = []
    for hub in names[:hubs]:
        others = [v for v in names if v != hub]
        for _ in range(rng.randint(2, 12)):
            nets.append((hub, *rng.sample(others, rng.randint(1, min(7, len(others))))))
    for _ in range(rng.randint(0, size)):
        nets.append(tuple(rng.sample(names, rng.randint(2, min(8, size)))))
    rng.shuffle(nets)
    return _graph(names, weights, nets)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**6), size=st.integers(3, 30), hubs=st.integers(1, 3),
       slack=st.integers(-1, 3), lopsided=st.booleans())
def test_fm_matches_full_passes_on_hub_hypergraphs(seed, size, hubs, slack, lopsided):
    # hubs with up to 12 nets of their own, of up to 8 pins, take gains
    # from -degree to +degree, and tight caps over weights up to 3 make
    # the heap skip entries that do not fit
    rng = random.Random(seed)
    graph = _hub_hypergraph(rng, size, hubs)
    total = sum(graph.weights)
    cap = max(-(-total // 2) + slack, max(graph.weights))
    caps = (total, cap) if lopsided else (cap, cap)
    ref_trace, got_trace = [], []
    try:
        ref = _reference_fm_bipartition(graph, caps, random.Random(seed), total / 2, ref_trace)
    except PartitionError:
        with pytest.raises(PartitionError):
            _fm_bipartition(graph, caps, random.Random(seed), total / 2)
        return
    assert _fm_bipartition(graph, caps, random.Random(seed), total / 2, got_trace) == ref
    assert got_trace == ref_trace


def test_fm_floor_ends_a_pass_at_cut_one():
    # adder k=4 on 2 dies: both passes end at cut 1, after 5 moves in all
    # with the floor and 65 without it; nets_of is read once per vertex by
    # the seed's BFS, which also reports connectivity, and once per move
    n = bench.build("adder", 4)
    graph = _entity_graph(n)
    total = sum(graph.weights)
    cap = max(int(1.25 * total / 2), -(-total // 2))
    size = len(graph.weights)
    moves, sides = [], []
    for floor in (True, False):
        graph.nets_of = _CountingList(graph.nets_of)
        with mock.patch.object(partition, "_bfs_order",
                               _bfs_order if floor else
                               lambda g, rng: (_bfs_order(g, rng)[0], False)):
            sides.append(_fm_bipartition(graph, (cap, cap), random.Random(0), total / 2))
        moves.append(graph.nets_of.reads - size)
    assert sides[0] == sides[1]
    assert 0 < moves[0] < moves[1]
