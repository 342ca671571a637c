"""Oracle and property tests for the state the sweep keeps up to date per pivot
and per commit: window growth and its shrink steps, node levels, the audit
deltas, the die assignment, the on-demand window values, the window masks
shared across pivots, the care set and the forced-pivot resimulation. Each
is checked against a from-scratch recomputation.
"""

import functools
import heapq
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sllresub import bench, resynth, windows
from sllresub.metrics import count_sll_fo
from sllresub.netlist import Netlist, NetlistError, write_blif
from sllresub.partition import entities, partition_hash
from sllresub.resynth import ResynConfig, resynthesize
from sllresub.truthtab import TruthTable, full_mask, minterm_masks
from sllresub.windows import (ResynthError, ValueCache, Window, WindowSim, build_window,
                              extract_care_set, observable)

from conftest import cone_input_nets, random_netlist, tfi


def _reference_grow_window(netlist, pivot, d1, d2):
    """Side-logic growth by repeated sweeps over every node in (level, id) order."""
    tfo_ids = netlist.tfo(pivot, d1) if d1 > 0 else set()
    tfi_ids = tfi(netlist, pivot, d2)
    core = {pivot} | tfo_ids | tfi_ids
    leaves = set(cone_input_nets(netlist, tfi_ids | {pivot}))
    window = set(core)
    if d1 == 0:
        return window
    full_tfo = netlist.tfo(pivot, None)
    depth_cap = d1 + d2
    window_nets = {netlist.nodes[n].output_net for n in window}
    free = set(netlist.primary_inputs) | {l.output_net for l in netlist.latches}
    depth = {net: 0 for net in leaves}
    level = netlist.levels()
    candidates = sorted((n for n in netlist.nodes if n not in window and n not in full_tfo),
                        key=lambda n: (level[n], n))
    changed = True
    while changed:
        changed = False
        for nid in candidates:
            if nid in window:
                continue
            node = netlist.nodes[nid]
            ok = True
            d = 0
            feeds_leaf = False
            for f in node.fanins:
                if f in window_nets or f in leaves:
                    d = max(d, depth.get(f, 0) + 1)
                    feeds_leaf = True
                elif f in free:
                    d = max(d, 1)
                else:
                    ok = False
                    break
            if ok and feeds_leaf and d <= depth_cap:
                window.add(nid)
                window_nets.add(node.output_net)
                depth[node.output_net] = d
                changed = True
    return window


def _grow_window(netlist, pivot, d1, d2, full_tfo):
    """Side-logic growth from one (level, id) heap of readers, from scratch."""
    tfo_ids = netlist.tfo(pivot, d1) if d1 > 0 else set()
    tfi_ids = tfi(netlist, pivot, d2)
    window = {pivot} | tfo_ids | tfi_ids
    if d1 == 0:
        return window
    leaves = set(cone_input_nets(netlist, tfi_ids | {pivot}))
    depth_cap = d1 + d2
    window_nets = {netlist.nodes[n].output_net for n in window}
    free = set(netlist.primary_inputs) | {l.output_net for l in netlist.latches}
    depth = {net: 0 for net in leaves}
    level = netlist.levels()

    def queue_readers(net):
        for r in netlist.reader_ids.get(net, ()):
            if r not in queued and r not in window and r not in full_tfo:
                queued.add(r)
                heapq.heappush(heap, (level[r], r))

    heap = []
    queued = set()
    for net in window_nets | leaves:
        queue_readers(net)
    while heap:
        nid = heapq.heappop(heap)[1]
        node = netlist.nodes[nid]
        ok = True
        d = 0
        feeds_leaf = False
        for f in node.fanins:
            if f in window_nets or f in leaves:
                d = max(d, depth.get(f, 0) + 1)
                feeds_leaf = True
            elif f in free:
                d = max(d, 1)
            else:
                ok = False
                break
        if ok and feeds_leaf and d <= depth_cap:
            window.add(nid)
            window_nets.add(node.output_net)
            depth[node.output_net] = d
            queue_readers(node.output_net)
    return window


def _shrink_steps(config):
    """The (d1, d2) bounds build_window tries, in order."""
    d1, d2 = config.d1, config.d2
    while True:
        yield d1, d2
        if d2 > 1:
            d2 -= 1
        elif d1 > 0:
            d1 -= 1
        else:
            return


def _reference_build_window(netlist, pivot, config, full_tfo):
    """build_window by regrowing the window from scratch at every shrink step;
    `full_tfo` is the pivot's whole TFO, kept as `tfo`."""
    for d1, d2 in _shrink_steps(config):
        internal_set = _grow_window(netlist, pivot, d1, d2, full_tfo)
        internal_nets = {netlist.nodes[n].output_net for n in internal_set}
        pis = set()
        consts = set()
        for nid in internal_set:
            for f in netlist.nodes[nid].fanins:
                if f in internal_nets:
                    continue
                drv = netlist.node_of_net(f)
                if drv is not None and not drv.fanins:
                    consts.add(drv.id)
                else:
                    pis.add(f)
        internal_set |= consts
        if len(pis) <= config.window_pi_cap:
            break
    else:
        return None
    level = netlist.levels()
    internal = sorted(internal_set, key=lambda n: (level[n], n))
    return Window(pivot, sorted(pis), internal, full_tfo)


def _reference_outputs(netlist, window):
    """Window nets that are POs, latch inputs or read by a node outside
    the window, by node id, sorted."""
    inside = set(window.internal)
    sinks = set(netlist.sink_nets())
    outputs = []
    for nid in window.internal:
        net = netlist.nodes[nid].output_net
        if net in sinks or any(r not in inside for r in netlist.reader_ids.get(net, ())):
            outputs.append(net)
    return sorted(outputs)


def _assert_observable_matches_reference(netlist, window):
    """`observable` over every window net names the reference outputs."""
    nets = {netlist.nodes[nid].output_net for nid in window.internal}
    got = sorted(net for net in nets if observable(netlist, net, nets))
    assert got == _reference_outputs(netlist, window), window.pivot


@functools.lru_cache(maxsize=None)
def _fresh_and_swept(name, k):
    """The built-in at k and the netlist one sweep leaves. After a sweep,
    replaced nodes carry fresh ids, so id order is no longer topological.
    The netlists are shared between tests: read them, never edit them."""
    built = bench.build(name, k)
    return built, resynthesize(built, partition_hash(built, 2),
                               ResynConfig(verify_each_commit=False)).netlist


@pytest.mark.parametrize("name", bench.BENCH_NAMES)
def test_grow_window_matches_global_scan_on_every_pivot(name):
    for n in _fresh_and_swept(name, 4):
        for pivot in sorted(n.nodes):
            full_tfo = n.tfo(pivot, None)
            for d1, d2 in ((2, 8), (1, 3)):
                assert _grow_window(n, pivot, d1, d2, full_tfo) \
                    == _reference_grow_window(n, pivot, d1, d2), (pivot, d1, d2)


def _assert_matches_regrowth(netlist, pivot, config, full_tfo):
    _assert_window_matches_regrowth(netlist, build_window(netlist, netlist.nodes[pivot], config),
                                    pivot, config, full_tfo)


def _assert_window_matches_regrowth(netlist, got, pivot, config, full_tfo):
    """`got`, build_window's answer for `pivot`, is the regrown window."""
    want = _reference_build_window(netlist, pivot, config, full_tfo)
    assert (got is None) == (want is None), pivot
    if got is None:
        return
    assert (got.window_pis, got.internal) == (want.window_pis, want.internal), pivot
    _assert_observable_matches_reference(netlist, got)
    # Window.tfo: the pivot's TFO up to L0 + d1 + d2, L0 the highest level
    # among the pivot and its TFO up to d1
    level = netlist.levels()
    top = max(level[n] for n in netlist.tfo(pivot, config.d1) | {pivot})
    assert got.tfo == {n for n in full_tfo if level[n] <= top + config.d1 + config.d2}


SHRINK_CONFIGS = [ResynConfig(d1=2, d2=8, window_pi_cap=14),
                  ResynConfig(d1=1, d2=3, window_pi_cap=6),
                  ResynConfig(d1=0, d2=4, window_pi_cap=4)]


@pytest.mark.parametrize("name", bench.BENCH_NAMES)
def test_build_window_matches_regrowth_at_every_shrink_step(name):
    for k in (4, 6):
        for n in _fresh_and_swept(name, k):
            for pivot in sorted(n.nodes):
                full_tfo = n.tfo(pivot, None)
                for config in SHRINK_CONFIGS:
                    _assert_matches_regrowth(n, pivot, config, full_tfo)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), latches=st.integers(0, 2), d1=st.integers(0, 3),
       d2=st.integers(1, 4), cap=st.integers(1, 8))
def test_build_window_matches_regrowth_on_random_netlists(seed, latches, d1, d2, cap):
    n = random_netlist(seed, num_pis=6, num_nodes=40, k=4, num_pos=4,
                       num_latches=latches)
    config = ResynConfig(d1=d1, d2=d2, window_pi_cap=cap)
    for pivot in sorted(n.nodes):
        _assert_matches_regrowth(n, pivot, config, n.tfo(pivot, None))


def test_shrink_steps_need_not_be_nested():
    """div k=4, pivot g74: g36 is in the (1, 1) window but not the (2, 1) one.

    g36 reads the leaf g17. At (2, 1) g17's driver joins the side logic at
    depth 3, which puts g36 at depth 4, over the cap of 3. At (1, 1) the
    cap is 2, g17's driver stays out, the leaf counts depth 0 again, and
    g36 joins at depth 2. So a shrink step must be able to add nodes.
    """
    n = bench.build("div", 4)
    pivot, g36 = n.node_of_net("g74").id, n.node_of_net("g36").id
    full_tfo = n.tfo(pivot, None)
    assert g36 not in _grow_window(n, pivot, 2, 1, full_tfo)
    assert g36 in _grow_window(n, pivot, 1, 1, full_tfo)
    unshrunk = build_window(n, n.nodes[pivot], ResynConfig(d1=2, d2=1, window_pi_cap=100))
    assert g36 not in unshrunk.internal and unshrunk.num_pis > 15
    # a cap of 15 PIs rejects the (2, 1) window and takes the (1, 1) one
    config = ResynConfig(d1=2, d2=1, window_pi_cap=15)
    assert g36 in build_window(n, n.nodes[pivot], config).internal
    _assert_matches_regrowth(n, pivot, config, full_tfo)


def _source_leaf_netlist(seed, d2, extra):
    """A pivot whose TFI chain first reaches the PI `s` at distance d2 + 1,
    and side nodes that read `s` and a chain net.

    The chain nodes also read random PIs of `extra`, so a small PI cap
    shrinks d2. `s` then leaves the base: its side readers keep their
    depth but read a free source from then on, so `s` stays a window PI
    only through them.
    """
    rng = random.Random(seed)
    n = Netlist("leaf%d" % seed, 4)
    extras = ["x%d" % i for i in range(extra)]
    for pi in ["s"] + extras:
        n.add_input(pi)

    def lut(net, fanins):
        n.add_node(net, fanins, TruthTable(len(fanins), rng.getrandbits(1 << len(fanins))))

    chain, prev = [], "s"
    for i in range(d2, -1, -1):             # a<d2> reads s, a0 is the pivot
        lut("a%d" % i, [prev] + rng.sample(extras, rng.randint(0, min(2, extra))))
        chain.append("a%d" % i)
        prev = "a%d" % i
    for j in range(rng.randint(1, 3)):
        lut("side%d" % j, ["s", rng.choice(chain[:-1])]
            + rng.sample(extras, rng.randint(0, min(1, extra))))
    lut("out", ["a0", "side0"])
    n.add_output("out")
    n.validate()
    return n


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), d1=st.integers(1, 2), d2=st.integers(2, 4),
       extra=st.integers(0, 6))
def test_build_window_matches_regrowth_when_a_source_leaf_leaves_the_base(
        seed, d1, d2, extra):
    n = _source_leaf_netlist(seed, d2, extra)
    pivot = n.node_of_net("a0").id
    full_tfo = n.tfo(pivot, None)
    for cap in range(1, extra + 4):
        _assert_matches_regrowth(n, pivot, ResynConfig(d1=d1, d2=d2, window_pi_cap=cap),
                                 full_tfo)


def _sweep_checking_windows(netlist, assignment, config):
    """Resynthesize, checking every window built mid-sweep against regrowth;
    returns the number of windows built and the number of commits."""
    build = resynth.build_window
    built = []

    def checked(work, pivot, cfg):
        got = build(work, pivot, cfg)
        _assert_window_matches_regrowth(work, got, pivot.id, cfg, work.tfo(pivot.id, None))
        built.append(got)
        return got

    with mock.patch.object(resynth, "build_window", checked):
        result = resynthesize(netlist, assignment, config)
    return len(built), result.report.commits


MID_SWEEP_CONFIGS = [ResynConfig(passes=-1, verify_each_commit=False),
                     ResynConfig(d1=1, d2=3, window_pi_cap=6, passes=-1,
                                 verify_each_commit=False)]


@pytest.mark.parametrize("name, k", [("dec", 4), ("log2", 6)])
@pytest.mark.parametrize("dies", [2, 4])
def test_windows_built_mid_sweep_match_regrowth_on_builtins(name, k, dies):
    """Commits give the nodes they touch fresh ids and move levels; every
    window the sweep builds after them is still the regrown one."""
    n = bench.build(name, k)
    for config in MID_SWEEP_CONFIGS:
        built, commits = _sweep_checking_windows(n, partition_hash(n, dies), config)
        assert built > 100 and commits > 20


@pytest.mark.parametrize("seed", range(6))
def test_windows_built_mid_sweep_match_regrowth_on_random_netlists(seed):
    n = random_netlist(seed, num_pis=6, num_nodes=40, k=4, num_pos=4,
                       num_latches=1 + seed % 2)
    for config in MID_SWEEP_CONFIGS:
        _sweep_checking_windows(n, partition_hash(n, 2 + seed % 3), config)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), dies=st.integers(2, 4), latches=st.integers(0, 2),
       passes=st.sampled_from([1, -1]))
def test_commit_state_matches_recomputation(seed, dies, latches, passes):
    n = random_netlist(seed, num_pis=6, num_nodes=24, k=4, num_pos=4,
                       num_latches=latches)
    asg = partition_hash(n, dies)
    seen = []
    apply = resynth.apply_resubstitution

    def checked(netlist, assignment, candidate):
        """The commit, then its levels against a rebuild and its exact edge change."""
        before = count_sll_fo(netlist, assignment)
        change = apply(netlist, assignment, candidate)
        assert netlist.levels() == netlist._levels_from_scratch()
        seen.append(count_sll_fo(netlist, assignment) - before)
        return change

    with mock.patch.object(resynth, "apply_resubstitution", checked):
        res = resynthesize(n, asg, ResynConfig(passes=passes, verify_each_commit=False))
    deltas = [a.n_sll_fo_delta for a in res.report.audit if a.outcome == "committed"]
    assert deltas == seen
    assert sum(deltas) == res.report.after["n_sll_fo"] - res.report.before["n_sll_fo"]
    assert all(a.n_sll_fo_delta is None for a in res.report.audit if a.outcome != "committed")
    # the dies and weights of swept nodes are dropped with them
    assert res.assignment.weights == dict(entities(res.netlist))
    assert res.assignment.die_of.keys() == res.assignment.weights.keys()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), edits=st.integers(1, 12))
def test_levels_follow_random_edits(seed, edits):
    rng = random.Random(seed)
    n = random_netlist(seed, num_pis=5, num_nodes=20, k=4, num_pos=3)
    n.levels()
    for _ in range(edits):
        nid = rng.choice(sorted(n.nodes))
        banned = n.tfo(nid) | {nid}
        pool = sorted(net for net in n.source_nets() + [x.output_net for x in n.nodes.values()]
                      if n.node_of_net(net) is None or n.node_of_net(net).id not in banned)
        fanins = rng.sample(pool, rng.randint(1, min(4, len(pool))))
        table = TruthTable(len(fanins), rng.getrandbits(1 << len(fanins)))
        node = n.replace_node(nid, fanins, table)
        n.sweep_dead(pool)
        assert n.levels() == n._levels_from_scratch()
        if node.id not in n.nodes:
            break


def _copy_without_relevelling(netlist):
    with mock.patch.object(Netlist, "_levels_from_scratch",
                           side_effect=AssertionError("copy recomputed its levels")):
        out = netlist.copy()
        out.levels()
    return out


@pytest.mark.parametrize("name", bench.BENCH_NAMES)
def test_copy_carries_levels_on_builtins(name):
    n = bench.build(name, 6)
    n.levels()
    c = _copy_without_relevelling(n)
    assert c.levels() == c._levels_from_scratch()
    level, copied = n.levels(), c.levels()
    assert ({node.output_net: level[nid] for nid, node in n.nodes.items()}
            == {node.output_net: copied[nid] for nid, node in c.nodes.items()})


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), latches=st.integers(0, 3), edits=st.integers(1, 8))
def test_copy_carries_levels_through_edits(seed, latches, edits):
    rng = random.Random(seed)
    n = random_netlist(seed, num_pis=5, num_nodes=24, k=4, num_pos=3, num_latches=latches)
    # edit the original first, so that its ids have gaps the copy closes
    victim = rng.choice(sorted(n.nodes))
    n.replace_node(victim, list(n.nodes[victim].fanins), n.nodes[victim].function)
    c = _copy_without_relevelling(n)
    assert c.levels() == c._levels_from_scratch()
    for _ in range(edits):
        nid = rng.choice(sorted(c.nodes))
        banned = c.tfo(nid) | {nid}
        pool = sorted(net for net in c.source_nets() + [x.output_net for x in c.nodes.values()]
                      if c.node_of_net(net) is None or c.node_of_net(net).id not in banned)
        fanins = rng.sample(pool, rng.randint(1, min(4, len(pool))))
        c.replace_node(nid, fanins, TruthTable(len(fanins), rng.getrandbits(1 << len(fanins))))
        c.sweep_dead(pool)
        assert c.levels() == c._levels_from_scratch()
        if not c.nodes:
            break


def test_edit_that_closes_a_cycle_is_reported_by_levels():
    n = random_netlist(3, num_pis=4, num_nodes=12, k=4, num_pos=2)
    n.levels()
    deep = max(n.nodes, key=lambda nid: n.levels()[nid])
    first = next(nid for nid in sorted(n.nodes) if deep in n.tfo(nid))
    n.replace_node(first, [n.nodes[deep].output_net], TruthTable(1, 0b10))
    with pytest.raises(NetlistError, match="cycle"):
        n.levels()


@pytest.mark.parametrize("seed", range(30))
def test_fanout_cone_check_matches_tfo(seed):
    n = random_netlist(seed, num_pis=5, num_nodes=25, k=4, num_pos=4, num_latches=seed % 2)
    nets = n.source_nets() + [node.output_net for node in n.nodes.values()]
    for pivot in n.nodes:
        cone = n.tfo(pivot) | {pivot}
        for net in nets:
            drv = n.node_of_net(net)
            assert resynth._in_fanout_cone(n, pivot, net) == (drv is not None and drv.id in cone)


def _eager_window_values(netlist, window, forced=None):
    """Every window net simulated in topological order, the pivot forced
    to the constant `forced` unless it is None."""
    values = minterm_masks(window.window_pis)
    pivot = netlist.nodes[window.pivot]
    for nid in window.internal:
        node = netlist.nodes[nid]
        if node is pivot and forced is not None:
            values[node.output_net] = full_mask(window.width) if forced else 0
        else:
            values[node.output_net] = node.function.eval_masks(
                [values[f] for f in node.fanins], window.width)
    return values


def _windows_of(name):
    """Every window of a built-in at k=4 under the default configuration."""
    n = bench.build(name, 4)
    config = ResynConfig()
    for pivot in sorted(n.nodes):
        window = build_window(n, n.nodes[pivot], config)
        if window is not None:
            yield n, window


@pytest.mark.parametrize("name", bench.BENCH_NAMES)
def test_on_demand_window_values_match_eager_simulation(name):
    for n, window in _windows_of(name):
        sim = WindowSim(n, window)
        want = _eager_window_values(n, window)
        assert set(sim.values) <= set(want)
        assert sim.pivot_mask == want[sim.pivot_net]
        # the highest nets first, so each read evaluates a whole cone
        for net in reversed(window.window_pis
                            + [n.nodes[nid].output_net for nid in window.internal]):
            assert sim.value_of(net) == want[net], (name, sim.pivot_net, net)
        assert sim.values == want


@pytest.mark.parametrize("name", bench.BENCH_NAMES)
def test_care_set_matches_all_output_reference(name):
    for n, window in _windows_of(name):
        _assert_observable_matches_reference(n, window)
        pivot_net = n.nodes[window.pivot].output_net
        outputs = _reference_outputs(n, window)
        if pivot_net in outputs:
            want = full_mask(window.width)
        else:
            v0 = _eager_window_values(n, window, 0)
            v1 = _eager_window_values(n, window, 1)
            want = 0
            for out in outputs:
                want |= v0[out] ^ v1[out]
        assert extract_care_set(n, WindowSim(n, window)) == want, (name, pivot_net)


@pytest.mark.parametrize("name", ["sin", "square", "i2c", "router", "voter"])
def test_forced_pivot_resim_matches_full_window_resim(name):
    for n, window in _windows_of(name):
        sim = WindowSim(n, window)
        fed = {sim.pivot_net}
        for nid in window.internal:
            node = n.nodes[nid]
            if not fed.isdisjoint(node.fanins):
                fed.add(node.output_net)
        for forced in (0, 1):
            want = _eager_window_values(n, window, forced)
            got = sim.resim_with_pivot(forced)
            assert fed <= set(got)
            assert got == {net: want[net] for net in got}


def _captured_values(sim):
    """Every net of `sim`'s window simulated from the nodes it captured."""
    window = sim.window
    values = minterm_masks(window.window_pis)
    for node in sim.nodes.values():     # captured in topological order
        values[node.output_net] = node.function.eval_masks(
            [values[f] for f in node.fanins], window.width)
    return values


def _resynthesize_recording(netlist, assignment, config):
    """Resynthesize, checking every mask a window took from the shared
    table against a simulation of the nodes that window captured.

    Returns the result and the number of masks the tables served.
    """
    sims = []

    class Recording(WindowSim):
        def __init__(self, work, window, cache=None, injected_care=None):
            # what the table may serve: it only grows until the pivot is done
            table = cache.tables.get(tuple(window.window_pis), {}) if cache else {}
            self.offered = dict(table)
            super().__init__(work, window, cache, injected_care)
            sims.append(self)

    with mock.patch.object(resynth, "WindowSim", Recording):
        result = resynthesize(netlist, assignment, config)
    served = 0
    for sim in sims:
        want = _captured_values(sim)
        for net, mask in sim.values.items():
            assert mask == want[net], (sim.pivot_net, net)
            if net in sim.offered:
                assert sim.offered[net] == mask
                served += 1
    return result, served


def _outputs(result):
    return write_blif(result.netlist), result.report.to_json()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), dies=st.integers(2, 4), latches=st.integers(0, 2),
       passes=st.sampled_from([1, -1]), verify=st.booleans())
def test_shared_masks_match_each_windows_own_simulation(seed, dies, latches, passes, verify):
    n = random_netlist(seed, num_pis=6, num_nodes=30, k=4, num_pos=4,
                       num_latches=latches)
    asg = partition_hash(n, dies)
    config = ResynConfig(passes=passes, verify_each_commit=verify)
    shared, _served = _resynthesize_recording(n, asg, config)
    with mock.patch.object(windows, "SHARED_PI_TUPLES", 0):
        alone = resynthesize(n, asg, config)
    assert _outputs(shared) == _outputs(alone)


@pytest.mark.parametrize("verify", [False, True])
def test_shared_masks_are_served_and_exact_on_builtins(verify):
    served = 0
    for name in ("i2c", "router", "voter", "square"):
        n = bench.build(name, 6)
        config = ResynConfig(passes=-1, verify_each_commit=verify)
        _result, count = _resynthesize_recording(n, partition_hash(n, 4), config)
        served += count
    assert served > 1000


def test_shared_table_serves_window_nets_only(demo_netlist):
    cache = ValueCache()
    window = build_window(demo_netlist, demo_netlist.node_of_net("X"),
                          ResynConfig(d1=30, d2=30, window_pi_cap=14))
    top = demo_netlist.nodes[window.internal[-1]]
    assert top.id != window.pivot
    sim = WindowSim(demo_netlist, window, cache)
    sim.value_of(top.output_net)
    assert top.output_net in cache.table(tuple(window.window_pis))
    # the same PIs without the top node: its cached mask must not be served
    smaller = Window(window.pivot, window.window_pis, window.internal[:-1], window.tfo)
    with pytest.raises(ResynthError, match="not evaluable"):
        WindowSim(demo_netlist, smaller, cache).value_of(top.output_net)


def test_invalidation_drops_the_pivot_and_its_cached_readers_only():
    n = bench.build("i2c", 6)
    cache = ValueCache()
    pivot = next(node for node in n.topological_order()
                 if len(n.reader_ids.get(node.output_net, ())) > 1)
    window = build_window(n, pivot, ResynConfig())
    sim = WindowSim(n, window, cache)
    for net in sim.nodes:
        sim.value_of(net)
    table = cache.table(tuple(window.window_pis))
    assert table.keys() == sim.nodes.keys()
    fed = {pivot.output_net} | {node.output_net for node in sim.pivot_fanout}
    cache.invalidate(n, pivot.output_net)
    assert table.keys() == sim.nodes.keys() - fed
