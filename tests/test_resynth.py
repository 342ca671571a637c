import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sllresub import bench, resynth
from sllresub.equiv import check_equivalence
from sllresub.metrics import count_sll, count_sll_fo
from sllresub.netlist import parse_blif, write_blif
from sllresub.partition import DieAssignment, partition_hash
from sllresub.resynth import (ResubCandidate, ResynConfig, apply_resubstitution,
                              find_equiv_func, resynthesize, select_cross_die_fanin)
from sllresub.truthtab import TruthTable
from sllresub.windows import ResynthError, WindowSim, build_window, extract_care_set

from conftest import TABLE2, random_netlist

WIDE = ResynConfig(d1=30, d2=30, window_pi_cap=14)


def _find(netlist, assignment, pivot_name, config=WIDE, care_net=None):
    pivot = netlist.node_of_net(pivot_name)
    window = build_window(netlist, pivot, config)
    sim = WindowSim(netlist, window, injected_care=care_net)
    care = extract_care_set(netlist, sim)
    return find_equiv_func(netlist, sim, care, assignment, config)


def test_cross_die_fanin_selection_prefers_deepest():
    text = (".model m\n.inputs a b c\n.outputs y\n"
            ".names a b p\n11 1\n"
            ".names p c y\n11 1\n.end")
    n = parse_blif(text)
    asg = DieAssignment(2, {"a": 0, "b": 0, "c": 0, "p": 0, "y": 1},
                        {"p": 1, "y": 1})
    # both fanins of y cross; p (level 1) is deeper than c (a PI)
    assert select_cross_die_fanin(n, asg, n.node_of_net("y")) == "p"
    asg2 = DieAssignment(2, {"a": 0, "b": 0, "c": 0, "p": 1, "y": 1},
                         {"p": 1, "y": 1})
    assert select_cross_die_fanin(n, asg2, n.node_of_net("y")) == "c"


def test_find_equiv_func_demo(demo_netlist, demo_assignment, demo_care):
    cand = _find(demo_netlist, demo_assignment, "F", care_net=demo_care)
    assert cand is not None
    assert cand.removed_fanin == "a"
    assert cand.new_support == ["d", "Y"]
    assert cand.new_function == TruthTable(2, 0b0110)


def test_find_equiv_func_redundant_fanin_uses_base_only():
    # y reads u but its function ignores it (cover: y = a regardless of u)
    text = (".model m\n.inputs a u\n.outputs y\n"
            ".names a u y\n10 1\n11 1\n.end")
    n = parse_blif(text)
    asg = DieAssignment(2, {"a": 1, "u": 0, "y": 1}, {"y": 1})
    cand = _find(n, asg, "y")
    assert cand is not None
    assert cand.removed_fanin == "u"
    assert cand.new_support == ["a"]
    assert cand.new_function == TruthTable(1, 0b10)
    # exhaustive confirmation that the original truly ignores u
    node = n.node_of_net("y")
    for m in range(4):
        assert (node.function.bits >> m) & 1 == m & 1


def test_find_equiv_func_none_when_no_divisor_helps():
    text = (".model m\n.inputs a u\n.outputs y\n"
            ".names a u y\n11 1\n.end")
    n = parse_blif(text)
    asg = DieAssignment(2, {"a": 1, "u": 0, "y": 1}, {"y": 1})
    assert _find(n, asg, "y") is None


def test_apply_resubstitution_demo(demo_netlist, demo_assignment, demo_care):
    n = demo_netlist
    cand = _find(n, demo_assignment, "F", care_net=demo_care)
    before = count_sll(n, demo_assignment)
    change = apply_resubstitution(n, demo_assignment, cand)
    assert change["removed_nodes"] == []
    assert n.lut_count() == 3
    assert n.node_of_net("F").fanins == ["d", "Y"]
    assert count_sll(n, demo_assignment) == before - 1 == 1
    assert count_sll_fo(n, demo_assignment) == 1
    n.validate()


def test_apply_resubstitution_rejects_cycles(demo_netlist, demo_assignment):
    n = demo_netlist
    text_before = write_blif(n)
    # Y's fanout cone is empty, but feeding X from Y would loop X->Y->X
    bad = ResubCandidate("X", "a", ["Y"], TruthTable(1, 0b10))
    with pytest.raises(ResynthError):
        apply_resubstitution(n, demo_assignment, bad)
    assert write_blif(n) == text_before  # untouched


def test_apply_resubstitution_sweeps_dead_fanin():
    text = (".model m\n.inputs a b c\n.outputs y\n"
            ".names a b p\n11 1\n"
            ".names p c y\n10 1\n01 1\n.end")
    n = parse_blif(text)
    asg = DieAssignment(2, {"a": 0, "b": 0, "c": 1, "p": 0, "y": 1},
                        {"p": 1, "y": 1})
    # replace y's function with one over {c} alone; p's cone dies
    cand = ResubCandidate("y", "p", ["c"], TruthTable(1, 0b01))
    change = apply_resubstitution(n, asg, cand)
    assert change["removed_nodes"] == ["p"]
    assert n.lut_count() == 1
    assert "p" not in asg.die_of
    n.validate()


def test_resynthesize_demo_single_commit(demo_netlist, demo_assignment, demo_care):
    res = resynthesize(demo_netlist, demo_assignment, ResynConfig(),
                       injected_care=demo_care)
    assert res.report.commits == 1
    commit = next(a for a in res.report.audit if a.outcome == "committed")
    assert commit.pivot == "F" and commit.removed_fanin == "a"
    assert commit.new_support == ["d", "Y"]
    assert res.report.after["n_sll"] == 1
    assert res.report.after["n_sll_fo"] == 1
    assert res.report.after["lut_count"] == 3
    # rebuilt F column equals the reference grid everywhere
    for a, b, c, d, _X, _Y, _F, fp, _care in TABLE2:
        out = res.netlist.simulate({"a": a, "b": b, "c": c, "d": d})
        assert out["F"] == fp
    v = check_equivalence(demo_netlist, res.netlist, care=demo_care)
    assert v.equivalent
    # inputs stay untouched
    assert demo_netlist.node_of_net("F").fanins == ["a", "d"]


def test_resynthesize_single_die_is_identity(demo_netlist):
    asg = DieAssignment(2, {k: 0 for k in "abcd"} | {k: 0 for k in "XYF"},
                        {k: 1 for k in "XYF"})
    res = resynthesize(demo_netlist, asg, ResynConfig())
    assert res.report.commits == 0
    assert write_blif(res.netlist) == write_blif(demo_netlist)
    assert res.report.audit == []
    assert res.report.skipped == demo_netlist.lut_count()


def test_resynthesize_voter_reduces_edges():
    n = bench.build("voter", 4)
    asg = partition_hash(n, 2)
    res = resynthesize(n, asg, ResynConfig(verify_each_commit=False))
    assert res.report.commits > 0
    assert res.report.after["n_sll_fo"] < res.report.before["n_sll_fo"]
    assert check_equivalence(n, res.netlist).equivalent


def test_resynthesize_monotone_area_and_edges():
    for name in ("voter", "int2float", "div"):
        n = bench.build(name, 4)
        asg = partition_hash(n, 2)
        res = resynthesize(n, asg, ResynConfig(verify_each_commit=False))
        committed = [a for a in res.report.audit if a.outcome == "committed"]
        for entry in committed:
            assert entry.n_sll_fo_delta < 0
            assert len(entry.new_support) <= n.k_max
        assert res.report.after["lut_count"] == res.report.before["lut_count"] - sum(
            len(entry.removed_nodes) for entry in committed)


def test_resynthesize_deterministic():
    n = bench.build("log2", 4)
    asg = partition_hash(n, 2)
    cfg = ResynConfig(verify_each_commit=False)
    a = resynthesize(n, asg, cfg)
    b = resynthesize(n, asg, cfg)
    assert write_blif(a.netlist) == write_blif(b.netlist)
    assert a.report.to_json() == b.report.to_json()


def test_resynthesize_verify_each_commit_runs():
    n = bench.build("ctrl", 4)
    asg = partition_hash(n, 2)
    res = resynthesize(n, asg, ResynConfig(verify_each_commit=True))
    assert res.report.commits > 0
    assert check_equivalence(n, res.netlist).equivalent


def test_resynthesize_freeze_die():
    n = bench.build("int2float", 4)
    asg = partition_hash(n, 2)
    res = resynthesize(n, asg, ResynConfig(freeze_die=1, verify_each_commit=False))
    for entry in res.report.audit:
        assert entry.die == 1


def test_resynthesize_fixpoint_passes():
    n = bench.build("dec", 4)
    asg = partition_hash(n, 2)
    cfg = ResynConfig(passes=-1, verify_each_commit=False)
    res = resynthesize(n, asg, cfg)
    again = resynthesize(res.netlist, res.assignment, cfg)
    assert again.report.commits == 0


def test_multi_pass_does_not_break_function():
    n = bench.build("sqrt", 4)
    asg = partition_hash(n, 2)
    res = resynthesize(n, asg, ResynConfig(passes=3, verify_each_commit=False))
    assert check_equivalence(n, res.netlist).equivalent


def test_max_augment_extension():
    # F needs one extra divisor; with max_augment=2 a pivot needing two
    # same-die helpers also resolves
    text = (".model m\n.inputs a b c d\n.outputs y s t\n"
            ".names a b s\n10 1\n01 1\n"
            ".names c d t\n10 1\n01 1\n"
            ".names a b c d y\n1000 1\n0100 1\n0010 1\n0001 1\n"
            "1110 1\n1101 1\n1011 1\n0111 1\n.end")
    n = parse_blif(text)  # y = a^b^c^d, s = a^b, t = c^d on another die
    asg = DieAssignment(2, {"a": 0, "b": 0, "c": 0, "d": 0,
                            "s": 1, "t": 1, "y": 1},
                        {"s": 1, "t": 1, "y": 1})
    one = resynthesize(n, asg, ResynConfig(max_augment=1, verify_each_commit=False))
    two = resynthesize(n, asg, ResynConfig(max_augment=2, verify_each_commit=False))
    y_two = two.netlist.node_of_net("y")
    assert two.report.commits >= one.report.commits
    assert len(y_two.fanins) <= 4
    assert check_equivalence(n, two.netlist).equivalent


def test_config_validation():
    with pytest.raises(ResynthError):
        ResynConfig(d2=0)
    with pytest.raises(ResynthError):
        ResynConfig(passes=0)
    with pytest.raises(ResynthError):
        ResynConfig(d1=-1)


def test_freeze_die_must_name_a_die(demo_netlist, demo_assignment):
    with pytest.raises(ResynthError):
        ResynConfig(freeze_die=-1)
    for die in (2, 7):
        with pytest.raises(ResynthError, match="freeze_die %d" % die):
            resynthesize(demo_netlist, demo_assignment, ResynConfig(freeze_die=die))
    res = resynthesize(demo_netlist, demo_assignment, ResynConfig(freeze_die=1))
    assert {entry.die for entry in res.report.audit} == {1}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), dies=st.integers(2, 3),
       passes=st.sampled_from([1, -1]), freeze=st.booleans())
def test_skipped_count_and_audit_rows_cover_every_visited_lut(seed, dies, passes, freeze):
    # the sweep asks each LUT it visits for its cross-die fanins once; a
    # LUT without one is counted in `skipped`, every other gets one row
    n = random_netlist(seed, num_pis=6, num_nodes=30, k=4, num_pos=4)
    asg = partition_hash(n, dies)
    config = ResynConfig(passes=passes, freeze_die=0 if freeze else None,
                         verify_each_commit=False)
    visited = []
    real = resynth.node_cross_die_fanins

    def spy(netlist, assignment, node):
        cross = real(netlist, assignment, node)
        if sys._getframe(1).f_code is resynthesize.__code__:
            visited.append((node.output_net, bool(cross)))
        return cross

    with mock.patch.object(resynth, "node_cross_die_fanins", spy):
        report = resynthesize(n, asg, config).report
    assert visited
    assert report.skipped + len(report.audit) == len(visited)
    assert report.skipped == sum(1 for _net, cross in visited if not cross)
    assert [a.pivot for a in report.audit] == [net for net, cross in visited if cross]
    assert all(a.outcome != "skipped" for a in report.audit)
    assert report.to_dict()["skipped"] == report.skipped
