"""The per-commit check at the window (`WindowSim.check_commit`).

The check must be sound against an exhaustive equivalence check of the
netlists before and after the commit, and it must reject a candidate
that is wrong on a care minterm, with and without an injected care
predicate.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sllresub import bench, resynth
from sllresub.equiv import check_equivalence
from sllresub.netlist import parse_blif, write_blif
from sllresub.partition import DieAssignment, partition_hash
from sllresub.resynth import (ResubCandidate, ResynConfig, apply_resubstitution,
                              resynthesize)
from sllresub.truthtab import TruthTable
from sllresub.windows import ResynthError, WindowSim, build_window, extract_care_set

from conftest import random_netlist


def _commits_against_exhaustive(netlist, assignment, config):
    """Resynthesize; at every commit compare the window verdict with an
    exhaustive check, for the commit and for each one-row flip of its
    candidate. A flip the window accepts must be exact, and a flip of a
    row that some care minterm reaches must be rejected.

    Returns counts: `commits`, `tfo_pi` (commits whose window has a PI in
    the pivot's fanout) and `rejected` (flips the window rejected).
    """
    real_apply = resynth.apply_resubstitution
    real_check = WindowSim.check_commit
    pending = []
    seen = {"commits": 0, "tfo_pi": 0, "rejected": 0}

    def apply(work, asg, candidate):
        pending.append((work.copy(), asg.copy(), candidate))
        return real_apply(work, asg, candidate)

    def window_accepts(sim, post):
        try:
            real_check(sim, post)
        except ResynthError:
            return False
        return True

    def check(sim, post):
        pre, asg, cand = pending.pop()
        assert window_accepts(sim, post)
        assert check_equivalence(pre, post, mode="exhaustive").equivalent
        seen["commits"] += 1
        seen["tfo_pi"] += any(
            (drv := post.node_of_net(p)) is not None and drv.id in sim.window.tfo
            for p in sim.window.window_pis)
        care_bits = extract_care_set(post, sim)
        masks = [sim.value_of(net) for net in cand.new_support]
        table = cand.new_function
        for row in range(1 << table.num_inputs):
            reached = care_bits
            for i, vm in enumerate(masks):
                reached &= vm if (row >> i) & 1 else sim.full & ~vm
            bad = ResubCandidate(cand.pivot_net, cand.removed_fanin, cand.new_support,
                                 TruthTable(table.num_inputs, table.bits ^ (1 << row)))
            mutant = pre.copy()
            real_apply(mutant, asg.copy(), bad)
            accepted = window_accepts(sim, mutant)
            exact = check_equivalence(pre, mutant, mode="exhaustive").equivalent
            assert exact or not accepted, (cand.pivot_net, row)
            assert not (reached and accepted), (cand.pivot_net, row)
            seen["rejected"] += not accepted

    with mock.patch.object(resynth, "apply_resubstitution", apply), \
            mock.patch.object(WindowSim, "check_commit", check):
        resynthesize(netlist, assignment, config)
    assert not pending
    return seen


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), dies=st.integers(2, 4), latches=st.integers(0, 2),
       d1=st.integers(0, 2), cap=st.sampled_from([4, 6, 14]))
def test_window_verdict_agrees_with_exhaustive_equivalence(seed, dies, latches, d1, cap):
    n = random_netlist(seed, num_pis=6, num_nodes=24, k=4, num_pos=4,
                       num_latches=latches)
    _commits_against_exhaustive(n, partition_hash(n, dies),
                                ResynConfig(d1=d1, window_pi_cap=cap))


@pytest.mark.parametrize("seed, dies", [(2, 2), (13, 3)])
def test_window_pi_in_the_pivots_fanout(seed, dies):
    n = random_netlist(seed, num_pis=6, num_nodes=24, k=4, num_pos=4,
                       num_latches=seed % 3)
    seen = _commits_against_exhaustive(n, partition_hash(n, dies), ResynConfig())
    assert seen["tfo_pi"] >= 1 and seen["rejected"] >= 1


def _corrupt_first_candidate(monkeypatch):
    """Make the first candidate with a care minterm wrong on that minterm."""
    real = resynth.find_equiv_func
    done = []

    def corrupted(netlist, sim, care, asg, config):
        cand = real(netlist, sim, care, asg, config)
        if cand is None or done or not care:
            return cand
        minterm = (care & -care).bit_length() - 1
        row = sum(((sim.value_of(s) >> minterm) & 1) << i
                  for i, s in enumerate(cand.new_support))
        done.append(cand.pivot_net)
        table = cand.new_function
        return ResubCandidate(cand.pivot_net, cand.removed_fanin, cand.new_support,
                              TruthTable(table.num_inputs, table.bits ^ (1 << row)))

    monkeypatch.setattr(resynth, "find_equiv_func", corrupted)
    return done


@pytest.mark.parametrize("name", ["i2c", "mem_ctrl"])
def test_corrupted_candidate_is_rejected(monkeypatch, name):
    # mem_ctrl has 20 sources, past the bound of exhaustive equivalence;
    # the check at the window is exact there too. The BLIF round trip
    # gives node ids, and so the corrupted pivot, that do not depend on
    # the hash seed.
    n = parse_blif(write_blif(bench.build(name, 4)))
    asg = partition_hash(n, 2)
    done = _corrupt_first_candidate(monkeypatch)
    with pytest.raises(ResynthError, match="changed window output"):
        resynthesize(n, asg, ResynConfig())
    assert done
    # the same corruption goes through when no commit is checked
    done.clear()
    res = resynthesize(n, asg, ResynConfig(verify_each_commit=False))
    assert done and not check_equivalence(n, res.netlist).equivalent


def test_corrupted_candidate_is_rejected_under_a_care_predicate(
        monkeypatch, demo_netlist, demo_assignment, demo_care):
    # the demo commit is only correct under the care predicate (b == c), so
    # the check applies it; a flip on a care minterm is still caught
    assert resynthesize(demo_netlist, demo_assignment, ResynConfig(),
                        injected_care=demo_care).report.commits == 1
    done = _corrupt_first_candidate(monkeypatch)
    with pytest.raises(ResynthError, match="changed window output 'F'"):
        resynthesize(demo_netlist, demo_assignment, ResynConfig(),
                     injected_care=demo_care)
    assert done == ["F"]


def test_window_node_reading_outside_the_window_is_an_error():
    n = parse_blif(".model m\n.inputs a b c\n.outputs y z\n"
                   ".names a b p\n11 1\n.names p c y\n11 1\n.names b c z\n10 1\n.end")
    asg = DieAssignment(2, {"a": 0, "b": 0, "c": 1, "p": 0, "y": 1, "z": 1},
                        {"p": 1, "y": 1, "z": 1})
    # d1 = 0: the window is y's input cone, so z stays outside it
    window = build_window(n, n.node_of_net("y"), ResynConfig(d1=0))
    sim = WindowSim(n, window)
    apply_resubstitution(n, asg, ResubCandidate("y", "p", ["z"], TruthTable(1, 0b10)))
    with pytest.raises(ResynthError, match="reads 'z' from outside the window"):
        sim.check_commit(n)
