import filecmp
import os
import re

import pytest

from sllresub import bench, equiv
from sllresub.equiv import check_equivalence
from sllresub.flow import FlowConfig, FlowError, run_flow, split_per_die
from sllresub.netlist import (SLL_PREFIX, Netlist, NetlistError, parse_blif, parse_blif_file,
                              write_blif)
from sllresub.partition import (DieAssignment, PartitionConfig, partition_hash,
                                save_assignment)
from sllresub.resynth import ResynConfig

from conftest import BAD_CARE, NO_LOGIC_BLIF, random_netlist

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_DIR = os.path.join(REPO, "demo")


def stitch(parts: list[Netlist], model_name: str | None = None) -> Netlist:
    """Reconnect per-die netlists by matching their boundary pins, the inverse
    of `split_per_die`: die d exports net x as the PO `__sll_x_out`, and a
    die reading it imports it as the PI `__sll_x_in`."""
    k_max = max(p.k_max for p in parts)
    name = model_name
    if name is None:
        name = parts[0].model_name.rsplit("_die", 1)[0] if parts else "top"
    out = Netlist(name, k_max)
    exported: dict[str, str] = {}  # import pin -> source net
    for part in parts:
        for po in part.primary_outputs:
            if po.startswith(SLL_PREFIX) and po.endswith("_out"):
                net = po[len(SLL_PREFIX):-len("_out")]
                exported["%s%s_in" % (SLL_PREFIX, net)] = net

    def local(net: str) -> str:
        return exported.get(net, net)

    for part in parts:
        for pi in part.primary_inputs:
            if not pi.startswith(SLL_PREFIX):
                out.add_input(pi)
        for po in part.primary_outputs:
            if not po.startswith(SLL_PREFIX):
                out.add_output(po)
    for part in parts:
        for latch in part.latches:
            out.add_latch(local(latch.input_net), latch.output_net, latch.init_value)
        for node in sorted(part.nodes.values(), key=lambda n: n.id):
            if node.output_net.startswith(SLL_PREFIX):
                continue  # boundary buffer
            out.add_node(node.output_net, [local(f) for f in node.fanins], node.function)
    out.validate()
    return out


def _demo_flow_config(outdir):
    return FlowConfig(
        input_path=os.path.join(DEMO_DIR, "twodie_xor.blif"),
        out_dir=str(outdir),
        partition=PartitionConfig(num_dies=2, mode="external_file",
                                  partition_file=os.path.join(DEMO_DIR, "twodie_xor.dies")),
        resyn=ResynConfig(),
        inject_care_path=os.path.join(DEMO_DIR, "twodie_xor_care.blif"),
    )


def test_flow_demo_matches_golden_artifacts(tmp_path):
    result = run_flow(_demo_flow_config(tmp_path / "out"))
    assert result.exit_code == 0
    golden = os.path.join(DEMO_DIR, "golden")
    names = sorted(os.listdir(golden))
    assert names == sorted(os.path.basename(p) for p in result.artifacts.values())
    for name in names:
        got = os.path.join(tmp_path / "out", name)
        assert filecmp.cmp(got, os.path.join(golden, name), shallow=False), name


def test_flow_deterministic(tmp_path):
    r1 = run_flow(_demo_flow_config(tmp_path / "a"))
    r2 = run_flow(_demo_flow_config(tmp_path / "b"))
    for key in r1.artifacts:
        assert filecmp.cmp(r1.artifacts[key], r2.artifacts[key], shallow=False), key


def test_flow_missing_input_is_stage_labeled(tmp_path):
    cfg = FlowConfig(input_path=str(tmp_path / "nope.blif"), out_dir=str(tmp_path))
    with pytest.raises(FlowError) as err:
        run_flow(cfg)
    assert err.value.stage == "parse"
    assert "[parse]" in str(err.value)


@pytest.mark.parametrize("mode, budget", [("auto", 0), ("random", -1), ("bogus", 100)])
def test_flow_bad_verify_options_fail_before_any_stage(tmp_path, mode, budget):
    cfg = _demo_flow_config(tmp_path / "out")
    cfg.verify_mode, cfg.vector_budget = mode, budget
    with pytest.raises(FlowError) as err:
        run_flow(cfg)
    assert err.value.stage == "verify"
    assert not (tmp_path / "out").exists()


def test_flow_exhaustive_beyond_bound_fails_before_any_stage(tmp_path, monkeypatch):
    monkeypatch.setattr(equiv, "EXHAUSTIVE_PI_BOUND", 3)      # the demo has 4 inputs
    cfg = _demo_flow_config(tmp_path / "out")
    cfg.verify_mode = "exhaustive"
    with pytest.raises(FlowError) as err:
        run_flow(cfg)
    assert err.value.stage == "verify"
    assert str(err.value) == "[verify] exhaustive mode refused beyond 3 inputs (have 4)"
    assert not (tmp_path / "out").exists()
    # auto mode falls back to random vectors instead
    cfg.verify_mode = "auto"
    assert run_flow(cfg).verdict.mode == "random"


def test_flow_freeze_die_naming_no_die_leaves_no_directory(tmp_path):
    cfg = _demo_flow_config(tmp_path / "out")
    cfg.resyn = ResynConfig(freeze_die=5)
    with pytest.raises(FlowError) as err:
        run_flow(cfg)
    assert err.value.stage == "resynth"
    assert "freeze_die 5 is not a die" in str(err.value)
    assert not (tmp_path / "out").exists()


def test_flow_bad_sll_mode_fails_before_any_stage(tmp_path):
    cfg = _demo_flow_config(tmp_path / "out")
    cfg.sll_mode = "bogus"
    with pytest.raises(FlowError) as err:
        run_flow(cfg)
    assert err.value.stage == "metrics"
    assert str(err.value) == "[metrics] unknown SLL count mode 'bogus'"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", sorted(BAD_CARE))
def test_flow_bad_care_predicate_fails_before_any_stage(tmp_path, kind):
    care = tmp_path / "care.blif"
    care.write_text(BAD_CARE[kind])
    cfg = _demo_flow_config(tmp_path / "out")
    cfg.inject_care_path = str(care)
    with pytest.raises(FlowError, match="care predicate") as err:
        run_flow(cfg)
    assert err.value.stage == "parse"
    assert not (tmp_path / "out").exists()


def test_flow_on_generated_circuit(tmp_path):
    src = tmp_path / "voter.blif"
    src.write_text(write_blif(bench.build("voter", 4)))
    cfg = FlowConfig(input_path=str(src), out_dir=str(tmp_path / "out"),
                     partition=PartitionConfig(num_dies=3, mode="hash_label"),
                     resyn=ResynConfig(verify_each_commit=False))
    result = run_flow(cfg)
    assert result.exit_code == 0
    assert result.verdict.equivalent
    for die in range(3):
        sub = parse_blif_file(result.artifacts["die%d" % die])
        sub.validate()


def test_split_single_die_identity(demo_netlist):
    asg = DieAssignment(1, {k: 0 for k in "abcdXYF"}, {k: 1 for k in "XYF"})
    parts = split_per_die(demo_netlist, asg)
    assert len(parts) == 1
    text = write_blif(parts[0]).replace(parts[0].model_name, demo_netlist.model_name)
    assert text == write_blif(demo_netlist)


def test_split_demo_boundary_pins(demo_netlist, demo_assignment, demo_care):
    from sllresub.resynth import resynthesize
    post = resynthesize(demo_netlist, demo_assignment, ResynConfig(),
                        injected_care=demo_care)
    parts = split_per_die(post.netlist, post.assignment)
    die0, die1 = parts
    assert "__sll_X_out" in die0.primary_outputs
    assert "__sll_X_in" in die1.primary_inputs
    assert die1.node_of_net("Y").fanins == ["__sll_X_in", "c"]
    assert die1.node_of_net("F") is not None
    assert die0.node_of_net("X") is not None
    # importing side uses the exported value
    stitched = stitch(parts)
    assert check_equivalence(stitched, post.netlist).equivalent


def test_split_rejects_reserved_prefix():
    n = parse_blif(".model m\n.inputs __sll_a_in\n.outputs y\n"
                   ".names __sll_a_in y\n1 1\n.end")
    asg = DieAssignment(2, {"__sll_a_in": 0, "y": 1}, {"y": 1})
    with pytest.raises(NetlistError):
        split_per_die(n, asg)


def test_split_stitch_roundtrip_50_random_pairs():
    for seed in range(50):
        n = random_netlist(seed, num_pis=6, num_nodes=18, k=4,
                           num_pos=4, num_latches=seed % 3)
        k = 2 + seed % 3
        asg = partition_hash(n, k)
        parts = split_per_die(n, asg)
        assert len(parts) == k
        for p in parts:
            p.validate()
        back = stitch(parts, model_name=n.model_name)
        v = check_equivalence(n, back, mode="auto", seed=seed, vector_budget=20_000)
        assert v.equivalent, "seed %d: %r" % (seed, v.counterexample)


def test_split_keeps_latches_on_their_die():
    n = random_netlist(5, num_pis=5, num_nodes=15, k=4, num_pos=3,
                       num_latches=3)
    asg = partition_hash(n, 2)
    parts = split_per_die(n, asg)
    for die, part in enumerate(parts):
        for latch in part.latches:
            assert asg.die(latch.output_net) == die
    assert sum(len(p.latches) for p in parts) == len(n.latches)


def test_flow_artifacts_parse_back(tmp_path):
    result = run_flow(_demo_flow_config(tmp_path / "out"))
    post = parse_blif_file(result.artifacts["post_blif"])
    post.validate()
    assert post.node_of_net("F").fanins == ["d", "Y"]
    with open(result.artifacts["equiv"]) as fh:
        assert fh.read().startswith("EQUIVALENT")
    with open(result.artifacts["report"]) as fh:
        text = fh.read()
    assert '"commits": 1' in text


def test_flow_malformed_dies_header_is_a_partition_error(tmp_path):
    bad = tmp_path / "bad.dies"
    bad.write_text("# dies x\nX 0\nY 1\nF 1\n")
    cfg = _demo_flow_config(tmp_path / "out")
    cfg.partition.partition_file = str(bad)
    with pytest.raises(FlowError, match="line 1") as err:
        run_flow(cfg)
    assert err.value.stage == "partition"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["fm_mincut", "hash_label", "external_file"])
def test_flow_refuses_a_netlist_without_logic_at_partition(tmp_path, mode):
    src = tmp_path / "t.blif"
    src.write_text(NO_LOGIC_BLIF)
    dies = tmp_path / "t.dies"
    dies.write_text("# dies 2\na 0\n")
    cfg = FlowConfig(input_path=str(src), out_dir=str(tmp_path / "out"),
                     partition=PartitionConfig(num_dies=2, mode=mode,
                                               partition_file=str(dies)))
    with pytest.raises(FlowError, match="cannot partition an empty netlist") as err:
        run_flow(cfg)
    assert err.value.stage == "partition"
    assert not (tmp_path / "out").exists()
