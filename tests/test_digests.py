"""Byte-level guard on flow outputs.

Pins the SHA-256 of `post.blif`, `report.json`, `metrics.json` and every
`die*.blif` for a few flows whose windows are sensitive to the order in
which side logic is visited. A change to the resynthesis sweep, the
metrics or the per-die split that is meant to keep outputs must leave
every digest here unchanged; the functional tests elsewhere do not notice
a window that gains or loses one PI.

It also pins one SHA-256 over FM's die maps of the benchmark's `suite`
netlists, so a change to the FM kernel that is meant to keep sides must
leave that digest unchanged, and one over every window the resynthesis
sweep builds on the benchmark's inputs: the flow digests miss a window
that gains or loses a node but keeps its PI count and still commits.
"""

import hashlib
import os
import sys
from unittest import mock

import pytest

from sllresub import bench, resynth
from sllresub.flow import FlowConfig, run_flow
from sllresub.netlist import parse_blif, write_blif
from sllresub.partition import PartitionConfig, assignment_for, partition_fm
from sllresub.resynth import ResynConfig, resynthesize

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "perfbench"))
from workloads import tiled  # noqa: E402  (the benchmark's tile generator)

# name -> (BLIF text builder, partition config, resynthesis config,
#          sha256 per artifact: post.blif, report.json, metrics.json and
#          every die*.blif)
CASES = {
    "square_k4": (lambda: write_blif(bench.build("square", 4)),
                  PartitionConfig(num_dies=2, mode="fm_mincut"), ResynConfig(), {
        "post_blif": "55de91394acb89d8532e7c22629beca01e40a1e4dcd9b7115eeb52d074b6ffdd",
        "report": "267f1a9b2b4ad9cde5fac24789afb76360c437fe5dd383ef1b233d235946df3a",
        "metrics_json": "5678679f5941e904355b715ad370d33c4f94f70cf0ceae03224e2e62c55aaa60",
        "die0": "4fe04b1b694921262cbaf14a554d7c54c7f85e9e30f1f874af69afa4ff5433cd",
        "die1": "a041571947c0672d4f0892cb46ebbd8ab7353e69beb0e8d610100434cbcb5cd8",
    }),
    "sin_k4": (lambda: write_blif(bench.build("sin", 4)),
               PartitionConfig(num_dies=2, mode="fm_mincut"), ResynConfig(), {
        "post_blif": "1880dbaa8c33b917e7ffdf44f42464dd8b9a33ce00142dd801fa116225516561",
        "report": "6b3878b6a61fd7ef79c311cf411db2e9c03b51ba338dc490026add0795d38049",
        "metrics_json": "bf305a528fc09d2baac757c8ad72b23f982f9f8b84aa5271c7d53a722af65847",
        "die0": "d17186ba3a4858e914a561ff353283274c99526dd11ef2de8d412134780fdcd1",
        "die1": "c470e4b12883d5de914879d83990c9b79ffcd4e2652e6013950ddb07cb7ccbf9",
    }),
    "i2c_x2": (lambda: tiled("i2c", 2, 6, 14, 1),
               PartitionConfig(num_dies=4, mode="hash_label"),
               ResynConfig(verify_each_commit=False), {
        "post_blif": "8ecbad0029ef36ff06c1d893377e320a432f860cc01220deba7ff340a6523f95",
        "report": "d2ca5bb7e1a08998060ea1afa2313c250b32163e07a3491dfb1d0b6ae1e57bf6",
        "metrics_json": "b6015a8081820a2a5146d55549027382fa8b4b8aff00d90de2762c0d1d6c3181",
        "die0": "a3abf9f3f32b34f56a9b859c7849e4cf242c3c95de59c5ef82b67b1f0d679da9",
        "die1": "9359cee1cffd4072eb565147bc016b23f6ac011a07e516b782069d0f8a5b3c28",
        "die2": "51e8482c5bd4c0faf0792db67574430e59131fd33657e993dd494d145c274bb6",
        "die3": "e937e56bc1ad8751517d1d8ff568324807483b34b7544bf8499cab3ddc57dd88",
    }),
    # run to fixpoint with every commit checked: later passes build windows
    # over a netlist that earlier commits edited
    "i2c_x2_fixpoint": (lambda: tiled("i2c", 2, 6, 14, 1),
                        PartitionConfig(num_dies=4, mode="hash_label"),
                        ResynConfig(verify_each_commit=True, passes=-1), {
        "post_blif": "784bd2e9a3746a3dbc0caf64b67709685d692e54029a847cd6c5642d09c300fa",
        "report": "3a47f2df053573b3d647a7cb838d3c9f827245e932b7fe070c89e244e082751e",
        "metrics_json": "ff75871ad340c5d9f502d95af0fadb022a7d559580e0f83079d67a2a7a3a95d7",
        "die0": "bb18cbc08eaa13435c830170f136675dceea538cd28ea9d7307c964f146acebc",
        "die1": "08235bb0200644a781e0fcc95a6f5de0c396597092bd1c2b135ba5ec21af4ff0",
        "die2": "6183734602cd210f1e099b7f27de3a0ebcaa9ee4dd9ce1875bddd1e71632e006",
        "die3": "2e012f3fa6161a677ffe9e0d5491d3e5db85ee60b4d426dda337c2bffa0bd416",
    }),
}


def _sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_flow_outputs_are_byte_identical(tmp_path, name):
    text, partition, resyn, digests = CASES[name]
    src = tmp_path / (name + ".blif")
    src.write_text(text())
    result = run_flow(FlowConfig(input_path=str(src), out_dir=str(tmp_path / "out"),
                                 partition=partition,
                                 resyn=resyn))
    assert result.exit_code == 0
    pinned = {key: path for key, path in result.artifacts.items()
              if key in ("post_blif", "report", "metrics_json") or key.startswith("die")}
    assert {key: _sha(path) for key, path in pinned.items()} == digests


# sha256 over `partition_fm`'s die maps, each in its own item order, of
# every built-in at k=4 and k=6 after a BLIF round trip (the benchmark's
# `suite` inputs), at 2, 3 and 4 dies with FM seeds 0 and 1
FM_DIE_MAPS = "2679d957f66eaa4de1a3abe1ce9270466a14e636b4189f8205db133b15487361"


def test_fm_die_maps_are_byte_identical():
    digest = hashlib.sha256()
    for name in bench.BENCH_NAMES:
        for k in (4, 6):
            netlist = parse_blif(write_blif(bench.build(name, k)))
            for dies in (2, 3, 4):
                for seed in (0, 1):
                    config = PartitionConfig(num_dies=dies, seed=seed)
                    die_of = partition_fm(netlist, config).die_of
                    digest.update(("%s_k%d %d %d\n" % (name, k, dies, seed)).encode())
                    digest.update("".join("%s %d\n" % item for item in die_of.items()).encode())
    assert digest.hexdigest() == FM_DIE_MAPS


# sha256 over every window `resynthesize` builds, by nets: the pivot, the
# window PIs, the member nets in order and the fanout nets in order, or "none"
# for a pivot without a window. Inputs: the benchmark's `suite` netlists
# (BLIF round trip, FM seed 0 on 2 dies, per-commit check on) and `chain`
# seeds 1 and 3 (hash labels on 4 dies, check off)
WINDOWS = "968ae7652242df0b3a6e0309980492a831267f6f70e3f7251705f140e40d00f7"


def _hash_windows(digest, text, partition, config):
    """Resynthesize `text`, adding one line per window built to `digest`."""
    real_build = resynth.build_window

    def build(work, pivot, cfg):
        window = real_build(work, pivot, cfg)
        if window is None:
            line = "%s none" % pivot.output_net
        else:
            line = "%s | %s | %s | %s" % (
                pivot.output_net, " ".join(window.window_pis), " ".join(window.nodes),
                " ".join(node.output_net for node in window.fanout))
        digest.update((line + "\n").encode())
        return window

    netlist = parse_blif(text)
    with mock.patch.object(resynth, "build_window", build):
        resynthesize(netlist, assignment_for(netlist, partition), config)


def test_windows_are_byte_identical():
    digest = hashlib.sha256()
    for name in bench.BENCH_NAMES:
        for k in (4, 6):
            digest.update(("%s_k%d\n" % (name, k)).encode())
            _hash_windows(digest, write_blif(bench.build(name, k)),
                          PartitionConfig(num_dies=2, mode="fm_mincut"), ResynConfig())
    for seed in (1, 3):
        digest.update(("chain %d\n" % seed).encode())
        _hash_windows(digest, tiled("i2c", 8, 6, 14, seed),
                      PartitionConfig(num_dies=4, mode="hash_label"),
                      ResynConfig(verify_each_commit=False))
    assert digest.hexdigest() == WINDOWS
