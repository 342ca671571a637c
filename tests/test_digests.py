"""Byte-level guard on flow outputs.

Pins the SHA-256 of `post.blif`, `report.json`, `metrics.json` and every
`die*.blif` for a few flows whose windows are sensitive to the order in
which side logic is visited. A change to the resynthesis sweep, the
metrics or the per-die split that is meant to keep outputs must leave
every digest here unchanged; the functional tests elsewhere do not notice
a window that gains or loses one PI.
"""

import hashlib
import os
import sys

import pytest

from sllresub import bench
from sllresub.flow import FlowConfig, run_flow
from sllresub.netlist import write_blif
from sllresub.partition import PartitionConfig
from sllresub.resynth import ResynConfig

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
