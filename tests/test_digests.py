"""Byte-level guard on flow outputs.

Pins the SHA-256 of `post.blif` and `report.json` for a few flows whose
windows are sensitive to the order in which side logic is visited. A
change to the resynthesis sweep that is meant to be a pure speed-up must
leave every digest here unchanged; the functional tests elsewhere do not
notice a window that gains or loses one PI.
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

# name -> (BLIF text builder, partition config, verify each commit,
#          sha256 of post.blif, sha256 of report.json)
CASES = {
    "square_k4": (lambda: write_blif(bench.build("square", 4)),
                  PartitionConfig(num_dies=2, mode="fm_mincut"), True,
                  "55de91394acb89d8532e7c22629beca01e40a1e4dcd9b7115eeb52d074b6ffdd",
                  "694c4b806c55191f0b99f5123b3384998ccbe6548371111db856f973d95a68d4"),
    "sin_k4": (lambda: write_blif(bench.build("sin", 4)),
               PartitionConfig(num_dies=2, mode="fm_mincut"), True,
               "1880dbaa8c33b917e7ffdf44f42464dd8b9a33ce00142dd801fa116225516561",
               "f703890e298ea825bc54c8cabc56c794d7f36f84c38d6c180e0028417cdf78e6"),
    "i2c_x2": (lambda: tiled("i2c", 2, 6, 14, 1),
               PartitionConfig(num_dies=4, mode="hash_label"), False,
               "8ecbad0029ef36ff06c1d893377e320a432f860cc01220deba7ff340a6523f95",
               "c3ed103e69ee5f2dc8ddbec60a23b246cb2e6c819d6ed325d3ffeca9badf0dc2"),
}


def _sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_flow_outputs_are_byte_identical(tmp_path, name):
    text, partition, verify, post_sha, report_sha = CASES[name]
    src = tmp_path / (name + ".blif")
    src.write_text(text())
    result = run_flow(FlowConfig(input_path=str(src), out_dir=str(tmp_path / "out"),
                                 partition=partition,
                                 resyn=ResynConfig(verify_each_commit=verify)))
    assert result.exit_code == 0
    assert (_sha(result.artifacts["post_blif"]), _sha(result.artifacts["report"])) \
        == (post_sha, report_sha)
