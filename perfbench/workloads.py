"""Seeded benchmark workloads: their BLIF inputs and the flow flags each runs with.

Inputs are built only from the public generator API of `sllresub.bench`
and written with `write_blif`, so the text is byte-identical for a
given seed under any PYTHONHASHSEED. The flows get only these files and
the CLI's defaults for every flag a workload does not set; the run seed
never reaches the program as a flag.

- suite: the built-in circuits at k=4 and k=6, FM on 2 dies, per-commit
  verification on (the CLI default). The inputs do not depend on the
  seed.
- chain: 8 copies of i2c at k=6, every PI of copy j driven by a PO of
  copy j-1, hash labels on 4 dies, verification off. The seed picks the
  PO->PI wiring.
- wide: 64 copies of i2c at k=6 with one wire between neighbours, FM on
  4 dies, verification off. The wiring is fixed: FM's cut on this chain
  swings between about 3 and 31 SLLs with the wiring and the FM seed, so
  a seeded wiring would make the workload a different one per seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from sllresub import bench
from sllresub.flow import FlowConfig
from sllresub.netlist import write_blif
from sllresub.partition import PartitionConfig
from sllresub.resynth import ResynConfig

TILE = "i2c"


def tiled(name: str, copies: int, k: int, links: int, seed: int) -> str:
    """BLIF text of `copies` renamed copies of the built-in `name`, chained.

    Copy j's nets carry the prefix `c<j>_`. For j >= 1, `links` PIs of
    copy j (chosen by the seed) are driven by as many distinct POs of
    copy j-1 instead of becoming PIs. Every copy's POs stay POs, so the
    packer cannot merge cones across copies and the LUT count is
    `copies` times that of one copy.
    """
    base = bench.gate_network(name)
    if base.latches:
        raise ValueError("tiling supports combinational circuits only")
    rng = random.Random(seed)
    out = bench.GateNetwork("%s_x%d" % (name, copies))
    prev_pos: list[str] = []
    for j in range(copies):
        prefix = "c%d_" % j
        wired: dict[str, str] = {}
        if j > 0 and links:
            wired = dict(zip(rng.sample(base.inputs, links), rng.sample(prev_pos, links)))
        ren = {pi: wired.get(pi) or out.pi(prefix + pi) for pi in base.inputs}
        ren.update((g, prefix + g) for g in base.gates)
        for g, (op, ins) in base.gates.items():
            out.gates[ren[g]] = (op, tuple(ren[i] for i in ins))
        prev_pos = [ren[po] for po, _net in base.outputs]
        for po in prev_pos:
            out.po(po)
    return write_blif(bench.pack_to_luts(out, k))


@dataclass(frozen=True)
class Workload:
    name: str
    partition_mode: str       # PartitionConfig.mode
    dies: int
    verify_each_commit: bool
    copies: int = 0           # 0: the built-in suite; otherwise copies of TILE
    links: int = 0
    seeded: bool = False      # whether the run seed picks the tiled wiring

    def inputs(self, seed: int) -> list[tuple[str, str]]:
        """(file stem, BLIF text) for every netlist of the workload."""
        if not self.copies:
            return [("%s_k%d" % (name, k), write_blif(bench.build(name, k)))
                    for name in bench.BENCH_NAMES for k in (4, 6)]
        return [("%s_x%d" % (TILE, self.copies),
                 tiled(TILE, self.copies, 6, self.links, seed if self.seeded else 0))]

    def flow_config(self, input_path: str, out_dir: str) -> FlowConfig:
        """The FlowConfig the `sllresub flow` CLI builds for this workload's flags."""
        return FlowConfig(
            input_path=input_path,
            out_dir=out_dir,
            partition=PartitionConfig(num_dies=self.dies, mode=self.partition_mode),
            resyn=ResynConfig(verify_each_commit=self.verify_each_commit),
        )


WORKLOADS = {
    "suite": Workload("suite", "fm_mincut", 2, True),
    "chain": Workload("chain", "hash_label", 4, False, copies=8, links=14, seeded=True),
    "wide": Workload("wide", "fm_mincut", 4, False, copies=64, links=1),
}
