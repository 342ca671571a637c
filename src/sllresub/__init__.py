"""Interconnect-aware LUT-level resubstitution for partitioned multi-die FPGAs.

Pipeline: parse a LUT-mapped BLIF netlist, assign every node to a die,
then greedily rewrite pivots so cross-die fanins are replaced by
same-die signals without touching functionality or LUT count. Ships
with a min-cut/hash partitioner, an equivalence checker, connectivity
and bounding-box metrics (`metrics.snapshot` and `metrics.report` give
the box costs), and a per-die splitter.
"""

from .equiv import EquivVerdict, check_equivalence
from .flow import FlowConfig, run_flow, split_per_die
from .metrics import PlacementData, count_sll, count_sll_fo
from .netlist import LatchElement, LutNode, Netlist, parse_blif, parse_blif_file, write_blif
from .partition import (DieAssignment, PartitionConfig, load_assignment, partition_fm,
                        partition_hash, save_assignment)
from .resynth import ResynConfig, ResynResult, apply_resubstitution, resynthesize
from .truthtab import TruthTable
from .windows import (DivisorSet, Window, build_window, collect_divisors, exist_check,
                      extract_care_set, interpolate)

__version__ = "0.1.0"
