"""Base-station-side model of fast dormancy (the paper's future work, §8).

The paper evaluates everything from the device's side and explicitly defers
"studying the effects of triggering fast dormancy on the base station side
… considering issues such as handling multiple phones triggering the
feature" to future work.  This subpackage provides that study's substrate:

* :mod:`repro.basestation.policies` — network-side policies deciding whether
  to grant a device's fast-dormancy request (3GPP Release 8 leaves this to
  the operator; the paper assumes "always accept");
* :mod:`repro.basestation.cell` — a multi-device cell simulation that runs
  each device's trace through its own RRC machine and control policy while
  the base station arbitrates dormancy requests and tracks aggregate
  signalling load and channel occupancy.
"""

from .cell import (
    CellResult,
    CellShard,
    CellSimulator,
    CohortBreakdown,
    DeviceResult,
    DeviceSpec,
    merge_cell_shards,
)
from .table import DeviceTable, FloatArray, ShardTable
from .policies import (
    AcceptAllDormancy,
    DormancyPolicy,
    LoadAwareDormancy,
    RateLimitedDormancy,
    RejectAllDormancy,
    partition_switch_budget,
)

__all__ = [
    "AcceptAllDormancy",
    "CellResult",
    "CellShard",
    "CellSimulator",
    "CohortBreakdown",
    "DeviceResult",
    "DeviceSpec",
    "DeviceTable",
    "DormancyPolicy",
    "FloatArray",
    "LoadAwareDormancy",
    "RateLimitedDormancy",
    "RejectAllDormancy",
    "ShardTable",
    "merge_cell_shards",
    "partition_switch_budget",
]
