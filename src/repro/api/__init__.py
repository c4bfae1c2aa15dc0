"""Unified experiment API: declare a plan, execute it, analyse the run set.

Every evaluation result in the paper is a sweep over workload × carrier ×
policy.  This package gives that sweep a first-class lifecycle::

    from repro.api import plan, SerialRunner, ProcessPoolRunner

    p = (plan()
         .apps("email", "im", duration=1800.0)
         .carriers("att_hspa", "verizon_lte")
         .policies("status_quo", "makeidle", "oracle"))

    runs = ProcessPoolRunner(jobs=4).run(p)      # or SerialRunner().run(p)
    for cell, table in runs.savings().items():
        print(cell, {s: f"{r.saved_percent:.1f}%" for s, r in table.items()})
    runs.to_csv("sweep.csv")

* :func:`plan` / :class:`ExperimentPlan` — fluent, immutable grid
  declaration, persisted as JSON with :func:`save_plan` / :func:`load_plan`;
* :class:`TraceSpec` / :class:`PolicySpec` / :class:`RunSpec` — picklable
  descriptions of each grid cell (helpers :func:`app`, :func:`user`,
  :func:`pcap`, :func:`tcpdump`, :func:`inline`, :func:`scheme`);
* :class:`SerialRunner` / :class:`ProcessPoolRunner` — execution backends
  with a shared, hit/miss-counting :class:`ResultCache` so the status-quo
  baseline is simulated once per (trace, carrier);
* :class:`RunSet` / :class:`RunRecord` — structured results with grouping,
  baseline normalisation and CSV/JSON export.

The legacy drivers in :mod:`repro.analysis.experiments` are thin wrappers
over this API, and ``repro-rrc sweep`` exposes it on the command line.

Cell sweeps take heterogeneous populations via the scenario library
(:mod:`repro.scenarios`): ``plan().scenarios("office_day", devices=1000)``
sweeps a cohort-weighted, diurnally shaped population, and the run set
reports per-cohort energy/denial/switch breakdowns.
"""

from .cache import CacheStats, DiskCacheTier, ResultCache, default_cache_dir
from .cells import (
    CellRunSpec,
    CellSpec,
    DormancySpec,
    cell,
    dormancy,
    execute_cell,
    execute_cell_shard,
    shard_sizes,
)
from ..scenarios import (
    Cohort,
    DeviceArchetype,
    DiurnalShape,
    Scenario,
    get_scenario,
)
from .metro import (
    MetroRunSpec,
    MetroSpec,
    execute_metro,
    execute_metro_cell_shard,
    metro,
)
from ..metro import Metro, MetroCell, MetroResult, get_metro
from .plan import EmptyAxisError, ExperimentPlan, load_plan, plan, save_plan
from .runner import (
    PoolExecution,
    ProcessPoolRunner,
    Runner,
    SerialRunner,
    default_runner,
    execute_spec,
)
from .runset import RunRecord, RunSet
from .spec import (
    PolicySpec,
    RunSpec,
    TraceSpec,
    app,
    execute,
    inline,
    pcap,
    scheme,
    tcpdump,
    user,
)

__all__ = [
    "CacheStats",
    "CellRunSpec",
    "DiskCacheTier",
    "CellSpec",
    "Cohort",
    "DeviceArchetype",
    "DiurnalShape",
    "DormancySpec",
    "EmptyAxisError",
    "ExperimentPlan",
    "Metro",
    "MetroCell",
    "MetroResult",
    "MetroRunSpec",
    "MetroSpec",
    "PolicySpec",
    "Scenario",
    "PoolExecution",
    "ProcessPoolRunner",
    "ResultCache",
    "RunRecord",
    "RunSet",
    "RunSpec",
    "Runner",
    "SerialRunner",
    "TraceSpec",
    "app",
    "cell",
    "default_cache_dir",
    "default_runner",
    "dormancy",
    "execute",
    "execute_cell",
    "execute_cell_shard",
    "execute_metro",
    "execute_metro_cell_shard",
    "execute_spec",
    "get_metro",
    "get_scenario",
    "inline",
    "load_plan",
    "metro",
    "pcap",
    "plan",
    "save_plan",
    "scheme",
    "shard_sizes",
    "tcpdump",
    "user",
]
