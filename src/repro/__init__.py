"""repro: traffic-aware 3G/LTE RRC energy saving (Deng & Balakrishnan, CoNEXT 2012).

The library reproduces the paper's system end to end:

* :mod:`repro.traces` — packet traces (pcap I/O, synthetic application and
  user workloads, burst segmentation, inter-arrival statistics);
* :mod:`repro.rrc` — the RRC state machine, carrier profiles (Table 2) and
  fast-dormancy model;
* :mod:`repro.energy` — the tail-energy model ``E(t)``, per-run energy
  accounting and the estimator-validation experiment;
* :mod:`repro.learning` — Fixed-Share bank of experts and the Learn-α
  meta-learner;
* :mod:`repro.core` — the paper's contribution: MakeIdle, MakeActive (fixed
  and learning), the Oracle and the prior-work baselines;
* :mod:`repro.sim` — the trace-driven simulator;
* :mod:`repro.metrics` and :mod:`repro.analysis` — evaluation metrics and
  per-figure experiment drivers;
* :mod:`repro.api` — the unified experiment API: declare a workload ×
  carrier × policy sweep as an immutable plan, execute it serially or on a
  process pool with baseline caching, analyse the structured run set.

Quickstart — declare a sweep, execute it, normalise against the status quo::

    from repro.api import plan, SerialRunner

    p = (plan()
         .apps("email", duration=1800.0, seed=1)
         .carriers("att_hspa")
         .policies("status_quo", "makeidle", "oracle"))
    runs = SerialRunner().run(p)          # ProcessPoolRunner(jobs=4) scales it
    for row in runs.to_records():
        print(row["scheme"], f"{row['saved_percent']:.1f}%")

Single runs remain a direct simulator call when you need live policy
objects::

    from repro import get_profile, generate_application_trace
    from repro import TraceSimulator, MakeIdlePolicy, StatusQuoPolicy

    profile = get_profile("att_hspa")
    trace = generate_application_trace("email", duration=1800, seed=1)
    sim = TraceSimulator(profile)
    baseline = sim.run(trace, StatusQuoPolicy())
    makeidle = sim.run(trace, MakeIdlePolicy())
    print(makeidle.energy_saved_fraction(baseline))

See ``docs/api.md`` for the full plan → runner → runset lifecycle.
"""

from .api import (
    ExperimentPlan,
    ProcessPoolRunner,
    ResultCache,
    RunRecord,
    RunSet,
    RunSpec,
    SerialRunner,
    load_plan,
    save_plan,
)
from .core import (
    ApplicationRegistry,
    CombinedPolicy,
    FixedDelayMakeActive,
    FixedTimerPolicy,
    InteractiveAwarePolicy,
    LearningMakeActive,
    MakeIdlePolicy,
    OraclePolicy,
    PercentileIatPolicy,
    RadioPolicy,
    StatusQuoPolicy,
    TailEnderPolicy,
    TailTheftPolicy,
    TopHintPolicy,
    standard_policies,
)
from .energy import (
    Battery,
    DataEnergyModel,
    DevicePowerBudget,
    EnergyAccountant,
    EnergyBreakdown,
    TailEnergyModel,
    lifetime_extension,
    project_lifetime,
)
from .rrc import (
    CARRIER_ORDER,
    CARRIER_PROFILES,
    CarrierProfile,
    RadioState,
    RrcStateMachine,
    SignalingLoad,
    Technology,
    get_profile,
    signaling_load,
)
from .scenarios import (
    Cohort,
    DeviceArchetype,
    DiurnalShape,
    Scenario,
    get_scenario,
)
from .sim import SimulationResult, TraceSimulator, build_power_trace
from .traces import (
    Direction,
    Packet,
    PacketTrace,
    generate_application_trace,
    generate_mixed_trace,
    read_pcap,
    read_tcpdump,
    user_trace,
    write_pcap,
    write_tcpdump,
)

__version__ = "1.0.0"

__all__ = [
    "ApplicationRegistry",
    "Battery",
    "CARRIER_ORDER",
    "CARRIER_PROFILES",
    "CarrierProfile",
    "Cohort",
    "CombinedPolicy",
    "DeviceArchetype",
    "DevicePowerBudget",
    "DiurnalShape",
    "Scenario",
    "ExperimentPlan",
    "ProcessPoolRunner",
    "ResultCache",
    "RunRecord",
    "RunSet",
    "RunSpec",
    "SerialRunner",
    "InteractiveAwarePolicy",
    "SignalingLoad",
    "TailEnderPolicy",
    "TailTheftPolicy",
    "TopHintPolicy",
    "DataEnergyModel",
    "Direction",
    "EnergyAccountant",
    "EnergyBreakdown",
    "FixedDelayMakeActive",
    "FixedTimerPolicy",
    "LearningMakeActive",
    "MakeIdlePolicy",
    "OraclePolicy",
    "Packet",
    "PacketTrace",
    "PercentileIatPolicy",
    "RadioPolicy",
    "RadioState",
    "RrcStateMachine",
    "SimulationResult",
    "StatusQuoPolicy",
    "TailEnergyModel",
    "Technology",
    "TraceSimulator",
    "__version__",
    "build_power_trace",
    "generate_application_trace",
    "generate_mixed_trace",
    "get_profile",
    "get_scenario",
    "lifetime_extension",
    "load_plan",
    "project_lifetime",
    "read_pcap",
    "read_tcpdump",
    "save_plan",
    "signaling_load",
    "standard_policies",
    "user_trace",
    "write_pcap",
    "write_tcpdump",
]
