"""Energy substrate: tail-energy model, accounting, and model validation."""

from .accounting import (
    DataEnergyModel,
    EnergyAccountant,
    EnergyBreakdown,
    PacketTransfer,
)
from .battery import (
    GALAXY_NEXUS_BATTERY,
    NEXUS_S_BATTERY,
    Battery,
    DevicePowerBudget,
    LifetimeProjection,
    lifetime_extension,
    paper_lifetime_estimate,
    project_lifetime,
)
from .model import TailEnergyModel
from .sensitivity import (
    DEFAULT_DORMANCY_FRACTIONS,
    SensitivityPoint,
    SensitivitySweep,
    dormancy_cost_sensitivity,
    inactivity_timer_sweep,
    switch_energy_sweep,
)
from .validation import (
    BulkTransferRun,
    ValidationResult,
    generate_bulk_transfer,
    reference_transfer_energy,
    run_validation,
)

__all__ = [
    "Battery",
    "BulkTransferRun",
    "DEFAULT_DORMANCY_FRACTIONS",
    "DevicePowerBudget",
    "GALAXY_NEXUS_BATTERY",
    "LifetimeProjection",
    "NEXUS_S_BATTERY",
    "SensitivityPoint",
    "SensitivitySweep",
    "dormancy_cost_sensitivity",
    "inactivity_timer_sweep",
    "lifetime_extension",
    "paper_lifetime_estimate",
    "project_lifetime",
    "switch_energy_sweep",
    "DataEnergyModel",
    "EnergyAccountant",
    "EnergyBreakdown",
    "PacketTransfer",
    "TailEnergyModel",
    "ValidationResult",
    "generate_bulk_transfer",
    "reference_transfer_energy",
    "run_validation",
]
