"""Precomputed constant bundle for the vectorized kernel backend.

The vector backend (:mod:`repro.sim.vector_engine`) processes a whole
batch of UEs' packet arrays per step instead of one heap event at a time.
Every constant it folds into those array expressions must be the *identical*
IEEE-754 double the scalar kernel reads per event — the byte-identity
contract of :mod:`repro.rrc.tables` extended to the batch path — so a
:class:`VectorTable` snapshots, per ``(profile, data-model)`` pair, the
exact floats the scalar hot path binds:

* the RRC timer thresholds and switch costs from the profile's
  :class:`~repro.rrc.tables.TransitionTable` (``t1``, ``idle_after``,
  promotion/demotion costs), and
* the per-packet transfer-fold constants of the engine's
  :class:`~repro.energy.accounting.DataEnergyModel` (burst gap, link
  rates, direction powers, minimum packet time).

No value here is *derived* differently from the scalar path: each field
is read from the same table/model attribute the scalar kernel reads, so
a vectorized ``t + w`` or ``size / rate`` over these constants produces
bit-equal results to the per-event scalar expression (numpy float64
arithmetic is IEEE-754 double arithmetic, elementwise).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..energy.accounting import DataEnergyModel
from .profiles import CarrierProfile
from .tables import transition_table

__all__ = ["VectorTable", "vector_table"]


@dataclass(frozen=True)
class VectorTable:
    """Flat constants for the vector backend's array expressions."""

    #: Active→demotion threshold (``t1``) and the full demotion horizon the
    #: kernel schedules inactivity-timer expiries at (``idle_after``).
    t1: float
    idle_after: float
    #: Data-energy fold constants (identical floats to the scalar kernel's
    #: per-run bindings of the same :class:`DataEnergyModel` attributes).
    burst_gap: float
    min_packet_time: float
    uplink_rate: float
    downlink_rate: float
    send_power_w: float
    recv_power_w: float


def vector_table(profile: CarrierProfile, model: DataEnergyModel) -> VectorTable:
    """Snapshot the vector-backend constants of one ``(profile, model)`` pair.

    Reads exactly the attributes the scalar kernel binds at the top of
    :meth:`~repro.sim.engine.SimulationEngine.run` — not re-derivations —
    so the batch and scalar paths share every constant bit for bit.
    """
    table = transition_table(profile)
    return VectorTable(
        t1=table.t1,
        idle_after=table.idle_after,
        burst_gap=model.burst_gap,
        min_packet_time=model.min_packet_time,
        uplink_rate=model.uplink_rate,
        downlink_rate=model.downlink_rate,
        send_power_w=model.send_power_w,
        recv_power_w=model.recv_power_w,
    )
