"""Energy accounting: integrating power over a radio timeline and a trace.

The paper estimates the energy of a simulated run as the sum of three parts
(Section 6.1 and Figure 1):

* **Data energy** — while the device is actively sending or receiving, it
  draws the bulk-transfer power of Table 1/2; the per-packet energy is the
  packet's share of transfer time multiplied by the direction-specific power.
* **Tail energy** — while the radio is Active or High-power idle but not
  transferring, it draws the corresponding tail power ``P_t1`` / ``P_t2``
  (these are the "DCH Timer" and "FACH Timer" bars of Figure 1).
* **Switch energy** — each demotion/promotion has a fixed energy cost.

:class:`DataEnergyModel` converts a packet trace into per-packet transfer
times and energies using the paper's per-second method; :class:`EnergyAccountant`
combines that with a state-machine timeline and switch events into an
:class:`EnergyBreakdown`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..folds import left_fold
from ..rrc.profiles import CarrierProfile
from ..rrc.state_machine import StateInterval, SwitchEvent
from ..rrc.states import RadioState
from ..rrc.tables import transition_table
from ..traces.packet import PacketTrace

__all__ = [
    "DataEnergyModel",
    "EnergyBreakdown",
    "EnergyAccountant",
    "PacketTransfer",
    "assemble_breakdown",
]


@dataclass(frozen=True)
class PacketTransfer:
    """Transfer time and energy attributed to one packet."""

    timestamp: float
    duration_s: float
    energy_j: float
    uplink: bool


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one simulated run, split by cause (the Figure 1 categories)."""

    data_j: float
    active_tail_j: float
    high_idle_tail_j: float
    idle_j: float
    switch_j: float
    data_time_s: float
    active_time_s: float
    high_idle_time_s: float
    idle_time_s: float
    promotions: int
    demotions: int

    @property
    def total_j(self) -> float:
        """Total energy of the run in joules."""
        return (
            self.data_j
            + self.active_tail_j
            + self.high_idle_tail_j
            + self.idle_j
            + self.switch_j
        )

    @property
    def tail_j(self) -> float:
        """Tail energy: radio on (Active or High idle) but not transferring."""
        return self.active_tail_j + self.high_idle_tail_j

    @property
    def switch_count(self) -> int:
        """Total number of state switches (promotions plus demotions)."""
        return self.promotions + self.demotions

    def fraction(self, component_j: float) -> float:
        """Fraction of the total contributed by ``component_j`` (0 when total is 0)."""
        total = self.total_j
        return component_j / total if total > 0 else 0.0

    def as_dict(self) -> dict[str, float]:
        """Return the breakdown as a plain dictionary (for tables and JSON)."""
        return {
            "data_j": self.data_j,
            "active_tail_j": self.active_tail_j,
            "high_idle_tail_j": self.high_idle_tail_j,
            "idle_j": self.idle_j,
            "switch_j": self.switch_j,
            "total_j": self.total_j,
            "data_time_s": self.data_time_s,
            "active_time_s": self.active_time_s,
            "high_idle_time_s": self.high_idle_time_s,
            "idle_time_s": self.idle_time_s,
            "promotions": float(self.promotions),
            "demotions": float(self.demotions),
        }


class DataEnergyModel:
    """Per-packet transfer time and energy, following the paper's method.

    For a packet that follows another packet within ``burst_gap`` seconds,
    the transfer time is the inter-arrival gap and the energy is that gap
    multiplied by the direction-specific bulk power (this is exactly the
    estimate described in Section 6.1).  For the first packet of a burst the
    gap is not meaningful, so the transfer time falls back to the packet's
    serialisation time at the configured link rate (bounded below by
    ``min_packet_time``).

    ``burst_gap`` defaults to the smaller of one second and the profile's
    offline threshold ``t_threshold``: gaps longer than the threshold are
    tail time by definition (the radio could profitably have been demoted),
    so charging them as transfer time would misattribute energy and make the
    offline-optimal rule appear sub-optimal.
    """

    def __init__(
        self,
        profile: CarrierProfile,
        burst_gap: float | None = None,
        downlink_rate_mbps: float = 5.0,
        uplink_rate_mbps: float = 1.0,
        min_packet_time: float = 0.002,
    ) -> None:
        if burst_gap is None:
            from .model import TailEnergyModel

            burst_gap = min(1.0, TailEnergyModel(profile).t_threshold)
        if burst_gap <= 0:
            raise ValueError(f"burst_gap must be positive, got {burst_gap}")
        if downlink_rate_mbps <= 0 or uplink_rate_mbps <= 0:
            raise ValueError("link rates must be positive")
        if min_packet_time <= 0:
            raise ValueError("min_packet_time must be positive")
        self._profile = profile
        self._burst_gap = burst_gap
        self._downlink_rate = downlink_rate_mbps * 1e6 / 8.0  # bytes per second
        self._uplink_rate = uplink_rate_mbps * 1e6 / 8.0
        self._min_packet_time = min_packet_time
        # Hot-path constants from the profile's transition table — the
        # identical floats ``profile.transfer_power_w`` derives, snapshot
        # once so the kernel's per-packet fold never walks the property
        # chain (see repro.rrc.tables for the byte-identity contract).
        table = transition_table(profile)
        self._send_power_w = table.power_send_w
        self._recv_power_w = table.power_recv_w

    @property
    def profile(self) -> CarrierProfile:
        """The carrier profile supplying transfer powers."""
        return self._profile

    @property
    def burst_gap(self) -> float:
        """Maximum gap for which a packet is charged its inter-arrival time."""
        return self._burst_gap

    @property
    def uplink_rate(self) -> float:
        """Uplink serialisation rate in bytes per second."""
        return self._uplink_rate

    @property
    def downlink_rate(self) -> float:
        """Downlink serialisation rate in bytes per second."""
        return self._downlink_rate

    @property
    def min_packet_time(self) -> float:
        """Lower bound on one packet's serialisation time, seconds."""
        return self._min_packet_time

    @property
    def send_power_w(self) -> float:
        """Uplink transfer power (``profile.transfer_power_w(True)``), watts."""
        return self._send_power_w

    @property
    def recv_power_w(self) -> float:
        """Downlink transfer power (``profile.transfer_power_w(False)``), watts."""
        return self._recv_power_w

    def serialization_time(self, size: int, uplink: bool) -> float:
        """Time to put ``size`` bytes on the air at the configured link rate."""
        rate = self._uplink_rate if uplink else self._downlink_rate
        return max(self._min_packet_time, size / rate)

    def packet_transfers(self, trace: PacketTrace) -> list[PacketTransfer]:
        """Per-packet transfer records for ``trace``."""
        transfers: list[PacketTransfer] = []
        previous_time: float | None = None
        for packet in trace:
            uplink = packet.direction.is_uplink
            if previous_time is None:
                duration = self.serialization_time(packet.size, uplink)
            else:
                gap = packet.timestamp - previous_time
                if gap <= self._burst_gap:
                    duration = gap
                else:
                    duration = self.serialization_time(packet.size, uplink)
            energy = duration * (
                self._send_power_w if uplink else self._recv_power_w
            )
            transfers.append(
                PacketTransfer(packet.timestamp, duration, energy, uplink)
            )
            previous_time = packet.timestamp
        return transfers

    def total_data_energy(self, trace: PacketTrace) -> tuple[float, float]:
        """Return ``(energy_j, transfer_time_s)`` summed over the trace."""
        transfers = self.packet_transfers(trace)
        return (
            left_fold(t.energy_j for t in transfers),
            left_fold(t.duration_s for t in transfers),
        )


def assemble_breakdown(
    profile: CarrierProfile,
    *,
    data_j: float,
    data_time_s: float,
    active_time_s: float,
    high_idle_time_s: float,
    idle_time_s: float,
    switch_j: float,
    promotions: int,
    demotions: int,
) -> EnergyBreakdown:
    """Build an :class:`EnergyBreakdown` from pre-summed time/energy totals.

    This is the single place the tail/idle power formulas live: the batch
    :meth:`EnergyAccountant.account` path and the simulation kernel's
    streaming accumulation both call it, so their results agree exactly.
    Transfer time is attributed to the Active state (data can only flow
    while the radio is connected), so the Active tail time is the total
    Active-state time minus the transfer time, clamped at zero.  State
    powers come from the profile's transition table — the identical
    floats the ``power_*_w`` properties derive (see repro.rrc.tables).
    """
    table = transition_table(profile)
    active_tail_time = max(0.0, active_time_s - data_time_s)
    return EnergyBreakdown(
        data_j=data_j,
        active_tail_j=active_tail_time * table.power_active_w,
        high_idle_tail_j=high_idle_time_s * table.power_high_idle_w,
        idle_j=idle_time_s * table.power_idle_w,
        switch_j=switch_j,
        data_time_s=data_time_s,
        active_time_s=active_time_s,
        high_idle_time_s=high_idle_time_s,
        idle_time_s=idle_time_s,
        promotions=promotions,
        demotions=demotions,
    )


class EnergyAccountant:
    """Combines a trace, a radio timeline and switch events into a breakdown."""

    def __init__(
        self,
        profile: CarrierProfile,
        data_model: DataEnergyModel | None = None,
    ) -> None:
        self._profile = profile
        self._data_model = data_model or DataEnergyModel(profile)

    @property
    def profile(self) -> CarrierProfile:
        """The carrier profile used for all power values."""
        return self._profile

    @property
    def data_model(self) -> DataEnergyModel:
        """The per-packet transfer model."""
        return self._data_model

    def account(
        self,
        trace: PacketTrace,
        intervals: Sequence[StateInterval],
        switches: Sequence[SwitchEvent],
    ) -> EnergyBreakdown:
        """Compute the :class:`EnergyBreakdown` of one simulated run.

        Transfer time is attributed to the Active state (data can only flow
        while the radio is connected), so the Active tail time is the total
        Active-state time minus the transfer time, clamped at zero.
        """
        data_j, data_time = self._data_model.total_data_energy(trace)

        active_time = left_fold(
            i.duration for i in intervals
            if i.state in (RadioState.ACTIVE, RadioState.PROMOTING)
        )
        high_idle_time = left_fold(
            i.duration for i in intervals if i.state is RadioState.HIGH_IDLE
        )
        idle_time = left_fold(
            i.duration for i in intervals if i.state is RadioState.IDLE
        )
        switch_j = left_fold(s.energy_j for s in switches)
        promotions = sum(1 for s in switches if s.is_promotion)  # repro-lint: allow[left-fold] reason=integer count; exact order-independent arithmetic
        demotions = sum(1 for s in switches if s.is_demotion)  # repro-lint: allow[left-fold] reason=integer count; exact order-independent arithmetic

        return assemble_breakdown(
            self._profile,
            data_j=data_j,
            data_time_s=data_time,
            active_time_s=active_time,
            high_idle_time_s=high_idle_time,
            idle_time_s=idle_time,
            switch_j=switch_j,
            promotions=promotions,
            demotions=demotions,
        )
