"""RRC state definitions for 3G (UMTS/HSPA) and LTE radios.

The Radio Resource Control (RRC) protocol places the radio in one of a
small number of states with very different power draws (paper Figure 2):

* 3G: ``CELL_DCH`` (dedicated channel, "Active"), ``CELL_FACH`` (shared
  channel, "High-power idle"), and ``CELL_PCH`` / ``IDLE`` which the paper
  groups together as "Idle" because the device draws essentially no radio
  power in either.
* LTE: ``RRC_CONNECTED`` and ``RRC_IDLE``.

To keep the simulator uniform across technologies, this module defines a
canonical three-level :class:`RadioState` (ACTIVE, HIGH_IDLE, IDLE) that
stands for the technology-specific states above.  LTE simply never uses
``HIGH_IDLE`` (its ``t2`` is zero).
"""

from __future__ import annotations

from enum import Enum

__all__ = ["RadioState", "Technology"]


class Technology(Enum):
    """Radio access technology of a carrier profile."""

    UMTS_3G = "3g"
    LTE = "lte"

    @property
    def is_lte(self) -> bool:
        """True for LTE profiles (two-state RRC machine)."""
        return self is Technology.LTE


class RadioState(Enum):
    """Canonical radio power states used by the simulator.

    ``ACTIVE`` corresponds to CELL_DCH (3G) or RRC_CONNECTED (LTE);
    ``HIGH_IDLE`` corresponds to CELL_FACH (3G only); ``IDLE`` corresponds
    to CELL_PCH / IDLE (3G) or RRC_IDLE (LTE).  ``PROMOTING`` models the
    1-4 second transition from Idle to Active during which the radio draws
    roughly active-level power but cannot yet carry data.
    """

    ACTIVE = "active"
    HIGH_IDLE = "high_idle"
    IDLE = "idle"
    PROMOTING = "promoting"

    @property
    def can_transfer(self) -> bool:
        """Whether data can be sent or received in this state."""
        return self in (RadioState.ACTIVE, RadioState.HIGH_IDLE)

    @property
    def draws_tail_power(self) -> bool:
        """Whether the state draws non-negligible power while not transferring."""
        return self in (RadioState.ACTIVE, RadioState.HIGH_IDLE, RadioState.PROMOTING)
