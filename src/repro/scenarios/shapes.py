"""Diurnal traffic shapes: time-of-day rate envelopes for scenario workloads.

Real cell traffic ebbs and flows over the day — office cells peak during
working hours, residential cells in the evening — and the paper's savings
depend on *when* devices talk as much as on who they are.  A
:class:`DiurnalShape` is a declarative, serialisable description of that
ebb and flow: a piecewise-constant multiplier over the hours of a
(wrapping) period, applied to the session arrival rate of every shaped
generator (see ``rate=`` in
:func:`repro.traces.synthetic.generate_application_trace` and
``envelope=`` in :func:`repro.traces.streaming.stream_application_packets`).

Shapes are *multipliers*, not absolute rates: ``1.0`` leaves an
application's statistical profile untouched, ``2.0`` doubles its session
arrival rate around that hour, ``0.25`` quiets it to a quarter.  A shape
with a single segment at ``1.0`` is therefore exactly the unshaped
workload in distribution.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Mapping

from ..dictform import strict_fields

__all__ = ["DiurnalShape", "FLAT", "EVENING_PEAK", "OFFICE_HOURS"]

#: Seconds per envelope period (one day).
_DAY_S = 86_400.0


@dataclass(frozen=True)
class DiurnalShape:
    """A piecewise-constant time-of-day session-rate envelope.

    ``segments`` is a tuple of ``(start_hour, multiplier)`` pairs with
    strictly increasing start hours in ``[0, 24)``; each multiplier holds
    from its start hour until the next segment's, and the envelope wraps —
    the stretch before the first segment carries the *last* segment's
    multiplier, so a shape need not begin at hour 0.
    """

    name: str
    segments: tuple[tuple[float, float], ...]
    period_s: float = _DAY_S

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a diurnal shape requires at least one segment")
        if self.period_s <= 0:
            raise ValueError(f"period_s must be positive, got {self.period_s}")
        period_hours = self.period_s / 3600.0
        previous = None
        for start_hour, multiplier in self.segments:
            if not 0.0 <= start_hour < period_hours:
                raise ValueError(
                    f"segment start {start_hour} outside [0, {period_hours})"
                )
            if previous is not None and start_hour <= previous:
                raise ValueError(
                    "segment start hours must be strictly increasing, got "
                    f"{start_hour} after {previous}"
                )
            if not multiplier > 0:
                raise ValueError(
                    f"rate multipliers must be positive, got {multiplier} at "
                    f"hour {start_hour} (use a small value for quiet hours)"
                )
            previous = start_hour
        # Normalise to plain tuples so equality/fingerprints are stable
        # whatever sequence types the caller handed in.
        object.__setattr__(
            self,
            "segments",
            tuple((float(h), float(m)) for h, m in self.segments),
        )
        # rate_at runs once per drawn session gap for every shaped device;
        # precompute the bisect key so the hot path allocates nothing.
        object.__setattr__(
            self, "_starts", tuple(h for h, _ in self.segments)
        )

    @property
    def fingerprint(self) -> tuple:
        """Stable cache-key component identifying the envelope's behaviour."""
        return ("shape", self.segments, self.period_s)

    def rate_at(self, time_s: float) -> float:
        """The rate multiplier in effect at ``time_s`` seconds of stream time."""
        hour = (time_s % self.period_s) / 3600.0
        index = bisect_right(self._starts, hour) - 1
        return self.segments[index][1]  # index -1 wraps to the last segment

    #: A shape is directly usable as a generator ``rate=`` / ``envelope=``.
    __call__ = rate_at

    @property
    def mean_rate(self) -> float:
        """Time-average multiplier over one period (duration-weighted)."""
        hours = self.period_s / 3600.0
        total = 0.0
        for index, (start, multiplier) in enumerate(self.segments):
            next_start = (
                self.segments[index + 1][0]
                if index + 1 < len(self.segments) else hours + self.segments[0][0]
            )
            total += (next_start - start) * multiplier
        return total / hours

    def scaled(self, factor: float) -> "DiurnalShape":
        """Return a copy with every multiplier scaled by ``factor``."""
        if not factor > 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return DiurnalShape(
            name=self.name,
            segments=tuple((h, m * factor) for h, m in self.segments),
            period_s=self.period_s,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "name": self.name,
            "segments": [[h, m] for h, m in self.segments],
            "period_s": self.period_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DiurnalShape":
        """Re-create a shape from :meth:`to_dict` output.

        A key that :meth:`to_dict` does not write raises ``ValueError``.
        """
        data = strict_fields(
            data,
            {"name": "string", "segments": "list[list[number]]",
             "period_s": "number"},
            "shape",
        )
        return cls(
            name=str(data.get("name", "")),
            segments=tuple(
                (float(h), float(m)) for h, m in data.get("segments", ())
            ),
            period_s=float(data.get("period_s", _DAY_S)),
        )


#: No shaping: the identity envelope.
FLAT = DiurnalShape(name="flat", segments=((0.0, 1.0),))

#: Office-cell day: quiet night, morning ramp, working-hours peak with a
#: lunch dip, evening wind-down.
OFFICE_HOURS = DiurnalShape(
    name="office_hours",
    segments=(
        (0.0, 0.2),    # night
        (7.0, 0.8),    # commute ramp-up
        (9.0, 1.6),    # morning peak
        (12.0, 1.1),   # lunch dip
        (13.0, 1.5),   # afternoon
        (17.0, 0.7),   # commute out
        (20.0, 0.35),  # evening
    ),
)

#: Residential-cell day: daytime trickle, strong evening peak.
EVENING_PEAK = DiurnalShape(
    name="evening_peak",
    segments=(
        (0.0, 0.3),    # late night
        (2.0, 0.15),   # dead of night
        (8.0, 0.6),    # daytime background
        (18.0, 1.3),   # after work
        (20.0, 1.9),   # prime time
        (23.0, 0.8),   # winding down
    ),
)
