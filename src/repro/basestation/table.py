"""Columnar struct-of-arrays storage for per-device cell results.

The population-scale results of a cell run used to be tuples of frozen
dataclasses — one :class:`~repro.basestation.cell.DeviceResult` (plus its
:class:`~repro.energy.accounting.EnergyBreakdown`) per device.  At 10^5-10^6
devices the per-object overhead dwarfs the payload: a quarter-million-visit
metro run held ~330 MB of result objects.  This module stores the same
facts as one contiguous column per field instead:

* :class:`DeviceTable` backs ``CellResult.devices``.  It is a
  ``Sequence[DeviceResult]``: indexing/iteration materialise frozen
  dataclass *row views* on demand (O(1) per row, built from the stored
  column scalars — bit-equal to the rows the old code built eagerly), so
  every existing consumer, including the digest-pinned golden builders,
  sees the exact objects it always did.
* :class:`ShardTable` backs ``CellShard.devices`` — the picklable partial
  a shard worker returns.  Both shard kernels build it column by column
  (:meth:`ShardTable.from_columns`) and it has no row views.
  ``merge_cell_shards`` concatenates shard columns, and the per-device
  close-out still runs the same scalar float ops per device (see
  ``docs/DESIGN.md`` §5 for why byte-identity survives the concat-merge).
* :class:`FloatArray` is a small immutable float sequence used for
  ``CellResult.switch_times`` (potentially millions of timestamps).

Aggregates pushed down to columns replicate the old Python semantics
exactly: per-row derived values evaluate the same IEEE-754 ops in the
same order (numpy elementwise ops are bit-equal to their scalar
counterparts), and cross-device float totals use a strict left fold
(``np.add.accumulate``; neither numpy's pairwise ``sum`` nor the builtin
``sum()``, which compensates float additions from Python 3.12 on) because
the golden suites pin those totals.

numpy is the preferred backing store; without it the columns degrade to
``array.array`` (same compactness, Python-loop aggregates).
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence

try:  # pragma: no cover - exercised through both paths in CI
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is an optional dependency
    _np = None

from ..energy.accounting import EnergyBreakdown
from ..rrc.states import RadioState
from ..rrc.tables import transition_table
from ..sim.results import SessionDelay

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle)
    from ..rrc.profiles import CarrierProfile
    from .cell import DeviceResult

__all__ = ["DeviceTable", "FloatArray", "ShardTable"]

#: Fixed state -> small-int code mapping used by ShardTable.open_state.
_STATE_CODE: dict[RadioState, int] = {s: i for i, s in enumerate(RadioState)}


# -- column primitives (numpy preferred, array.array fallback) ---------------------


def _float_col(values: Iterable[float]):
    if _np is not None:
        return _np.asarray(values, dtype=_np.float64)
    if isinstance(values, array) and values.typecode == "d":
        return values
    return array("d", values)


def _int_col(values: Iterable[int]):
    if _np is not None:
        return _np.asarray(values, dtype=_np.int64)
    if isinstance(values, array) and values.typecode == "q":
        return values
    return array("q", values)


def _byte_col(values: Iterable[int]):
    if _np is not None:
        return _np.asarray(values, dtype=_np.int8)
    if isinstance(values, array) and values.typecode == "b":
        return values
    return array("b", values)


def _concat(cols: Sequence[Any]):
    if len(cols) == 1:
        return cols[0]
    if _np is not None:
        return _np.concatenate(cols)
    out = array(cols[0].typecode)
    for col in cols:
        out.extend(col)
    return out


def _col_equal(a: Any, b: Any) -> bool:
    if _np is not None:
        return bool(_np.array_equal(a, b))
    return a == b


def _fold_sum(col: Any) -> float:
    """Strict left-fold float sum of ``col`` in row order (0.0 if empty).

    numpy's ``sum`` is pairwise and the builtin ``sum()`` compensates
    float additions from Python 3.12 on; either may round differently.
    The golden suites pin totals computed by the left fold, so the
    accumulate path (sequential by definition) is the only numpy reduction
    allowed here.
    """
    if len(col) == 0:
        return 0.0
    if _np is not None:
        return float(_np.add.accumulate(col)[-1])
    total = 0.0
    for value in col.tolist():  # the explicit left fold the docstring pins
        total += value
    return total


def _int_sum(col: Any) -> int:
    if len(col) == 0:
        return 0
    if _np is not None:
        return int(col.sum())  # repro-lint: allow[left-fold] reason=integer column; exact order-independent arithmetic
    return sum(col)  # repro-lint: allow[left-fold] reason=integer column; exact order-independent arithmetic


def _encode_labels(labels: Sequence[str]) -> tuple[Any, tuple[str, ...]]:
    """Dictionary-encode ``labels``: (codes column, first-seen categories)."""
    categories: dict[str, int] = {}
    codes = array("q")
    for label in labels:
        code = categories.get(label)
        if code is None:
            code = len(categories)
            categories[label] = code
        codes.append(code)
    return _int_col(codes), tuple(categories)


def _merge_categories(
    tables: Sequence[Any], codes_attr: str, cats_attr: str
) -> tuple[Any, tuple[str, ...]]:
    """Concatenate per-table label codes under one merged category list."""
    merged: dict[str, int] = {}
    parts = []
    for table in tables:
        cats = getattr(table, cats_attr)
        remap = []
        for label in cats:
            code = merged.get(label)
            if code is None:
                code = len(merged)
                merged[label] = code
            remap.append(code)
        codes = getattr(table, codes_attr)
        if remap == list(range(len(remap))):
            parts.append(codes)
        else:
            table_map = array("q", remap) if remap else array("q", [0])
            parts.append(_int_col([table_map[c] for c in codes.tolist()]))
    if not parts:
        return _int_col(()), ()
    return _concat(parts), tuple(merged)


def derive_tail_columns(
    profile: "CarrierProfile",
    data_time_s: Any,
    active_time_s: Any,
    high_idle_time_s: Any,
    idle_time_s: Any,
) -> tuple[Any, Any, Any]:
    """Per-device tail/idle energies from state-time columns.

    The elementwise ops are the exact scalar sequence of
    :func:`~repro.energy.accounting.assemble_breakdown` —
    ``max(0.0, active - data) * P_active`` etc. — evaluated per row, so
    each element is bit-equal to the eagerly assembled breakdown.
    """
    table = transition_table(profile)
    if _np is not None:
        active_tail_j = (
            _np.maximum(0.0, active_time_s - data_time_s) * table.power_active_w
        )
        high_idle_tail_j = high_idle_time_s * table.power_high_idle_w
        idle_j = idle_time_s * table.power_idle_w
        return active_tail_j, high_idle_tail_j, idle_j
    active_tail_j = array(
        "d",
        (
            max(0.0, a - d) * table.power_active_w
            for a, d in zip(active_time_s, data_time_s)
        ),
    )
    high_idle_tail_j = array(
        "d", (h * table.power_high_idle_w for h in high_idle_time_s)
    )
    idle_j = array("d", (i * table.power_idle_w for i in idle_time_s))
    return active_tail_j, high_idle_tail_j, idle_j


class FloatArray(Sequence[float]):
    """An immutable float sequence backed by one contiguous column.

    Drop-in for the ``tuple[float, ...]`` fields it replaces: iteration
    yields plain Python floats, equality works against other
    :class:`FloatArray` instances *and* plain lists/tuples, and storage is
    8 bytes per value instead of a boxed float object.
    """

    __slots__ = ("_data",)

    def __init__(self, values: Iterable[float] = ()) -> None:
        if isinstance(values, FloatArray):
            self._data = values._data
        else:
            self._data = _float_col(
                values if not isinstance(values, (list, tuple)) else values
            )

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return FloatArray(self._data[index])
        return float(self._data[index])

    def __iter__(self) -> Iterator[float]:
        return iter(self._data.tolist())

    def tolist(self) -> list[float]:
        """The values as a plain list of Python floats."""
        return self._data.tolist()

    @property
    def column(self):
        """The backing float64 column (numpy array, or ``array('d')``)."""
        return self._data

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FloatArray):
            return _col_equal(self._data, other._data)
        if isinstance(other, (list, tuple)):
            if len(other) != len(self._data):
                return False
            return self._data.tolist() == [float(v) for v in other]
        return NotImplemented

    def __hash__(self) -> int:
        # Consistent with __eq__ (equal arrays share a length); collisions
        # between unequal arrays are acceptable.
        return hash(("FloatArray", len(self._data)))

    def __repr__(self) -> str:
        return f"FloatArray(n={len(self._data)})"


class _Ragged:
    """Flat columns + offsets for the per-device session-delay lists."""

    __slots__ = ("arrival", "release", "flow", "offsets")

    def __init__(self, arrival, release, flow, offsets) -> None:
        self.arrival = arrival
        self.release = release
        self.flow = flow
        self.offsets = offsets

    @classmethod
    def from_lists(cls, lists: Sequence[Sequence[SessionDelay]]) -> "_Ragged":
        arrival = array("d")
        release = array("d")
        flow = array("q")
        offsets = array("q", [0])
        total = 0
        for delays in lists:
            for delay in delays:
                arrival.append(delay.arrival_time)
                release.append(delay.release_time)
                flow.append(delay.flow_id)
            total += len(delays)
            offsets.append(total)
        return cls(
            _float_col(arrival), _float_col(release), _int_col(flow),
            _int_col(offsets),
        )

    @classmethod
    def concat(cls, parts: Sequence["_Ragged"]) -> "_Ragged":
        if len(parts) == 1:
            return parts[0]
        offsets = array("q", [0])
        base = 0
        for part in parts:
            tail = part.offsets.tolist()[1:]
            offsets.extend(v + base for v in tail)
            base = offsets[-1]
        return cls(
            _concat([p.arrival for p in parts]),
            _concat([p.release for p in parts]),
            _concat([p.flow for p in parts]),
            _int_col(offsets),
        )

    def row(self, lo: int, hi: int) -> tuple[SessionDelay, ...]:
        if lo == hi:
            return ()
        return tuple(
            SessionDelay(float(a), float(r), int(f))
            for a, r, f in zip(
                self.arrival[lo:hi].tolist(),
                self.release[lo:hi].tolist(),
                self.flow[lo:hi].tolist(),
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Ragged):
            return NotImplemented
        return (
            _col_equal(self.offsets, other.offsets)
            and _col_equal(self.arrival, other.arrival)
            and _col_equal(self.release, other.release)
            and _col_equal(self.flow, other.flow)
        )

    __hash__ = None  # type: ignore[assignment]


def _decoded_equal(
    a_codes, a_cats: tuple[str, ...], b_codes, b_cats: tuple[str, ...]
) -> bool:
    """Whether two dictionary-encoded label columns decode identically."""
    if a_cats == b_cats:
        return _col_equal(a_codes, b_codes)
    b_to_a = {i: a_cats.index(c) if c in a_cats else -1
              for i, c in enumerate(b_cats)}
    return a_codes.tolist() == [b_to_a[c] for c in b_codes.tolist()]


class DeviceTable(Sequence["DeviceResult"]):
    """Struct-of-arrays storage behind ``CellResult.devices``.

    One column per :class:`~repro.basestation.cell.DeviceResult` field
    (the breakdown's nine floats and two switch counters inlined);
    ``policy_name``/``cohort`` are dictionary-encoded, and the per-device
    session-delay samples live in flat ragged columns.  ``table[i]``
    materialises the i-th frozen dataclass row on demand.
    """

    _FLOAT_COLS = (
        "data_j", "active_tail_j", "high_idle_tail_j", "idle_j", "switch_j",
        "data_time_s", "active_time_s", "high_idle_time_s", "idle_time_s",
        "total_session_delay_s", "learn_delay_first_s", "learn_delay_final_s",
    )
    _INT_COLS = (
        "device_id", "promotions", "demotions", "packets",
        "dormancy_requests", "dormancy_granted", "dormancy_denied",
        "delayed_sessions", "learn_iterations",
    )

    __slots__ = (
        "_cols", "_policy_codes", "_policy_cats", "_cohort_codes",
        "_cohort_cats", "_delays", "_n", "_id_index",
    )

    def __init__(
        self,
        cols: dict[str, Any],
        policy_codes,
        policy_cats: tuple[str, ...],
        cohort_codes,
        cohort_cats: tuple[str, ...],
        delays: _Ragged,
    ) -> None:
        self._cols = cols
        self._policy_codes = policy_codes
        self._policy_cats = policy_cats
        self._cohort_codes = cohort_codes
        self._cohort_cats = cohort_cats
        self._delays = delays
        self._n = len(cols["device_id"])
        self._id_index: dict[int, int] | None = None

    def __getstate__(self) -> dict[str, Any]:
        # The id index is a lookup cache, rebuilt on demand: leaving it
        # out keeps a pickled table's bytes independent of which lookups
        # ran before the pickle.
        return {name: getattr(self, name)
                for name in self.__slots__ if name != "_id_index"}

    def __setstate__(self, state: dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._id_index = None

    # -- construction ----------------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence["DeviceResult"]) -> "DeviceTable":
        """Build a table from materialised rows (the compatibility path)."""
        cols: dict[str, Any] = {}
        breakdown_fields = (
            "data_j", "active_tail_j", "high_idle_tail_j", "idle_j",
            "switch_j", "data_time_s", "active_time_s", "high_idle_time_s",
            "idle_time_s",
        )
        for name in breakdown_fields:
            cols[name] = _float_col(
                [getattr(r.breakdown, name) for r in rows]
            )
        for name in ("total_session_delay_s", "learn_delay_first_s",
                     "learn_delay_final_s"):
            cols[name] = _float_col([getattr(r, name) for r in rows])
        for name in ("promotions", "demotions"):
            cols[name] = _int_col([getattr(r.breakdown, name) for r in rows])
        for name in ("device_id", "packets", "dormancy_requests",
                     "dormancy_granted", "dormancy_denied",
                     "delayed_sessions", "learn_iterations"):
            cols[name] = _int_col([getattr(r, name) for r in rows])
        policy_codes, policy_cats = _encode_labels(
            [r.policy_name for r in rows]
        )
        cohort_codes, cohort_cats = _encode_labels([r.cohort for r in rows])
        delays = _Ragged.from_lists([r.session_delays for r in rows])
        return cls(cols, policy_codes, policy_cats, cohort_codes,
                   cohort_cats, delays)

    @classmethod
    def from_columns(
        cls,
        cols: dict[str, Any],
        policy_codes,
        policy_cats: tuple[str, ...],
        cohort_codes,
        cohort_cats: tuple[str, ...],
        delays: _Ragged,
    ) -> "DeviceTable":
        """Build a table directly from columns (the merge fast path)."""
        return cls(
            {name: cols[name] for name in cls._FLOAT_COLS + cls._INT_COLS},
            policy_codes, policy_cats, cohort_codes, cohort_cats, delays,
        )

    def stored_columns(self) -> list[Any]:
        """Every column of the table, in :meth:`stored_layout` order.

        The field columns, the policy and cohort label codes, then the
        session delays' offsets, arrival, release and flow columns.  With
        :attr:`labels` this is the whole table; :meth:`from_stored`
        rebuilds it.
        """
        delays = self._delays
        return [
            *(self._cols[name] for name in self._FLOAT_COLS + self._INT_COLS),
            self._policy_codes, self._cohort_codes,
            delays.offsets, delays.arrival, delays.release, delays.flow,
        ]

    @classmethod
    def stored_layout(cls, devices: int, delays: int) -> list[tuple[str, int]]:
        """``(typecode, length)`` of each of the :meth:`stored_columns`.

        For a table of ``devices`` rows holding ``delays`` session delays;
        ``"d"`` is float64 and ``"q"`` int64.  The field and label-code
        columns have one row per device, the delay offsets one more, and
        the arrival, release and flow columns one per delay.
        """
        return (
            [("d", devices)] * len(cls._FLOAT_COLS)
            + [("q", devices)] * (len(cls._INT_COLS) + 2)
            + [("q", devices + 1), ("d", delays), ("d", delays), ("q", delays)]
        )

    @property
    def labels(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The policy and cohort categories the label code columns index."""
        return self._policy_cats, self._cohort_cats

    @classmethod
    def from_stored(
        cls,
        columns: Iterator[Any],
        policy_cats: tuple[str, ...],
        cohort_cats: tuple[str, ...],
    ) -> "DeviceTable":
        """The table whose :meth:`stored_columns` come next in ``columns``.

        Takes exactly those columns off the iterator and keeps them as
        given, without a copy; the labels are the table's :attr:`labels`.
        """
        cols = dict(zip(cls._FLOAT_COLS + cls._INT_COLS, columns))
        policy_codes, cohort_codes, offsets, arrival, release, flow = (
            next(columns) for _ in range(6)
        )
        return cls(cols, policy_codes, policy_cats, cohort_codes, cohort_cats,
                   _Ragged(arrival, release, flow, offsets))

    # -- sequence protocol -----------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def _row(self, i: int) -> "DeviceResult":
        from .cell import DeviceResult

        c = self._cols
        offsets = self._delays.offsets
        breakdown = EnergyBreakdown(
            data_j=float(c["data_j"][i]),
            active_tail_j=float(c["active_tail_j"][i]),
            high_idle_tail_j=float(c["high_idle_tail_j"][i]),
            idle_j=float(c["idle_j"][i]),
            switch_j=float(c["switch_j"][i]),
            data_time_s=float(c["data_time_s"][i]),
            active_time_s=float(c["active_time_s"][i]),
            high_idle_time_s=float(c["high_idle_time_s"][i]),
            idle_time_s=float(c["idle_time_s"][i]),
            promotions=int(c["promotions"][i]),
            demotions=int(c["demotions"][i]),
        )
        return DeviceResult(
            device_id=int(c["device_id"][i]),
            policy_name=self._policy_cats[self._policy_codes[i]],
            breakdown=breakdown,
            dormancy_requests=int(c["dormancy_requests"][i]),
            dormancy_granted=int(c["dormancy_granted"][i]),
            dormancy_denied=int(c["dormancy_denied"][i]),
            packets=int(c["packets"][i]),
            cohort=self._cohort_cats[self._cohort_codes[i]],
            session_delays=self._delays.row(
                int(offsets[i]), int(offsets[i + 1])
            ),
            delayed_sessions=int(c["delayed_sessions"][i]),
            total_session_delay_s=float(c["total_session_delay_s"][i]),
            learn_iterations=int(c["learn_iterations"][i]),
            learn_delay_first_s=float(c["learn_delay_first_s"][i]),
            learn_delay_final_s=float(c["learn_delay_final_s"][i]),
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(
                self._row(i) for i in range(*index.indices(self._n))
            )
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError("device index out of range")
        return self._row(index)

    def __iter__(self) -> Iterator["DeviceResult"]:
        # Bulk iteration pulls each column to Python scalars once instead
        # of boxing per element per row.
        from .cell import DeviceResult

        c = {name: col.tolist() for name, col in self._cols.items()}
        policy = [self._policy_cats[code]
                  for code in self._policy_codes.tolist()]
        cohort = [self._cohort_cats[code]
                  for code in self._cohort_codes.tolist()]
        offsets = self._delays.offsets.tolist()
        for i in range(self._n):
            breakdown = EnergyBreakdown(
                data_j=c["data_j"][i],
                active_tail_j=c["active_tail_j"][i],
                high_idle_tail_j=c["high_idle_tail_j"][i],
                idle_j=c["idle_j"][i],
                switch_j=c["switch_j"][i],
                data_time_s=c["data_time_s"][i],
                active_time_s=c["active_time_s"][i],
                high_idle_time_s=c["high_idle_time_s"][i],
                idle_time_s=c["idle_time_s"][i],
                promotions=c["promotions"][i],
                demotions=c["demotions"][i],
            )
            yield DeviceResult(
                device_id=c["device_id"][i],
                policy_name=policy[i],
                breakdown=breakdown,
                dormancy_requests=c["dormancy_requests"][i],
                dormancy_granted=c["dormancy_granted"][i],
                dormancy_denied=c["dormancy_denied"][i],
                packets=c["packets"][i],
                cohort=cohort[i],
                session_delays=self._delays.row(offsets[i], offsets[i + 1]),
                delayed_sessions=c["delayed_sessions"][i],
                total_session_delay_s=c["total_session_delay_s"][i],
                learn_iterations=c["learn_iterations"][i],
                learn_delay_first_s=c["learn_delay_first_s"][i],
                learn_delay_final_s=c["learn_delay_final_s"][i],
            )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DeviceTable):
            if self._n != other._n:
                return False
            for name in self._FLOAT_COLS + self._INT_COLS:
                if not _col_equal(self._cols[name], other._cols[name]):
                    return False
            if not _decoded_equal(self._policy_codes, self._policy_cats,
                                  other._policy_codes, other._policy_cats):
                return False
            if not _decoded_equal(self._cohort_codes, self._cohort_cats,
                                  other._cohort_codes, other._cohort_cats):
                return False
            return self._delays == other._delays
        if isinstance(other, (tuple, list)):
            if len(other) != self._n:
                return False
            return all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("DeviceTable", self._n))

    def __repr__(self) -> str:
        return f"DeviceTable(n={self._n})"

    # -- lookups ---------------------------------------------------------------------

    def by_id(self, device_id: int) -> "DeviceResult":
        """The row of one device id (O(1) after the index is built)."""
        if self._id_index is None:
            self._id_index = {
                did: i
                for i, did in enumerate(self._cols["device_id"].tolist())
            }
        try:
            return self._row(self._id_index[device_id])
        except KeyError:
            raise KeyError(f"no device with id {device_id}") from None

    # -- columnar aggregates ---------------------------------------------------------

    def row_totals(self):
        """Per-device total energies, left-associated like ``total_j``.

        ``_fold_sum`` of this column is ``sum(row.total_energy_j for row
        in table)``, pushed down.
        """
        c = self._cols
        if _np is not None:
            return (
                c["data_j"] + c["active_tail_j"] + c["high_idle_tail_j"]
                + c["idle_j"] + c["switch_j"]
            )
        return array("d", (
            d + a + h + i + s
            for d, a, h, i, s in zip(
                c["data_j"], c["active_tail_j"],
                c["high_idle_tail_j"], c["idle_j"], c["switch_j"],
            )
        ))

    def int_total(self, column: str) -> int:
        """Exact integer column total (packets, dormancy counters, ...)."""
        return _int_sum(self._cols[column])

    def cohorts(self) -> tuple[str, ...]:
        """Non-empty cohort labels in first-device order."""
        return tuple(label for label in self._cohort_cats if label)

    def learning_summary(self) -> dict[str, float | int]:
        """Aggregate learning-curve summary over the cell's learning devices.

        ``learning_devices`` counts devices whose policy completed at least
        one learning iteration; the delay means are strict left folds over
        those devices in device order (divided once at the end), matching
        what a row loop would compute.
        """
        c = self._cols
        iters = c["learn_iterations"]
        if _np is not None:
            mask = iters > 0
            learners = int(mask.sum())  # repro-lint: allow[left-fold] reason=boolean mask count; exact integer arithmetic
            total_iters = int(iters[mask].sum()) if learners else 0  # repro-lint: allow[left-fold] reason=integer iteration count; exact arithmetic
            first = _fold_sum(c["learn_delay_first_s"][mask])
            final = _fold_sum(c["learn_delay_final_s"][mask])
        else:
            idx = [i for i, v in enumerate(iters) if v > 0]
            learners = len(idx)
            total_iters = sum(iters[i] for i in idx)  # repro-lint: allow[left-fold] reason=integer iteration count; exact arithmetic
            first = 0.0
            final = 0.0
            for i in idx:  # strict left fold in device order (DESIGN.md §5)
                first += c["learn_delay_first_s"][i]
                final += c["learn_delay_final_s"][i]
        return {
            "learning_devices": learners,
            "learn_iterations": total_iters,
            "mean_delay_first_s": first / learners if learners else 0.0,
            "mean_delay_final_s": final / learners if learners else 0.0,
        }

    def cohort_groups(self, totals: Any) -> dict[str, dict[str, float | int]]:
        """Per-cohort aggregate columns, keyed by label in first-seen order.

        ``totals`` is this table's :meth:`row_totals` column, which the
        caller has usually computed already for the cell's energy total.
        Float sums are strict left folds over the group's rows in device
        order — exactly the per-member left fold the row-based breakdown
        performed.
        """
        c = self._cols
        groups: dict[str, dict[str, float | int]] = {}
        for code, label in enumerate(self._cohort_cats):
            if _np is not None:
                mask = self._cohort_codes == code
                count = int(mask.sum())  # repro-lint: allow[left-fold] reason=boolean mask count; exact integer arithmetic
                energy = _fold_sum(totals[mask])
                delay = _fold_sum(c["total_session_delay_s"][mask])
                ints = {
                    name: int(c[name][mask].sum()) if count else 0  # repro-lint: allow[left-fold] reason=integer columns; exact arithmetic
                    for name in ("promotions", "demotions", "packets",
                                 "dormancy_requests", "dormancy_denied",
                                 "delayed_sessions", "learn_iterations")
                }
            else:
                idx = [i for i, v in enumerate(self._cohort_codes)
                       if v == code]
                count = len(idx)
                energy = 0.0
                delay = 0.0
                for i in idx:  # strict left fold in device order (DESIGN.md §5)
                    energy += totals[i]
                    delay += c["total_session_delay_s"][i]
                ints = {
                    name: sum(c[name][i] for i in idx)  # repro-lint: allow[left-fold] reason=integer columns; exact arithmetic
                    for name in ("promotions", "demotions", "packets",
                                 "dormancy_requests", "dormancy_denied",
                                 "delayed_sessions", "learn_iterations")
                }
            groups[label] = {
                "devices": count,
                "energy_j": energy,
                "total_session_delay_s": delay,
                **ints,
            }
        return groups


class ShardTable:
    """Struct-of-arrays form of one shard's exported open device states.

    One column per exported field, built by both shard kernels with
    :meth:`from_columns`, shipped across the process boundary as a
    handful of arrays, and read column-wise (:meth:`column` and the
    properties below) by ``merge_cell_shards``.  There are no row views.
    """

    _FLOAT_COLS = (
        "data_j", "data_time_s", "active_time_s", "high_idle_time_s",
        "idle_time_s", "switch_j", "open_since", "last_activity",
        "total_session_delay_s", "learn_delay_first_s", "learn_delay_final_s",
    )
    _INT_COLS = (
        "device_id", "promotions", "timer_demotions", "fast_demotions",
        "packets", "dormancy_requests", "dormancy_granted",
        "dormancy_denied", "delayed_sessions", "learn_iterations",
    )

    __slots__ = (
        "_cols", "_open_state", "_closed", "_policy_codes", "_policy_cats",
        "_cohort_codes", "_cohort_cats", "_delays", "_n",
    )

    def __init__(self, cols, open_state, closed, policy_codes, policy_cats,
                 cohort_codes, cohort_cats, delays: _Ragged) -> None:
        self._cols = cols
        self._open_state = open_state
        self._closed = closed
        self._policy_codes = policy_codes
        self._policy_cats = policy_cats
        self._cohort_codes = cohort_codes
        self._cohort_cats = cohort_cats
        self._delays = delays
        self._n = len(cols["device_id"])

    @classmethod
    def from_columns(
        cls,
        values: Mapping[str, Any],
        open_codes: Sequence[int],
        closed: Sequence[bool],
        policy_names: Sequence[str],
        cohorts: Sequence[str],
        session_delays: Sequence[Sequence[SessionDelay]],
    ) -> "ShardTable":
        """Build a shard's table from per-field columns, in device order.

        ``values`` maps float and int field names to one value per
        device; a field it leaves out is zero for every device (a vector
        shard's devices never learn or buffer sessions).
        ``open_codes`` holds each device's open state as its
        :meth:`state_code`, and ``closed`` its handover-closed flag.
        ``session_delays`` holds each device's stored session-delay
        sample, an empty row for a device that delayed nothing.
        """
        n = len(policy_names)
        cols: dict[str, Any] = {}
        for name in cls._FLOAT_COLS:
            cols[name] = _float_col(values.get(name, [0.0] * n))
        for name in cls._INT_COLS:
            cols[name] = _int_col(values.get(name, [0] * n))
        open_state = _byte_col(open_codes)
        closed_col = _byte_col(closed)
        policy_codes, policy_cats = _encode_labels(policy_names)
        cohort_codes, cohort_cats = _encode_labels(cohorts)
        delays = _Ragged.from_lists(session_delays)
        return cls(cols, open_state, closed_col, policy_codes, policy_cats,
                   cohort_codes, cohort_cats, delays)

    @classmethod
    def concat(cls, tables: Sequence["ShardTable"]) -> "ShardTable":
        """Concatenate shard partials in shard order (the merge layer)."""
        if not tables:
            raise ValueError("at least one shard table is required")
        cols = {
            name: _concat([t._cols[name] for t in tables])
            for name in cls._FLOAT_COLS + cls._INT_COLS
        }
        open_state = _concat([t._open_state for t in tables])
        closed = _concat([t._closed for t in tables])
        policy_codes, policy_cats = _merge_categories(
            tables, "_policy_codes", "_policy_cats"
        )
        cohort_codes, cohort_cats = _merge_categories(
            tables, "_cohort_codes", "_cohort_cats"
        )
        delays = _Ragged.concat([t._delays for t in tables])
        return cls(cols, open_state, closed, policy_codes, policy_cats,
                   cohort_codes, cohort_cats, delays)

    def __len__(self) -> int:
        return self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardTable):
            return NotImplemented
        if self._n != other._n:
            return False
        for name in self._FLOAT_COLS + self._INT_COLS:
            if not _col_equal(self._cols[name], other._cols[name]):
                return False
        if not _col_equal(self._open_state, other._open_state):
            return False
        if not _col_equal(self._closed, other._closed):
            return False
        if not _decoded_equal(self._policy_codes, self._policy_cats,
                              other._policy_codes, other._policy_cats):
            return False
        if not _decoded_equal(self._cohort_codes, self._cohort_cats,
                              other._cohort_codes, other._cohort_cats):
            return False
        return self._delays == other._delays

    def __hash__(self) -> int:
        return hash(("ShardTable", self._n))

    def __repr__(self) -> str:
        return f"ShardTable(n={self._n})"

    # -- merge-layer column access -----------------------------------------------------

    def column(self, name: str):
        """One raw column (floats/ints by field name)."""
        return self._cols[name]

    @property
    def open_state_codes(self):
        """Open-state codes (indices into ``tuple(RadioState)``)."""
        return self._open_state

    @property
    def closed_flags(self):
        """Per-device handover-closed flags (0/1)."""
        return self._closed

    @property
    def policy_codes(self):
        return self._policy_codes

    @property
    def policy_cats(self) -> tuple[str, ...]:
        return self._policy_cats

    @property
    def cohort_codes(self):
        return self._cohort_codes

    @property
    def cohort_cats(self) -> tuple[str, ...]:
        return self._cohort_cats

    @property
    def delays(self) -> _Ragged:
        return self._delays

    def count_closed(self) -> int:
        """Devices whose timeline a handover already closed."""
        return _int_sum(self._closed)

    def count_ids_at_least(self, bound: int) -> int:
        """Devices whose id is ``>= bound`` (metro arrival counting)."""
        ids = self._cols["device_id"]
        if _np is not None:
            return int((ids >= bound).sum())  # repro-lint: allow[left-fold] reason=boolean mask count; exact integer arithmetic
        return sum(1 for v in ids if v >= bound)  # repro-lint: allow[left-fold] reason=integer count; exact arithmetic

    @staticmethod
    def state_code(state: RadioState) -> int:
        """The small-int code of ``state`` in the open-state column."""
        return _STATE_CODE[state]
