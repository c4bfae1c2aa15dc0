"""Tests for the columnar device storage (repro.basestation.table).

The table is a drop-in replacement for the old tuple-of-DeviceResult
storage, so these tests pin the sequence contract (row views, slicing,
equality against plain tuples) and check that every columnar aggregate
equals the naive Python loop over materialised rows.
"""

import pytest

from repro.basestation import DeviceTable, FloatArray
from repro.basestation.cell import CellSimulator, DeviceResult, DeviceSpec
from repro.basestation.table import _fold_sum
from repro.core import MakeIdlePolicy
from repro.energy.accounting import EnergyBreakdown
from repro.rrc.profiles import get_profile
from repro.sim.results import SessionDelay
from repro.traces.synthetic import generate_application_trace


def _device(device_id, energy=1.0, cohort="", delays=()):
    breakdown = EnergyBreakdown(
        data_j=energy, active_tail_j=0.5, high_idle_tail_j=0.25,
        idle_j=0.125, switch_j=0.0625, data_time_s=10.0, active_time_s=5.0,
        high_idle_time_s=2.5, idle_time_s=1.25, promotions=3, demotions=2,
    )
    return DeviceResult(
        device_id=device_id,
        policy_name="status_quo",
        breakdown=breakdown,
        packets=40,
        dormancy_requests=4,
        dormancy_granted=3,
        dormancy_denied=1,
        session_delays=tuple(delays),
        total_session_delay_s=sum(d.delay for d in delays),
        delayed_sessions=sum(1 for d in delays if d.delay > 0.0),
        cohort=cohort,
    )


def _cell_result(devices=12, duration=900.0):
    profile = get_profile("att_hspa")
    simulator = CellSimulator(profile)
    specs = [
        DeviceSpec(
            device_id=i,
            trace=generate_application_trace(
                "im", duration=duration, seed=i
            ),
            policy=MakeIdlePolicy(),
            cohort="even" if i % 2 == 0 else "odd",
        )
        for i in range(devices)
    ]
    return simulator.run(specs)


class TestDeviceTableSequence:
    def test_from_rows_round_trips_every_field(self):
        rows = (_device(0), _device(1, energy=2.0, cohort="bulk"))
        table = DeviceTable.from_rows(rows)
        assert len(table) == 2
        for original, view in zip(rows, table):
            assert view == original
            assert isinstance(view, DeviceResult)

    def test_row_fields_are_python_scalars(self):
        table = DeviceTable.from_rows((_device(7),))
        row = table[0]
        assert type(row.device_id) is int
        assert type(row.breakdown.promotions) is int
        assert type(row.breakdown.data_j) is float
        assert type(row.total_session_delay_s) is float

    def test_negative_index_and_slice(self):
        rows = tuple(_device(i, energy=float(i + 1)) for i in range(5))
        table = DeviceTable.from_rows(rows)
        assert table[-1] == rows[-1]
        assert table[1:3] == rows[1:3]
        with pytest.raises(IndexError):
            table[5]

    def test_equality_against_plain_tuple(self):
        rows = (_device(0), _device(1))
        table = DeviceTable.from_rows(rows)
        assert table == rows
        assert table == DeviceTable.from_rows(rows)
        assert table != DeviceTable.from_rows(rows[:1])

    def test_session_delays_survive_the_round_trip(self):
        delays = (
            SessionDelay(arrival_time=1.0, release_time=2.5, flow_id=9),
            SessionDelay(arrival_time=4.0, release_time=4.0, flow_id=11),
        )
        table = DeviceTable.from_rows((_device(0, delays=delays),))
        assert table[0].session_delays == delays

    def test_empty_table(self):
        table = DeviceTable.from_rows(())
        assert len(table) == 0
        assert tuple(table) == ()
        assert _fold_sum(table.row_totals()) == 0.0
        assert table.cohorts() == ()

    def test_by_id(self):
        table = DeviceTable.from_rows(tuple(_device(i * 10) for i in range(4)))
        assert table.by_id(20).device_id == 20
        with pytest.raises(KeyError):
            table.by_id(5)


class TestColumnarAggregates:
    def test_aggregates_match_naive_loops(self):
        result = _cell_result()
        table = result.devices
        assert isinstance(table, DeviceTable)
        rows = tuple(table)
        assert _fold_sum(table.row_totals()) == sum(
            r.total_energy_j for r in rows
        )
        assert result.total_energy_j == sum(r.total_energy_j for r in rows)
        assert table.int_total("packets") == sum(r.packets for r in rows)
        assert table.int_total("promotions") == sum(
            r.breakdown.promotions for r in rows
        )

    def test_cohort_groups_match_row_grouping(self):
        result = _cell_result()
        table = result.devices
        groups = table.cohort_groups(table.row_totals())
        assert set(groups) == {"even", "odd"}
        for label, group in groups.items():
            members = [r for r in table if r.cohort == label]
            assert group["devices"] == len(members)
            assert group["energy_j"] == sum(m.total_energy_j for m in members)
            assert group["packets"] == sum(m.packets for m in members)

    def test_cell_result_totals_delegate_to_the_table(self):
        result = _cell_result(devices=6)
        rows = tuple(result.devices)
        assert result.total_energy_j == sum(r.total_energy_j for r in rows)
        assert result.total_packets == sum(r.packets for r in rows)
        assert result.total_switches == sum(
            r.breakdown.promotions + r.breakdown.demotions for r in rows
        )


class TestFloatArray:
    def test_iteration_yields_python_floats(self):
        arr = FloatArray([3.0, 1.0, 2.0])
        values = list(arr)
        assert values == [3.0, 1.0, 2.0]
        assert all(type(v) is float for v in values)

    def test_equality_with_lists(self):
        arr = FloatArray([3.0, 1.0, 2.0])
        assert arr == [3.0, 1.0, 2.0]
        assert len(arr) == 3
        assert arr[1] == 1.0
