"""Tests for RunSet pushdown filtering and the npz/parquet exports."""

import importlib.util

import pytest

from repro.api import SerialRunner, plan

HAVE_PYARROW = importlib.util.find_spec("pyarrow") is not None


@pytest.fixture(scope="module")
def runs():
    p = (
        plan()
        .apps("im", "email", duration=600.0)
        .carriers("att_hspa")
        .policies("status_quo", "makeidle")
    )
    return SerialRunner().run(p)


class TestFilter:
    def test_axis_keywords(self, runs):
        subset = runs.filter(trace="im", scheme="makeidle")
        assert len(subset) == 1
        assert subset[0].trace_label == "im"
        assert subset[0].scheme == "makeidle"

    def test_predicate_composes_with_axes(self, runs):
        ceiling = max(r.result.total_energy_j for r in runs)
        subset = runs.filter(
            lambda r: r.result.total_energy_j < ceiling, scheme="makeidle"
        )
        assert all(r.scheme == "makeidle" for r in subset)
        assert all(r.result.total_energy_j < ceiling for r in subset)

    def test_unknown_axis_is_an_error(self, runs):
        with pytest.raises(ValueError, match="filter axes"):
            runs.filter(flavour="strawberry")
        with pytest.raises(ValueError, match="filter axes"):
            runs.filter(engine="vector")

    def test_no_arguments_is_identity(self, runs):
        assert len(runs.filter()) == len(runs)


class TestIterRecords:
    def test_is_lazy_and_matches_to_records(self, runs):
        lazy = runs.iter_records()
        assert iter(lazy) is lazy  # a generator, not a list
        assert list(lazy) == runs.to_records()

    def test_respects_baseline_scheme_argument(self, runs):
        rows = list(runs.iter_records(baseline_scheme=None))
        assert all("saved_percent" not in row for row in rows)


class TestNpzExport:
    def test_round_trip(self, runs, tmp_path):
        np = pytest.importorskip("numpy")
        path = tmp_path / "runs.npz"
        runs.to_npz(path)
        data = np.load(path)
        records = runs.to_records()
        assert list(data["scheme"]) == [r["scheme"] for r in records]
        assert data["energy_j"].dtype == np.float64
        assert data["energy_j"].tolist() == pytest.approx(
            [r["energy_j"] for r in records]
        )
        assert data["seed"].dtype == np.int64

    def test_ragged_columns_widen_with_nan(self, runs, tmp_path):
        np = pytest.importorskip("numpy")
        path = tmp_path / "runs.npz"
        runs.to_npz(path)
        data = np.load(path)
        # saved_percent exists only for non-baseline rows; the holes are nan.
        records = runs.to_records()
        saved = data["saved_percent"]
        assert saved.dtype == np.float64
        for value, record in zip(saved.tolist(), records):
            if "saved_percent" in record:
                assert value == pytest.approx(record["saved_percent"])
            else:
                assert value != value  # nan


class TestParquetExport:
    @pytest.mark.skipif(HAVE_PYARROW, reason="pyarrow installed")
    def test_missing_pyarrow_raises_runtime_error(self, runs, tmp_path):
        with pytest.raises(RuntimeError, match="pyarrow"):
            runs.to_parquet(tmp_path / "runs.parquet")

    @pytest.mark.skipif(not HAVE_PYARROW, reason="pyarrow not installed")
    def test_round_trip(self, runs, tmp_path):
        import pyarrow.parquet as pq

        path = tmp_path / "runs.parquet"
        runs.to_parquet(path)
        table = pq.read_table(path)
        records = runs.to_records()
        assert table.num_rows == len(records)
        assert table.column("scheme").to_pylist() == [
            r["scheme"] for r in records
        ]
