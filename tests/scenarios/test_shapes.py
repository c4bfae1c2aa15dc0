"""Diurnal shape behaviour: lookup, wrapping, validation, serialisation."""

import math

import pytest

from repro.scenarios import EVENING_PEAK, FLAT, OFFICE_HOURS, DiurnalShape


class TestRateLookup:
    def test_flat_is_identity_everywhere(self):
        for t in (0.0, 1.0, 3600.0, 86_399.0, 86_400.0, 200_000.0):
            assert FLAT.rate_at(t) == 1.0

    def test_segment_boundaries_are_inclusive_of_start(self):
        shape = DiurnalShape(name="s", segments=((0.0, 0.5), (12.0, 2.0)))
        assert shape.rate_at(12.0 * 3600.0) == 2.0
        assert shape.rate_at(12.0 * 3600.0 - 1.0) == 0.5

    def test_wraps_across_midnight(self):
        shape = DiurnalShape(name="s", segments=((6.0, 1.5), (22.0, 0.25)))
        # Before the first segment, the last segment's rate applies.
        assert shape.rate_at(0.0) == 0.25
        assert shape.rate_at(5.9 * 3600.0) == 0.25
        assert shape.rate_at(7.0 * 3600.0) == 1.5
        # A second day looks like the first.
        assert shape.rate_at(86_400.0 + 7.0 * 3600.0) == 1.5

    def test_shape_is_callable(self):
        assert OFFICE_HOURS(10.0 * 3600.0) == OFFICE_HOURS.rate_at(10.0 * 3600.0)

    def test_mean_rate_is_duration_weighted(self):
        shape = DiurnalShape(name="s", segments=((0.0, 1.0), (12.0, 3.0)))
        assert math.isclose(shape.mean_rate, 2.0)

    def test_mean_rate_with_wrap(self):
        shape = DiurnalShape(name="s", segments=((6.0, 2.0), (18.0, 1.0)))
        # 12 hours at 2.0, 12 hours (18->6, wrapping) at 1.0.
        assert math.isclose(shape.mean_rate, 1.5)


class TestValidation:
    def test_requires_segments(self):
        with pytest.raises(ValueError, match="at least one segment"):
            DiurnalShape(name="s", segments=())

    def test_rejects_non_increasing_starts(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DiurnalShape(name="s", segments=((5.0, 1.0), (5.0, 2.0)))

    def test_rejects_out_of_range_hours(self):
        with pytest.raises(ValueError, match="outside"):
            DiurnalShape(name="s", segments=((24.0, 1.0),))

    def test_rejects_non_positive_rates(self):
        with pytest.raises(ValueError, match="must be positive"):
            DiurnalShape(name="s", segments=((0.0, 0.0),))

    def test_scaled_validates_factor(self):
        with pytest.raises(ValueError, match="positive"):
            FLAT.scaled(0.0)

    def test_scaled_multiplies_every_segment(self):
        doubled = OFFICE_HOURS.scaled(2.0)
        for (h0, m0), (h1, m1) in zip(OFFICE_HOURS.segments, doubled.segments):
            assert h0 == h1
            assert m1 == 2.0 * m0


class TestSerialisation:
    @pytest.mark.parametrize("shape", [FLAT, OFFICE_HOURS, EVENING_PEAK])
    def test_round_trips_through_dict(self, shape):
        clone = DiurnalShape.from_dict(shape.to_dict())
        assert clone == shape
        assert clone.fingerprint == shape.fingerprint

    def test_fingerprint_excludes_name(self):
        a = DiurnalShape(name="a", segments=((0.0, 1.0),))
        b = DiurnalShape(name="b", segments=((0.0, 1.0),))
        assert a.fingerprint == b.fingerprint


BUILTINS = [FLAT, OFFICE_HOURS, EVENING_PEAK]


class TestBuiltins:
    def test_builtins_are_distinct(self):
        assert len({shape.name for shape in BUILTINS}) == len(BUILTINS)
        assert len({shape.fingerprint for shape in BUILTINS}) == len(BUILTINS)

    @pytest.mark.parametrize("shape", BUILTINS, ids=lambda s: s.name)
    def test_mean_rate_within_segment_range(self, shape):
        multipliers = [m for _, m in shape.segments]
        assert min(multipliers) <= shape.mean_rate <= max(multipliers)

    @pytest.mark.parametrize("shape", BUILTINS, ids=lambda s: s.name)
    def test_each_segment_holds_until_the_next_starts(self, shape):
        starts = [h for h, _ in shape.segments] + [24.0]
        for (start, multiplier), end in zip(shape.segments, starts[1:]):
            assert shape.rate_at(start * 3600.0) == multiplier
            assert shape.rate_at(end * 3600.0 - 1.0) == multiplier

    def test_office_hours_peak_in_the_working_day(self):
        hourly = [OFFICE_HOURS.rate_at(h * 3600.0) for h in range(24)]
        assert max(range(24), key=hourly.__getitem__) in range(9, 17)
        assert hourly[3] == min(hourly)
        # The lunch dip sits between the morning and afternoon peaks.
        assert hourly[12] < hourly[10] and hourly[12] < hourly[14]

    def test_evening_peak_at_prime_time(self):
        hourly = [EVENING_PEAK.rate_at(h * 3600.0) for h in range(24)]
        assert max(range(24), key=hourly.__getitem__) in range(20, 23)
        assert min(range(24), key=hourly.__getitem__) in range(2, 8)
        assert EVENING_PEAK.rate_at(21 * 3600.0) > OFFICE_HOURS.rate_at(21 * 3600.0)
