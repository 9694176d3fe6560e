"""Domain types and session-retention rules."""

import re
from datetime import datetime, timezone

import numpy as np
import pytest

from conftest import T0, make_series, make_session
from fedcharge.sessions import (
    DatasetConfig,
    SessionSeries,
    early_window_bounds,
    parse_utc,
    retain_sessions,
)


class TestTypes:
    def test_session_rejects_negative_target(self):
        with pytest.raises(ValueError):
            make_session(delivered=-1.0)

    def test_session_rejects_disconnect_before_connect(self):
        with pytest.raises(ValueError):
            make_session(disconnect_time=T0 - 1)

    @pytest.mark.parametrize("field", ["connection_time", "disconnect_time",
                                       "requested_departure"])
    def test_session_rejects_a_time_that_is_not_epoch_seconds(self, field):
        """Times are int UTC epoch seconds; a datetime, as the type once held,
        is refused by the field's name."""
        with pytest.raises(TypeError, match=f"{field} of s1 must be int epoch seconds, "
                                            "not datetime"):
            make_session(**{field: datetime(2019, 1, 7, 8, 30, tzinfo=timezone.utc)})
        with pytest.raises(TypeError, match=field):
            make_session(**{field: float(T0)})

    def test_session_requires_a_connection_time(self):
        with pytest.raises(TypeError, match="connection_time of s1 .* not NoneType"):
            make_session(connection_time=None)

    def test_session_rejects_empty_id(self):
        with pytest.raises(ValueError):
            make_session(session_id="")

    def test_sample_requires_some_signal(self):
        with pytest.raises(ValueError):
            SessionSeries(t=[T0], current=[np.nan], pilot=[np.nan])

    @pytest.mark.parametrize("t", [[60, 60], [60, 0], [0, 60, 30]])
    def test_series_requires_strictly_increasing_times(self, t):
        with pytest.raises(ValueError, match="strictly increasing"):
            SessionSeries(t=t, current=[16.0] * len(t), pilot=[32.0] * len(t))

    def test_series_columns_are_read_only(self):
        series = SessionSeries(t=[0, 60], current=[16.0, 16.0], pilot=[32.0, 32.0])
        with pytest.raises(ValueError):
            series.current[0] = 0.0

    def test_dataset_config_validation(self):
        with pytest.raises(ValueError):
            DatasetConfig(early_window_minutes=0)
        with pytest.raises(ValueError):
            DatasetConfig(min_early_current_samples=0)
        with pytest.raises(ValueError):
            DatasetConfig(nominal_voltage_v=-208)

    def test_parse_utc_normalizes_offsets(self):
        a = parse_utc("2019-01-07T08:30:00Z")
        b = parse_utc("2019-01-07T10:30:00+02:00")
        assert a == b == T0 and type(a) is int

    @pytest.mark.parametrize("text, expected", [
        ("2019-01-07T08:30:00.999999Z", 1_546_849_800),  # the fraction is dropped
        ("1969-12-31T23:59:59.5Z", -1),  # rounded down, before 1970 too
        ("2019-01-07 08:30:00", 1_546_849_800),  # no offset: UTC
        ("0001-01-01T00:00:00Z", -62_135_596_800),
        ("9999-12-31T23:59:59Z", 253_402_300_799),
    ])
    def test_parse_utc_gives_whole_epoch_seconds(self, text, expected):
        assert parse_utc(text) == expected

    @pytest.mark.parametrize("text", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"])
    def test_parse_utc_names_a_stamp_outside_years_1_to_9999_in_utc(self, text):
        with pytest.raises(ValueError, match=re.escape(f"timestamp '{text}' falls outside years 1-9999")):
            parse_utc(text)


class TestEarlyWindow:
    def test_closed_interval_boundaries(self, dataset_cfg):
        session = make_session()
        series = make_series(offsets_s=(-10, 0, 300, 600, 601))
        window = series[slice(*early_window_bounds(session, series, dataset_cfg))]
        offsets = (window.t - T0).tolist()
        assert offsets == [0, 300, 600]

    def test_all_samples_before_connection(self, dataset_cfg):
        session = make_session()
        series = make_series(offsets_s=(-120, -60))
        assert len(series[slice(*early_window_bounds(session, series, dataset_cfg))]) == 0


class TestRetention:
    def test_five_early_current_samples_retained(self, dataset_cfg):
        session = make_session(delivered=9.0)
        series = {"s1": make_series(offsets_s=(0, 60, 120, 180, 240))}
        result = retain_sessions([session], series, dataset_cfg)
        assert result.sessions == [session]
        assert not result.dropped

    def test_missing_series_dropped(self, dataset_cfg):
        result = retain_sessions([make_session()], {}, dataset_cfg)
        assert result.sessions == []
        assert result.dropped["missing_series"] == 1

    def test_missing_target_dropped(self, dataset_cfg):
        session = make_session(delivered=None)
        series = {"s1": make_series()}
        result = retain_sessions([session], series, dataset_cfg)
        assert result.sessions == []
        assert result.dropped["missing_target"] == 1

    def test_four_vs_five_early_samples(self, dataset_cfg):
        # Oracle: brute-force count of current samples in [t_conn, t_conn + W].
        four = make_series(offsets_s=(0, 60, 120, 180, 9000))
        five = make_series(offsets_s=(0, 60, 120, 180, 240))
        for sid, series in (("a", four), ("b", five)):
            w_end = T0 + 10 * 60
            brute = sum(
                1
                for t, current in zip(series.t.tolist(), series.current.tolist())
                if T0 <= t <= w_end
                and not np.isnan(current)
            )
            assert brute == (4 if sid == "a" else 5)
        result = retain_sessions(
            [make_session(session_id="a"), make_session(session_id="b")],
            {"a": four, "b": five},
            dataset_cfg,
        )
        assert [s.session_id for s in result.sessions] == ["b"]
        assert result.dropped["insufficient_early_current"] == 1

    def test_stable_order_and_idempotence(self, dataset_cfg):
        rng = np.random.default_rng(11)
        sessions, series = [], {}
        for i in range(40):
            sid = f"s{i:02d}"
            n = int(rng.integers(0, 9))
            sessions.append(make_session(session_id=sid, delivered=float(rng.uniform(1, 20))))
            if n:
                series[sid] = make_series(offsets_s=tuple(range(0, 60 * n, 60)))
        first = retain_sessions(sessions, series, dataset_cfg)
        assert [s.session_id for s in first.sessions] == sorted(
            s.session_id for s in first.sessions
        )  # input was in id order; retention must keep it
        again = retain_sessions(first.sessions, series, dataset_cfg)
        assert again.sessions == first.sessions
        assert not again.dropped

    def test_retained_sessions_satisfy_minimum(self, dataset_cfg):
        rng = np.random.default_rng(5)
        sessions, series = [], {}
        for i in range(60):
            sid = f"r{i:02d}"
            offsets = sorted(rng.choice(1200, size=int(rng.integers(1, 12)), replace=False))
            sessions.append(make_session(session_id=sid))
            series[sid] = make_series(offsets_s=tuple(int(o) for o in offsets))
        result = retain_sessions(sessions, series, dataset_cfg)
        assert len(result.windows) == len(result.sessions)
        for s, window in zip(result.sessions, result.windows):
            readings = series[s.session_id]
            assert window == early_window_bounds(s, readings, dataset_cfg)
            assert np.count_nonzero(~np.isnan(readings.current[slice(*window)])) >= 5

    def test_a_repeated_session_id_keeps_the_first(self, dataset_cfg):
        """One session per id: later rows of an id are dropped and counted,
        whatever they hold, even when the first is dropped for another reason."""
        first = make_session(session_id="a", delivered=9.0)
        later = make_session(session_id="a", delivered=3.0, station_id="ST002")
        gone = make_session(session_id="b", delivered=None)
        series = {"a": make_series(), "b": make_series()}
        result = retain_sessions([first, gone, later, gone, later], series, dataset_cfg)
        assert result.sessions == [first]
        assert result.windows == [early_window_bounds(first, series["a"], dataset_cfg)]
        assert result.dropped == {"repeated_session_id": 3, "missing_target": 1}
