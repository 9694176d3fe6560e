"""Domain types and session-retention rules."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from conftest import T0, make_series, make_session
from fedcharge.sessions import (
    DatasetConfig,
    SessionSeries,
    count_early_current,
    early_window_bounds,
    epoch_seconds,
    parse_utc,
    retain_sessions,
)


class TestTypes:
    def test_session_rejects_negative_target(self):
        with pytest.raises(ValueError):
            make_session(delivered=-1.0)

    def test_session_rejects_disconnect_before_connect(self):
        with pytest.raises(ValueError):
            make_session(disconnect_time=T0 - timedelta(seconds=1))

    def test_session_rejects_empty_id(self):
        with pytest.raises(ValueError):
            make_session(session_id="")

    def test_sample_requires_some_signal(self):
        with pytest.raises(ValueError):
            SessionSeries(t=[epoch_seconds(T0)], current=[np.nan], pilot=[np.nan])

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
        assert a == b and a.tzinfo == timezone.utc
        assert a == T0


class TestEarlyWindow:
    def test_closed_interval_boundaries(self, dataset_cfg):
        session = make_session()
        series = make_series(offsets_s=(-10, 0, 300, 600, 601))
        window = series[slice(*early_window_bounds(session, series, dataset_cfg))]
        offsets = (window.t - epoch_seconds(T0)).tolist()
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
            w_end = T0 + timedelta(minutes=10)
            brute = sum(
                1
                for t, current in zip(series.t.tolist(), series.current.tolist())
                if T0 <= datetime.fromtimestamp(t, timezone.utc) <= w_end
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
        for s in result.sessions:
            assert count_early_current(s, series[s.session_id], dataset_cfg) >= 5
