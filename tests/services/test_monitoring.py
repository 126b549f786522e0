"""Channel monitor: anomaly detection and health reporting."""

import pytest

from repro.core.errors import ServiceError
from repro.services import ChannelMonitor


def test_no_anomaly_on_stable_signal():
    monitor = ChannelMonitor(drop_threshold_db=10.0)
    for t in range(5):
        anomalies = monitor.observe(float(t), [30.0, 28.0, 25.0])
        assert anomalies == []


def test_detects_sudden_drop():
    monitor = ChannelMonitor(drop_threshold_db=10.0)
    for t in range(3):
        monitor.observe(float(t), [30.0, 28.0])
    anomalies = monitor.observe(3.0, [30.0, 12.0])
    assert len(anomalies) == 1
    assert anomalies[0].point_index == 1
    assert anomalies[0].drop_db == pytest.approx(16.0)


def test_baseline_is_rolling_median():
    monitor = ChannelMonitor(baseline_window=3)
    for t, snr in enumerate([10.0, 20.0, 30.0, 40.0]):
        monitor.observe(float(t), [snr])
    assert monitor.baseline()[0] == pytest.approx(30.0)


def test_gradual_drift_not_flagged():
    monitor = ChannelMonitor(drop_threshold_db=10.0, baseline_window=2)
    snr = 40.0
    for t in range(20):
        snr -= 2.0  # 2 dB per step, below the 10 dB threshold vs baseline
        assert monitor.observe(float(t), [snr]) == []


def test_health_report():
    monitor = ChannelMonitor(drop_threshold_db=5.0)
    monitor.observe(0.0, [30.0, 30.0])
    monitor.observe(1.0, [30.0, 5.0])
    report = monitor.health_report(floor_snr_db=10.0)
    assert report["observations"] == 2
    assert report["anomaly_count"] == 1
    assert report["healthy_fraction"] == pytest.approx(0.75)
    assert report["worst_snr_db"] == 5.0


def test_size_change_rejected():
    monitor = ChannelMonitor()
    monitor.observe(0.0, [1.0, 2.0])
    with pytest.raises(ServiceError):
        monitor.observe(1.0, [1.0])


def test_empty_report_rejected():
    with pytest.raises(ServiceError):
        ChannelMonitor().health_report()


def test_validation():
    with pytest.raises(ServiceError):
        ChannelMonitor(drop_threshold_db=0.0)
    with pytest.raises(ServiceError):
        ChannelMonitor(baseline_window=0)
