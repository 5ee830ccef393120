"""Unit tests for the live-watch frame builder and renderer."""

import json

from repro.analysis.watch import build_watch_frames, render_watch, watch_frames_to_json
from repro.obs.instrument import Instrumentation
from repro.obs.slo import BurnRateRule
from repro.obs.trace import EventType


def seeded_instrumentation() -> Instrumentation:
    """Two windows of trace events, probe samples and one alert walk."""
    obs = Instrumentation()
    for t in (0.5, 1.0, 6.0):
        obs.trace.record(t, EventType.CONN_OPENED, "srv")
    obs.tsdb.record(1.0, "probes", "probe_latency", 0.2)
    obs.tsdb.record(2.0, "probes", "probe_latency", 0.4)
    obs.tsdb.record(6.0, "probes", "probe_latency", 0.6)
    rule = BurnRateRule(
        severity="page", long_window=15.0, short_window=5.0, burn_factor=2.0
    )
    episode = obs.alerts.begin(1.0, "probe_latency_p90", "page", "probes", rule)
    episode.firing_at = 6.0
    episode.resolved_at = 9.0
    return obs


def firing_at_ten() -> Instrumentation:
    """The seeded run with the alert resolving at t=12, so it is still
    firing at the end of the second window."""
    obs = seeded_instrumentation()
    (episode,) = obs.alerts.episodes()
    episode.resolved_at = 12.0
    return obs


class TestBuildFrames:
    def test_frames_cover_every_window_to_the_last_stamp(self):
        frames = build_watch_frames(seeded_instrumentation())
        # Data extends to t=9 (the resolution stamp) -> windows 0 and 1.
        assert [f["index"] for f in frames] == [0, 1]
        assert [f["time"] for f in frames] == [5.0, 10.0]
        assert [f["events"] for f in frames] == [2, 1]

    def test_probe_p90_per_window(self):
        frames = build_watch_frames(seeded_instrumentation())
        assert frames[0]["probe_latency_p90"] == {"probes": 0.4}
        assert frames[1]["probe_latency_p90"] == {"probes": 0.6}

    def test_alert_states_as_of_frame_end(self):
        frames = build_watch_frames(seeded_instrumentation())
        # Frame 0 ends at t=5: the episode is pending (fires at 6).
        assert (frames[0]["alerts_pending"], frames[0]["alerts_firing"]) == (1, 0)
        # Frame 1 ends at t=10: fired at 6 but resolved at 9 -> clear.
        assert (frames[1]["alerts_pending"], frames[1]["alerts_firing"]) == (0, 0)

    def test_firing_alert_listed_with_identity(self):
        frames = build_watch_frames(firing_at_ten())
        # Window ending at t=10 sits inside [firing_at=6, resolved_at=12).
        frame = next(f for f in frames if f["time"] == 10.0)
        (alert,) = frame["firing"]
        assert alert["slo"] == "probe_latency_p90"
        assert alert["severity"] == "page"
        assert alert["source"] == "probes"

    def test_empty_instrumentation_yields_no_frames(self):
        assert build_watch_frames(Instrumentation()) == []


class TestRendering:
    def test_render_is_one_line_per_frame(self):
        frames = build_watch_frames(seeded_instrumentation())
        text = render_watch(frames, experiment="unit")
        lines = text.splitlines()
        assert lines[0] == "== watch: unit (2 frames) =="
        assert len(lines) == 3
        assert "probes=400ms" in lines[1]
        assert "alerts: 1p/0f" in lines[1]

    def test_firing_frame_names_the_alert(self):
        frames = build_watch_frames(firing_at_ten())
        text = render_watch(frames)
        assert "[probe_latency_p90/page]" in text

    def test_json_round_trip(self):
        frames = build_watch_frames(seeded_instrumentation())
        payload = json.loads(watch_frames_to_json(frames, experiment="unit"))
        assert payload["experiment"] == "unit"
        assert payload["frames"] == frames
