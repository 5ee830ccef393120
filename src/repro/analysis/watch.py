"""The live-watch view: a run replayed as operator dashboard frames.

``python -m repro watch <experiment>`` runs an experiment under an
instrumentation capture and then replays the captured stores as a
sequence of aligned sim-time frames — one per SLO evaluation window —
the way an operator would have watched the run live.  Each frame shows
the trace-event volume of the window, the probe-latency p90 per fleet,
and the burn-rate alert state (pending/firing episodes) as of the
frame's end.

Frames are built entirely from the merged stores, in deterministic
order: the frame list (and its JSON rendering) is byte-identical
between a serial run and ``--workers N``.  The interactive mode only
changes pacing (wall-clock sleeps between frames) and cosmetics, never
content.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.instrument import Instrumentation
from repro.obs.slo import AlertEpisode, DEFAULT_SLO_WINDOW
from repro.obs.tsdb import WindowedStore


def _episode_status(episode: AlertEpisode, now: float) -> str | None:
    """The episode's lifecycle state as of sim-time ``now`` (inclusive)."""
    if episode.pending_at > now:
        return None
    if episode.resolved_at is not None and episode.resolved_at <= now:
        return None
    if episode.firing_at is not None and episode.firing_at <= now:
        return "firing"
    return "pending"


def build_watch_frames(instrumentation: Instrumentation) -> list[dict[str, Any]]:
    """The run as a list of frame dicts, one per aligned window.

    Each frame covers ``[index * interval, (index + 1) * interval)`` for
    ``interval`` the SLO engine's ``DEFAULT_SLO_WINDOW``, and reports:
    trace events recorded in the window, probe-latency p90 per probe fleet
    over the window, and the alert episodes pending/firing as of the
    window's end.
    """
    interval = DEFAULT_SLO_WINDOW
    trace = instrumentation.trace
    tsdb = instrumentation.tsdb
    timeline = instrumentation.timeline
    episodes = list(instrumentation.alerts.episodes())

    end = 0.0
    have_data = False
    for event in trace.events():
        end = max(end, event.time)
        have_data = True
    for point in timeline.points():
        end = max(end, point.time)
        have_data = True
    for tsdb_point in tsdb.points():
        end = max(end, tsdb_point.time)
        have_data = True
    for episode in episodes:
        for stamp in (episode.pending_at, episode.firing_at, episode.resolved_at):
            if stamp is not None:
                end = max(end, stamp)
                have_data = True
    if not have_data:
        return []

    last_index = WindowedStore.window_index(end, interval)
    events_per_window = [0] * (last_index + 1)
    for event in trace.events():
        index = WindowedStore.window_index(event.time, interval)
        if 0 <= index <= last_index:
            events_per_window[index] += 1

    probe_sources = tsdb.sources_for("probe_latency")
    frames: list[dict[str, Any]] = []
    for index in range(last_index + 1):
        frame_end = (index + 1) * interval
        probe_p90: dict[str, float] = {}
        for source in probe_sources:
            p90 = tsdb.percentile(source, "probe_latency", index, interval, 90.0)
            if p90 is not None:
                probe_p90[source] = round(p90, 6)
        pending = 0
        firing: list[dict[str, Any]] = []
        for episode in episodes:
            status = _episode_status(episode, frame_end)
            if status == "pending":
                pending += 1
            elif status == "firing":
                firing.append(
                    {
                        "alert_id": episode.alert_id,
                        "slo": episode.slo,
                        "severity": episode.severity,
                        "source": episode.source,
                    }
                )
        frames.append(
            {
                "index": index,
                "time": round(frame_end, 6),
                "events": events_per_window[index],
                "probe_latency_p90": probe_p90,
                "alerts_pending": pending,
                "alerts_firing": len(firing),
                "firing": firing,
            }
        )
    return frames


def render_frame(frame: dict[str, Any]) -> str:
    """One frame as a single status line."""
    p90s = frame["probe_latency_p90"]
    p90_text = (
        " ".join(f"{source}={value * 1000:.0f}ms" for source, value in p90s.items())
        if p90s
        else "-"
    )
    firing = frame["firing"]
    alert_text = f"{frame['alerts_pending']}p/{frame['alerts_firing']}f"
    if firing:
        alert_text += (
            " ["
            + ", ".join(f"{a['slo']}/{a['severity']}" for a in firing[:4])
            + (", ..." if len(firing) > 4 else "")
            + "]"
        )
    return (
        f"t={frame['time']:8.1f}s  events={frame['events']:<6}  "
        f"probe p90: {p90_text}  alerts: {alert_text}"
    )


def render_watch(frames: list[dict[str, Any]], experiment: str = "") -> str:
    """All frames as a plain-text watch transcript (deterministic)."""
    title = experiment or "run"
    lines = [f"== watch: {title} ({len(frames)} frames) =="]
    lines.extend(render_frame(frame) for frame in frames)
    return "\n".join(lines)


def watch_frames_to_json(
    frames: list[dict[str, Any]], experiment: str = ""
) -> str:
    """The frame list as deterministic, indented JSON."""
    return json.dumps(
        {"experiment": experiment, "frames": frames}, indent=2
    )
