"""``repro.obs`` — the observability layer.

Metrics (:mod:`repro.obs.metrics`), structured tracing
(:mod:`repro.obs.trace`), the bounded drop-newest log under the five
record stores (:mod:`repro.obs.bounded`), per-connection flow records
(:mod:`repro.obs.flow`), lifecycle spans (:mod:`repro.obs.span`),
time-series snapshots (:mod:`repro.obs.timeline`), the windowed
time-series store (:mod:`repro.obs.tsdb`), the burn-rate SLO engine
(:mod:`repro.obs.slo`), the tail-latency attribution report
(:mod:`repro.obs.report`), the learned-table/route-table consistency
auditor (:mod:`repro.obs.audit`), and the per-simulator wiring
(:mod:`repro.obs.instrument`).  See the "Observability" section of
``docs/ARCHITECTURE.md`` for the metric-name reference and the
attribution-cause taxonomy.

Import a name from the module that defines it.  The eight names below
are the exception: ``bench/workloads.py`` imports them from the package.
"""

from repro.obs.instrument import Instrumentation, capture, disabled
from repro.obs.report import build_report, render_report, report_to_json
from repro.obs.slo import alert_report_to_json, build_alert_report

__all__ = [
    "Instrumentation",
    "alert_report_to_json",
    "build_alert_report",
    "build_report",
    "capture",
    "disabled",
    "render_report",
    "report_to_json",
]
