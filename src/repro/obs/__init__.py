"""Campaign observability: metrics, live status and run summaries.

The package turns the campaign runtime from *durable* into *operable*:

* :mod:`repro.obs.metrics` — the process's one recorder: labelled
  counters and per-phase (and per-mode) seconds and calls, behind one
  snapshot/delta/merge, so pool workers ship a delta back with every
  result chunk, campaign workers with every job, and the main process
  always holds the complete picture.
* :mod:`repro.obs.status` — parse a run directory's ``events.jsonl``
  into a progress/ETA summary (``repro-mm campaign --status``) and
  follow the stream live (``--tail``).
* :mod:`repro.obs.summary` — the ``run_summary.json`` document every
  campaign exports when it finishes (or is interrupted).

Nothing in this package imports :mod:`repro.runtime` at module level,
so the runtime is free to build on it without import cycles.
"""

from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.status import (
    CampaignStatus,
    campaign_status,
    format_event,
    format_pool_stats,
    format_status,
    tail_events,
)
from repro.obs.summary import (
    RUN_SUMMARY_FILENAME,
    build_run_summary,
    load_run_summary,
    run_summary_path,
    write_run_summary,
)

__all__ = [
    "CampaignStatus",
    "MetricsRegistry",
    "REGISTRY",
    "RUN_SUMMARY_FILENAME",
    "build_run_summary",
    "campaign_status",
    "format_event",
    "format_pool_stats",
    "format_status",
    "load_run_summary",
    "run_summary_path",
    "tail_events",
    "write_run_summary",
]
