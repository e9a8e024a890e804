"""The resilient experiment-campaign runtime.

Declarative campaign specs (:mod:`repro.runtime.spec`), durable
checkpoints and results (:mod:`repro.runtime.checkpoint`), the
structured JSONL event stream (:mod:`repro.runtime.events`) and the
resumable runner itself (:mod:`repro.runtime.runner`).
"""

from repro.runtime.spec import CampaignSpec, JobSpec
from repro.runtime.events import EventLog, events_path, iter_events, read_events
from repro.runtime.checkpoint import (
    checkpoint_path,
    clear_checkpoint,
    load_checkpoint,
    load_result,
    prepare_run_dir,
    result_path,
    spec_path,
    write_checkpoint,
    write_result,
)
from repro.runtime.runner import (
    CampaignResult,
    CampaignRunner,
    JobResult,
    resume_campaign,
    run_campaign,
)

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "EventLog",
    "JobResult",
    "JobSpec",
    "checkpoint_path",
    "clear_checkpoint",
    "events_path",
    "iter_events",
    "load_checkpoint",
    "load_result",
    "prepare_run_dir",
    "read_events",
    "result_path",
    "resume_campaign",
    "run_campaign",
    "spec_path",
    "write_checkpoint",
    "write_result",
]
