"""repro — energy-efficient co-synthesis for multi-mode embedded systems.

A faithful, pure-Python reproduction of

    M. T. Schmitz, B. M. Al-Hashimi, P. Eles:
    "A Co-Design Methodology for Energy-Efficient Multi-Mode Embedded
    Systems with Consideration of Mode Execution Probabilities",
    Design, Automation and Test in Europe (DATE), 2003.

The library models multi-mode applications as operational mode state
machines (modes = task graphs, transitions with time limits, mode
execution probabilities), heterogeneous target architectures
(GPPs/ASIPs/ASICs/FPGAs with optional dynamic voltage scaling, buses),
and synthesises energy-minimal implementations with a genetic mapping
algorithm, list scheduling, hardware core allocation and discrete
voltage selection — including the paper's parallel-core-to-sequential
DVS transformation for hardware components.

Quick start (the stable facade — see :mod:`repro.api`)::

    from repro import SynthesisConfig, DvsMethod, load_problem, synthesize

    problem = load_problem("smartphone")
    result = synthesize(
        problem,
        SynthesisConfig(use_probabilities=True, dvs=DvsMethod.GRADIENT),
    )
    print(result.best.summary())

Long experiment campaigns (resumable, observable)::

    from repro import run_campaign

    campaign = run_campaign(
        {"name": "table1", "instances": ["mul1", "mul2"], "runs": 5},
        run_dir="runs/table1",   # re-running resumes from checkpoints
    )
"""

from repro.errors import (
    ArchitectureError,
    CampaignError,
    MappingError,
    ReproError,
    SchedulingError,
    SpecificationError,
    SynthesisError,
    TechnologyError,
    VoltageScalingError,
)
from repro.specification import (
    CommEdge,
    Mode,
    ModeTransition,
    OMSM,
    Task,
    TaskGraph,
)
from repro.architecture import (
    Architecture,
    CommunicationLink,
    PEKind,
    ProcessingElement,
    TaskImplementation,
    TechnologyLibrary,
)
from repro.problem import Problem
from repro.mapping import (
    CoreAllocation,
    Implementation,
    ImplementationMetrics,
    MappingString,
    allocate_cores,
)
from repro.scheduling import ModeSchedule, compute_mobilities, schedule_mode
from repro.dvs import scale_schedule, transform_parallel_tasks
from repro.power import average_power, mode_dynamic_power, mode_static_power
from repro.synthesis import (
    MultiModeSynthesizer,
    SynthesisConfig,
    SynthesisResult,
    evaluate_mapping,
    synthesize,
)
from repro.synthesis.config import DvsMethod
from repro.benchgen import (
    MultiModeSpec,
    generate_problem,
    load_suite,
    smartphone_problem,
    suite_problem,
)
from repro.validation import ValidationError, validate_implementation
from repro.runtime import (
    CampaignResult,
    CampaignRunner,
    CampaignSpec,
    JobSpec,
)
from repro.api import (
    load_problem,
    problem_names,
    resume_campaign,
    run_campaign,
)

__version__ = "1.1.0"

__all__ = [
    "Architecture",
    "ArchitectureError",
    "CampaignError",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "JobSpec",
    "CommEdge",
    "CommunicationLink",
    "CoreAllocation",
    "DvsMethod",
    "Implementation",
    "ImplementationMetrics",
    "MappingError",
    "MappingString",
    "Mode",
    "ModeSchedule",
    "ModeTransition",
    "MultiModeSpec",
    "MultiModeSynthesizer",
    "OMSM",
    "PEKind",
    "Problem",
    "ProcessingElement",
    "ReproError",
    "SchedulingError",
    "SpecificationError",
    "SynthesisConfig",
    "SynthesisError",
    "SynthesisResult",
    "Task",
    "TaskGraph",
    "TaskImplementation",
    "TechnologyError",
    "TechnologyLibrary",
    "ValidationError",
    "VoltageScalingError",
    "allocate_cores",
    "average_power",
    "compute_mobilities",
    "evaluate_mapping",
    "generate_problem",
    "load_problem",
    "load_suite",
    "mode_dynamic_power",
    "mode_static_power",
    "problem_names",
    "resume_campaign",
    "run_campaign",
    "scale_schedule",
    "schedule_mode",
    "smartphone_problem",
    "suite_problem",
    "synthesize",
    "transform_parallel_tasks",
    "validate_implementation",
]
