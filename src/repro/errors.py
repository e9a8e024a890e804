"""Exception hierarchy for the multi-mode co-synthesis library.

All errors raised by :mod:`repro` derive from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing specification problems from synthesis problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class SpecificationError(ReproError):
    """An application specification (task graph, mode, OMSM) is invalid.

    Raised, for example, when a task graph contains a cycle, when mode
    execution probabilities do not sum to one, or when a transition
    references an unknown mode.
    """


class ArchitectureError(ReproError):
    """A target architecture description is inconsistent.

    Raised when a communication link references unknown processing
    elements, when a DVS-enabled component has no voltage levels, or when
    component identifiers collide.
    """


class TechnologyError(ReproError):
    """The technology library cannot support the requested operation.

    Raised when a task type has no implementation on any processing
    element, or when a mapping assigns a task to a processing element
    that cannot execute its type.
    """


class MappingError(ReproError):
    """A mapping string/genome is structurally invalid for its problem."""


class SchedulingError(ReproError):
    """A schedule could not be constructed or failed validation."""


class VoltageScalingError(ReproError):
    """Voltage selection failed (e.g. no feasible discrete level)."""


class SynthesisError(ReproError):
    """The co-synthesis driver was configured or invoked incorrectly."""


class CampaignError(ReproError):
    """A campaign spec or run directory is invalid or inconsistent.

    Raised, for example, when a spec references unknown problem
    instances, when ``--resume`` points at a directory without a
    ``spec.json``, or when a checkpoint file does not match the job it
    claims to belong to.
    """
