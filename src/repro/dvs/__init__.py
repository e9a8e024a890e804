"""Dynamic voltage scaling for software processors and hardware cores.

The voltage model follows the paper: lowering the supply voltage of a
DVS-enabled component reduces the dynamic energy of a task execution
quadratically (``E = P_max · t_min · (V_dd / V_max)²``) while extending
its execution time according to the alpha-power delay law.  Voltage
selection (:func:`~repro.dvs.pv_dvs.scale_schedule`) distributes the
schedule slack over the scalable activities by greedy energy-gradient
descent with discrete voltage levels — the PV-DVS technique of paper
ref. [10], extended to hardware components via the parallel-to-sequential
transformation of Fig. 5 (:func:`~repro.dvs.transform.transform_parallel_tasks`).

There is one runtime implementation per method: both
:func:`~repro.dvs.pv_dvs.scale_schedule` and the single-stretch-factor
baseline :func:`~repro.dvs.pv_dvs.uniform_scale_schedule` run on the
struct-of-arrays graph of :mod:`repro.dvs.pv_dvs`.  The frozen seed
implementation they are fuzz-checked against lives in
``tests/oracles/pv_dvs_reference.py``, outside the package.
"""

from repro.dvs.voltage import (
    scaled_duration,
    scaled_energy,
    speed_factor,
)
from repro.dvs.transform import VirtualSegment, transform_parallel_tasks
from repro.dvs.pv_dvs import scale_schedule, uniform_scale_schedule

__all__ = [
    "VirtualSegment",
    "scale_schedule",
    "scaled_duration",
    "scaled_energy",
    "speed_factor",
    "transform_parallel_tasks",
    "uniform_scale_schedule",
]
