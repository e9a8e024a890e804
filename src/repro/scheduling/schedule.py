"""Schedule containers and the serial-resource timeline.

A :class:`ModeSchedule` is the inner loop's product for one operational
mode: start/end times for every task (with its core assignment on
hardware components) and for every inter-PE communication (with its link
choice), held as parallel arrays that the list scheduler fills and
PV-DVS reads; task and comm objects are built only when read.
:meth:`ModeSchedule.validate` re-checks all scheduling invariants —
precedence, data arrival, mutual exclusion per serial resource — and is
used heavily by the test suite.

:class:`ResourceTimeline` models one serial resource (a software
processor, one hardware core, one bus) as a set of booked intervals with
earliest-gap insertion.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import SchedulingError
from repro.architecture.platform import Architecture
from repro.specification.mode import Mode

#: Numerical tolerance for overlap/precedence checks (seconds).
TIME_EPS = 1e-9


@dataclass(frozen=True)
class ScheduledTask:
    """One task instance placed in time on a resource.

    ``core_index`` identifies the core instance on hardware components
    (``None`` on software processors).  ``energy`` is the dynamic energy
    of this execution — nominal ``P_max · t_min`` before voltage scaling,
    the voltage-scaled value afterwards.  ``pieces`` records, for
    voltage-scaled executions, the ``(duration, voltage)`` segments the
    task runs through; hardware tasks on a shared rail may span several
    segments at different voltages.
    """

    name: str
    task_type: str
    pe: str
    start: float
    end: float
    energy: float
    power: float
    core_index: Optional[int] = None
    pieces: Tuple[Tuple[float, float], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __post_init__(self) -> None:
        if self.end < self.start - TIME_EPS:
            raise SchedulingError(
                f"task {self.name!r}: end {self.end} before start {self.start}"
            )
        if self.energy < 0 or self.power < 0:
            raise SchedulingError(
                f"task {self.name!r}: negative energy or power"
            )


@dataclass(frozen=True)
class ScheduledComm:
    """One inter-PE message placed on a communication link.

    ``link`` is ``None`` for internal transfers (both endpoints on the
    same PE), which take zero time and energy.
    """

    src: str
    dst: str
    link: Optional[str]
    start: float
    end: float
    energy: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def key(self) -> Tuple[str, str]:
        return (self.src, self.dst)

    def __post_init__(self) -> None:
        if self.end < self.start - TIME_EPS:
            raise SchedulingError(
                f"comm {self.src!r}->{self.dst!r}: end before start"
            )
        if self.link is None and self.duration > TIME_EPS:
            raise SchedulingError(
                f"comm {self.src!r}->{self.dst!r}: internal transfer must "
                f"take zero time"
            )


class ResourceTimeline:
    """Booked intervals of one serial resource, with gap insertion.

    Bookings never overlap; :meth:`earliest_slot` returns the earliest
    start time ``>= ready`` at which an interval of the given duration
    fits, considering gaps between existing bookings.  Each booking may
    carry an activity id; :meth:`order` lists the ids by start time.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._ids: List[int] = []
        # Two bookings share a start only if one has zero length.
        self._tied = False

    def __len__(self) -> int:
        return len(self._starts)

    @property
    def intervals(self) -> Tuple[Tuple[float, float], ...]:
        return tuple(zip(self._starts, self._ends))

    def earliest_slot(self, ready: float, duration: float) -> float:
        """Earliest feasible start ``>= ready`` for ``duration`` seconds."""
        if duration < 0:
            raise SchedulingError(
                f"resource {self.name!r}: negative duration {duration}"
            )
        starts = self._starts
        ends = self._ends
        candidate = ready
        # Scan from the first booking that could interfere with `ready`.
        for index in range(bisect_left(ends, ready + TIME_EPS), len(starts)):
            if candidate + duration <= starts[index] + TIME_EPS:
                return candidate
            if ends[index] > candidate:
                candidate = ends[index]
        return candidate

    def book(self, start: float, duration: float, ident: int = -1) -> None:
        """Reserve ``[start, start+duration)`` for ``ident``; no overlap."""
        starts = self._starts
        end = start + duration
        index = bisect_left(starts, start)
        if (index and self._ends[index - 1] > start + TIME_EPS) or (
            index < len(starts) and starts[index] < end - TIME_EPS
        ):
            raise SchedulingError(
                f"resource {self.name!r}: booking [{start}, {end}) overlaps "
                f"existing interval"
            )
        if index < len(starts) and starts[index] == start:
            self._tied = True
        starts.insert(index, start)
        self._ends.insert(index, end)
        self._ids.insert(index, ident)

    def order(self, tie_key: Callable[[int], Any]) -> List[int]:
        """Booked ids by start; equal starts ordered by ``tie_key(id)``."""
        if not self._tied:
            return self._ids
        ranked = sorted(zip(self._starts, map(tie_key, self._ids), self._ids))
        return [ident for _, _, ident in ranked]

    def next_free(self) -> float:
        """End of the last booking (0 if the resource is idle)."""
        return self._ends[-1] if self._ends else 0.0


class ModeSchedule:
    """The complete static schedule of one operational mode.

    Stored as struct-of-arrays, which is all the synthesis loop reads:

    * per task, in scheduling order: ``task_names``, ``task_types``,
      ``task_pes``, ``task_cores``, ``task_powers``, ``task_starts``,
      ``task_ends``, ``task_energies`` and ``task_pieces``, plus the
      ``task_index`` map from name to position;
    * per comm, in scheduling order: ``comm_srcs``, ``comm_dsts``, the
      positions of those tasks (``comm_src_tasks``/``comm_dst_tasks``,
      ``-1`` for a task the schedule lacks), ``comm_links``,
      ``comm_starts``, ``comm_ends`` and ``comm_energies``;
    * per serial resource (a software PE, a hardware core, a link) with
      at least one booking: ``task_order``/``comm_order`` list the
      positions by start, equal starts by name or ``(src, dst)``.

    Every array is a tuple (``task_index`` is a dict of names to
    positions) and is never mutated after construction, so a
    voltage-scaled schedule shares the mapping-fixed arrays of its
    input (:meth:`retimed`), and a kept schedule holds no container
    the garbage collector keeps scanning.  The
    :class:`ScheduledTask`/:class:`ScheduledComm`
    objects behind :attr:`tasks`, :attr:`comms`, :meth:`task`,
    :meth:`comm`, :meth:`tasks_on`, :meth:`comms_on` and
    :meth:`validate` are built on first access and cached.
    """

    mode_name: str
    task_names: Tuple[str, ...]
    task_types: Tuple[str, ...]
    task_pes: Tuple[str, ...]
    task_cores: Tuple[Optional[int], ...]
    task_powers: Tuple[float, ...]
    task_starts: Tuple[float, ...]
    task_ends: Tuple[float, ...]
    task_energies: Tuple[float, ...]
    task_pieces: Tuple[Tuple[Tuple[float, float], ...], ...]
    task_index: Dict[str, int]
    comm_srcs: Tuple[str, ...]
    comm_dsts: Tuple[str, ...]
    comm_src_tasks: Tuple[int, ...]
    comm_dst_tasks: Tuple[int, ...]
    comm_links: Tuple[Optional[str], ...]
    comm_starts: Tuple[float, ...]
    comm_ends: Tuple[float, ...]
    comm_energies: Tuple[float, ...]
    task_order: Tuple[Tuple[int, ...], ...]
    comm_order: Tuple[Tuple[int, ...], ...]
    _task_objects: Optional[Dict[str, ScheduledTask]]
    _comm_objects: Optional[Dict[Tuple[str, str], ScheduledComm]]
    # One slot per attribute annotated above.
    __slots__ = tuple(__annotations__)

    def __init__(
        self,
        mode_name: str,
        tasks: Iterable[ScheduledTask],
        comms: Iterable[ScheduledComm],
    ) -> None:
        task_objects: Dict[str, ScheduledTask] = {}
        for entry in tasks:
            if entry.name in task_objects:
                raise SchedulingError(
                    f"schedule {mode_name!r}: task {entry.name!r} scheduled "
                    f"twice"
                )
            task_objects[entry.name] = entry
        comm_objects: Dict[Tuple[str, str], ScheduledComm] = {}
        for entry in comms:
            if entry.key in comm_objects:
                raise SchedulingError(
                    f"schedule {mode_name!r}: comm {entry.key} scheduled twice"
                )
            comm_objects[entry.key] = entry
        placed = tuple(task_objects.values())
        carried = tuple(comm_objects.values())
        index = {task.name: i for i, task in enumerate(placed)}
        on_resource: Dict[Any, List[int]] = {}
        for i, task in enumerate(placed):
            on_resource.setdefault(
                task.pe
                if task.core_index is None
                else (task.pe, task.task_type, task.core_index),
                [],
            ).append(i)
        on_link: Dict[str, List[int]] = {}
        for i, comm in enumerate(carried):
            if comm.link is not None:
                on_link.setdefault(comm.link, []).append(i)
        self._set(
            mode_name,
            dict(
                task_names=tuple(t.name for t in placed),
                task_types=tuple(t.task_type for t in placed),
                task_pes=tuple(t.pe for t in placed),
                task_cores=tuple(t.core_index for t in placed),
                task_powers=tuple(t.power for t in placed),
                task_starts=tuple(t.start for t in placed),
                task_ends=tuple(t.end for t in placed),
                task_energies=tuple(t.energy for t in placed),
                task_pieces=tuple(t.pieces for t in placed),
                task_index=index,
                comm_srcs=tuple(c.src for c in carried),
                comm_dsts=tuple(c.dst for c in carried),
                comm_src_tasks=tuple(index.get(c.src, -1) for c in carried),
                comm_dst_tasks=tuple(index.get(c.dst, -1) for c in carried),
                comm_links=tuple(c.link for c in carried),
                comm_starts=tuple(c.start for c in carried),
                comm_ends=tuple(c.end for c in carried),
                comm_energies=tuple(c.energy for c in carried),
                task_order=tuple(
                    tuple(sorted(ids, key=lambda i: (placed[i].start, placed[i].name)))
                    for ids in on_resource.values()
                ),
                comm_order=tuple(
                    tuple(sorted(ids, key=lambda i: (carried[i].start, carried[i].key)))
                    for ids in on_link.values()
                ),
            ),
        )
        self._task_objects = task_objects
        self._comm_objects = comm_objects

    def _set(self, mode_name: str, arrays: Dict[str, Any]) -> None:
        if len(arrays) != len(_ARRAY_SLOTS):
            raise TypeError(f"a ModeSchedule takes the arrays {_ARRAY_SLOTS}")
        self.mode_name = mode_name
        for name, values in arrays.items():
            setattr(self, name, values)
        self._task_objects = None
        self._comm_objects = None

    @classmethod
    def from_arrays(cls, mode_name: str, **arrays: Any) -> "ModeSchedule":
        """A schedule over ready-made arrays, one keyword per array slot."""
        schedule = cls.__new__(cls)
        schedule._set(mode_name, arrays)
        return schedule

    def retimed(self, **arrays: Any) -> "ModeSchedule":
        """This schedule with the given arrays replaced, sharing the rest.

        Voltage scaling passes new times, energies and pieces; names,
        placement, links and resource order stay the input's.
        """
        shared = {name: getattr(self, name) for name in _ARRAY_SLOTS}
        shared.update(arrays)
        return ModeSchedule.from_arrays(self.mode_name, **shared)

    # ------------------------------------------------------------------
    # Object view
    # ------------------------------------------------------------------

    def _build_objects(self) -> None:
        """One ScheduledTask/ScheduledComm per activity, from the arrays."""
        self._task_objects = {
            name: ScheduledTask(
                name, task_type, pe, start, end, energy, power, core, pieces
            )
            for name, task_type, pe, start, end, energy, power, core, pieces
            in zip(
                self.task_names,
                self.task_types,
                self.task_pes,
                self.task_starts,
                self.task_ends,
                self.task_energies,
                self.task_powers,
                self.task_cores,
                self.task_pieces,
            )
        }
        self._comm_objects = {
            (src, dst): ScheduledComm(src, dst, link, start, end, energy)
            for src, dst, link, start, end, energy in zip(
                self.comm_srcs,
                self.comm_dsts,
                self.comm_links,
                self.comm_starts,
                self.comm_ends,
                self.comm_energies,
            )
        }

    @property
    def _tasks(self) -> Dict[str, ScheduledTask]:
        if self._task_objects is None:
            self._build_objects()
        return self._task_objects  # type: ignore[return-value]

    @property
    def _comms(self) -> Dict[Tuple[str, str], ScheduledComm]:
        if self._comm_objects is None:
            self._build_objects()
        return self._comm_objects  # type: ignore[return-value]

    @property
    def tasks(self) -> Tuple[ScheduledTask, ...]:
        return tuple(self._tasks.values())

    @property
    def comms(self) -> Tuple[ScheduledComm, ...]:
        return tuple(self._comms.values())

    def task(self, name: str) -> ScheduledTask:
        try:
            return self._tasks[name]
        except KeyError:
            raise SchedulingError(
                f"schedule {self.mode_name!r}: task {name!r} not scheduled"
            ) from None

    def comm(self, src: str, dst: str) -> ScheduledComm:
        try:
            return self._comms[(src, dst)]
        except KeyError:
            raise SchedulingError(
                f"schedule {self.mode_name!r}: comm {src!r}->{dst!r} not "
                f"scheduled"
            ) from None

    def tasks_on(self, pe_name: str) -> Tuple[ScheduledTask, ...]:
        """Tasks placed on a given processing element, by start time."""
        placed = [t for t in self._tasks.values() if t.pe == pe_name]
        placed.sort(key=lambda t: (t.start, t.name))
        return tuple(placed)

    def comms_on(self, link_name: str) -> Tuple[ScheduledComm, ...]:
        """Messages carried by a given link, by start time."""
        placed = [c for c in self._comms.values() if c.link == link_name]
        placed.sort(key=lambda c: (c.start, c.key))
        return tuple(placed)

    # ------------------------------------------------------------------
    # Array summaries
    # ------------------------------------------------------------------

    @property
    def makespan(self) -> float:
        """Latest finish time over all activities."""
        return max((0.0, *self.task_ends, *self.comm_ends))

    def total_dynamic_energy(self) -> float:
        """Sum of task and communication dynamic energies, in joules."""
        return sum(self.task_energies) + sum(self.comm_energies)

    def active_pes(self) -> Tuple[str, ...]:
        """PEs executing at least one task in this mode (sorted)."""
        return tuple(sorted(set(self.task_pes)))

    def active_links(self) -> Tuple[str, ...]:
        """Links carrying at least one message in this mode (sorted)."""
        return tuple(
            sorted({link for link in self.comm_links if link is not None})
        )

    # ------------------------------------------------------------------
    # Invariant checking
    # ------------------------------------------------------------------

    def validate(self, mode: Mode, architecture: Architecture) -> None:
        """Re-check every scheduling invariant; raise on violation.

        Checked invariants:

        * every task and every edge of the mode is scheduled exactly once;
        * precedence with data arrival: a task starts no earlier than the
          arrival of each incoming message, which itself starts no
          earlier than its producer finishes;
        * internal messages only between co-mapped tasks, external
          messages on a link that attaches both endpoint PEs;
        * mutual exclusion on software processors, per hardware core and
          per link.

        Deadline satisfaction is *not* an invariant here — infeasible
        schedules are legal objects (the GA penalises them); use
        :meth:`timing_violations` for deadline checks.
        """
        graph = mode.task_graph
        for task in graph:
            self.task(task.name)
        if len(self._tasks) != len(graph):
            extra = set(self._tasks) - set(graph.task_names)
            raise SchedulingError(
                f"schedule {self.mode_name!r}: unknown tasks {sorted(extra)}"
            )
        for edge in graph.edges:
            self.comm(edge.src, edge.dst)
        if len(self._comms) != len(graph.edges):
            extra = set(self._comms) - {e.key for e in graph.edges}
            raise SchedulingError(
                f"schedule {self.mode_name!r}: unknown comms {sorted(extra)}"
            )

        for edge in graph.edges:
            producer = self.task(edge.src)
            consumer = self.task(edge.dst)
            message = self.comm(edge.src, edge.dst)
            if message.start < producer.end - TIME_EPS:
                raise SchedulingError(
                    f"schedule {self.mode_name!r}: comm {edge.key} starts "
                    f"before producer finishes"
                )
            if consumer.start < message.end - TIME_EPS:
                raise SchedulingError(
                    f"schedule {self.mode_name!r}: task {edge.dst!r} starts "
                    f"before data arrival from {edge.src!r}"
                )
            if message.link is None:
                if producer.pe != consumer.pe:
                    raise SchedulingError(
                        f"schedule {self.mode_name!r}: comm {edge.key} marked "
                        f"internal but endpoints on {producer.pe!r} and "
                        f"{consumer.pe!r}"
                    )
            else:
                link = architecture.link(message.link)
                if not link.links_pair(producer.pe, consumer.pe):
                    raise SchedulingError(
                        f"schedule {self.mode_name!r}: comm {edge.key} uses "
                        f"link {message.link!r} that does not connect "
                        f"{producer.pe!r} and {consumer.pe!r}"
                    )

        for pe in architecture.pes:
            placed = self.tasks_on(pe.name)
            if not placed:
                continue
            if pe.is_software:
                _check_serial(placed, f"software PE {pe.name!r}")
            else:
                groups: Dict[Tuple[str, Optional[int]], List[ScheduledTask]]
                groups = {}
                for task in placed:
                    if task.core_index is None:
                        raise SchedulingError(
                            f"schedule {self.mode_name!r}: hardware task "
                            f"{task.name!r} lacks a core index"
                        )
                    groups.setdefault(
                        (task.task_type, task.core_index), []
                    ).append(task)
                for (task_type, core), tasks in groups.items():
                    _check_serial(
                        tasks,
                        f"core {task_type}#{core} on {pe.name!r}",
                    )
        for link in architecture.links:
            _check_serial(
                list(self.comms_on(link.name)), f"link {link.name!r}"
            )

    def timing_violations(
        self,
        mode: Mode,
        deadlines: Optional[Dict[str, float]] = None,
    ) -> Dict[str, float]:
        """Per-task deadline overshoot in seconds (only violating tasks).

        ``deadlines`` optionally supplies precomputed effective
        deadlines (``{task: seconds}``), saving the per-task graph walk
        on the synthesis hot path.
        """
        if deadlines is None:
            deadlines = {
                task.name: mode.effective_deadline(task.name)
                for task in mode.task_graph
            }
        index = self.task_index
        ends = self.task_ends
        violations: Dict[str, float] = {}
        for name, deadline in deadlines.items():
            position = index.get(name)
            if position is None:
                self.task(name)  # raises: not scheduled
            overshoot = ends[position] - deadline
            if overshoot > TIME_EPS:
                violations[name] = overshoot
        return violations

    def is_timing_feasible(self, mode: Mode) -> bool:
        """True if no task misses its effective deadline."""
        return not self.timing_violations(mode)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModeSchedule({self.mode_name!r}, tasks={len(self.task_names)}, "
            f"comms={len(self.comm_srcs)}, makespan={self.makespan:.6g})"
        )


#: Every array slot of :class:`ModeSchedule` (all but the name and the
#: object-view caches).
_ARRAY_SLOTS = ModeSchedule.__slots__[1:-2]


def _check_serial(activities: Sequence, resource: str) -> None:
    """Raise if any two activities on one serial resource overlap."""
    ordered = sorted(activities, key=lambda a: a.start)
    for earlier, later in zip(ordered, ordered[1:]):
        if later.start < earlier.end - TIME_EPS:
            raise SchedulingError(
                f"overlap on {resource}: [{earlier.start}, {earlier.end}) "
                f"and [{later.start}, {later.end})"
            )
