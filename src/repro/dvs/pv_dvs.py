"""Energy-gradient voltage selection over a scheduled mode (PV-DVS).

Given the nominal-voltage schedule of one mode, this module chooses
discrete supply voltages for every scalable activity so that the total
dynamic energy is minimised without violating deadlines.  It follows
the PV-DVS approach of paper ref. [10] — iteratively hand the available
slack to the activity with the steepest energy reduction per unit of
time — extended to hardware components as described in paper
Section 4.2: all cores of a DVS-enabled hardware component share one
supply rail, so the component's parallel activity is first transformed
into the equivalent sequential segment chain of Fig. 5 and voltages are
selected per *segment*.

The algorithm operates on the *order-augmented DAG*: task-graph
precedence (through the scheduled communications) plus the execution
order the list scheduler fixed on every serial resource.  Extending an
activity by no more than its slack — latest finish minus earliest
finish under the current durations — is always safe.  After voltage
selection the scaled durations are mapped back to the real tasks (a
hardware task accumulates the stretched portions of every segment it
spans, possibly at different voltages) and the mode is *replayed*: a
forward pass over the order-augmented task-level DAG rebuilds a
consistent non-preemptive schedule with the new durations.

Both voltage-selection methods — :func:`scale_schedule` (the gradient
descent) and :func:`uniform_scale_schedule` (the single-stretch-factor
baseline) — run on one struct-of-arrays graph, :class:`_VectorGraph`:

* **Construction** builds the graph — parallel arrays of
  duration/energy tables, current levels, deadlines and integer
  adjacency — in one fused pass over the schedule's own arrays
  (:class:`~repro.scheduling.schedule.ModeSchedule` is struct-of-arrays).
  The execution order on every serial resource comes straight from the
  schedule's per-resource order, shared between the DVS graph and the
  replay graph; only a shared-rail component's Fig. 5 transformation
  sorts, to merge its cores' tasks by ``(start, name)``.
* **Selection** (gradient) pops moves from a heap ordered by
  ``(-saved/extra, -saved, position)``.  During the descent a node's
  earliest start only ever increases and its latest finish only ever
  decreases (durations are monotonically non-decreasing), so a move
  that is infeasible once stays infeasible forever and may be
  discarded on first pop — the heap therefore pops exactly the accept
  sequence of a per-move scan over all scalable nodes, including its
  first-position tie-break.
* **Timing maintenance** batches cone updates: accepted stretches are
  queued and only flushed when a popped candidate's slack could be
  stale.  A flush propagates all pending stretches in *one*
  rank-ordered wave per direction, recomputing exactly the per-node
  formulas of a full pass (``max`` over predecessor finishes, ``min``
  over successor latest starts, both exact on floats), so the arrays
  stay bit-identical to a full recompute.
* **Emission** writes new start, end, energy and voltage-piece arrays
  and returns them through :meth:`ModeSchedule.retimed`, which shares
  every mapping-fixed array (names, PEs, links, resource order) with
  the input schedule; no task or comm object is built.

The frozen seed implementation under ``tests/oracles`` is the
bit-identity reference both methods are fuzz-checked against.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.decode_cache import DecodeContext
from repro.errors import VoltageScalingError
from repro.problem import Problem
from repro.scheduling.schedule import TIME_EPS, ModeSchedule
from repro.specification.mode import Mode

#: Relative numerical guard when comparing slack against extensions.
_SLACK_EPS = 1e-12

_INF = math.inf

#: Table type of one scalable node: per-level durations or energies,
#: ascending voltage (index ``len-1`` is nominal).
_Table = Tuple[float, ...]


class _VectorGraph:
    """Order-augmented DAG as parallel arrays (struct-of-arrays).

    One instance is built per voltage-selection call and carries both
    the selection state (levels, current durations, est/lft arrays) and
    the back-mapping indices (task/segment/comm positions).  Adjacency
    is integer list-of-lists, which the cone walks index directly.
    """

    __slots__ = (
        "size",
        "dur_tables",
        "en_tables",
        "voltages",
        "level",
        "durations",
        "deadlines",
        "scalable",
        "scalable_flags",
        "preds",
        "succs",
        "topo",
        "topo_rank",
        "pending",
        "est",
        "finish",
        "lft",
        "latest_start",
        "task_pos",
        "comm_base",
        "task_segments",
        "seg_nominal",
        "seg_pes",
    )

    def __init__(self, size: int) -> None:
        self.size = size
        self.dur_tables: List[Optional[_Table]] = []
        self.en_tables: List[Optional[_Table]] = []
        self.voltages: List[Optional[_Table]] = []
        self.level: List[int] = []
        self.durations: List[float] = []
        self.deadlines: List[float] = []
        self.scalable: List[int] = []
        self.scalable_flags = bytearray(size)
        self.preds: List[List[int]] = [[] for _ in range(size)]
        self.succs: List[List[int]] = [[] for _ in range(size)]
        self.topo: List[int] = []
        self.topo_rank: List[int] = []
        self.pending = bytearray(size)
        self.est: List[float] = []
        self.finish: List[float] = []
        self.lft: List[float] = []
        self.latest_start: List[float] = []
        # Back-mapping: task index -> position (-1 for tasks folded
        # into segment chains), first comm position (comms are
        # consecutive in schedule order), and per-task ordered segment
        # positions on shared-rail hardware.
        self.task_pos: List[int] = []
        self.comm_base = 0
        self.task_segments: Dict[int, List[int]] = {}
        # True nominal duration per segment position.  The voltage
        # table's top entry is `(d·s)/s`, which can differ from `d` by
        # an ulp; the rebuild needs the exact original for energies.
        self.seg_nominal: Dict[int, float] = {}
        self.seg_pes: List[str] = []


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------


def _build_vector_graph(
    mode: Mode,
    schedule: ModeSchedule,
    shared_rail: bool,
    context: "DecodeContext",
) -> Tuple[
    _VectorGraph,
    Optional[Tuple[List[List[int]], List[List[int]], List[float]]],
]:
    """One fused pass: DVS graph arrays plus the shared replay graph.

    Reads the schedule's arrays and its per-resource activity order
    directly.  Returns the graph and, when Fig. 5 segment chains exist,
    the replay adjacency ``(preds, succs, durations)`` over task-level
    activities (tasks in schedule order, then comms) — collected
    alongside the DVS edges so the rebuild phase never re-derives the
    resource order.
    """
    mode_data = context.modes[mode.name]
    deadlines_of = mode_data.deadlines
    pe_objects = context.pes
    tables = context.duration_energy_tables
    hw_dvs = context.hw_dvs_pes if shared_rail else frozenset()
    dvs_pes = context.dvs_pes

    names = schedule.task_names
    task_pes = schedule.task_pes
    starts = schedule.task_starts
    ends = schedule.task_ends
    task_count = len(names)
    comm_starts = schedule.comm_starts
    comm_ends = schedule.comm_ends
    comm_count = len(comm_starts)
    seg_pes = sorted(hw_dvs.intersection(task_pes)) if hw_dvs else []

    graph = _VectorGraph(0)  # size fixed up after construction
    dur_tables = graph.dur_tables
    en_tables = graph.en_tables
    voltages = graph.voltages
    level = graph.level
    durations = graph.durations
    deadlines = graph.deadlines
    scalable = graph.scalable
    graph.task_pos = task_pos = [-1] * task_count
    task_segments = graph.task_segments
    seg_nominal = graph.seg_nominal
    graph.seg_pes = seg_pes

    # --- nodes: tasks off shared-rail DVS hardware --------------------
    position = 0
    for index, pe_name in enumerate(task_pes):
        if pe_name in hw_dvs:
            continue
        task_pos[index] = position
        duration = ends[index] - starts[index]
        if pe_name in dvs_pes:
            dur_t, en_t = tables(
                pe_name, duration, schedule.task_energies[index]
            )
            dur_tables.append(dur_t)
            en_tables.append(en_t)
            top = len(dur_t) - 1
            level.append(top)
            durations.append(dur_t[top])
            voltages.append(pe_objects[pe_name].voltage_levels)
            scalable.append(position)
        else:
            dur_tables.append(None)
            en_tables.append(None)
            voltages.append(None)
            level.append(0)
            durations.append(duration)
        deadlines.append(deadlines_of[names[index]])
        position += 1

    # --- nodes: Fig. 5 segment chains on shared-rail hardware ---------
    task_first_seg: Dict[int, int] = {}
    task_last_seg: Dict[int, int] = {}
    chain_edges: List[Tuple[int, int]] = []
    task_powers = schedule.task_powers
    for pe_name in seg_pes:
        # All cores of the component, by (start, name): the order of
        # ModeSchedule.tasks_on, which fixes the float summation order.
        placed = sorted(
            (i for i in range(task_count) if task_pes[i] == pe_name),
            key=lambda i: (starts[i], names[i]),
        )
        pe = pe_objects[pe_name]
        seg_starts = [starts[i] for i in placed]
        seg_ends = [ends[i] for i in placed]
        powers = [task_powers[i] for i in placed]
        count = len(placed)
        breakpoints = sorted(set(seg_starts) | set(seg_ends))
        chain_prev = -1
        task_energy = 0.0
        for i in range(count):
            task_energy += powers[i] * (seg_ends[i] - seg_starts[i])
        segment_energy = 0.0
        latest_segment = -_INF
        for left, right in zip(breakpoints, breakpoints[1:]):
            if right - left <= TIME_EPS:
                continue
            left_eps = left + TIME_EPS
            right_eps = right - TIME_EPS
            active = [
                i
                for i in range(count)
                if seg_starts[i] <= left_eps and seg_ends[i] >= right_eps
            ]
            if not active:
                continue
            power = 0.0
            for i in active:
                power += powers[i]
            seg_duration = right - left
            seg_energy = power * seg_duration
            segment_energy += seg_energy
            if right > latest_segment:
                latest_segment = right
            deadline = _INF
            for i in active:
                if abs(seg_ends[i] - right) <= TIME_EPS:
                    candidate = deadlines_of[names[placed[i]]]
                    if candidate < deadline:
                        deadline = candidate
            dur_t, en_t = tables(pe_name, seg_duration, seg_energy)
            dur_tables.append(dur_t)
            en_tables.append(en_t)
            top = len(dur_t) - 1
            level.append(top)
            durations.append(dur_t[top])
            voltages.append(pe.voltage_levels)
            deadlines.append(deadline)
            scalable.append(position)
            seg_nominal[position] = seg_duration
            for i in active:
                task = placed[i]
                segs = task_segments.get(task)
                if segs is None:
                    task_segments[task] = [position]
                    task_first_seg[task] = position
                else:
                    segs.append(position)
                task_last_seg[task] = position
            if chain_prev >= 0:
                chain_edges.append((chain_prev, position))
            chain_prev = position
            position += 1
        # Transformation invariants (the same checks and tolerances as
        # transform._check_equivalence).
        scale = task_energy if task_energy > 1.0 else 1.0
        if abs(task_energy - segment_energy) > 1e-9 * scale:
            raise VoltageScalingError(
                f"transformation broke energy equivalence: tasks "
                f"{task_energy}, segments {segment_energy}"
            )
        latest_task = -_INF
        for i in range(count):
            end = seg_ends[i]
            if end - seg_starts[i] > TIME_EPS and end > latest_task:
                latest_task = end
        if latest_task > -_INF and latest_segment > -_INF:
            if abs(latest_task - latest_segment) > TIME_EPS:
                raise VoltageScalingError(
                    "transformation broke makespan equivalence"
                )

    # --- nodes and edges: communications ------------------------------
    # Every edge is inserted once (each activity sits on one resource,
    # each comm has one producer and one consumer), so the adjacency is
    # filled directly.
    comm_base = position
    graph.comm_base = comm_base
    size = comm_base + comm_count
    graph.size = size
    dur_tables += [None] * comm_count
    en_tables += [None] * comm_count
    voltages += [None] * comm_count
    level += [0] * comm_count
    durations += [end - start for start, end in zip(comm_starts, comm_ends)]
    deadlines += [_INF] * comm_count
    preds: List[List[int]] = [[] for _ in range(size)]
    succs: List[List[int]] = [[] for _ in range(size)]
    for src, dst in chain_edges:
        succs[src].append(dst)
        preds[dst].append(src)
    src_tasks = schedule.comm_src_tasks
    dst_tasks = schedule.comm_dst_tasks
    for offset in range(comm_count):
        position = comm_base + offset
        src_anchor = task_last_seg.get(src_tasks[offset])
        if src_anchor is None:
            src_anchor = task_pos[src_tasks[offset]]
        dst_anchor = task_first_seg.get(dst_tasks[offset])
        if dst_anchor is None:
            dst_anchor = task_pos[dst_tasks[offset]]
        succs[src_anchor].append(position)
        preds[position].append(src_anchor)
        preds[dst_anchor].append(position)
        succs[position].append(dst_anchor)

    # --- edges: execution order on serial resources --------------------
    for ids in schedule.task_order:
        if task_pes[ids[0]] in hw_dvs:
            continue
        prev = task_pos[ids[0]]
        for nxt_task in ids[1:]:
            nxt = task_pos[nxt_task]
            succs[prev].append(nxt)
            preds[nxt].append(prev)
            prev = nxt
    for ids in schedule.comm_order:
        prev = comm_base + ids[0]
        for nxt_comm in ids[1:]:
            nxt = comm_base + nxt_comm
            succs[prev].append(nxt)
            preds[nxt].append(prev)
            prev = nxt
    graph.preds = preds
    graph.succs = succs

    # --- replay graph over task-level activities ----------------------
    replay: Optional[
        Tuple[List[List[int]], List[List[int]], List[float]]
    ] = None
    if seg_pes:
        replay_count = task_count + comm_count
        replay_preds: List[List[int]] = [[] for _ in range(replay_count)]
        replay_succs: List[List[int]] = [[] for _ in range(replay_count)]
        replay_durations = [0.0] * task_count + durations[comm_base:]
        for offset in range(comm_count):
            index = task_count + offset
            src_index = src_tasks[offset]
            dst_index = dst_tasks[offset]
            replay_succs[src_index].append(index)
            replay_preds[index].append(src_index)
            replay_succs[index].append(dst_index)
            replay_preds[dst_index].append(index)
        for base, order in (
            (0, schedule.task_order),
            (task_count, schedule.comm_order),
        ):
            for ids in order:
                prev = base + ids[0]
                for nxt_id in ids[1:]:
                    nxt = base + nxt_id
                    replay_succs[prev].append(nxt)
                    replay_preds[nxt].append(prev)
                    prev = nxt
        replay = (replay_preds, replay_succs, replay_durations)

    # --- freeze: scalable flags, topological order ---------------------
    graph.scalable_flags = flags = bytearray(size)
    for pos in scalable:
        flags[pos] = 1
    in_degree = [len(entry) for entry in preds]
    ready = [pos for pos in range(size) if not in_degree[pos]]
    topo: List[int] = []
    while ready:
        current = ready.pop()
        topo.append(current)
        for nxt in succs[current]:
            in_degree[nxt] -= 1
            if not in_degree[nxt]:
                ready.append(nxt)
    if len(topo) != size:
        raise VoltageScalingError("DVS graph contains a cycle")
    graph.topo = topo
    rank = [0] * size
    for ordinal, pos in enumerate(topo):
        rank[pos] = ordinal
    graph.topo_rank = rank
    graph.pending = bytearray(size)
    return graph, replay


# ----------------------------------------------------------------------
# Timing kernels
# ----------------------------------------------------------------------


def _forward_full(graph: _VectorGraph) -> None:
    """Earliest starts/finishes from scratch (exact max-accumulation)."""
    size = graph.size
    est = [0.0] * size
    finish = [0.0] * size
    durations = graph.durations
    preds = graph.preds
    for pos in graph.topo:
        arrival = 0.0
        for prev in preds[pos]:
            candidate = finish[prev]
            if candidate > arrival:
                arrival = candidate
        est[pos] = arrival
        finish[pos] = arrival + durations[pos]
    graph.est = est
    graph.finish = finish


def _backward_full(graph: _VectorGraph) -> None:
    """Latest finishes/starts from scratch (exact min-accumulation)."""
    size = graph.size
    lft = [0.0] * size
    latest_start = [0.0] * size
    durations = graph.durations
    succs = graph.succs
    deadlines = graph.deadlines
    for pos in reversed(graph.topo):
        bound = deadlines[pos]
        for nxt in succs[pos]:
            candidate = latest_start[nxt]
            if candidate < bound:
                bound = candidate
        lft[pos] = bound
        latest_start[pos] = bound - durations[pos]
    graph.lft = lft
    graph.latest_start = latest_start


def _flush_forward(graph: _VectorGraph, sources: List[int]) -> None:
    """Propagate all queued stretches downstream in one ranked wave.

    Every flagged node is recomputed with exactly the full-pass formula
    once all its updated predecessors have been recomputed (rank
    order), so the wave is bit-identical to a full forward pass while
    visiting only the union of the stretched nodes' cones.
    """
    est = graph.est
    finish = graph.finish
    durations = graph.durations
    preds = graph.preds
    succs = graph.succs
    topo = graph.topo
    rank = graph.topo_rank
    pending = graph.pending
    remaining = 0
    first_rank = graph.size
    for pos in sources:
        if not pending[pos]:
            pending[pos] = 1
            remaining += 1
            if rank[pos] < first_rank:
                first_rank = rank[pos]
    for ordinal in range(first_rank, len(topo)):
        if not remaining:
            break
        current = topo[ordinal]
        if not pending[current]:
            continue
        pending[current] = 0
        remaining -= 1
        arrival = 0.0
        for prev in preds[current]:
            candidate = finish[prev]
            if candidate > arrival:
                arrival = candidate
        est[current] = arrival
        updated = arrival + durations[current]
        # An unchanged finish stops the wave: downstream nodes only
        # ever read `finish`, never `est` directly.
        if updated != finish[current]:
            finish[current] = updated
            for nxt in succs[current]:
                if not pending[nxt]:
                    pending[nxt] = 1
                    remaining += 1


def _flush_backward(graph: _VectorGraph, sources: List[int]) -> None:
    """Mirror image of :func:`_flush_forward` for ``lft``."""
    lft = graph.lft
    latest_start = graph.latest_start
    durations = graph.durations
    preds = graph.preds
    succs = graph.succs
    topo = graph.topo
    rank = graph.topo_rank
    deadlines = graph.deadlines
    pending = graph.pending
    remaining = 0
    last_rank = -1
    for pos in sources:
        if not pending[pos]:
            pending[pos] = 1
            remaining += 1
            if rank[pos] > last_rank:
                last_rank = rank[pos]
    for ordinal in range(last_rank, -1, -1):
        if not remaining:
            break
        current = topo[ordinal]
        if not pending[current]:
            continue
        pending[current] = 0
        remaining -= 1
        bound = deadlines[current]
        for nxt in succs[current]:
            candidate = latest_start[nxt]
            if candidate < bound:
                bound = candidate
        lft[current] = bound
        updated = bound - durations[current]
        if updated != latest_start[current]:
            latest_start[current] = updated
            for prev in preds[current]:
                if not pending[prev]:
                    pending[prev] = 1
                    remaining += 1


# ----------------------------------------------------------------------
# Gradient descent
# ----------------------------------------------------------------------


def _descent(graph: _VectorGraph, need_final_est: bool) -> None:
    """Greedy energy-gradient descent over the array representation.

    Equivalent to a per-move scan over all scalable nodes (see the
    module docstring for the monotone-slack argument): the heap pops
    moves in exactly the scan's accept order.  The timing arrays are
    allowed to go stale across accepts; every pop is decided against a
    two-sided bound instead of an exact recompute:

    * stale slack *over*-estimates the true slack (queued stretches
      only ever shrink it), so a candidate that fails even the stale
      test is infeasible for good — discard, no flush;
    * ``stale_slack − Δ`` *under*-estimates it, where ``Δ`` is the sum
      of the *other* nodes' queued stretch deltas: a queued stretch at
      ``q ≠ p`` can raise ``est[p]`` (``q`` an ancestor) or sink
      ``lft[p]`` (``q`` a descendant) by at most its delta, and never
      both, while ``p``'s own stretches move neither — so the deltas
      bound the combined staleness additively and a candidate that
      fits under the bound is feasible for sure, accept without
      flushing.

    Only the narrow band in between (candidate within ``Δ`` of the
    stale slack — the tight end-game) pays for a flush, which replays
    all queued stretches in one rank-ordered wave per direction and
    re-tests exactly.  Accept decisions therefore match an always-exact
    scan bit for bit.

    ``need_final_est`` requests one last forward flush so ``est`` is
    exact on return (the direct-emission path reads it; the replay
    path does not).
    """
    dur_tables = graph.dur_tables
    en_tables = graph.en_tables
    level = graph.level
    durations = graph.durations
    est = graph.est
    lft = graph.lft

    heap: List[Tuple[float, float, int, float]] = []
    for pos in graph.scalable:
        current = level[pos]
        if current == 0:
            continue
        dur_t = dur_tables[pos]
        en_t = en_tables[pos]
        assert dur_t is not None and en_t is not None
        extra = dur_t[current - 1] - dur_t[current]
        saved = en_t[current] - en_t[current - 1]
        if saved <= 0:
            continue
        heap.append((-(saved / extra), -saved, pos, extra))
    if not heap:
        return
    heapify(heap)

    threshold = _SLACK_EPS + TIME_EPS
    pending: List[int] = []
    pending_delta: Dict[int, float] = {}
    delta = 0.0
    while heap:
        entry = heappop(heap)
        pos = entry[2]
        extra = entry[3]
        slack = lft[pos] - est[pos] - durations[pos]
        if extra > slack + threshold:
            continue
        if pending:
            # A node's own queued stretches move *other* nodes'
            # est/lft, never its own, so they drop out of the bound —
            # repeated stretches of one node never force a flush.
            stale = delta - pending_delta.get(pos, 0.0)
            if stale > 0.0 and extra > slack - stale + threshold:
                _flush_forward(graph, pending)
                _flush_backward(graph, pending)
                pending = []
                pending_delta = {}
                delta = 0.0
                slack = lft[pos] - est[pos] - durations[pos]
                if extra > slack + threshold:
                    continue
        # Accept: drop one level, queue the stretch, push the node's
        # next candidate move.
        current = level[pos] - 1
        level[pos] = current
        dur_t = dur_tables[pos]
        assert dur_t is not None
        durations[pos] = dur_t[current]
        if current > 0:
            en_t = en_tables[pos]
            assert en_t is not None
            next_extra = dur_t[current - 1] - dur_t[current]
            next_saved = en_t[current] - en_t[current - 1]
            if next_saved > 0:
                heappush(
                    heap,
                    (
                        -(next_saved / next_extra),
                        -next_saved,
                        pos,
                        next_extra,
                    ),
                )
        pending.append(pos)
        pending_delta[pos] = pending_delta.get(pos, 0.0) + extra
        delta += extra
    if pending and need_final_est:
        _flush_forward(graph, pending)
    # The backward arrays are not read after the descent, and the
    # replay path recomputes start times itself — leave whatever flush
    # is not needed unapplied.


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------


def _emit_direct(schedule: ModeSchedule, graph: _VectorGraph) -> ModeSchedule:
    """The scaled schedule straight from the graph arrays.

    Only valid without segment chains: every activity is its own node,
    so the final earliest starts *are* the replayed start times.
    """
    est = graph.est
    level = graph.level
    dur_tables = graph.dur_tables
    en_tables = graph.en_tables
    voltages = graph.voltages
    flags = graph.scalable_flags
    starts = schedule.task_starts
    ends = schedule.task_ends
    energies = schedule.task_energies
    new_starts: List[float] = []
    new_ends: List[float] = []
    new_energies: List[float] = []
    new_pieces: List[Tuple[Tuple[float, float], ...]] = []
    for index, pos in enumerate(graph.task_pos):
        start = est[pos]
        if flags[pos]:
            current = level[pos]
            dur_t = dur_tables[pos]
            en_t = en_tables[pos]
            volts = voltages[pos]
            assert (
                dur_t is not None and en_t is not None and volts is not None
            )
            duration = dur_t[current]
            new_energies.append(en_t[current])
            new_pieces.append(((duration, volts[current]),))
        else:
            duration = ends[index] - starts[index]
            new_energies.append(energies[index])
            new_pieces.append(())
        new_starts.append(start)
        new_ends.append(start + duration)
    comm_starts = est[graph.comm_base :]
    return schedule.retimed(
        task_starts=new_starts,
        task_ends=new_ends,
        task_energies=new_energies,
        task_pieces=new_pieces,
        comm_starts=comm_starts,
        comm_ends=[
            start + (end - begin)
            for start, begin, end in zip(
                comm_starts, schedule.comm_starts, schedule.comm_ends
            )
        ],
    )


def _emit(
    schedule: ModeSchedule,
    graph: _VectorGraph,
    replay: Optional[Tuple[List[List[int]], List[List[int]], List[float]]],
    context: "DecodeContext",
) -> ModeSchedule:
    """The scaled schedule of a finished voltage selection.

    Without segment chains the graph's own arrays are the result
    (:func:`_emit_direct`).  Otherwise segment voltages are mapped back
    to tasks and the mode is replayed: piece durations are read from
    the segment voltage tables (the exact floats ``scaled_duration``
    produces — the tables were built from it) and piece energies reuse
    precomputed per-level ``(v/vmax)²`` factors, matching
    ``scaled_energy``'s operation order.
    """
    if replay is None:
        return _emit_direct(schedule, graph)
    replay_preds, replay_succs, replay_durations = replay
    task_pes = schedule.task_pes
    task_count = len(task_pes)
    task_pos = graph.task_pos
    task_segments = graph.task_segments
    seg_nominal = graph.seg_nominal
    level = graph.level
    dur_tables = graph.dur_tables
    voltages = graph.voltages
    flags = graph.scalable_flags

    # Per-PE (v/vmax)² table, shared by every task on that rail.
    energy_factors: Dict[str, Tuple[float, ...]] = {}
    for pe_name in graph.seg_pes:
        levels = context.pes[pe_name].voltage_levels
        vmax = levels[-1]
        energy_factors[pe_name] = tuple(
            (vdd / vmax) ** 2 for vdd in levels
        )

    scaled_energy_of = list(schedule.task_energies)
    scaled_pieces: List[Tuple[Tuple[float, float], ...]] = [
        ()
    ] * task_count
    for index in range(task_count):
        segs = task_segments.get(index)
        if segs is not None:
            factors = energy_factors[task_pes[index]]
            power = schedule.task_powers[index]
            pieces_list: List[Tuple[float, float]] = []
            duration = 0.0
            energy = 0.0
            for pos in segs:
                seg_level = level[pos]
                dur_t = dur_tables[pos]
                volts = voltages[pos]
                assert dur_t is not None and volts is not None
                piece = dur_t[seg_level]
                pieces_list.append((piece, volts[seg_level]))
                duration += piece
                # Nominal slice energy = task power · nominal segment
                # duration (the exact original, not the table's top
                # entry), then the (v/vmax)² scaling — the same float
                # ops scaled_energy performs.
                energy += (power * seg_nominal[pos]) * factors[seg_level]
            scaled_energy_of[index] = energy
            scaled_pieces[index] = tuple(pieces_list)
        else:
            pos = task_pos[index]
            if flags[pos]:
                current = level[pos]
                dur_t = dur_tables[pos]
                en_t = graph.en_tables[pos]
                volts = voltages[pos]
                assert (
                    dur_t is not None
                    and en_t is not None
                    and volts is not None
                )
                duration = dur_t[current]
                scaled_energy_of[index] = en_t[current]
                scaled_pieces[index] = ((duration, volts[current]),)
            else:
                duration = (
                    schedule.task_ends[index] - schedule.task_starts[index]
                )
        replay_durations[index] = duration

    # Kahn replay: start times are exact max-accumulations, so visit
    # order cannot change a float.
    count = len(replay_durations)
    in_degree = [len(entries) for entries in replay_preds]
    ready = [index for index in range(count) if not in_degree[index]]
    start = [0.0] * count
    finish = [0.0] * count
    visited = 0
    while ready:
        current = ready.pop()
        visited += 1
        arrival = 0.0
        for prev in replay_preds[current]:
            candidate = finish[prev]
            if candidate > arrival:
                arrival = candidate
        start[current] = arrival
        finish[current] = arrival + replay_durations[current]
        for nxt in replay_succs[current]:
            in_degree[nxt] -= 1
            if not in_degree[nxt]:
                ready.append(nxt)
    if visited != count:
        raise VoltageScalingError("replay graph contains a cycle")

    return schedule.retimed(
        task_starts=start[:task_count],
        task_ends=finish[:task_count],
        task_energies=scaled_energy_of,
        task_pieces=scaled_pieces,
        comm_starts=start[task_count:],
        comm_ends=finish[task_count:],
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def scale_schedule(
    problem: Problem,
    mode: Mode,
    schedule: ModeSchedule,
    shared_rail: bool = True,
    context: Optional["DecodeContext"] = None,
) -> ModeSchedule:
    """Voltage-scale one mode's schedule by greedy energy-gradient descent.

    Returns a new :class:`ModeSchedule` with stretched activities,
    reduced task energies and per-task ``pieces`` recording the
    (duration, voltage) profile.  If the input schedule already violates
    deadlines, or no component is DVS-enabled, the schedule is returned
    with unchanged timing (energies and times identical).

    ``shared_rail`` models the paper's assumption that all cores of one
    hardware component are fed by a single supply (Section 4.2).
    Setting it to ``False`` gives every core its own rail — each
    hardware task scales individually, without the Fig. 5
    transformation.  That idealisation bounds what the extra DC/DC
    converters the paper rules out (area/power overhead) could buy,
    and is exposed for the ablation benchmarks.

    ``context`` (see :mod:`repro.engine.decode_cache`) memoises the
    per-(PE, duration, energy) voltage tables across candidates; it is
    resolved per problem when omitted.
    """
    if context is None:
        from repro.engine.decode_cache import context_for

        context = context_for(problem)
    graph, replay = _build_vector_graph(mode, schedule, shared_rail, context)
    _forward_full(graph)
    _backward_full(graph)
    _descent(graph, need_final_est=replay is None)
    return _emit(schedule, graph, replay, context)


def uniform_scale_schedule(
    problem: Problem,
    mode: Mode,
    schedule: ModeSchedule,
    context: Optional["DecodeContext"] = None,
) -> ModeSchedule:
    """Naive DVS baseline: one global stretch factor for all activities.

    Every scalable activity is slowed to the lowest discrete level whose
    duration stays within ``nominal × κ``; the largest feasible κ is
    found by bisection on the DVS graph (shared rails, like the paper).
    Serves as the ablation comparator for the gradient-based
    :func:`scale_schedule`.
    """
    if context is None:
        from repro.engine.decode_cache import context_for

        context = context_for(problem)
    graph, replay = _build_vector_graph(mode, schedule, True, context)
    dur_tables = graph.dur_tables
    level = graph.level
    durations = graph.durations
    deadlines = graph.deadlines

    def apply_factor(kappa: float) -> bool:
        """Set every scalable level for ``kappa``; report feasibility."""
        for pos in graph.scalable:
            dur_t = dur_tables[pos]
            assert dur_t is not None
            budget = dur_t[-1] * kappa + TIME_EPS
            chosen = len(dur_t) - 1
            for index, duration in enumerate(dur_t):
                if duration <= budget:
                    chosen = index
                    break
            level[pos] = chosen
            durations[pos] = dur_t[chosen]
        _forward_full(graph)
        finish = graph.finish
        for pos in range(graph.size):
            if finish[pos] > deadlines[pos] + TIME_EPS:
                return False
        return True

    # An already-infeasible input keeps its nominal (κ = 1) levels.
    if apply_factor(1.0):
        low, high = 1.0, 64.0
        for _ in range(40):
            mid = (low + high) / 2
            if apply_factor(mid):
                low = mid
            else:
                high = mid
        apply_factor(low)
    return _emit(schedule, graph, replay, context)
