"""JSON (de)serialisation of problems and synthesis results.

Lets users keep multi-mode specifications under version control,
exchange generated benchmark instances, and archive the mapping the
synthesis produced::

    from repro.io import problem_to_dict, problem_from_dict, save_problem

    save_problem(problem, "phone.json")
    problem = load_problem("phone.json")

The schema is versioned; loading validates through the normal model
constructors, so a tampered file fails with the library's usual
exceptions rather than producing an inconsistent instance.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.synthesis.config import SynthesisConfig
    from repro.synthesis.cosynthesis import SynthesisResult

from repro.architecture.communication_link import CommunicationLink
from repro.architecture.platform import Architecture
from repro.architecture.processing_element import PEKind, ProcessingElement
from repro.architecture.technology import TaskImplementation, TechnologyLibrary
from repro.durable import atomic_write_json, is_version
from repro.errors import SpecificationError
from repro.mapping.encoding import MappingString
from repro.problem import Problem
from repro.specification.mode import Mode
from repro.specification.omsm import OMSM, ModeTransition
from repro.specification.task_graph import CommEdge, Task, TaskGraph

#: Format identifier written into every file.
SCHEMA_VERSION = 1


def problem_to_dict(problem: Problem) -> Dict[str, Any]:
    """Serialise a complete problem instance to plain data."""
    omsm = problem.omsm
    architecture = problem.architecture
    return {
        "schema": SCHEMA_VERSION,
        "name": omsm.name,
        "modes": [
            {
                "name": mode.name,
                "probability": mode.probability,
                "period": mode.period,
                "tasks": [
                    {
                        "name": task.name,
                        "type": task.task_type,
                        "deadline": task.deadline,
                    }
                    for task in mode.task_graph
                ],
                "edges": [
                    {
                        "src": edge.src,
                        "dst": edge.dst,
                        "data_bits": edge.data_bits,
                    }
                    for edge in mode.task_graph.edges
                ],
            }
            for mode in omsm.modes
        ],
        "transitions": [
            {
                "src": transition.src,
                "dst": transition.dst,
                "max_time": (
                    None
                    if math.isinf(transition.max_time)
                    else transition.max_time
                ),
            }
            for transition in omsm.transitions
        ],
        "pes": [
            {
                "name": pe.name,
                "kind": pe.kind.value,
                "area": pe.area,
                "static_power": pe.static_power,
                "voltage_levels": list(pe.voltage_levels),
                "threshold_voltage": pe.threshold_voltage,
                "reconfig_time_per_cell": pe.reconfig_time_per_cell,
            }
            for pe in architecture.pes
        ],
        "links": [
            {
                "name": link.name,
                "connects": sorted(link.connects),
                "bandwidth_bps": link.bandwidth_bps,
                "comm_power": link.comm_power,
                "static_power": link.static_power,
            }
            for link in architecture.links
        ],
        "technology": [
            {
                "type": entry.task_type,
                "pe": entry.pe,
                "exec_time": entry.exec_time,
                "power": entry.power,
                "area": entry.area,
            }
            for entry in problem.technology
        ],
    }


def problem_from_dict(data: Dict[str, Any]) -> Problem:
    """Rebuild a problem instance from :func:`problem_to_dict` data."""
    if not is_version(data.get("schema"), SCHEMA_VERSION):
        raise SpecificationError(
            f"unsupported schema version {data.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    modes = []
    for entry in data["modes"]:
        graph = TaskGraph(
            f"{entry['name']}_graph",
            [
                Task(
                    name=t["name"],
                    task_type=t["type"],
                    deadline=t.get("deadline"),
                )
                for t in entry["tasks"]
            ],
            [
                CommEdge(
                    src=e["src"],
                    dst=e["dst"],
                    data_bits=e.get("data_bits", 0.0),
                )
                for e in entry["edges"]
            ],
        )
        modes.append(
            Mode(
                name=entry["name"],
                task_graph=graph,
                probability=entry["probability"],
                period=entry["period"],
            )
        )
    transitions = [
        ModeTransition(
            src=t["src"],
            dst=t["dst"],
            max_time=(
                math.inf if t.get("max_time") is None else t["max_time"]
            ),
        )
        for t in data.get("transitions", [])
    ]
    omsm = OMSM(data["name"], modes, transitions)

    pes = [
        ProcessingElement(
            name=p["name"],
            kind=PEKind(p["kind"]),
            area=p.get("area", 0.0),
            static_power=p.get("static_power", 0.0),
            voltage_levels=p.get("voltage_levels") or None,
            threshold_voltage=p.get("threshold_voltage", 0.4),
            reconfig_time_per_cell=p.get("reconfig_time_per_cell", 0.0),
        )
        for p in data["pes"]
    ]
    links = [
        CommunicationLink(
            name=l["name"],
            connects=l["connects"],
            bandwidth_bps=l["bandwidth_bps"],
            comm_power=l.get("comm_power", 0.0),
            static_power=l.get("static_power", 0.0),
        )
        for l in data.get("links", [])
    ]
    architecture = Architecture(f"{data['name']}_arch", pes, links)
    technology = TechnologyLibrary(
        TaskImplementation(
            task_type=t["type"],
            pe=t["pe"],
            exec_time=t["exec_time"],
            power=t["power"],
            area=t.get("area", 0.0),
        )
        for t in data["technology"]
    )
    return Problem(omsm, architecture, technology)


def save_problem(
    problem: Problem, path: Union[str, pathlib.Path]
) -> None:
    """Write a problem instance to a JSON file."""
    atomic_write_json(path, problem_to_dict(problem), indent=2, sort_keys=True)


def load_problem(path: Union[str, pathlib.Path]) -> Problem:
    """Read a problem instance from a JSON file."""
    return problem_from_dict(
        json.loads(pathlib.Path(path).read_text())
    )


def result_to_dict(result: "SynthesisResult") -> Dict[str, Any]:
    """Serialise a synthesis result (mapping + stable quality figures).

    Besides the aggregate Equation (1) power, the **per-mode** power
    breakdown is a stable part of the schema: Equation (1) is linear in
    Ψ, so it re-scores the design exactly under any probability vector
    (``p̄(Ψ) = Σ_O (dyn_O + stat_O)·Ψ_O``), and it survives the
    round-trip bit-exactly because evaluation is a pure function of the
    genes.
    """
    best = result.best
    return {
        "schema": SCHEMA_VERSION,
        "problem": best.problem.name,
        "mapping": best.mapping.full_mapping(),
        "psi": best.problem.omsm.probability_vector(),
        "average_power": best.metrics.average_power,
        "mode_powers": {
            mode: dict(entry)
            for mode, entry in result.mode_powers.items()
        },
        "feasible": best.metrics.is_feasible,
        "generations": result.generations,
        "evaluations": result.evaluations,
        "cpu_time": result.cpu_time,
        "history": list(result.history),
    }


def result_from_dict(
    problem: Problem,
    data: Dict[str, Any],
    config: "Optional[SynthesisConfig]" = None,
) -> "SynthesisResult":
    """Rebuild a synthesis result against an existing problem.

    The stored mapping is re-evaluated (evaluation is pure, so this is
    an exact reconstruction, not an approximation); the recomputed
    per-mode powers are validated against the stored vector to within
    1e-9, so a result file quietly diverging from the problem it is
    loaded against fails loudly instead of mis-scoring designs.
    """
    from repro.synthesis.config import SynthesisConfig
    from repro.synthesis.cosynthesis import SynthesisResult
    from repro.synthesis.evaluator import evaluate_mapping

    if not is_version(data.get("schema"), SCHEMA_VERSION):
        raise SpecificationError(
            f"unsupported schema version {data.get('schema')!r}"
        )
    if data.get("problem") != problem.name:
        raise SpecificationError(
            f"result was saved for problem {data.get('problem')!r}, "
            f"not {problem.name!r}"
        )
    mapping = MappingString.from_mapping(problem, data["mapping"])
    implementation = evaluate_mapping(
        problem, mapping, config or SynthesisConfig()
    )
    if implementation is None:
        raise SpecificationError(
            f"stored mapping for {problem.name!r} is no longer "
            f"evaluable against this problem"
        )
    stored = data.get("mode_powers", {})
    for mode in problem.omsm.mode_names:
        entry = stored.get(mode)
        if entry is None:
            raise SpecificationError(
                f"stored result misses mode_powers[{mode!r}]"
            )
        recomputed = (
            implementation.metrics.dynamic_power[mode],
            implementation.metrics.static_power[mode],
        )
        if (
            abs(entry["dynamic"] - recomputed[0]) > 1e-9
            or abs(entry["static"] - recomputed[1]) > 1e-9
        ):
            raise SpecificationError(
                f"stored mode_powers[{mode!r}] disagree with the "
                f"re-evaluated mapping (stored {entry}, recomputed "
                f"dynamic={recomputed[0]!r}, static={recomputed[1]!r})"
            )
    return SynthesisResult(
        best=implementation,
        generations=int(data.get("generations", 0)),
        evaluations=int(data.get("evaluations", 0)),
        cpu_time=float(data.get("cpu_time", 0.0)),
        history=[float(v) for v in data.get("history", [])],
    )


def save_result(
    result: "SynthesisResult", path: Union[str, pathlib.Path]
) -> None:
    """Write a synthesis result to a JSON file."""
    atomic_write_json(path, result_to_dict(result), indent=2, sort_keys=True)


def load_result(
    problem: Problem,
    path: Union[str, pathlib.Path],
    config: "Optional[SynthesisConfig]" = None,
) -> "SynthesisResult":
    """Read a synthesis result from a JSON file."""
    return result_from_dict(
        problem,
        json.loads(pathlib.Path(path).read_text()),
        config,
    )


def mapping_to_dict(mapping: MappingString) -> Dict[str, Any]:
    """Serialise a mapping string (per-mode task → PE assignments)."""
    return {
        "schema": SCHEMA_VERSION,
        "problem": mapping.problem.name,
        "mapping": mapping.full_mapping(),
    }


def mapping_from_dict(
    problem: Problem, data: Dict[str, Any]
) -> MappingString:
    """Rebuild a mapping string against an existing problem."""
    if not is_version(data.get("schema"), SCHEMA_VERSION):
        raise SpecificationError(
            f"unsupported schema version {data.get('schema')!r}"
        )
    if data.get("problem") != problem.name:
        raise SpecificationError(
            f"mapping was saved for problem {data.get('problem')!r}, "
            f"not {problem.name!r}"
        )
    return MappingString.from_mapping(problem, data["mapping"])
