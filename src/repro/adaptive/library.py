"""Persistent design library with exact re-scoring under any Ψ.

Equation (1) is *linear* in the probability vector:

    p̄(Ψ) = Σ_O (p̄_dyn(O) + p̄_stat(O)) · Ψ_O

and the per-mode powers depend only on the mapping/schedule — not on
Ψ — so a design synthesised once can be scored under *any* probability
vector by a dot product over its stored per-mode power vector.  No
re-simulation, no approximation: :meth:`DesignRecord.score` reproduces
:func:`repro.power.energy_model.average_power` bit-for-bit because it
iterates the same mode order with the same accumulation arithmetic.

The library persists as a single JSON file written by
:func:`repro.durable.atomic_write_json` (temp file + fsync +
``os.replace``), so a kill mid-save never tears it.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.durable import atomic_write_json
from repro.errors import SpecificationError
from repro.runtime.checkpoint import _read_json

PathLike = Union[str, pathlib.Path]

#: Schema version of the persisted library; bump on incompatible change.
LIBRARY_VERSION = 1


def psi_distance(
    a: Mapping[str, float], b: Mapping[str, float]
) -> float:
    """Total-variation distance ``0.5 · Σ_O |a_O - b_O|`` in ``[0, 1]``."""
    modes = set(a) | set(b)
    return 0.5 * sum(
        abs(a.get(mode, 0.0) - b.get(mode, 0.0)) for mode in modes
    )


@dataclass
class DesignRecord:
    """One stored design: genes + the vectors needed to re-score it.

    ``mode_powers`` maps mode name → ``{"dynamic": W, "static": W}`` in
    OMSM insertion order (the order :func:`average_power` iterates);
    ``psi`` is the probability vector the design was synthesised for;
    ``area_used`` is the per-PE area of the core allocation (cells) —
    Ψ-independent, stored for inspection and admission policies.
    """

    name: str
    genes: Tuple[str, ...]
    psi: Dict[str, float]
    mode_powers: Dict[str, Dict[str, float]]
    area_used: Dict[str, float] = field(default_factory=dict)
    feasible: bool = True
    origin: str = "synthesis"
    generations: int = 0
    evaluations: int = 0
    cpu_time: float = 0.0

    def score(self, psi: Mapping[str, float]) -> float:
        """Equation (1) under ``psi`` — exact, no re-simulation.

        Mirrors :func:`repro.power.energy_model.average_power`: same
        mode iteration order, same ``(dyn + stat) · Ψ_O`` accumulation,
        so the result matches a fresh evaluation to the last bit.
        """
        total = 0.0
        for mode, entry in self.mode_powers.items():
            try:
                weight = psi[mode]
            except KeyError:
                raise SpecificationError(
                    f"probability vector misses mode {mode!r}"
                ) from None
            total += (entry["dynamic"] + entry["static"]) * weight
        return total

    def mode_power(self, mode_name: str) -> float:
        """Total (dynamic + static) power of one mode, in watts."""
        entry = self.mode_powers[mode_name]
        return entry["dynamic"] + entry["static"]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "genes": list(self.genes),
            "psi": dict(self.psi),
            "mode_powers": {
                mode: dict(entry)
                for mode, entry in self.mode_powers.items()
            },
            "area_used": dict(self.area_used),
            "feasible": self.feasible,
            "origin": self.origin,
            "generations": self.generations,
            "evaluations": self.evaluations,
            "cpu_time": self.cpu_time,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DesignRecord":
        return cls(
            name=str(data["name"]),
            genes=tuple(data["genes"]),
            psi={k: float(v) for k, v in data["psi"].items()},
            mode_powers={
                mode: {
                    "dynamic": float(entry["dynamic"]),
                    "static": float(entry["static"]),
                }
                for mode, entry in data["mode_powers"].items()
            },
            area_used={
                k: float(v)
                for k, v in data.get("area_used", {}).items()
            },
            feasible=bool(data.get("feasible", True)),
            origin=str(data.get("origin", "synthesis")),
            generations=int(data.get("generations", 0)),
            evaluations=int(data.get("evaluations", 0)),
            cpu_time=float(data.get("cpu_time", 0.0)),
        )

    @classmethod
    def from_result(
        cls, name: str, result: Any, origin: str = "synthesis"
    ) -> "DesignRecord":
        """Build a record from a ``SynthesisResult``."""
        best = result.best
        return cls(
            name=name,
            genes=tuple(best.mapping.genes),
            psi=best.problem.omsm.probability_vector(),
            mode_powers={
                mode: dict(entry)
                for mode, entry in result.mode_powers.items()
            },
            area_used=dict(best.cores.area_used),
            feasible=best.metrics.is_feasible,
            origin=origin,
            generations=result.generations,
            evaluations=result.evaluations,
            cpu_time=result.cpu_time,
        )


class DesignLibrary:
    """An ordered collection of :class:`DesignRecord` with Ψ queries.

    Records keep insertion order; names are unique (re-adding a name
    replaces the record — the adaptation loop refreshes designs).
    """

    def __init__(
        self, records: Optional[List[DesignRecord]] = None
    ) -> None:
        self._records: Dict[str, DesignRecord] = {}
        for record in records or []:
            self.add(record)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, record: DesignRecord) -> DesignRecord:
        self._records[record.name] = record
        return record

    def remove(self, name: str) -> None:
        self._records.pop(name, None)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def records(self) -> Tuple[DesignRecord, ...]:
        return tuple(self._records.values())

    def get(self, name: str) -> DesignRecord:
        try:
            return self._records[name]
        except KeyError:
            raise SpecificationError(
                f"design library has no record {name!r}"
            ) from None

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, name: str) -> bool:
        return name in self._records

    # ------------------------------------------------------------------
    # Ψ queries
    # ------------------------------------------------------------------

    def best(
        self,
        psi: Mapping[str, float],
        feasible_only: bool = True,
    ) -> Tuple[DesignRecord, float]:
        """The stored design with minimal Equation (1) power under ``psi``.

        Ties break toward the earlier-admitted record, which keeps the
        controller's decisions deterministic.
        """
        best_record: Optional[DesignRecord] = None
        best_score = 0.0
        for record in self._records.values():
            if feasible_only and not record.feasible:
                continue
            score = record.score(psi)
            if best_record is None or score < best_score:
                best_record = record
                best_score = score
        if best_record is None:
            raise SpecificationError(
                "design library holds no "
                + ("feasible " if feasible_only else "")
                + "record"
            )
        return best_record, best_score

    def nearest(
        self, psi: Mapping[str, float], count: int = 1
    ) -> List[DesignRecord]:
        """Records whose synthesis-Ψ is closest to ``psi`` (TV distance).

        Ties break by insertion order (stable sort), keeping warm-start
        seeding deterministic.
        """
        ranked = sorted(
            self._records.values(),
            key=lambda record: psi_distance(record.psi, psi),
        )
        return ranked[: max(0, count)]

    def lower_bound(self, psi: Mapping[str, float]) -> float:
        """Per-mode best-of-library bound: ``Σ_O Ψ_O · min_r p_r(O)``.

        No single stored design generally achieves this — it combines
        the best mode powers across *different* records — so it bounds
        from below what any library design (and plausibly a light
        re-synthesis) could reach.  The gap between the library's best
        design and this bound is the *library-span regret* that triggers
        re-synthesis.
        """
        if not self._records:
            raise SpecificationError("design library is empty")
        modes = next(iter(self._records.values())).mode_powers.keys()
        total = 0.0
        for mode in modes:
            try:
                weight = psi[mode]
            except KeyError:
                raise SpecificationError(
                    f"probability vector misses mode {mode!r}"
                ) from None
            total += weight * min(
                record.mode_power(mode)
                for record in self._records.values()
            )
        return total

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": LIBRARY_VERSION,
            "records": [
                record.to_dict() for record in self._records.values()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DesignLibrary":
        version = data.get("version")
        if version != LIBRARY_VERSION:
            raise SpecificationError(
                f"unsupported design library version {version!r} "
                f"(expected {LIBRARY_VERSION})"
            )
        return cls(
            [DesignRecord.from_dict(entry) for entry in data["records"]]
        )

    def save(self, path: PathLike) -> pathlib.Path:
        """Atomically persist the library as one JSON file."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(path, self.to_dict())
        return path

    @classmethod
    def load(cls, path: PathLike) -> "DesignLibrary":
        return cls.from_dict(
            _read_json(pathlib.Path(path), "design library")
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DesignLibrary(records={len(self._records)})"
