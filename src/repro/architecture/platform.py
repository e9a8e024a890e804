"""The allocated architecture: processing elements plus links.

The synthesis in this library (as in the paper) assumes a pre-allocated
architecture — component selection is an input, not a decision variable.
:class:`Architecture` validates connectivity and answers the routing
question the inner loop needs: *which links can carry a message between
two given processing elements?*  Only single-hop routes are modelled,
which matches the bus-based target architectures of the paper (a message
between unconnected PEs makes a mapping infeasible).
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Tuple

from repro.errors import ArchitectureError
from repro.architecture.communication_link import CommunicationLink
from repro.architecture.processing_element import ProcessingElement


class Architecture:
    """A heterogeneous distributed architecture ``G_A(P, L)``.

    Parameters
    ----------
    name:
        Identifier of the architecture.
    pes:
        Processing elements ``P``.  Names must be unique.
    links:
        Communication links ``L``.  Each link must attach only known
        processing elements.
    """

    def __init__(
        self,
        name: str,
        pes: Sequence[ProcessingElement],
        links: Sequence[CommunicationLink] = (),
    ) -> None:
        if not name:
            raise ArchitectureError("architecture name must be non-empty")
        if not pes:
            raise ArchitectureError(
                f"architecture {name!r}: needs at least one PE"
            )
        self.name = name
        self._pes: Dict[str, ProcessingElement] = {}
        for pe in pes:
            if pe.name in self._pes:
                raise ArchitectureError(
                    f"architecture {name!r}: duplicate PE name {pe.name!r}"
                )
            self._pes[pe.name] = pe
        self._links: Dict[str, CommunicationLink] = {}
        for link in links:
            if link.name in self._links or link.name in self._pes:
                raise ArchitectureError(
                    f"architecture {name!r}: duplicate component name "
                    f"{link.name!r}"
                )
            unknown = link.connects - set(self._pes)
            if unknown:
                raise ArchitectureError(
                    f"architecture {name!r}: link {link.name!r} attaches "
                    f"unknown PEs {sorted(unknown)}"
                )
            self._links[link.name] = link
        # Nothing changes an architecture after construction, so every
        # component view is computed once.
        self._pe_tuple = tuple(self._pes.values())
        self._link_tuple = tuple(self._links.values())
        self._hardware = tuple(pe for pe in self._pe_tuple if pe.is_hardware)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def pes(self) -> Tuple[ProcessingElement, ...]:
        """All processing elements, in insertion order."""
        return self._pe_tuple

    @property
    def links(self) -> Tuple[CommunicationLink, ...]:
        """All communication links, in insertion order."""
        return self._link_tuple

    @property
    def pe_names(self) -> Tuple[str, ...]:
        return tuple(self._pes)

    @property
    def link_names(self) -> Tuple[str, ...]:
        return tuple(self._links)

    def pe(self, name: str) -> ProcessingElement:
        """Return the PE called ``name`` or raise ``ArchitectureError``."""
        try:
            return self._pes[name]
        except KeyError:
            raise ArchitectureError(
                f"architecture {self.name!r}: no PE named {name!r}"
            ) from None

    def link(self, name: str) -> CommunicationLink:
        """Return the link called ``name`` or raise ``ArchitectureError``."""
        try:
            return self._links[name]
        except KeyError:
            raise ArchitectureError(
                f"architecture {self.name!r}: no link named {name!r}"
            ) from None

    def __iter__(self) -> Iterator[ProcessingElement]:
        return iter(self._pes.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Architecture({self.name!r}, pes={len(self._pes)}, "
            f"links={len(self._links)})"
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def software_pes(self) -> Tuple[ProcessingElement, ...]:
        """Instruction-set processors (GPPs and ASIPs)."""
        return tuple(pe for pe in self._pes.values() if pe.is_software)

    def hardware_pes(self) -> Tuple[ProcessingElement, ...]:
        """Core-based components (ASICs and FPGAs)."""
        return self._hardware

    def dvs_pes(self) -> Tuple[ProcessingElement, ...]:
        """DVS-enabled processing elements."""
        return tuple(pe for pe in self._pes.values() if pe.dvs_enabled)

    def links_between(
        self, first_pe: str, second_pe: str
    ) -> Tuple[CommunicationLink, ...]:
        """Links that attach both given processing elements.

        The inner loop chooses one of these for every inter-PE message;
        an empty result makes any mapping that separates the two tasks
        across this PE pair communication-infeasible.
        """
        self.pe(first_pe)
        self.pe(second_pe)
        return tuple(
            link
            for link in self._links.values()
            if link.links_pair(first_pe, second_pe)
        )

    def links_of(self, pe_name: str) -> Tuple[CommunicationLink, ...]:
        """Links attached to a processing element."""
        self.pe(pe_name)
        return tuple(
            link for link in self._links.values() if link.attaches(pe_name)
        )

    def is_fully_connected(self) -> bool:
        """True if every PE pair shares at least one link.

        Architectures produced by the benchmark generator satisfy this;
        hand-built ones need not.
        """
        names = list(self._pes)
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                if not self.links_between(first, second):
                    return False
        return True
