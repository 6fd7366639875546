"""Symbolic motivic decomposition: one separable-algebra factor per orbit of
the permutation basis.

Brauer classes are opaque labels (they depend on arithmetic input the tool
does not model); base degrees are the orbit sizes, i.e. the degrees of the
etale algebras the factors live over.  The named slots of each minimal
family are those of its row of `minimal_model.TABLE`.
"""

from __future__ import annotations

from typing import NamedTuple

from .grothendieck import (
    BasisCertificate,
    GrothendieckError,
    PermutationBasis,
    verify_permutation_basis,
)

__all__ = [
    "AlgebraFactor",
    "MotivicDecomposition",
    "UnverifiedBasis",
    "decompose",
    "decomposition_string",
]


class UnverifiedBasis(GrothendieckError):
    pass


class AlgebraFactor(NamedTuple):
    base_degree: int
    brauer_label: str
    source_orbit: tuple[int, ...]
    slot_roles: tuple[str, ...]


class MotivicDecomposition(NamedTuple):
    factors: tuple[AlgebraFactor, ...]
    family: TableRow
    basis_certificate: BasisCertificate  # the certificate of the decomposed basis

    def total_degree(self) -> int:
        return sum(f.base_degree for f in self.factors)


def decompose(
    basis: PermutationBasis, label: MinimalLabel, group: SymmetryGroup
) -> MotivicDecomposition:
    """One factor per certified orbit, named after the minimal family of `label`.

    `label` classifies the terminal pair of the trace the basis was built
    from.  The basis is certified first and the factors follow the orbits
    of that certificate; a failing certificate raises UnverifiedBasis, and
    a passing one is returned with the decomposition.
    """
    try:
        cert = verify_permutation_basis(basis, basis.fan, group)
    except GrothendieckError as exc:
        raise UnverifiedBasis(str(exc)) from exc

    slot_of_role = label.row.roles

    factors = []
    for orbit in cert.orbits:
        roles = []
        kinds = set()
        for i in orbit:
            kind, payload = basis.tags[i]
            kinds.add(kind)
            roles.append(str(payload))
        if kinds == {"exc"}:
            # Blow-up orbits give etale factors: split over the degree-|orbit|
            # etale base algebra.
            brauer = "k"
        elif kinds == {"core"}:
            slot_labels = {slot_of_role[role] for role in roles}
            if len(slot_labels) != 1:
                raise UnverifiedBasis(
                    f"orbit {orbit} mixes factor slots {sorted(slot_labels)}"
                )
            brauer = slot_labels.pop()
        else:
            brauer = "End(pushforward of orbit representative)"
        factors.append(
            AlgebraFactor(
                base_degree=len(orbit),
                brauer_label=brauer,
                source_orbit=orbit,
                slot_roles=tuple(roles),
            )
        )
    return MotivicDecomposition(
        factors=tuple(factors),
        family=label.row,
        basis_certificate=cert,
    )


def decomposition_string(dec: MotivicDecomposition) -> str:
    return "×".join(f.brauer_label for f in dec.factors)
