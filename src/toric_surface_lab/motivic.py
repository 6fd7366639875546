"""Symbolic motivic decomposition: one separable-algebra factor per orbit of
the permutation basis.

Brauer classes are opaque labels (they depend on arithmetic input the tool
does not model); base degrees are the orbit sizes, i.e. the degrees of the
etale algebras the factors live over.  The named slots of the four minimal
families:

    ruled surfaces F(2a):    k x Q x k x Q    (Q a quaternion label)
    ruled surfaces F(2a+1):  k x k x k x k    (odd twists are trivial)
    the plane:               k x A x A^{tensor 2}
    the quadric P1xP1:       k x B x A       (B over the quadratic base)
    the hexagonal dP6:       k x P x Q
"""

from __future__ import annotations

from dataclasses import dataclass

from .grothendieck import (
    BasisCertificate,
    GrothendieckError,
    PermutationBasis,
    verify_permutation_basis,
)
from .minimal_model import MinimalLabel, NotMinimal
from .symmetry import SymmetryGroup

__all__ = [
    "AlgebraFactor",
    "MotivicDecomposition",
    "FamilyDescriptor",
    "UnverifiedBasis",
    "decompose",
    "annotate_family",
    "decomposition_string",
]

DP6_PAIRING_NOTE = (
    "dP6 slot bookkeeping: the factor named P sits on the size-3 orbit "
    "(cubic etale base by stabilizer index) although the classical rank-9 "
    "description of P carries the quadratic base; the orbit sizes recorded "
    "here are authoritative for the base degrees, the names follow the "
    "family convention."
)

ODD_RULING_NOTE = (
    "ruled surface with odd twist: the quaternion label is trivial, every "
    "factor splits."
)


class UnverifiedBasis(GrothendieckError):
    pass


@dataclass(frozen=True)
class AlgebraFactor:
    base_degree: int
    brauer_label: str
    source_orbit: tuple[int, ...]
    slot_roles: tuple[str, ...]


@dataclass(frozen=True)
class FamilyDescriptor:
    index: str
    slots: tuple[str, ...]
    description: str
    roles: tuple[tuple[str, str], ...]  # core slot role -> factor slot
    notes: tuple[str, ...]  # the notes of every decomposition in the family


def _family(index, slots, description, roles, notes=()) -> FamilyDescriptor:
    return FamilyDescriptor(index, slots, description, (("one", "k"), *roles.items()), notes)


# One row per minimal family; the ruled surfaces have two, by the parity of
# the twist.  Core slot roles are those of grothendieck.core_blocks.
_RULED_EVEN = _family(
    "(i)", ("k", "Q", "k", "Q"), "ruled surface over a conic: k x Q x k x Q",
    {"J_fiber": "Q", "J_section": "k", "J_both": "Q"},
)
_RULED_ODD = _family(
    "(i)", ("k", "k", "k", "k"), "ruled surface with odd twist: all factors split",
    {"J_fiber": "k", "J_section": "k", "J_both": "k"}, (ODD_RULING_NOTE,),
)
_FAMILIES = {
    "(ii)": _family(
        "(ii)", ("k", "A", "A^{⊗2}"), "twisted plane: k x A x A^{tensor 2}",
        {"J": "A", "J2": "A^{⊗2}"},
    ),
    "(iii)": _family(
        "(iii)", ("k", "B", "A"),
        "quadric surface: k x B x A with B over the quadratic discriminant base",
        {"J_fiber": "B", "J_section": "B", "J_both": "A"},
    ),
    "(iv)": _family(
        "(iv)", ("k", "P", "Q"), "hexagonal del Pezzo: k x P x Q",
        {"R": "P", "Q": "Q"}, (DP6_PAIRING_NOTE,),
    ),
}


@dataclass(frozen=True)
class MotivicDecomposition:
    factors: tuple[AlgebraFactor, ...]
    family: FamilyDescriptor
    notes: tuple[str, ...]
    basis_certificate: BasisCertificate  # the certificate of the decomposed basis

    def total_degree(self) -> int:
        return sum(f.base_degree for f in self.factors)


def annotate_family(label: MinimalLabel) -> FamilyDescriptor:
    """Named factor slots of the minimal family a classified pair belongs to.

    The only place the odd-twist rule is applied: an odd twist makes the
    quaternion label of a ruled surface trivial.
    """
    if label.family == "(i)":
        a = label.hirzebruch_a
        return _RULED_ODD if a is not None and a % 2 == 1 else _RULED_EVEN
    if label.family not in _FAMILIES:
        raise NotMinimal(f"unrecognized minimal family {label.family}")
    return _FAMILIES[label.family]


def decompose(
    basis: PermutationBasis, label: MinimalLabel, group: SymmetryGroup
) -> MotivicDecomposition:
    """One factor per basis orbit, named after the minimal family of `label`.

    `label` classifies the terminal pair of the trace the basis was built
    from.  The basis is certified first; a failing certificate raises
    UnverifiedBasis, and a passing one is returned with the decomposition.
    """
    try:
        cert = verify_permutation_basis(basis, basis.fan, group)
    except GrothendieckError as exc:
        raise UnverifiedBasis(str(exc)) from exc
    if not cert.ok:
        raise UnverifiedBasis("basis certificate failed")

    family = annotate_family(label)
    slot_of_role = dict(family.roles)

    factors = []
    for orbit in basis.orbits:
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
        family=family,
        notes=family.notes,
        basis_certificate=cert,
    )


def decomposition_string(dec: MotivicDecomposition) -> str:
    return "×".join(f.brauer_label for f in dec.factors)
