"""Symbolic motivic decomposition: one separable-algebra factor per orbit of
the permutation basis.

Brauer classes are opaque labels (they depend on arithmetic input the tool
does not model); base degrees are the orbit sizes, i.e. the degrees of the
etale algebras the factors live over.  The named slots of each minimal
family are those of its row of `minimal_model.TABLE`.  `decompose` reads the
orbits and the basis of the certificate it is passed and certifies nothing;
a failed certificate is the caller's verdict to report, not an input.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "AlgebraFactor",
    "MotivicDecomposition",
    "decompose",
    "decomposition_string",
]


class AlgebraFactor(NamedTuple):
    base_degree: int
    brauer_label: str
    source_orbit: tuple[int, ...]


class MotivicDecomposition(NamedTuple):
    factors: tuple[AlgebraFactor, ...]
    family: TableRow


def decompose(cert: BasisCertificate, label: MinimalLabel) -> MotivicDecomposition:
    """One factor per orbit of `cert`, named after the minimal family of `label`.

    `cert` must pass, and `label` classifies the terminal pair of the trace
    that `cert.basis` was built from; the factors read that basis's tags.  A
    failed `cert`, an orbit whose tags are not all "exc" or all "core" (a
    trace bug), or one whose core roles name two factor slots (a table bug),
    raises ValueError.
    """
    if not cert.ok:
        raise ValueError(f"decompose needs a certified basis: {cert.error}")
    tags = cert.basis.tags
    slot_of_role = label.row.roles

    factors = []
    for orbit in cert.orbits:
        roles = []
        kinds = set()
        for i in orbit:
            kind, payload = tags[i]
            kinds.add(kind)
            roles.append(payload)
        if kinds == {"exc"}:
            # Blow-up orbits give etale factors: split over the degree-|orbit|
            # etale base algebra.
            brauer = "k"
        elif kinds == {"core"}:
            slot_labels = {slot_of_role[role] for role in roles}
            if len(slot_labels) != 1:
                raise ValueError(f"orbit {orbit} mixes factor slots {sorted(slot_labels)}")
            brauer = slot_labels.pop()
        else:
            raise ValueError(f"orbit {orbit} mixes tag kinds {sorted(kinds)}")
        factors.append(AlgebraFactor(len(orbit), brauer, orbit))
    return MotivicDecomposition(factors=tuple(factors), family=label.row)


def decomposition_string(dec: MotivicDecomposition) -> str:
    return "×".join(f.brauer_label for f in dec.factors)
