"""Equivariant blow-up corpora: seed pairs (fan, group) for each of the 13
group classes, their one-step equivariant blow-ups, and seeded random
blow-up chains.  Used by the verification suites and the self-test paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .lattice_fan import Fan, blow_up, dp6_fan, hirzebruch_fan, p2_fan, square_fan
from .symmetry import (
    CONJUGACY_LABELS,
    SymmetryGroup,
    classify_subgroup,
    compute_aut,
    enumerate_subgroups,
)

__all__ = [
    "CorpusEntry",
    "subgroup_with_label",
    "minimal_seed_pairs",
    "equivariant_blowups",
    "random_chain",
    "standard_corpus",
]


@dataclass(frozen=True)
class CorpusEntry:
    fan: Fan
    group: SymmetryGroup
    group_label: str


def subgroup_with_label(fan: Fan, label: str) -> SymmetryGroup | None:
    """The first subgroup of the fan's automorphism group with this label."""
    for sub in enumerate_subgroups(compute_aut(fan)):
        if classify_subgroup(sub) == label:
            return sub
    return None


# Seed surfaces per group class, from the minimality table.  Ruled-surface
# rows are sampled at small twists.
_SEEDS: dict[str, tuple] = {
    "C1": (p2_fan, square_fan, lambda: hirzebruch_fan(2), lambda: hirzebruch_fan(3)),
    "D2": (p2_fan, square_fan, lambda: hirzebruch_fan(3), lambda: hirzebruch_fan(5)),
    "D2'": (square_fan, lambda: hirzebruch_fan(2), lambda: hirzebruch_fan(4)),
    "C2": (square_fan,),
    "C4": (square_fan,),
    "D4": (square_fan,),
    "D4'": (square_fan,),
    "D8": (square_fan,),
    "C3": (p2_fan,),
    "D6": (p2_fan,),
    "C6": (dp6_fan,),
    "D6'": (dp6_fan,),
    "D12": (dp6_fan,),
}


def minimal_seed_pairs(label: str) -> list[CorpusEntry]:
    out = []
    for make in _SEEDS[label]:
        fan = make()
        group = subgroup_with_label(fan, label)
        if group is not None:
            out.append(CorpusEntry(fan=fan, group=group, group_label=label))
    return out


def _orbit_union_blowup(entry: CorpusEntry, orbit_subset) -> CorpusEntry | None:
    cones = sorted(c for orbit in orbit_subset for c in orbit)
    fan = blow_up(entry.fan, cones)
    return CorpusEntry(
        fan=fan, group=entry.group.attach(fan), group_label=entry.group_label
    )


def equivariant_blowups(entry: CorpusEntry, max_rays: int = 12) -> list[CorpusEntry]:
    """All one-step blow-ups along nonempty stable unions of cone orbits."""
    orbits = entry.group.cone_orbits()
    out = []
    for mask in range(1, 1 << len(orbits)):
        subset = [orbits[i] for i in range(len(orbits)) if mask & (1 << i)]
        added = sum(len(o) for o in subset)
        if entry.fan.n + added > max_rays:
            continue
        out.append(_orbit_union_blowup(entry, subset))
    return out


def random_chain(
    entry: CorpusEntry,
    rng: random.Random,
    max_depth: int = 3,
    max_rays: int = 12,
) -> CorpusEntry:
    """A chain of up to max_depth random equivariant blow-ups."""
    current = entry
    for _ in range(rng.randint(1, max_depth)):
        orbits = current.group.cone_orbits()
        k = rng.randint(1, len(orbits))
        subset = rng.sample(orbits, k)
        added = sum(len(o) for o in subset)
        if current.fan.n + added > max_rays:
            break
        current = _orbit_union_blowup(current, subset)
    return current


def standard_corpus(
    seed: int = 0, chains: int = 200, max_rays: int = 12
) -> list[CorpusEntry]:
    """Seeds, all one-step equivariant blow-ups, plus seeded random chains.

    The random chains are distributed round-robin over the seed pairs of the
    13 group classes; duplicates (same rays, same matrices) are removed.
    """
    entries: list[CorpusEntry] = []
    seen = set()

    def add(entry: CorpusEntry) -> None:
        key = (entry.fan.rays, entry.group.elements, entry.group_label)
        if key not in seen:
            seen.add(key)
            entries.append(entry)

    seed_pairs: list[CorpusEntry] = []
    for label in CONJUGACY_LABELS:
        for pair in minimal_seed_pairs(label):
            seed_pairs.append(pair)
            add(pair)
    for pair in seed_pairs:
        for blown in equivariant_blowups(pair, max_rays=max_rays):
            add(blown)
    rng = random.Random(seed)
    produced = 0
    i = 0
    while produced < chains:
        pair = seed_pairs[i % len(seed_pairs)]
        add(random_chain(pair, rng, max_rays=max_rays))
        produced += 1
        i += 1
    return entries
