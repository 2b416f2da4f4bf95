"""Sequence-pair floorplan representation (extension).

The paper's floorplanner is slicing-only; Section 4.6 claims the
congestion model "can be embedded into any general floorplanners".  To
exercise that claim we also provide the classic sequence-pair
representation [Murata et al., ICCAD'95], which reaches general
(non-slicing) packings.

A sequence pair is two permutations ``(gamma_plus, gamma_minus)`` of the
module names plus a per-module rotation flag.  Module ``a`` is left of
``b`` iff ``a`` precedes ``b`` in both sequences; ``a`` is below ``b``
iff ``a`` follows ``b`` in ``gamma_plus`` and precedes it in
``gamma_minus``.  Packing evaluates the induced horizontal and vertical
constraint graphs by longest path with FAST-SP [Tang, Tian & Wong,
DATE 2000]: a weighted longest common subsequence over a prefix-max
Fenwick tree, O(m log m) per packing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import FrozenSet, List, Mapping, Sequence, Tuple

from repro.floorplan.floorplan import Floorplan
from repro.netlist import Module

__all__ = ["SequencePair", "pack_sequence_pair"]


@dataclass(frozen=True)
class SequencePair:
    """An immutable sequence pair with rotation flags."""

    gamma_plus: Tuple[str, ...]
    gamma_minus: Tuple[str, ...]
    rotated: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if sorted(self.gamma_plus) != sorted(self.gamma_minus):
            raise ValueError("gamma_plus and gamma_minus permute different sets")
        if len(set(self.gamma_plus)) != len(self.gamma_plus):
            raise ValueError("sequence pair contains duplicate names")
        if not self.gamma_plus:
            raise ValueError("sequence pair cannot be empty")
        unknown = set(self.rotated) - set(self.gamma_plus)
        if unknown:
            raise ValueError(f"rotation flags for unknown modules {unknown}")

    @classmethod
    def initial(
        cls, names: Sequence[str], rng: "random.Random | None" = None
    ) -> "SequencePair":
        plus = list(names)
        minus = list(names)
        if rng is not None:
            rng.shuffle(plus)
            rng.shuffle(minus)
        return cls(tuple(plus), tuple(minus))

    # -- moves -------------------------------------------------------------

    def swap_in_plus(self, rng: random.Random) -> "SequencePair":
        """Swap two random names in ``gamma_plus`` only."""
        if len(self.gamma_plus) < 2:
            return self
        i, j = rng.sample(range(len(self.gamma_plus)), 2)
        plus = list(self.gamma_plus)
        plus[i], plus[j] = plus[j], plus[i]
        return SequencePair(tuple(plus), self.gamma_minus, self.rotated)

    def swap_in_both(self, rng: random.Random) -> "SequencePair":
        """Swap the same two names in both sequences."""
        if len(self.gamma_plus) < 2:
            return self
        a, b = rng.sample(self.gamma_plus, 2)
        return SequencePair(
            _swapped(self.gamma_plus, a, b),
            _swapped(self.gamma_minus, a, b),
            self.rotated,
        )

    def toggle_rotation(self, rng: random.Random) -> "SequencePair":
        """Flip one module's 90-degree rotation."""
        name = self.gamma_plus[rng.randrange(len(self.gamma_plus))]
        rotated = set(self.rotated)
        if name in rotated:
            rotated.remove(name)
        else:
            rotated.add(name)
        return SequencePair(self.gamma_plus, self.gamma_minus, frozenset(rotated))

    def random_neighbor(self, rng: random.Random) -> "SequencePair":
        """One uniformly-chosen perturbation (swap/swap-both/rotate)."""
        choice = rng.randrange(3)
        if choice == 0:
            return self.swap_in_plus(rng)
        if choice == 1:
            return self.swap_in_both(rng)
        return self.toggle_rotation(rng)


def _swapped(seq: Tuple[str, ...], a: str, b: str) -> Tuple[str, ...]:
    out = list(seq)
    ia, ib = out.index(a), out.index(b)
    out[ia], out[ib] = out[ib], out[ia]
    return tuple(out)


def pack_sequence_pair(
    pair: SequencePair, modules: Mapping[str, Module]
) -> Floorplan:
    """Pack a sequence pair into the lower-left-justified floorplan.

    ``a`` is left of ``b`` iff it precedes ``b`` in both sequences, so
    walking ``gamma_plus`` forward, ``x_b`` is the largest ``x_a + w_a``
    already written at a ``gamma_minus`` position before ``b``'s.
    Walking ``gamma_plus`` backward gives the modules below ``b`` and
    so ``y_b``.  Each coordinate is the max over exactly the sums the
    O(m^2) constraint-graph walk compares, and max never rounds, so the
    placements are bit-identical to it.
    """
    widths: List[float] = []
    heights: List[float] = []
    for name in pair.gamma_plus:
        try:
            m = modules[name]
        except KeyError:
            raise KeyError(f"sequence pair names unknown module {name!r}")
        if name in pair.rotated:
            widths.append(m.height)
            heights.append(m.width)
        else:
            widths.append(m.width)
            heights.append(m.height)

    pos_minus = {name: i for i, name in enumerate(pair.gamma_minus)}
    slots = [pos_minus[name] for name in pair.gamma_plus]
    xs = _longest_paths(slots, widths)
    ys = _longest_paths(slots[::-1], heights[::-1])[::-1]
    return Floorplan.from_origins(pair.gamma_plus, xs, ys, widths, heights)


def _longest_paths(slots: List[int], sizes: List[float]) -> List[float]:
    """Start of each item: the max of ``start_j + sizes[j]`` over the
    earlier items ``j`` with ``slots[j] < slots[i]``, or 0.0 if none.

    ``tree`` is a Fenwick tree of prefix maxima over the slots (1-based):
    the query walks down to the prefix ``< slot``, the write walks up.
    """
    n = len(slots)
    tree = [0.0] * (n + 1)
    starts: List[float] = []
    for slot, size in zip(slots, sizes):
        start = 0.0
        i = slot
        while i:
            if tree[i] > start:
                start = tree[i]
            i &= i - 1
        starts.append(start)
        end = start + size
        i = slot + 1
        while i <= n:
            if tree[i] < end:
                tree[i] = end
            i += i & -i
    return starts
