"""Floorplan representations behind one fixed name table.

The three representations the repo anneals over -- normalized Polish
expressions (Wong-Liu slicing), sequence pairs, and B*-trees -- differ
only in three functions:

* ``initial(rng) -> state``
* ``neighbor(state, rng) -> state``
* ``realize(state) -> Floorplan``

:class:`Representation` packages that triple, bound to one circuit;
:data:`REPRESENTATIONS` maps short names (``"polish"`` / ``"sp"`` /
``"btree"``) to factories so the engine and the CLI select
representations by string.  Factories receive the engine's
:class:`~repro.perf.context.CacheContext` and thread the relevant
cache into ``realize`` (only Polish packing memoizes today), keeping
all memoization engine-scoped.

Representations may additionally expose the *inverse* of ``realize``:
``from_floorplan(floorplan) -> state`` reconstructs a state whose
packing resembles a given placement (see
:mod:`repro.floorplan.convert`).  The portfolio search driver uses it
to migrate elite solutions across representations; it is optional --
a representation without it simply cannot receive migrants.

The table is fixed configuration, not a result cache; it holds no
per-run mutable state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.floorplan import (
    BStarTree,
    Floorplan,
    SequencePair,
    evaluate_polish,
    initial_expression,
    pack_btree,
    pack_sequence_pair,
)
from repro.floorplan.convert import (
    btree_from_floorplan,
    polish_from_floorplan,
    sequence_pair_from_floorplan,
)
from repro.netlist import Netlist
from repro.perf.context import CacheContext

__all__ = [
    "Representation",
    "REPRESENTATIONS",
    "make_representation",
    "available_representations",
    "representation_descriptions",
]


@dataclass(frozen=True)
class Representation:
    """One floorplan representation bound to one circuit.

    The generic annealing loop consumes exactly the
    ``initial``/``neighbor``/``realize`` triple; the ``name`` rides
    along for result labelling.  ``from_floorplan`` (optional) is the
    conversion hook the portfolio driver migrates elites through --
    the approximate inverse of ``realize``.
    """

    name: str
    initial: Callable[[random.Random], Any]
    neighbor: Callable[[Any, random.Random], Any]
    realize: Callable[[Any], Floorplan]
    from_floorplan: Optional[Callable[[Floorplan], Any]] = None


def available_representations() -> Tuple[str, ...]:
    """The representation names, sorted."""
    return tuple(sorted(REPRESENTATIONS))


def representation_descriptions() -> Dict[str, str]:
    """``name -> one-line description`` for every representation, in
    sorted name order."""
    return {
        name: REPRESENTATIONS[name][1] for name in available_representations()
    }


def make_representation(
    name: str,
    netlist: Netlist,
    allow_rotation: bool = True,
    cache_context: Optional[CacheContext] = None,
) -> Representation:
    """Build the named representation for ``netlist``.

    ``cache_context`` is the owning engine's cache fleet; factories
    thread the caches they need into their closures (``None`` disables
    representation-level memoization).
    """
    try:
        factory = REPRESENTATIONS[name][0]
    except KeyError:
        known = ", ".join(available_representations())
        raise ValueError(
            f"unknown representation {name!r}; available: {known}"
        ) from None
    return factory(netlist, allow_rotation, cache_context)


def _polish_factory(
    netlist: Netlist,
    allow_rotation: bool,
    cache_context: Optional[CacheContext],
) -> Representation:
    names = [m.name for m in netlist.modules]
    modules = {m.name: m for m in netlist.modules}
    cache = cache_context.subtree_shapes if cache_context is not None else None
    return Representation(
        name="polish",
        initial=lambda rng: initial_expression(names, rng),
        neighbor=lambda expr, rng: expr.random_neighbor(rng),
        realize=lambda expr: evaluate_polish(
            expr, modules, allow_rotation, cache=cache
        ),
        from_floorplan=lambda fp: polish_from_floorplan(fp, modules),
    )


def _sp_factory(
    netlist: Netlist,
    allow_rotation: bool,
    cache_context: Optional[CacheContext],
) -> Representation:
    # Sequence-pair packing places modules at their given dimensions;
    # rotation is a representation-level move it does not take, so
    # ``allow_rotation`` and the cache context are unused.
    modules = {m.name: m for m in netlist.modules}
    return Representation(
        name="sp",
        initial=lambda rng: SequencePair.initial(list(modules), rng),
        neighbor=lambda pair, rng: pair.random_neighbor(rng),
        realize=lambda pair: pack_sequence_pair(pair, modules),
        from_floorplan=lambda fp: sequence_pair_from_floorplan(fp, modules),
    )


def _btree_factory(
    netlist: Netlist,
    allow_rotation: bool,
    cache_context: Optional[CacheContext],
) -> Representation:
    # B*-tree contour packing; rotation happens through the tree's own
    # rotate move, so ``allow_rotation`` and the cache context are
    # unused here too.
    modules = {m.name: m for m in netlist.modules}
    return Representation(
        name="btree",
        initial=lambda rng: BStarTree.initial(list(modules), rng),
        neighbor=lambda tree, rng: tree.random_neighbor(rng),
        realize=lambda tree: pack_btree(tree, modules),
        from_floorplan=lambda fp: btree_from_floorplan(fp, modules),
    )


REPRESENTATIONS: Dict[str, Tuple[Callable[..., Representation], str]] = {
    "polish": (
        _polish_factory,
        "normalized Polish expressions (Wong-Liu slicing trees)",
    ),
    "sp": (
        _sp_factory,
        "sequence pairs (Murata et al. longest-path packing)",
    ),
    "btree": (
        _btree_factory,
        "B*-trees (Chang et al. contour packing)",
    ),
}
"""``name -> (factory, one-line description)``; a factory is called as
``factory(netlist, allow_rotation, cache_context)``."""
