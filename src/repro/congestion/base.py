"""Shared congestion-map types and the model interface.

Both models produce a :class:`CongestionMap`: a tiling of the chip into
cells, each carrying the summed crossing probability of all nets
(the paper's congestion information ``f(x,y)`` / ``F(I)``).  The map
knows how to turn itself into the paper's scalar scores.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Sequence

from repro.geometry import Rect
from repro.metrics.stats import (
    area_weighted_top_fraction_mean,
    top_fraction_mean,
)
from repro.netlist import TwoPinArrays, TwoPinNet, arrays_to_nets

__all__ = ["CongestionCell", "CongestionMap", "CongestionModel"]


@dataclass
class CongestionCell:
    """One evaluation cell with its accumulated congestion mass.

    ``mass`` is the weighted sum over nets of the probability that the
    net's route crosses this cell -- ``f(x, y)`` for fixed grids,
    ``F(I)`` for IR-grids.
    """

    rect: Rect
    mass: float = 0.0

    @property
    def density(self) -> float:
        """Congestion per unit area -- the comparable quantity across
        cells of different sizes (Section 4.3)."""
        if self.rect.area <= 0.0:
            return 0.0
        return self.mass / self.rect.area


class CongestionMap:
    """A congestion tiling of the chip plus the derived scalar scores."""

    def __init__(self, chip: Rect, cells: Sequence[CongestionCell]):
        if not cells:
            raise ValueError("congestion map needs at least one cell")
        self.chip = chip
        self.cells: List[CongestionCell] = list(cells)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def total_mass(self) -> float:
        return sum(c.mass for c in self.cells)

    @property
    def max_mass(self) -> float:
        return max(c.mass for c in self.cells)

    @property
    def max_density(self) -> float:
        return max(c.density for c in self.cells)

    def top_mass_score(self, fraction: float = 0.1) -> float:
        """Mean mass of the top ``fraction`` most congested cells.

        The fixed-size-grid score of Section 3 -- meaningful only when
        all cells have equal area.
        """
        return top_fraction_mean([c.mass for c in self.cells], fraction)

    def top_density_score(self, fraction: float = 0.1) -> float:
        """Area-weighted mean *density* of the densest ``fraction`` of
        the chip area -- the Irregular-Grid score (Algorithm step 5)."""
        return area_weighted_top_fraction_mean(
            [(c.density, c.rect.area) for c in self.cells], fraction
        )

    def densities(self) -> List[float]:
        """Per-cell densities, in cell order."""
        return [c.density for c in self.cells]

    def cells_over(self, mass_threshold: float) -> List[CongestionCell]:
        """Cells whose mass exceeds a routing-capacity-style threshold."""
        return [c for c in self.cells if c.mass > mass_threshold]

    def __repr__(self) -> str:
        return (
            f"CongestionMap({self.n_cells} cells, total mass "
            f"{self.total_mass:.3f}, max density {self.max_density:.3g})"
        )


class CongestionModel(abc.ABC):
    """Interface shared by the fixed-size-grid and Irregular-Grid models."""

    @abc.abstractmethod
    def evaluate(
        self, chip: Rect, nets: Sequence[TwoPinNet]
    ) -> CongestionMap:
        """Build the congestion map of ``nets`` over ``chip``."""

    @abc.abstractmethod
    def score(self, congestion_map: CongestionMap) -> float:
        """Collapse a map to the model's scalar floorplan cost."""

    def estimate(self, chip: Rect, nets: Sequence[TwoPinNet]) -> float:
        """Convenience: ``score(evaluate(...))``."""
        return self.score(self.evaluate(chip, nets))

    def estimate_arrays(self, chip: Rect, arr: TwoPinArrays) -> float:
        """Scalar cost of placed 2-pin nets given as coordinate arrays.

        The generic implementation materializes anonymous
        :class:`TwoPinNet` objects and defers to :meth:`estimate`;
        models with an array-native kernel override this to skip the
        objects entirely (the annealing hot path calls it thousands of
        times per run).
        """
        return self.estimate(chip, arrays_to_nets(arr))

    def estimate_arrays_ledger(
        self, chip: Rect, arr: TwoPinArrays, ledger=None, dirty=None, old=None
    ):
        """:meth:`estimate_arrays` with optional delta-state carry.

        Returns ``(score, new_ledger)``.  ``ledger`` is the previously
        evaluated state's
        :class:`~repro.congestion.ledger.CongestionLedger` (or
        ``None``), ``dirty`` the indices of the edges that changed since
        it was recorded and ``old`` those edges' previous geometry;
        models that can re-estimate O(dirty) override this.  The
        generic implementation ignores all three and carries no ledger,
        which is always correct -- callers fall back to a full
        evaluation whenever the returned ledger is ``None``.
        """
        return self.estimate_arrays(chip, arr), None
