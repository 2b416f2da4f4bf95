"""The committed-grid congestion ledger: O(dirty) re-estimation.

Evaluating the IR model from scratch costs O(all nets + all covered
cells) per annealing move, even though a move dirties only a handful of
nets (PR 1 made the *pin/MST* stages O(dirty); congestion stayed
global).  The ledger closes that gap for the common case where the
candidate floorplan's **merged cut lines are identical** to the
committed grid's:

* pins snap to a lattice whose pitch is the congestion model's own
  ``grid_size``, so cut-line candidates are occupied lattice points and
  ``np.unique`` collapses duplicates -- a move that shuffles pins among
  already-occupied positions (or is rejected back onto the committed
  state) reproduces the committed grid *exactly*, detectable with two
  ``np.array_equal`` calls;
* the ledger is a snapshot: the merged cut lines, the committed mass
  array and an age, nothing per edge.  The candidate's mass is
  ``committed_mass - sum(dirty old blocks) + sum(dirty new blocks)``,
  where the old blocks are rebuilt from the dirty edges' *previous*
  geometry framed against the same grid.  A delta needs equal cut
  lines and an unchanged chip (the pipeline withholds the dirty set
  when the outline moves), and framing is elementwise per edge, so the
  rebuilt blocks are the ones the committed mass was scattered from --
  out of the per-net memo on a hit, out of the same kernel on a miss.

Delta accumulation reorders float additions relative to the full-batch
scatter, so a ledger-built mass agrees with a from-scratch evaluation
to float-summation dust (~1e-14 relative), not bitwise; strict mode
asserts the 1e-12 contract every evaluation, and the ``age`` counter
bounds drift by forcing a periodic full rebuild
(:attr:`IrregularGridModel.ledger_refresh`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["CongestionLedger"]


class CongestionLedger:
    """One committed floorplan's congestion state, delta-updatable.

    Immutable by convention: the delta path builds a *new* ledger for
    the candidate state and leaves the committed one untouched, so the
    pipeline's reject-by-reference-swap transaction protocol needs no
    rollback hooks here.
    """

    __slots__ = ("x_lines", "y_lines", "mass", "age")

    def __init__(
        self,
        x_lines: np.ndarray,
        y_lines: np.ndarray,
        mass: np.ndarray,
        age: int = 0,
    ):
        self.x_lines = x_lines
        self.y_lines = y_lines
        self.mass = mass
        self.age = age

    def matches(self, x_lines: np.ndarray, y_lines: np.ndarray) -> bool:
        """Whether a candidate grid's merged cut lines equal this
        ledger's -- the fingerprint gating the O(dirty) delta path."""
        return np.array_equal(self.x_lines, x_lines) and np.array_equal(
            self.y_lines, y_lines
        )
