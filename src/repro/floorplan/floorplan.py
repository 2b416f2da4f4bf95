"""The placed-floorplan container."""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Sequence, Tuple

import numpy as np

from repro.geometry import Point, Rect

__all__ = ["Floorplan"]

# Most pairwise depths ``overlapping_pairs`` materializes at once.
_OVERLAP_BLOCK = 1 << 20


def _column(values) -> np.ndarray:
    col = np.array(values, dtype=np.float64)
    col.flags.writeable = False
    return col


def _rect_columns(rects: Mapping[str, Rect]):
    """``(names, x_lo, y_lo, x_hi, y_hi)`` of a non-empty Rect map."""
    bounds = [(r.x_lo, r.y_lo, r.x_hi, r.y_hi) for r in rects.values()]
    return (tuple(rects), *zip(*bounds))


class Floorplan:
    """A non-overlapping packing of named modules.

    Produced by the slicing evaluator or a non-slicing packer; the
    chip outline is the bounding box of the placements unless an
    explicit outline is given.

    Storage is columnar: ``module_names`` (distinct, in placement
    order) and four read-only float64 columns ``x_lo``/``y_lo``/
    ``x_hi``/``y_hi``, row ``i`` describing module ``module_names[i]``.
    The packers build a floorplan from columns
    (:meth:`from_origins`); :class:`Rect` objects are made only when
    ``placements``, ``placement`` or ``center`` first asks for them,
    once per floorplan.
    """

    def __init__(
        self,
        placements: Mapping[str, Rect],
        chip: "Rect | None" = None,
    ):
        if not placements:
            raise ValueError("floorplan needs at least one placed module")
        rects: Dict[str, Rect] = dict(placements)
        self._init_columns(*_rect_columns(rects), chip)
        self._rects = rects

    @classmethod
    def from_origins(
        cls,
        names: Sequence[str],
        xs: Sequence[float],
        ys: Sequence[float],
        widths: Sequence[float],
        heights: Sequence[float],
        chip: "Rect | None" = None,
    ) -> "Floorplan":
        """A floorplan from per-module lower-left corners and sizes --
        :meth:`Rect.from_origin` over columns, building no ``Rect``
        but the chip."""
        w = _column(widths)
        h = _column(heights)
        if (w < 0).any() or (h < 0).any():
            bad = int(np.nonzero((w < 0) | (h < 0))[0][0])
            raise ValueError(
                "width/height must be non-negative, got "
                f"{widths[bad]} x {heights[bad]} for module {names[bad]!r}"
            )
        x_lo = _column(xs)
        y_lo = _column(ys)
        fp = cls.__new__(cls)
        fp._init_columns(tuple(names), x_lo, y_lo, x_lo + w, y_lo + h, chip)
        fp._rects = None
        return fp

    def _init_columns(self, names, x_lo, y_lo, x_hi, y_hi, chip) -> None:
        if not names:
            raise ValueError("floorplan needs at least one placed module")
        if len(set(names)) != len(names):
            raise ValueError("floorplan module names must be distinct")
        self._names: Tuple[str, ...] = names
        self.x_lo = _column(x_lo)
        self.y_lo = _column(y_lo)
        self.x_hi = _column(x_hi)
        self.y_hi = _column(y_hi)
        if not (
            len(self.x_lo) == len(self.y_lo) == len(self.x_hi)
            == len(self.y_hi) == len(names)
        ):
            raise ValueError("floorplan columns differ in length")
        # min/max never round, so this equals folding union_bbox over
        # the module rectangles.
        bbox = Rect(
            float(self.x_lo.min()),
            float(self.y_lo.min()),
            float(self.x_hi.max()),
            float(self.y_hi.max()),
        )
        if chip is None:
            chip = bbox
        elif not chip.contains_rect(bbox):
            # Shape-list heights/widths are sums in a different order
            # than the placement walk, so the bbox can exceed the chip
            # by float rounding; absorb that, reject real violations.
            tolerance = 1e-6 * max(bbox.width, bbox.height, 1.0)
            grown = chip.union_bbox(bbox)
            if (
                grown.width - chip.width > tolerance
                or grown.height - chip.height > tolerance
            ):
                raise ValueError(
                    "chip outline does not contain all placed modules: "
                    f"chip {chip}, placements bbox {bbox}"
                )
            chip = grown
        self.chip: Rect = chip

    # -- pickling --------------------------------------------------------

    def __getstate__(self) -> dict:
        # The Rect map is a cache of the columns; rebuilt on demand.
        state = dict(self.__dict__)
        state["_rects"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        if "_placements" in state:
            # Layout before the columnar floorplan: a name -> Rect dict
            # plus the (already grown) chip.
            rects = state["_placements"]
            self._init_columns(*_rect_columns(rects), state["chip"])
            self._rects = rects
            return
        self.__dict__.update(state)
        for name in ("x_lo", "y_lo", "x_hi", "y_hi"):
            getattr(self, name).flags.writeable = False

    # -- access ------------------------------------------------------------

    def _rect_map(self) -> Dict[str, Rect]:
        rects = self._rects
        if rects is None:
            rects = dict(
                zip(
                    self._names,
                    map(
                        Rect,
                        self.x_lo.tolist(),
                        self.y_lo.tolist(),
                        self.x_hi.tolist(),
                        self.y_hi.tolist(),
                    ),
                )
            )
            self._rects = rects
        return rects

    @property
    def placements(self) -> Mapping[str, Rect]:
        return dict(self._rect_map())

    @property
    def module_names(self) -> Tuple[str, ...]:
        return self._names

    def placement(self, name: str) -> Rect:
        """The placed rectangle of module ``name``."""
        try:
            return self._rect_map()[name]
        except KeyError:
            raise KeyError(f"module {name!r} is not placed in this floorplan")

    def center(self, name: str) -> Point:
        """Center of a placed module -- the raw pin location before
        intersection-to-intersection snapping."""
        return self.placement(name).center

    # -- measures ------------------------------------------------------

    @property
    def n_modules(self) -> int:
        return len(self._names)

    @property
    def area(self) -> float:
        """Chip (bounding) area -- the floorplanner's area objective."""
        return self.chip.area

    @property
    def module_area(self) -> float:
        areas = (self.x_hi - self.x_lo) * (self.y_hi - self.y_lo)
        return sum(areas.tolist())

    @property
    def whitespace_fraction(self) -> float:
        """Dead-space fraction of the chip: ``1 - sum(module)/chip``."""
        if self.chip.area == 0:
            return 0.0
        return 1.0 - self.module_area / self.chip.area

    # -- validation ----------------------------------------------------

    def overlapping_pairs(self) -> Iterator[Tuple[str, str]]:
        """All pairs of modules whose interiors intersect materially,
        as ``(earlier, later)`` name pairs in row-major order.

        Overlaps shallower than ~1e-9 of the chip edge are float dust
        (serialization round trips, shape-sum reassociation), not
        packing bugs, and are ignored.  A correct packer yields none;
        the test suite asserts this on every floorplan the library
        produces.  Sweeps blocks of rows against every later row in
        numpy: O(m^2) arithmetic, O(block) memory.
        """
        tolerance = 1e-9 * max(self.chip.width, self.chip.height, 1.0)
        n = len(self._names)
        block = max(1, _OVERLAP_BLOCK // n)
        for start in range(0, n - 1, block):
            stop = min(start + block, n - 1)
            rows = slice(start, stop)
            later = slice(start + 1, n)
            depth_x = np.minimum(
                self.x_hi[rows, None], self.x_hi[None, later]
            ) - np.maximum(self.x_lo[rows, None], self.x_lo[None, later])
            depth_y = np.minimum(
                self.y_hi[rows, None], self.y_hi[None, later]
            ) - np.maximum(self.y_lo[rows, None], self.y_lo[None, later])
            # Entry (r, c) pairs row start + r with row start + 1 + c:
            # the upper triangle (c >= r) holds the later rows only.
            hit = np.triu((depth_x > tolerance) & (depth_y > tolerance))
            for r, c in zip(*np.nonzero(hit)):
                yield (self._names[start + r], self._names[start + 1 + c])

    def validate(self) -> None:
        """Raise :class:`ValueError` on any material interior overlap."""
        bad = list(self.overlapping_pairs())
        if bad:
            raise ValueError(f"floorplan has overlapping modules: {bad[:5]}")

    def __repr__(self) -> str:
        return (
            f"Floorplan({self.n_modules} modules, chip "
            f"{self.chip.width:.1f} x {self.chip.height:.1f}, "
            f"whitespace {100 * self.whitespace_fraction:.1f}%)"
        )
