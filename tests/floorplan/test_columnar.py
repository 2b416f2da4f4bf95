"""The columnar ``Floorplan``: construction, lazy Rects, pickling, and
the vectorized overlap sweep against the Python pair loop.

The packers write coordinate columns; ``Rect`` objects exist only for
results.  ``TestRectBudget`` pins that down without a wall clock: it
counts ``Rect`` constructions during whole anneals.
"""

import copyreg
import io
import math
import pickle
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_overlap
from repro.anneal import FloorplanObjective
from repro.anneal.schedule import GeometricSchedule
from repro.congestion import IrregularGridModel
from repro.engine import AnnealEngine
from repro.engine import representation as representation_module
from repro.floorplan import Floorplan, SequencePair, pack_sequence_pair
from repro.floorplan import floorplan as floorplan_module
from repro.geometry import Rect
from repro.netlist import Module, random_circuit


def count_rects(monkeypatch):
    """Patch ``Rect.__post_init__`` to count every Rect built."""
    counter = {"n": 0}
    original = Rect.__post_init__

    def counting(self):
        counter["n"] += 1
        original(self)

    monkeypatch.setattr(Rect, "__post_init__", counting)
    return counter


class TestConstruction:
    def test_from_origins_matches_mapping(self):
        fp = Floorplan.from_origins(
            ("a", "b"), [0.0, 2.0], [0.0, 0.5], [2.0, 3.0], [1.0, 2.5]
        )
        ref = Floorplan(
            {"a": Rect(0.0, 0.0, 2.0, 1.0), "b": Rect(2.0, 0.5, 5.0, 3.0)}
        )
        assert fp.module_names == ref.module_names == ("a", "b")
        assert fp.placements == ref.placements
        assert fp.chip == ref.chip == Rect(0.0, 0.0, 5.0, 3.0)
        assert fp.x_hi.tolist() == [2.0, 5.0]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Floorplan.from_origins(("a",), [0.0], [0.0], [-1.0], [1.0])
        with pytest.raises(ValueError, match="non-negative"):
            Floorplan.from_origins(("a",), [0.0], [0.0], [1.0], [-1.0])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Floorplan.from_origins(
                ("a", "a"), [0.0, 1.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]
            )

    def test_empty_and_ragged_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Floorplan.from_origins((), [], [], [], [])
        with pytest.raises(ValueError, match="length"):
            Floorplan.from_origins(("a",), [0.0, 1.0], [0.0], [1.0], [1.0])

    def test_explicit_chip_tolerance(self):
        fp = Floorplan.from_origins(
            ("a",), [0.0], [0.0], [5.0], [5.0 + 1e-12],
            chip=Rect(0.0, 0.0, 5.0, 5.0),
        )
        assert fp.chip.y_hi == 5.0 + 1e-12
        with pytest.raises(ValueError, match="does not contain"):
            Floorplan.from_origins(
                ("a",), [0.0], [0.0], [5.0], [5.0],
                chip=Rect(0.0, 0.0, 3.0, 3.0),
            )

    def test_columns_are_read_only(self):
        fp = Floorplan({"a": Rect(0, 0, 1, 1)})
        with pytest.raises(ValueError):
            fp.x_lo[0] = 5.0

    def test_mapping_constructor_keeps_the_given_rects(self):
        rect = Rect(0, 0, 2, 2)
        fp = Floorplan({"a": rect})
        assert fp.placement("a") is rect

    def test_rects_built_once_per_floorplan(self, monkeypatch):
        fp = Floorplan.from_origins(
            tuple("abc"), [0.0, 1.0, 2.0], [0.0] * 3, [1.0] * 3, [1.0] * 3
        )
        counter = count_rects(monkeypatch)
        first = fp.placements
        assert counter["n"] == 3
        assert fp.placements == first
        assert fp.placement("b") is first["b"]
        assert fp.center("c").x == 2.5
        assert counter["n"] == 3
        # placements stays a private copy.
        first.pop("a")
        assert "a" in fp.placements

    def test_module_area_sums_in_order(self):
        sides = [0.1, 0.2, 0.3, 0.7, 1.1]
        fp = Floorplan.from_origins(
            tuple("abcde"), np.cumsum([0.0] + sides[:-1]).tolist(),
            [0.0] * 5, sides, sides[::-1],
        )
        assert fp.module_area == sum(
            r.area for r in fp.placements.values()
        )


class TestRectBudget:
    """A pack builds one Rect, the chip outline; module Rects appear
    only when a result is materialized."""

    @pytest.mark.parametrize(
        "representation, packer",
        [("sp", "pack_sequence_pair"), ("btree", "pack_btree")],
    )
    def test_anneal_builds_no_module_rects(
        self, monkeypatch, representation, packer
    ):
        netlist = random_circuit(300, 1200, seed=1)
        grid = math.sqrt(netlist.total_module_area) / 30.0
        engine = AnnealEngine(
            netlist,
            objective=FloorplanObjective(
                netlist,
                alpha=1.0,
                beta=1.0,
                gamma=1.0,
                congestion_model=IrregularGridModel(grid, use_cache=True),
            ),
            representation=representation,
            seed=3,
            moves_per_temperature=10,
            schedule=GeometricSchedule(max_steps=2),
            calibrate=False,
        )
        packs = {"n": 0}
        pack = getattr(representation_module, packer)

        def counting_pack(*args, **kwargs):
            packs["n"] += 1
            return pack(*args, **kwargs)

        monkeypatch.setattr(representation_module, packer, counting_pack)
        counter = count_rects(monkeypatch)
        result = engine.run()
        assert result.perf.counters["evaluations"] > 10
        # Rect-building packers made 2 * 300 per pack.
        assert counter["n"] == packs["n"], (
            f"{counter['n']} Rects in {packs['n']} packs"
        )
        built = counter["n"]
        assert len(result.floorplan.placements) == 300
        assert counter["n"] == built + 300
        result.floorplan.validate()
        assert counter["n"] == built + 300


class _OldLayoutPickler(pickle.Pickler):
    """Pickles a Floorplan the way the Rect-dict layout did: the
    default ``object.__reduce_ex__`` image of its ``__dict__``."""

    def reducer_override(self, obj):
        if type(obj) is Floorplan:
            return copyreg.__newobj__, (Floorplan,), dict(obj.__dict__)
        return NotImplemented


def _old_layout_pickle(placements, chip) -> bytes:
    old = Floorplan.__new__(Floorplan)
    old.__dict__.update(_placements=dict(placements), chip=chip)
    buffer = io.BytesIO()
    _OldLayoutPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(old)
    return buffer.getvalue()


class TestPickle:
    def test_old_layout_unpickles_into_columns(self):
        placements = {
            "b": Rect(2.0, 0.0, 5.0, 3.0),
            "a": Rect(0.0, 0.0, 2.0, 2.0),
        }
        # The chip as the old constructor grew it: stored, not refolded.
        chip = Rect(0.0, 0.0, 5.0 + 1e-12, 3.0)
        blob = _old_layout_pickle(placements, chip)
        assert b"_placements" in blob
        fp = pickle.loads(blob)
        assert isinstance(fp, Floorplan)
        assert fp.module_names == ("b", "a")
        assert fp.x_lo.tolist() == [2.0, 0.0]
        assert fp.y_hi.tolist() == [3.0, 2.0]
        assert fp.chip == chip
        assert fp.placements == placements
        assert not fp.x_lo.flags.writeable
        fp.validate()
        # A re-pickled old floorplan is columnar.
        again = pickle.loads(pickle.dumps(fp))
        assert again.placements == placements
        assert again.chip == chip

    def test_round_trip_drops_the_rect_cache(self):
        rng = random.Random(5)
        mods = {
            f"m{i}": Module(f"m{i}", rng.uniform(1, 5), rng.uniform(1, 5))
            for i in range(40)
        }
        fp = pack_sequence_pair(SequencePair.initial(list(mods), rng), mods)
        fresh = pickle.dumps(fp)
        fp.placements  # materialize the cache
        assert pickle.dumps(fp) == fresh
        back = pickle.loads(fresh)
        assert back.module_names == fp.module_names
        for column in ("x_lo", "y_lo", "x_hi", "y_hi"):
            assert getattr(back, column).tobytes() == getattr(fp, column).tobytes()
            assert not getattr(back, column).flags.writeable
        assert back.chip == fp.chip
        assert back.placements == fp.placements


# Offsets relative to the layout scale: zero, ulp-sized dust, values
# either side of the 1e-9 * chip tolerance (chips span ~10 units),
# and real overlaps.
OFFSETS = (0.0, 1e-12, -1e-12, 5e-9, -5e-9, 1e-8, -1e-8, 2e-8, -2e-8, 1e-6, 0.5)


@st.composite
def near_touching_layouts(draw):
    n = draw(st.integers(1, 30))
    scale = draw(st.sampled_from((1.0, 1000.0)))
    offset = st.sampled_from(OFFSETS)
    names, xs, ys, ws, hs = [], [], [], [], []
    for i in range(n):
        names.append(f"m{i}")
        xs.append((draw(st.integers(0, 8)) + draw(offset)) * scale)
        ys.append((draw(st.integers(0, 8)) + draw(offset)) * scale)
        ws.append((draw(st.integers(1, 3)) + abs(draw(offset))) * scale)
        hs.append((draw(st.integers(1, 3)) + abs(draw(offset))) * scale)
    return Floorplan.from_origins(names, xs, ys, ws, hs)


class TestOverlapSweep:
    @settings(max_examples=300, deadline=None)
    @given(near_touching_layouts(), st.sampled_from((1, 7, 64)))
    def test_matches_pair_loop(self, fp, block):
        expected = list(reference_overlap.overlapping_pairs(fp))
        assert list(fp.overlapping_pairs()) == expected
        # Small blocks split the sweep at every possible row boundary.
        with mock.patch.object(floorplan_module, "_OVERLAP_BLOCK", block):
            assert list(fp.overlapping_pairs()) == expected

    def test_1000_module_packing_and_overlapping_copy(self):
        rng = random.Random(9)
        mods = {
            f"m{i}": Module(f"m{i}", rng.uniform(1, 9), rng.uniform(1, 9))
            for i in range(1000)
        }
        fp = pack_sequence_pair(SequencePair.initial(list(mods), rng), mods)
        assert list(fp.overlapping_pairs()) == []
        # Shift every other module onto its neighbour's spot.
        x = fp.x_lo.copy()
        x[1::2] = x[0::2][: len(x[1::2])]
        width = fp.x_hi - fp.x_lo
        shifted = Floorplan.from_origins(
            fp.module_names, x, fp.y_lo, width, fp.y_hi - fp.y_lo
        )
        expected = list(reference_overlap.overlapping_pairs(shifted))
        assert expected
        assert list(shifted.overlapping_pairs()) == expected
        with pytest.raises(ValueError, match="overlapping"):
            shifted.validate()
