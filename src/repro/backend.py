"""Compute-lane provenance: numpy is the only lane.

Benchmarks record ``make_backend().name`` as the lane their numbers
came from; DESIGN.md §11 says what would justify a second lane.
"""

from types import SimpleNamespace

__all__ = ["make_backend"]

_NUMPY = SimpleNamespace(name="numpy")


def make_backend(name=None):
    """The numpy lane's record; any other ``name`` is a ``ValueError``."""
    if name not in (None, "numpy"):
        raise ValueError(f"unknown backend {name!r}; the only one is 'numpy'")
    return _NUMPY
