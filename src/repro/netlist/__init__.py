"""Circuit model: modules, nets and their 2-pin decomposition.

The paper's problem instance (Section 2) is a set of rectangular modules
and a set of 2-pin nets; real benchmark circuits have multi-pin nets,
which the experiments decompose into 2-pin nets with a minimum spanning
tree over Manhattan distance (Section 5).  This package provides:

* :class:`~repro.netlist.module.Module` -- a hard rectangular block;
* :class:`~repro.netlist.net.Net` -- a multi-pin net over module names;
* :class:`~repro.netlist.net.TwoPinNet` -- a placed 2-pin net with the
  paper's type-I/type-II orientation classification;
* :class:`~repro.netlist.netlist.Netlist` -- the circuit container;
* :func:`~repro.netlist.decompose.decompose_to_two_pin` -- the MST
  decomposition;
* :mod:`~repro.netlist.generators` -- seeded synthetic circuits.
"""

from repro.netlist.module import Module
from repro.netlist.net import Net, NetType, TwoPinNet
from repro.netlist.netlist import Netlist
from repro.netlist.decompose import (
    batched_mst_edges,
    decompose_to_two_pin,
    mst_edges,
    star_decomposition,
)
from repro.netlist.edge_arrays import (
    TwoPinArrays,
    arrays_to_nets,
    classify_edges,
    nets_to_arrays,
)
from repro.netlist.soft import SoftModule, soften
from repro.netlist.generators import (
    random_circuit,
    clustered_circuit,
    grid_circuit,
)

__all__ = [
    "Module",
    "Net",
    "NetType",
    "TwoPinNet",
    "Netlist",
    "SoftModule",
    "soften",
    "TwoPinArrays",
    "nets_to_arrays",
    "arrays_to_nets",
    "classify_edges",
    "batched_mst_edges",
    "decompose_to_two_pin",
    "mst_edges",
    "star_decomposition",
    "random_circuit",
    "clustered_circuit",
    "grid_circuit",
]
