"""Network topology generators and graph utilities.

Generators return :class:`networkx.Graph` objects with nodes labelled
``0..n-1``.  :class:`Topology` keeps only their sorted CSR adjacency, the
form the simulators execute on; :meth:`Topology.from_edges` builds the
same CSR from an edge array.
"""

from .topology import Topology
from .generators import (
    complete_bipartite_with_isolated,
    complete_graph,
    cycle_graph,
    disk_graph,
    gnp_graph,
    grid_graph,
    path_graph,
    random_regular_graph,
    star_graph,
    balanced_tree_graph,
    expander_graph,
    hypercube_graph,
    torus_graph,
    barbell_graph,
    caterpillar_graph,
    powerlaw_graph,
    FamilyParam,
    TopologyFamily,
    register_family,
    get_family,
    family_names,
    topology_families,
    build_family_graph,
)
from .validation import (
    assert_valid_topology,
    max_degree,
    relabel_consecutive,
)
from .hard_instances import (
    LocalBroadcastInstance,
    local_broadcast_hard_instance,
    matching_hard_instance,
)

__all__ = [
    "Topology",
    "complete_bipartite_with_isolated",
    "complete_graph",
    "cycle_graph",
    "disk_graph",
    "gnp_graph",
    "grid_graph",
    "path_graph",
    "random_regular_graph",
    "star_graph",
    "balanced_tree_graph",
    "expander_graph",
    "hypercube_graph",
    "torus_graph",
    "barbell_graph",
    "caterpillar_graph",
    "powerlaw_graph",
    "FamilyParam",
    "TopologyFamily",
    "register_family",
    "get_family",
    "family_names",
    "topology_families",
    "build_family_graph",
    "assert_valid_topology",
    "max_degree",
    "relabel_consecutive",
    "LocalBroadcastInstance",
    "local_broadcast_hard_instance",
    "matching_hard_instance",
]
