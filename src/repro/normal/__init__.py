"""Normal logic program substrate.

The paper constantly compares HiLog notions with their classical
counterparts on *normal* programs (programs whose predicate names are plain
symbols).  This package implements those classical notions exactly as the
paper states them:

* range restriction (Definition 4.1),
* the predicate dependency graph (the graph structure and its component
  analysis are :mod:`repro.hilog.depgraph`, re-exported here),
* stratification (Definition 6.1) and local stratification (Definition 6.2),
* modular stratification in the sense of Ross'90 (Definitions 6.3/6.4) with
  the accompanying perfect-model computation,
* classification helpers (is the program normal, EDB/IDB split, predicate
  signatures).
"""

from repro.normal.classify import (
    PredicateSignature,
    edb_predicates,
    idb_predicates,
    is_normal_program,
    predicate_signatures,
)
from repro.normal.range_restriction import is_range_restricted_normal, unrestricted_rules
from repro.normal.depgraph import (
    DependencyGraph,
    predicate_dependency_graph,
    strongly_connected_components,
)
from repro.normal.stratification import (
    is_locally_stratified_ground,
    is_stratified,
    stratification_levels,
)
from repro.normal.modular import (
    ModularStratificationResult,
    is_modularly_stratified,
    modular_stratification,
    reduce_component,
)

__all__ = [
    "PredicateSignature",
    "is_normal_program",
    "predicate_signatures",
    "edb_predicates",
    "idb_predicates",
    "is_range_restricted_normal",
    "unrestricted_rules",
    "DependencyGraph",
    "predicate_dependency_graph",
    "strongly_connected_components",
    "is_stratified",
    "stratification_levels",
    "is_locally_stratified_ground",
    "ModularStratificationResult",
    "modular_stratification",
    "is_modularly_stratified",
    "reduce_component",
]
