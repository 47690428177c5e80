"""Embedded dependencies: tgds, egds, builders, regularization, weak acyclicity."""

from .base import EGD, TGD, Dependency, DependencySet, normalise_embedded_dependency
from .builders import (
    fd_to_egd,
    foreign_key,
    functional_dependency_egd,
    inclusion_dependency,
    key_egds,
)
from .classify import (
    egd_as_positional_fd,
    extract_positional_fds,
    is_key_based_tgd,
    is_superkey_positions,
)
from .regularize import (
    is_regularized,
    is_regularized_set,
    regularize,
    regularize_dependencies,
    regularize_tgd,
)
from .tuple_ids import (
    augment_schema_with_tuple_ids,
    dependency_set_with_tuple_ids,
    detect_set_enforcing_predicates,
    is_set_enforcing_egd,
    set_enforcing_egd,
    set_enforcing_egds_for,
    tid_projection_query,
)
from .weak_acyclicity import dependency_graph, is_weakly_acyclic, special_edges_on_cycles

__all__ = [
    "EGD",
    "TGD",
    "Dependency",
    "DependencySet",
    "augment_schema_with_tuple_ids",
    "dependency_graph",
    "dependency_set_with_tuple_ids",
    "detect_set_enforcing_predicates",
    "egd_as_positional_fd",
    "extract_positional_fds",
    "fd_to_egd",
    "foreign_key",
    "functional_dependency_egd",
    "inclusion_dependency",
    "is_key_based_tgd",
    "is_regularized",
    "is_regularized_set",
    "is_set_enforcing_egd",
    "is_superkey_positions",
    "is_weakly_acyclic",
    "key_egds",
    "normalise_embedded_dependency",
    "regularize",
    "regularize_dependencies",
    "regularize_tgd",
    "set_enforcing_egd",
    "set_enforcing_egds_for",
    "special_edges_on_cycles",
    "tid_projection_query",
]
