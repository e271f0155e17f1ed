"""Finite G-set calculus, weak indexing systems, transfer systems, and a
brute-force equivariant Eckmann-Hilton engine, all at exhaustive desk scale."""

from .errors import (CheckReport, CutoffOverflowError, GuardExceededError,
                     TheoremViolation, ValidationError)
from .groups import (FiniteGroup, Subgroup, SubgroupLattice, cyclic_group,
                     direct_product, subgroup_lattice, subgroups, trivial_group)
from .gsets import (GSet, GSetMap, Span, coinduce, compose_spans,
                    distinguished_fixed_point, double_cosets, equivariant_maps,
                    fixed_points, from_orbit_types, hom_count, induce,
                    is_isomorphic, orbit_decompose, orbit_projection, pullback,
                    restrict, spans_equivalent, terminal_map)
from .indexing import (LevelTables, TransferSystem, WeakIndexingSystem,
                       close_system, default_cutoff, enumerate_systems,
                       enumerate_transfer_systems, f_complete, f_infinity,
                       f_trivial, f_zero, join, level_tables, meet,
                       system_check, transfer_check, transfer_system_of,
                       truncate_system)
from .category import (WeakIndexingCategory, close_category,
                       enumerate_categories, generate_category,
                       is_weak_indexing_category, map_class_of)
from .magmas import (CoefficientSystem, CpUnitalMagma, InterchangePair,
                     SemiMackeyFunctor, check_interchange, eckmann_hilton,
                     enumerate_interchanging_pairs, enumerate_semi_mackey,
                     is_homomorphism, pair_from_json, pair_homs,
                     pair_of_semi_mackey, pair_to_json, semi_mackey_check,
                     semi_mackey_homs, validate_magma)
from .connectivity import (INF, ConnFunction, RepDimension, conn_add,
                           conn_join_bound, conn_n_infty, conn_shift,
                           disk_conn_c2, disk_conn_general, disk_conn_value,
                           non_additivity_witness)
from .poset import Poset, fingerprint

__all__ = [
    "CutoffOverflowError", "GuardExceededError", "TheoremViolation",
    "ValidationError",
    "FiniteGroup", "Subgroup", "SubgroupLattice", "cyclic_group",
    "direct_product", "subgroup_lattice", "subgroups", "trivial_group",
    "GSet", "GSetMap", "Span", "coinduce", "compose_spans",
    "distinguished_fixed_point", "double_cosets", "equivariant_maps",
    "fixed_points", "from_orbit_types", "hom_count", "induce",
    "is_isomorphic", "orbit_decompose", "orbit_projection", "pullback",
    "restrict", "spans_equivalent", "terminal_map",
    "CheckReport", "LevelTables", "TransferSystem", "WeakIndexingSystem",
    "close_system", "default_cutoff", "enumerate_systems",
    "enumerate_transfer_systems", "f_complete", "f_infinity", "f_trivial",
    "f_zero", "join", "level_tables", "meet",
    "system_check", "transfer_check", "transfer_system_of", "truncate_system",
    "WeakIndexingCategory", "close_category", "enumerate_categories",
    "generate_category", "is_weak_indexing_category", "map_class_of",
    "CoefficientSystem", "CpUnitalMagma", "InterchangePair",
    "SemiMackeyFunctor", "check_interchange", "eckmann_hilton",
    "enumerate_interchanging_pairs", "enumerate_semi_mackey",
    "is_homomorphism", "pair_from_json", "pair_homs", "pair_of_semi_mackey",
    "pair_to_json", "semi_mackey_check", "semi_mackey_homs", "validate_magma",
    "INF", "ConnFunction", "RepDimension", "conn_add",
    "conn_join_bound", "conn_n_infty", "conn_shift", "disk_conn_c2",
    "disk_conn_general", "disk_conn_value", "non_additivity_witness",
    "Poset", "fingerprint",
]
