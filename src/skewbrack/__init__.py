"""Exact Gerstenhaber brackets on the Hochschild cohomology of skew group
algebras of polynomial rings, for finite linear group actions in
characteristic zero."""

from .scalars import Cyc, parse_scalar, print_scalar
from .linalg import Matrix
from .polyvec import Poly, Polyvector, euler_field, schouten
from .groups import enumerate_group, geometry, resolve_word
from .cochain import (
    Cochain,
    cohomology_basis,
    cohomology_dim_character,
    cohomology_dim_direct,
    differential,
    is_coboundary,
    is_cocycle,
    is_invariant,
    is_reduced,
    project,
    reynolds,
    support_codim,
    volume_form,
)
from .bracket import (
    BracketReport,
    gerstenhaber,
    minimal_degree_vanishing,
    perp_vanishing_applies,
)

__version__ = "0.1.0"

__all__ = [
    "BracketReport",
    "Cochain",
    "Cyc",
    "Matrix",
    "Poly",
    "Polyvector",
    "cohomology_basis",
    "cohomology_dim_character",
    "cohomology_dim_direct",
    "differential",
    "enumerate_group",
    "euler_field",
    "geometry",
    "gerstenhaber",
    "is_coboundary",
    "is_cocycle",
    "is_invariant",
    "is_reduced",
    "minimal_degree_vanishing",
    "parse_scalar",
    "perp_vanishing_applies",
    "print_scalar",
    "project",
    "resolve_word",
    "reynolds",
    "schouten",
    "support_codim",
    "volume_form",
]
