"""Exact mixable shuffle algebras, free Rota-Baxter algebras, and
bounded-degree verification of their structure theory."""

from .rings import Ring, Matrix, SparseEliminator, p_adic_valuation, \
    base_power_multinomial
from .semigroups import Element, OrderedSemigroup, FreeAbelian, OrderedSet, \
    FiniteTableSemigroup, ElementaryPGroup, Unitarized, ProductSemigroup, \
    cyclic_group_table, min_semilattice, flat_semilattice, \
    semigroup_from_preset
from .words import Word, empty_word, word_compare, is_lyndon, \
    enumerate_words, enumerate_lyndon, cfl_factorize, \
    componentwise_p_power, operator_T, operator_E, subscript_split, \
    standard_generating_sets, tel2_orbit_check
from .shuffle import TensorPoly, word_poly, shuffle_oracle, graded_basis, \
    length_rescale, with_weight, eettl_representative
from .rota_baxter import RBElement, alphabet_generators
from .verify import ConfigurationError, VerificationReport, CellRecord, \
    CheckRecord, GeneratorSymbol, PresentedAlgebra, word_symbol, \
    check_relations, check_independence, check_spanning, \
    verify_radford_hoffman, verify_fp_weight0, verify_fp_nonzero, \
    verify_zp, compute_cokernel_basis, verify_z_polynomial, \
    verify_nested_summand, verify_rb_structure, verify_semigroup_props
from .cli import main

__version__ = "0.1.0"

__all__ = [
    "Ring", "Matrix", "SparseEliminator", "p_adic_valuation",
    "base_power_multinomial",
    "Element", "OrderedSemigroup", "FreeAbelian", "OrderedSet",
    "FiniteTableSemigroup", "ElementaryPGroup", "Unitarized",
    "ProductSemigroup", "cyclic_group_table", "min_semilattice",
    "flat_semilattice", "semigroup_from_preset",
    "Word", "empty_word", "word_compare", "is_lyndon", "enumerate_words",
    "enumerate_lyndon", "cfl_factorize", "componentwise_p_power",
    "operator_T", "operator_E", "subscript_split",
    "standard_generating_sets", "tel2_orbit_check",
    "TensorPoly", "word_poly", "shuffle_oracle", "graded_basis",
    "length_rescale", "with_weight",
    "eettl_representative",
    "RBElement", "alphabet_generators",
    "ConfigurationError", "VerificationReport", "CellRecord", "CheckRecord",
    "GeneratorSymbol", "PresentedAlgebra", "word_symbol",
    "check_relations", "check_independence", "check_spanning",
    "verify_radford_hoffman", "verify_fp_weight0", "verify_fp_nonzero",
    "verify_zp", "compute_cokernel_basis", "verify_z_polynomial",
    "verify_nested_summand", "verify_rb_structure",
    "verify_semigroup_props",
    "main",
]
