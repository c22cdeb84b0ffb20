"""Exact-arithmetic stability engine for rank-1 sheaf types on the dual
graphs of marked nodal curves: polarization recipes compiled to rational
vertex weights, (semi/quasi)stability verdicts and enumeration, generality
of profiles, clutching/forgetful transport, Abel-Jacobi sections and
phi-table translation, backed by exact Laplacian oracles."""

from .corpus import are_isomorphic, canonical_key, generate_corpus
from .errors import JacstabError, PreconditionError, ValidationError
from .graphs import (ContractionReport, MarkedDualGraph, NodeTypeLabel,
                     SubcurveInvariants, admissible_labels, boundary_degree,
                     node_type, proper_subcurves, stabilize_forgetting,
                     subcurve_invariants)
from .lattice import complexity, laplacian, multidegrees_equivalent
from .maps import (PhiTable, abel_jacobi, check_star, clutch_irr,
                   clutch_irr_polarization, clutch_sep,
                   clutch_sep_polarization, forget_point,
                   forget_polarization, kp_translate, two_component_graph)
from .polarization import (CanonicalPolarization, ExplicitPolarization,
                           QProfile, compile_polarization, is_general,
                           make_profile, perturb_general, twist_profile)
from .sheaves import SheafType, d_of, deg_subcurve, is_simple, twist
from .stability import (StabilityVerdict, check, count_components,
                        enumerate_sheaves)

__version__ = "0.1.0"

__all__ = [
    "CanonicalPolarization",
    "ContractionReport",
    "ExplicitPolarization",
    "JacstabError",
    "MarkedDualGraph",
    "NodeTypeLabel",
    "PhiTable",
    "PreconditionError",
    "QProfile",
    "SheafType",
    "StabilityVerdict",
    "SubcurveInvariants",
    "ValidationError",
    "abel_jacobi",
    "admissible_labels",
    "are_isomorphic",
    "boundary_degree",
    "canonical_key",
    "check",
    "check_star",
    "clutch_irr",
    "clutch_irr_polarization",
    "clutch_sep",
    "clutch_sep_polarization",
    "compile_polarization",
    "complexity",
    "count_components",
    "d_of",
    "deg_subcurve",
    "enumerate_sheaves",
    "forget_point",
    "forget_polarization",
    "generate_corpus",
    "is_general",
    "is_simple",
    "kp_translate",
    "laplacian",
    "make_profile",
    "multidegrees_equivalent",
    "node_type",
    "perturb_general",
    "proper_subcurves",
    "stabilize_forgetting",
    "subcurve_invariants",
    "twist",
    "twist_profile",
    "two_component_graph",
]
