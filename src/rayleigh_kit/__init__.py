"""Rayleigh-difference toolkit for matroid basis generating polynomials.

Computes Rayleigh differences Delta M{e,f} of matroid basis generating
polynomials exactly, builds the explicit sum-of-squares style certificate
showing every rank-3 matroid is Rayleigh, and enumerates all small
rank-3 matroids to confirm the statement exhaustively.
"""

from .matroid import (
    Matroid,
    from_geometry,
    is_isomorphic,
    lines_of,
    loads_matroid,
    dumps_matroid,
    with_parallel_copy,
)
from .poly import (
    GGHH,
    GGHI,
    GHIJ,
    Polynomial,
    dominates,
    format_polynomial,
    parse_polynomial,
    reciprocal_transform,
)
from .rayleigh import (
    InjectionRecord,
    PairContext,
    central_term,
    closed_pair_filter,
    decomposition_check,
    generating_polynomial,
    lemma31_injection,
    minor_polynomial,
    negative_correlation_check,
    negative_correlation_sample,
    rayleigh_difference,
    theta_dominance_check,
)
from .catalog import (
    EnumerationResult,
    NamedInstance,
    catalog_names,
    enumerate_simple_rank3,
    instance,
    named,
    uniform,
)
from .certificate import (
    AnsatzParts,
    CertificateReport,
    ReductionResult,
    TableReport,
    ansatz_parts,
    ansatz_polynomial,
    certify,
    lemma33_reduce,
    table_coefficients,
)

__version__ = "0.1.0"
