"""Rayleigh-difference toolkit for matroid basis generating polynomials.

Computes Rayleigh differences Delta M{e,f} of matroid basis generating
polynomials exactly, builds the explicit sum-of-squares style certificate
showing every rank-3 matroid is Rayleigh, and enumerates all small
rank-3 matroids to confirm the statement exhaustively.

Importing the package loads none of its modules: each public name below is
imported from its module on first use (PEP 562), and each module holds only
the code its commands run, so a call compiles only the code it runs: the
census never compiles the certificate code, and only the coefficient tables
compile `tables`.
"""

from importlib import import_module

__version__ = "0.1.0"
# The schema of every JSON report the package writes.
REPORT_SCHEMA = "rayleigh-kit/1"
# The degree-4 monomial shapes (see `poly`), named here so that the command
# line parser offers them without loading the polynomial code.
GGHH = "GGHH"
GGHI = "GGHI"
GHIJ = "GHIJ"


def _reserved_in(text: str) -> bool:
    """Whether text holds whitespace, `*`, `^` or `,`, which no element id may:
    polynomial text splits on the first three, and `--pairs e,f` on `,`."""
    return any(ch.isspace() or ch in "*^," for ch in text)


_EXPORTS = {
    "matroid": (
        "Matroid", "from_geometry", "lines_of",
        "loads_matroid", "dumps_matroid", "with_parallel_copy",
    ),
    "poly": (
        "Polynomial", "dominates",
        "format_polynomial", "parse_polynomial", "reciprocal_transform",
    ),
    "rayleigh": (
        "InjectionRecord", "central_term", "closed_pair_filter",
        "decomposition_check", "generating_polynomial", "lemma31_injection",
        "minor_polynomial", "negative_correlation_check",
        "negative_correlation_sample", "rayleigh_difference",
        "theta_dominance_check",
    ),
    "catalog": (
        "EnumerationResult", "NamedInstance", "catalog_names",
        "enumerate_simple_rank3", "instance", "named", "uniform",
    ),
    "certificate": (
        "AnsatzParts", "CertificateReport", "ReductionResult",
        "ansatz_parts", "certify", "lemma33_reduce",
        "table_coefficients",
    ),
    "tables": ("TableReport",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["GGHH", "GGHI", "GHIJ", *_HOME]


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _EXPORTS:  # a module, as after the eager init
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
