"""Index certificates for klt Calabi-Yau pairs with standard coefficients.

Builds explicit, machine-checkable witnesses that an integer m is the index
of a Kawamata log terminal Calabi-Yau pair of a given dimension whose
boundary coefficients have the form 1 - 1/b, and independently re-verifies
every witness in exact rational arithmetic. Any m with phi(m) <= 2n is
realized in dimension n - 1 (n >= 3).
"""

from .numtheory import (
    euler_phi,
    factorize,
    indices_with_phi_at_most,
    sylvester_bound,
)
from .wpspairs import (
    LogLeaf,
    NotQuasiHomogeneous,
    SparsePoly,
    StdCoeff,
    Wps,
    canonical_degree,
    is_well_formed,
    log_degree,
    pair_index,
    weighted_degree,
)
from .sncklt import (
    KltReport,
    KltStep,
    family_snc_check,
    hyperplane_arrangement_snc,
    is_klt_leaf,
    plane_arrangement_snc,
)
from .certify import (
    Certificate,
    CertificateParseError,
    EllipticLeaf,
    Product,
    VerificationReport,
    WpsLeaf,
    base_leaf,
    build_index_prime,
    build_prime_power,
    build_sylvester,
    certificate_dim,
    certificate_dumps,
    certificate_from_obj,
    certificate_index,
    certificate_loads,
    check_dim_inequality,
    realize,
    search_plane_pair,
    verify_certificate,
)

__all__ = [
    "euler_phi",
    "factorize",
    "indices_with_phi_at_most",
    "sylvester_bound",
    "LogLeaf",
    "NotQuasiHomogeneous",
    "SparsePoly",
    "StdCoeff",
    "Wps",
    "canonical_degree",
    "is_well_formed",
    "log_degree",
    "pair_index",
    "weighted_degree",
    "KltReport",
    "KltStep",
    "family_snc_check",
    "hyperplane_arrangement_snc",
    "is_klt_leaf",
    "plane_arrangement_snc",
    "Certificate",
    "CertificateParseError",
    "EllipticLeaf",
    "Product",
    "VerificationReport",
    "WpsLeaf",
    "base_leaf",
    "build_index_prime",
    "build_prime_power",
    "build_sylvester",
    "certificate_dim",
    "certificate_dumps",
    "certificate_from_obj",
    "certificate_index",
    "certificate_loads",
    "check_dim_inequality",
    "realize",
    "search_plane_pair",
    "verify_certificate",
]
