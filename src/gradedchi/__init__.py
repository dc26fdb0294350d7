"""Exact Euler characteristics of graded quotient rings.

The library computes the rational closed form of the alternating Tor series
chi(M, N)(t) for quotients of weighted polynomial rings, evaluates it at
t = 1 to an intersection multiplicity (finite, fractional, zero, or
infinite), and can cross-check the closed form against brute-force truncated
Tor computations. All arithmetic is exact.
"""

from .arith import (
    INFINITY,
    Infinity,
    IntPoly,
    RatFun,
    eval_at_one,
    format_t_poly,
    one_minus_t_valuation,
    ratfun_normalize,
    series_expand,
    weights_denominator,
)
from .chi import (
    ChiResult,
    Trichotomy,
    ab_decompose,
    cartier_mult,
    chi_series,
    classify,
    compute_chi,
    gulliksen_chi,
    qcartier_mult,
)
from .errors import (
    AlgebraError,
    HomogeneityError,
    ImproperIntersectionError,
    SessionError,
)
from .groebner import (
    GroebnerBasis,
    buchberger,
    reduce_against,
)
from .hilbert import (
    DimMult,
    HilbertSeries,
    dim_and_mult,
    hilbert_numerator,
    hilbert_series,
)
from .homology import (
    TorTable,
    TruncatedResolution,
    chi_truncated,
    naive_series,
    tor_table,
    truncated_resolution,
)
from .rings import (
    QQ,
    GradedRing,
    Poly,
    PolyRing,
    PrimeField,
    field_from_name,
)
from .session import (
    Command,
    Session,
    parse_polynomial,
    parse_rational_function,
    parse_session,
    parse_t_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "ChiResult",
    "Command",
    "DimMult",
    "GradedRing",
    "GroebnerBasis",
    "HilbertSeries",
    "HomogeneityError",
    "INFINITY",
    "ImproperIntersectionError",
    "Infinity",
    "IntPoly",
    "Poly",
    "PolyRing",
    "PrimeField",
    "QQ",
    "RatFun",
    "Session",
    "SessionError",
    "TorTable",
    "Trichotomy",
    "TruncatedResolution",
    "ab_decompose",
    "buchberger",
    "cartier_mult",
    "chi_series",
    "chi_truncated",
    "classify",
    "compute_chi",
    "dim_and_mult",
    "eval_at_one",
    "field_from_name",
    "format_t_poly",
    "gulliksen_chi",
    "hilbert_numerator",
    "hilbert_series",
    "naive_series",
    "one_minus_t_valuation",
    "parse_polynomial",
    "parse_rational_function",
    "parse_session",
    "parse_t_polynomial",
    "qcartier_mult",
    "ratfun_normalize",
    "reduce_against",
    "series_expand",
    "tor_table",
    "truncated_resolution",
    "weights_denominator",
]
