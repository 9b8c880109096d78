"""Monogenicity of number fields cut out by x**n + a*x**2 + b*x + c, b**2 = 4ac.

The package decides, in exact integer arithmetic, which primes divide the
index [O_K : Z[theta]] for theta a root of such a quadrinomial, and from that
the monogenicity of K, the exact index where determined, and |disc K|.
Every verdict can be cross-checked against an independent implementation of
the Dedekind index criterion.
"""

from .dedekind import DedekindWitness, compute_M, dedekind_divides_index
from .discriminant import (
    QuadrinomialSpec,
    double_root_divisibility_test,
    quadrinomial_discriminant,
)
from .families import FamilyTemplate, SearchEntry, generate_spec, search_family
from .index_criteria import (
    CaseTag,
    CaseVerdict,
    MonogenicityVerdict,
    prime_divides_index,
    shared_support_fastpath,
)
from .integer_core import (
    DEFAULT_EFFORT,
    DEFAULT_SEED,
    EffortConfig,
    IntFactorization,
    SquarefreeStatus,
    factor_integer,
    is_prime,
    p_valuation,
    squarefree_status,
)
from .polynomials import (
    FpPoly,
    FpPolyFactorization,
    ZPoly,
    discriminant_via_resultant,
    factor_mod_p,
    resultant,
)
from .report import (
    AnalysisReport,
    IndexStatus,
    IrreducibilityStatus,
    PrimeVerdict,
    ReduciblePolynomialError,
    analyze,
    cross_check_with_dedekind,
    irreducibility_check,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CaseTag",
    "CaseVerdict",
    "DEFAULT_EFFORT",
    "DEFAULT_SEED",
    "DedekindWitness",
    "EffortConfig",
    "FamilyTemplate",
    "FpPoly",
    "FpPolyFactorization",
    "IndexStatus",
    "IntFactorization",
    "IrreducibilityStatus",
    "MonogenicityVerdict",
    "PrimeVerdict",
    "QuadrinomialSpec",
    "ReduciblePolynomialError",
    "SearchEntry",
    "SquarefreeStatus",
    "ZPoly",
    "analyze",
    "compute_M",
    "cross_check_with_dedekind",
    "dedekind_divides_index",
    "discriminant_via_resultant",
    "double_root_divisibility_test",
    "factor_integer",
    "factor_mod_p",
    "generate_spec",
    "irreducibility_check",
    "is_prime",
    "p_valuation",
    "prime_divides_index",
    "quadrinomial_discriminant",
    "resultant",
    "search_family",
    "shared_support_fastpath",
    "squarefree_status",
]
