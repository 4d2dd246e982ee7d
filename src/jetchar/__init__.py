"""jetchar: graded super-polynomial jets and character verification.

Build truncated jet algebras of finitely presented graded super-polynomial
rings, compute their graded dimensions by exact rational linear algebra,
and compare them degree by degree against character series and
combinatorial spanning-set counts.
"""

from .superring import VariableSpec, RingSpec
from .jetquot import (DEFAULT_MONOMIAL_LIMIT, ResourceLimitError,
                      enumerate_monomials, hilbert_series, contains)
from .qseries import QSeries
from .combinat import ColoredRules, GhRules, Dk1Rules, count_constrained
from .models import (Model, VerificationReport, REGISTRY, get_model,
                     model_keys, verify, matches_expectation,
                     qseries_formula, FORMULA_KEYS, load_registry_file)
from . import qseries

__version__ = "1.0.0"

__all__ = [
    "VariableSpec", "RingSpec",
    "DEFAULT_MONOMIAL_LIMIT", "ResourceLimitError", "enumerate_monomials",
    "hilbert_series", "contains",
    "QSeries", "qseries",
    "ColoredRules", "GhRules", "Dk1Rules", "count_constrained",
    "Model", "VerificationReport", "REGISTRY", "get_model", "model_keys",
    "verify", "matches_expectation",
    "qseries_formula", "FORMULA_KEYS", "load_registry_file",
]
