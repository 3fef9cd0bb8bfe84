"""Exact reasoning about partial implications at a confidence threshold.

The package decides whether a set of partial implications (association
rules with a confidence parameter) entails another one over all datasets,
producing either multiplier certificates or counterexample datasets, and
builds on that to check homogeneity of rule sets, bracket critical
thresholds, and prune redundant rules.  All arithmetic is exact.
"""

from .model import (
    AttrSet,
    AttributeCapError,
    AttributeUniverse,
    CoverStatus,
    Dataset,
    PartialImplication,
    UniverseMismatchError,
    as_rational,
    cover_status,
    satisfies,
    support,
    weight,
)
from .homogeneity import (
    ImplicationSet,
    enforces_homogeneity,
    horn_closure,
)
from .entailment import (
    ConstraintSignature,
    EntailmentQuery,
    EntailmentVerdict,
    Method,
    ProperEntailmentResult,
    Regime,
    check_certificate,
    decide,
    decide_lp,
    find_certificate_violation,
    properly_entails,
    prune,
)
from .threshold import (
    ThresholdBracket,
    critical_threshold,
    decide_general,
    feasible_at,
    max_ratio,
)
from .cli import parse_gamma, parse_rules, run

__version__ = "0.1.0"

__all__ = [
    "AttrSet",
    "AttributeCapError",
    "AttributeUniverse",
    "ConstraintSignature",
    "CoverStatus",
    "Dataset",
    "EntailmentQuery",
    "EntailmentVerdict",
    "ImplicationSet",
    "Method",
    "PartialImplication",
    "ProperEntailmentResult",
    "Regime",
    "ThresholdBracket",
    "UniverseMismatchError",
    "as_rational",
    "check_certificate",
    "cover_status",
    "critical_threshold",
    "decide",
    "decide_general",
    "decide_lp",
    "enforces_homogeneity",
    "feasible_at",
    "find_certificate_violation",
    "horn_closure",
    "max_ratio",
    "parse_gamma",
    "parse_rules",
    "properly_entails",
    "prune",
    "run",
    "satisfies",
    "support",
    "weight",
]
