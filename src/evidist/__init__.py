"""Toolkit for basic belief assignments on ordered frames of discernment.

Mass functions, Dempster's rule, the pignistic transformation, three
evidence distance measures (Jousselme, betting commitments, and the
order-aware ranking evidence distance), and distance-based ranking of
BBAs against a reference. See the CLI in :mod:`evidist.cli` for the
file-driven interface. The package uses the standard library only.
"""

from .combination import combine_all, combine_dempster, conflict
from .core import (
    Bba,
    FocalSet,
    Frame,
    build_bba,
    build_frame,
    focal_sort_key,
    mass_of,
    vacuous_bba,
)
from .distance import (
    DistanceMeasure,
    correlation_matrix,
    jaccard_similarity,
    jousselme_distance,
    red_distance,
    red_reduces_to_jousselme,
)
from .document import EvidenceDocument, parse_document, serialize_document
from .errors import (
    DocumentError,
    EvidenceError,
    FrameMismatchError,
    NumericalError,
    TotalConflictError,
    ValidationError,
)
from .pignistic import BetPMode, PignisticDistribution, betp_of_subset, dif_betp, ppt
from .ranking import RankedCandidate, RankingResult, rank_by_distance

__version__ = "0.1.0"

__all__ = [
    "Bba",
    "BetPMode",
    "DistanceMeasure",
    "DocumentError",
    "EvidenceDocument",
    "EvidenceError",
    "FocalSet",
    "Frame",
    "FrameMismatchError",
    "NumericalError",
    "PignisticDistribution",
    "RankedCandidate",
    "RankingResult",
    "TotalConflictError",
    "ValidationError",
    "betp_of_subset",
    "build_bba",
    "build_frame",
    "combine_all",
    "combine_dempster",
    "conflict",
    "correlation_matrix",
    "dif_betp",
    "focal_sort_key",
    "jaccard_similarity",
    "jousselme_distance",
    "mass_of",
    "parse_document",
    "ppt",
    "rank_by_distance",
    "red_distance",
    "red_reduces_to_jousselme",
    "serialize_document",
    "vacuous_bba",
    "__version__",
]
