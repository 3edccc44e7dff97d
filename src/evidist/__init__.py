"""Toolkit for basic belief assignments on ordered frames of discernment.

Mass functions, Dempster's rule, the pignistic transformation, three
evidence distance measures (Jousselme, betting commitments, and the
order-aware ranking evidence distance), and distance-based ranking of
BBAs against a reference. See the CLI in :mod:`evidist.cli` for the
file-driven interface. The package uses the standard library only.

The public names below resolve on first use (PEP 562), so a process
compiles only the submodules it touches; each submodule is also an
attribute of the package, as ``evidist.core``.
"""

__version__ = "0.1.0"

_PUBLIC = {
    "combination": "combine_all combine_dempster conflict",
    "core": "Bba FocalSet Frame build_bba build_frame focal_sort_key mass_of vacuous_bba",
    "distance": (
        "DistanceMeasure correlation_matrix jaccard_similarity jousselme_distance"
        " red_distance red_reduces_to_jousselme"
    ),
    "document": "EvidenceDocument parse_document serialize_document",
    "errors": (
        "DocumentError EvidenceError FrameMismatchError NumericalError"
        " TotalConflictError ValidationError"
    ),
    "pignistic": "BetPMode PignisticDistribution betp_of_subset dif_betp ppt",
    "ranking": "RankedCandidate RankingResult rank_by_distance",
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = [*sorted(_MODULE_OF), "__version__"]
_MODULE_OF.update(zip(_PUBLIC, _PUBLIC))  # the submodules themselves


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing a submodule binds it in this namespace; caching the name
    # there too means this hook runs once per name.
    __import__(f"{__name__}.{module}")
    value = globals()[module] if name == module else getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
