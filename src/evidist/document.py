"""The evidence document format: one frame plus named BBAs, as JSON text.

A document is a JSON object with exactly two top-level keys::

    {
      "frame": ["Poor", "Low", "Middle", "High", "Perfect"],
      "bbas": {
        "m1": [{"set": ["Poor"], "mass": 1.0}],
        "m2": [{"set": [2, 3], "mass": 0.6}, {"set": [1], "mass": 0.4}]
      }
    }

``frame`` is the ordered list of grade labels. Each BBA is a list of
entries whose ``set`` holds grade labels (strings) and/or 1-based
positions (integers) and whose ``mass`` is a nonnegative number. Entries
naming the same set merge by summing. See docs/document_format.md for the
full grammar and annotated examples.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass

from .core import Bba, Frame, _bit_positions, build_bba, build_frame
from .errors import DocumentError, ValidationError


_MEMBER_TYPES = frozenset((str, int))


def _require_keys(mapping, expected: tuple[str, ...], context: str):
    if not isinstance(mapping, dict):
        raise DocumentError(f"{context} must be an object")
    missing = [key for key in expected if key not in mapping]
    if missing:
        raise DocumentError(f"{context} is missing key(s): {', '.join(missing)}")
    if len(mapping) != len(expected):
        extra = sorted(set(mapping).difference(expected))
        raise DocumentError(f"{context} has unknown key(s): {', '.join(extra)}")


@dataclass(frozen=True)
class EvidenceDocument:
    """A parsed document: the frame and its named BBAs, in document order."""

    frame: Frame
    bbas: dict[str, Bba]

    def bba(self, name: str) -> Bba:
        try:
            return self.bbas[name]
        except KeyError:
            available = ", ".join(self.bbas) or "none"
            raise DocumentError(
                f"no BBA named {name!r} in document (available: {available})"
            ) from None


def _parse_entry(entry, context: str):
    _require_keys(entry, ("set", "mass"), context)
    members = entry["set"]
    if not isinstance(members, list) or not members:
        raise DocumentError(f"{context}: 'set' must be a non-empty list")
    # Decoded JSON values have exact types, so bool (an int subclass) and
    # float both fall outside the set.
    if not _MEMBER_TYPES.issuperset(map(type, members)):
        member = next(m for m in members if type(m) not in _MEMBER_TYPES)
        raise DocumentError(
            f"{context}: set members must be labels or 1-based positions, got {member!r}"
        )
    mass = entry["mass"]
    if isinstance(mass, bool) or not isinstance(mass, (int, float)):
        raise DocumentError(f"{context}: 'mass' must be a number, got {mass!r}")
    try:
        return members, float(mass)
    except OverflowError:
        raise DocumentError(f"{context}: 'mass' is too large for a float") from None


def _reject_constant(name: str):
    raise DocumentError(f"syntax error: {name} is not valid JSON (numbers must be finite)")


def _reject_duplicate_keys(pairs: list) -> dict:
    mapping = dict(pairs)
    if len(mapping) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DocumentError(f"duplicate key {key!r}")
            seen.add(key)
    return mapping


def parse_document(text: str, *, renormalize: bool = False) -> EvidenceDocument:
    """Parse document text into a validated frame plus named BBAs.

    Syntax errors report line and column; the non-standard literals NaN,
    Infinity and -Infinity, repeated keys in one object, nesting deeper
    than the interpreter's recursion limit and integers longer than its
    digit limit are rejected. Semantic errors (unknown label, position out
    of range, mass-sum violation) name the offending BBA. With
    ``renormalize`` each BBA's masses are scaled to sum to one instead of
    being required to.

    Parsing pauses the cyclic garbage collector and restores its prior
    state on return, also when it raises. Everything the parse builds
    stays reachable until it returns, so a collection could free nothing
    and would only rescan it. The pause is process-wide; another thread
    that re-enables the collector meanwhile costs only speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse(text, renormalize)
    finally:
        if enabled:
            gc.enable()


def _parse(text: str, renormalize: bool) -> EvidenceDocument:
    try:
        raw = json.loads(
            text,
            parse_constant=_reject_constant,
            object_pairs_hook=_reject_duplicate_keys,
        )
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise DocumentError("syntax error: the document nests too deeply") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise DocumentError("syntax error: an integer has too many digits") from None
    _require_keys(raw, ("frame", "bbas"), "document")
    labels = raw["frame"]
    if not isinstance(labels, list):
        raise DocumentError("'frame' must be a list of labels")
    try:
        frame = build_frame(labels)
    except ValidationError as exc:
        raise DocumentError(f"frame: {exc}") from exc
    if not isinstance(raw["bbas"], dict):
        raise DocumentError("'bbas' must be an object mapping names to entry lists")
    bbas: dict[str, Bba] = {}
    for name, entry_list in raw["bbas"].items():
        if not isinstance(entry_list, list):
            raise DocumentError(f"bba {name!r} must be a list of entries")
        entries = []
        for position, entry in enumerate(entry_list):
            # A well-formed entry passes one inline test; any other goes
            # through _parse_entry, which names what is wrong with it.
            if (
                type(entry) is dict
                and len(entry) == 2
                and type(entry.get("mass")) is float
                and type(members := entry.get("set")) is list
                and members
                and _MEMBER_TYPES.issuperset(map(type, members))
            ):
                entries.append((members, entry["mass"]))
            else:
                entries.append(
                    _parse_entry(entry, f"bba {name!r}, entry {position + 1}")
                )
        try:
            bbas[name] = build_bba(frame, entries, renormalize=renormalize)
        except ValidationError as exc:
            raise DocumentError(f"bba {name!r}: {exc}") from exc
    return EvidenceDocument(frame, bbas)


def serialize_document(document: EvidenceDocument) -> str:
    """Render a document back to text; parsing the result reproduces it."""
    labels = document.frame.labels
    payload = {
        "frame": list(labels),
        "bbas": {
            name: [
                {"set": [labels[i] for i in _bit_positions(bits)], "mass": mass}
                for bits, mass in bba._by_bits.items()
            ]
            for name, bba in document.bbas.items()
        },
    }
    return json.dumps(payload, indent=2) + "\n"
