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
import math

from .core import _TABLE_TYPES, Bba, Frame, _bit_positions, _Frozen, _not_a, build_bba, build_frame
from .errors import DocumentError, ValidationError


def _require_keys(mapping, expected: tuple[str, ...], context: str):
    if not isinstance(mapping, dict):
        raise DocumentError(f"{context} must be an object")
    missing = [key for key in expected if key not in mapping]
    if missing:
        raise DocumentError(f"{context} is missing key(s): {', '.join(missing)}")
    if len(mapping) != len(expected):
        extra = sorted(set(mapping).difference(expected))
        raise DocumentError(f"{context} has unknown key(s): {', '.join(extra)}")


class EvidenceDocument(_Frozen):
    """A parsed document: the frame and its named BBAs, in document order."""

    _fields = ("frame", "bbas")

    def __init__(self, frame: Frame, bbas: dict[str, Bba]):
        d = self.__dict__
        d["frame"] = frame
        d["bbas"] = bbas

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
    if not _TABLE_TYPES.issuperset(map(type, members)):
        member = next(m for m in members if type(m) not in _TABLE_TYPES)
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


class _CollectorPause:
    """``with _CollectorPause():`` pauses the cyclic garbage collector and
    restores its prior state on exit, also when the body raises.

    The pause is process-wide. A collector that was already off stays
    off, and another thread that re-enables it meanwhile costs only
    speed. Re-enabling is the last thing ``__exit__`` does, so no
    collection can start before the body's caller resumes.
    """

    def __enter__(self):
        self._enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info):
        if self._enabled:
            gc.enable()


def parse_document(text: str, *, renormalize: bool = False) -> EvidenceDocument:
    """Parse document text into a validated frame plus named BBAs.

    Syntax errors report line and column; the non-standard literals NaN,
    Infinity and -Infinity, repeated keys in one object, nesting deeper
    than the interpreter's recursion limit and integers longer than its
    digit limit are rejected. Semantic errors (unknown label, position out
    of range, mass-sum violation) name the offending BBA. With
    ``renormalize`` each BBA's masses are scaled to sum to one instead of
    being required to.

    A BBA whose entries are all regular (exactly ``set`` and ``mass``, a
    positive finite float mass, a non-empty set of labels and positions
    the frame holds) is resolved to bitmasks in one pass; any other BBA,
    and every BBA under ``renormalize``, goes through ``build_bba``. Both
    routes give the same masses, checks and messages.

    Decoded entry lists are released BBA by BBA, each once its BBA is
    built, so the decoded document and the parsed one are never both
    held in full.

    Parsing pauses the cyclic garbage collector (``_CollectorPause``).
    Nothing the parse builds forms a cycle: what it keeps stays reachable
    until it returns, and what it releases reference counting frees, so a
    collection could free nothing and would only rescan it.
    """
    if not isinstance(text, (str, bytes, bytearray)):
        raise _not_a(str, text)
    with _CollectorPause():
        return _parse(text, renormalize)


def _regular_masses(table: dict, entry_list: list) -> dict[int, float] | None:
    """Merged bitmask -> mass of a BBA whose entries are all regular, or
    None at the first entry that is not.

    ``table`` is the frame's member -> bit table. Masses merge as in
    ``build_bba``, so the result is the dict it would pass to
    ``Bba._from_bits``.
    """
    masses: dict[int, float] = {}
    for entry in entry_list:
        if type(entry) is not dict or len(entry) != 2:
            return None
        mass = entry.get("mass")
        members = entry.get("set")
        if (
            type(mass) is not float
            or not 0.0 < mass < math.inf
            or type(members) is not list
            or not members
            # Exact types only: True and 1.0 hash like 1.
            or not _TABLE_TYPES.issuperset(map(type, members))
        ):
            return None
        bits = 0
        try:
            for member in members:
                bits |= table[member]
        except KeyError:  # unknown label, position 0 or N+1
            return None
        masses[bits] = masses.get(bits, 0.0) + mass
    return masses


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
    raw_bbas = raw["bbas"]
    if not isinstance(raw_bbas, dict):
        raise DocumentError("'bbas' must be an object mapping names to entry lists")
    table = frame._bits
    bbas: dict[str, Bba] = {}
    # Each decoded entry list is popped, and so freed once its BBA is
    # built, in document order. next(iter(raw_bbas)) would rescan the
    # emptied slots and be quadratic.
    for name in list(raw_bbas):
        entry_list = raw_bbas.pop(name)
        if not isinstance(entry_list, list):
            raise DocumentError(f"bba {name!r} must be a list of entries")
        masses = None if renormalize else _regular_masses(table, entry_list)
        if masses is None:
            # _parse_entry names what is wrong with an entry; build_bba
            # checks the rest, in the order it always has.
            entries = [
                _parse_entry(entry, f"bba {name!r}, entry {position + 1}")
                for position, entry in enumerate(entry_list)
            ]
        try:
            if masses is None:
                bbas[name] = build_bba(frame, entries, renormalize=renormalize)
            else:
                bbas[name] = Bba._from_bits(frame, masses)
        except ValidationError as exc:
            raise DocumentError(f"bba {name!r}: {exc}") from exc
    return EvidenceDocument(frame, bbas)


def serialize_document(document: EvidenceDocument) -> str:
    """Render a document back to text; parsing the result reproduces it."""
    if not isinstance(document, EvidenceDocument):
        raise _not_a(EvidenceDocument, document)
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
