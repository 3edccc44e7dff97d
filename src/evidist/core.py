"""Frames of discernment, focal sets, and basic belief assignments.

These are the value types the rest of the package operates on. All of
them are immutable once constructed and every public construction path
validates, so a ``Bba`` in hand is always well formed: positive masses on
non-empty subsets of its frame, summing to one. A ``Bba`` keeps one
canonical bitmask -> mass dict; ``FocalSet`` objects are built from it
only when something asks for ``entries`` or ``focal_sets``, which is
display.

The package's value types are plain classes on ``_Frozen``, not
dataclasses: the ``dataclasses`` module, with the ``inspect`` and ``ast``
it loads, would cost every CLI process several milliseconds. They
compare, hash, print, copy and pickle as frozen dataclasses do, and
assigning or deleting an attribute raises
``dataclasses.FrozenInstanceError``; ``dataclasses.fields``, ``replace``
and ``asdict`` do not apply to them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property, lru_cache
from operator import attrgetter

from .errors import FrameMismatchError, ValidationError

MAX_FRAME_SIZE = 64
MASS_SUM_TOLERANCE = 1e-9

_TABLE_TYPES = frozenset((str, int))
# Iterable, but over characters or byte values rather than members; and a
# bool mass would count as 0 or 1. Neither is what the caller meant.
_TEXT_TYPES = (str, bytes, bytearray)
_NOT_MASS_TYPES = (*_TEXT_TYPES, bool)


def _text_error(value, name: str, items: str) -> ValidationError:
    message = f"{name} {value!r} is a {type(value).__name__}, not a collection of {items}"
    if isinstance(value, str):
        message += f"; write [{value!r}] for one label"
    return ValidationError(message)


def _frozen_error(message: str) -> Exception:
    # Imported on this error path only: loading dataclasses costs every
    # CLI process several milliseconds.
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


class _Frozen:
    """Base of the immutable value types.

    A subclass names its fields in ``_fields``, and its ``__init__``
    writes them, and anything derived from them, into ``__dict__``.
    Equality and hashing go by the field values, between instances of
    the same class; the repr is ``Name(field=value, ...)``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls._fields
        # Not a descriptor: ``self._key(self)`` gets the field values.
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise _frozen_error(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen_error(f"cannot delete field {name!r}")


class Frame(_Frozen):
    """An ordered frame of discernment.

    The label order is semantic: the position distance between two grades
    is what the order-aware distance measure feeds on. Positions are
    1-based. Labels may not contain ',', '{' or '}', the characters a
    focal set's display uses. Any iterable of labels but a bare str or
    bytes is accepted and kept as a tuple.
    """

    _fields = ("labels",)

    def __init__(self, labels: Iterable[str]):
        if isinstance(labels, _TEXT_TYPES):
            raise _text_error(labels, "frame", "labels")
        # Only iter() is guarded: the caller's own generator may raise TypeError.
        try:
            labels = iter(labels)
        except TypeError:
            raise ValidationError(
                f"frame labels must be an iterable, got {type(labels).__name__}"
            ) from None
        labels = tuple(labels)
        if not labels:
            raise ValidationError("a frame needs at least one label")
        if len(labels) > MAX_FRAME_SIZE:
            raise ValidationError(
                f"frame has {len(labels)} labels, maximum is {MAX_FRAME_SIZE}"
            )
        for label in labels:
            if not isinstance(label, str):
                raise ValidationError(f"labels must be strings, got {label!r}")
            if "," in label or "{" in label or "}" in label:
                raise ValidationError(
                    f"label {label!r} contains ',', '{{' or '}}', "
                    "which would make set displays ambiguous"
                )
        if len(set(labels)) != len(labels):
            dupes = sorted({x for x in labels if labels.count(x) > 1})
            raise ValidationError("duplicate labels: " + ", ".join(dupes))
        # Each label and each 1-based position to its bit. A str key never
        # equals an int key, so the two spellings share one table.
        bits = {x: 1 << i for i, x in enumerate(labels)}
        bits.update((i + 1, 1 << i) for i in range(len(labels)))
        d = self.__dict__
        d["labels"] = labels
        d["_bits"] = bits

    @property
    def size(self) -> int:
        return len(self.labels)

    def index_of(self, member: str | int) -> int:
        """Resolve a label or 1-based position to a 1-based position."""
        if isinstance(member, str):
            bit = self._bits.get(member)
            if bit is None:
                raise ValidationError(f"unknown label {member!r}")
            return bit.bit_length()
        if isinstance(member, int) and not isinstance(member, bool):
            if not 1 <= member <= self.size:
                raise ValidationError(f"index {member} out of range 1..{self.size}")
            return member
        raise ValidationError(f"invalid frame member {member!r}")

    def label(self, index: int) -> str:
        """The label at a 1-based position."""
        if isinstance(index, str):  # index_of would read it as a label
            raise ValidationError(f"invalid frame member {index!r}")
        return self.labels[self.index_of(index) - 1]

    def subset(self, members: Iterable[str | int]) -> FocalSet:
        """Build a focal set from labels and/or 1-based positions."""
        return FocalSet(self, self._mask(members))

    def _mask(self, members: Iterable[str | int]) -> int:
        """The non-empty bitmask of labels and/or 1-based positions."""
        if type(members) is not list:
            if isinstance(members, _TEXT_TYPES):
                raise _text_error(members, "set", "labels or positions")
            # Only iter() is guarded: the caller's own generator may raise TypeError.
            try:
                members = iter(members)
            except TypeError:
                raise ValidationError(
                    f"a set must be an iterable of labels or positions, "
                    f"got {type(members).__name__}"
                ) from None
        table = self._bits
        bits = 0
        for member in members:
            # Only an exact str or int may use the table: True and 1.0 hash
            # like 1, and index_of must reject them with its own message.
            bit = table.get(member) if type(member) in _TABLE_TYPES else None
            if bit is None:
                bit = 1 << (self.index_of(member) - 1)
            bits |= bit
        if not bits:
            raise ValidationError("a focal set must be non-empty")
        return bits

    def singleton(self, member: str | int) -> FocalSet:
        return FocalSet(self, 1 << (self.index_of(member) - 1))

    def full_set(self) -> FocalSet:
        return FocalSet(self, (1 << self.size) - 1)


class FocalSet(_Frozen):
    """A non-empty subset of a frame, stored as a bitmask over positions.

    Bit ``i - 1`` is set exactly when position ``i`` belongs to the set,
    which keeps intersections, unions and cardinalities exact and cheap
    for frames up to MAX_FRAME_SIZE elements.
    """

    _fields = ("frame", "bits")

    def __init__(self, frame: Frame, bits: int):
        if not isinstance(frame, Frame):
            raise _not_a(Frame, frame)
        if isinstance(bits, bool) or not isinstance(bits, int):
            raise _not_a(int, bits)
        if bits <= 0:
            raise ValidationError("a focal set must be non-empty")
        if bits >> frame.size:
            raise ValidationError("focal set has members outside its frame")
        d = self.__dict__
        d["frame"] = frame
        d["bits"] = bits

    @property
    def members(self) -> tuple[int, ...]:
        """Member positions, ascending and 1-based."""
        return tuple(i + 1 for i in _bit_positions(self.bits))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.frame.labels[i - 1] for i in self.members)

    def __len__(self):
        return self.bits.bit_count()

    def __contains__(self, member: str | int):
        return bool(self.bits >> (self.frame.index_of(member) - 1) & 1)

    def __repr__(self):
        return "{" + ",".join(self.labels) + "}"


def focal_sort_key(focal_set: FocalSet) -> tuple[int, tuple[int, ...]]:
    """Canonical display and storage order: by cardinality, then members."""
    return (focal_set.bits.bit_count(), focal_set.members)


def _left_sum(values: Iterable[float]) -> float:
    """``sum(values)`` added strictly left to right, as sum() does before
    Python 3.12. From 3.12 on, sum() compensates its rounding, so its
    last bits would depend on the interpreter."""
    total = 0
    for value in values:
        total += value
    return total


def _bit_positions(bits: int) -> Iterator[int]:
    """The 0-based positions of the set bits, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


# Each byte value with its bit order reversed.
_REVERSED_BYTES = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


# Bounded: a Dempster fold re-sorts mostly the same sets at every step,
# while a document of many BBAs would only fill an unbounded memo.
@lru_cache(maxsize=1024)
def _canonical_key(bits: int) -> int:
    """An integer key in ``focal_sort_key``'s order, from the bitmask alone.

    Within one cardinality the set holding the lowest bit of ``a ^ b``
    comes first: up to that bit both member lists agree, and there one of
    them has the smaller next member. Reversing the 64 bits makes that bit
    the highest differing one, so the larger reversed value sorts first.
    """
    reversed_bits = int.from_bytes(
        bits.to_bytes(8, "little").translate(_REVERSED_BYTES), "big"
    )
    return (bits.bit_count() << 64) - reversed_bits


def _to_mass(mass, frame: Frame, bits: int) -> float:
    """A mass given as another number type, as a float; text is not parsed."""
    try:
        if not isinstance(mass, _NOT_MASS_TYPES):
            return float(mass)
    except TypeError:
        pass
    except OverflowError:
        # No repr of the mass: past the digit limit an int cannot print.
        raise ValidationError(
            f"focal mass on {FocalSet(frame, bits)!r} is too large for a float"
        ) from None
    raise ValidationError(
        f"focal masses must be numbers, got {mass!r} on {FocalSet(frame, bits)!r}"
    )


class Bba(_Frozen):
    """A basic belief assignment.

    It keeps one bitmask -> mass dict in canonical order
    (``focal_sort_key``), with strictly positive masses that sum to one
    within MASS_SUM_TOLERANCE. The empty set never appears, so no mass
    sits outside the frame. ``entries`` gives the same pairs as (focal
    set, mass), built on first access and then kept. Equality and hashing
    go by the frame and the dict; the canonical order is a function of
    the content, so equal dicts hash alike.
    """

    _fields = ("frame", "_by_bits")

    def __init__(self, frame: Frame, entries: Iterable[tuple[FocalSet, float]]):
        if not isinstance(frame, Frame):
            raise _not_a(Frame, frame)
        by_bits: dict[int, float] = {}
        for entry in _iterate(entries):
            try:
                focal_set, mass = entry
            except (TypeError, ValueError):
                focal_set = None
            if not isinstance(focal_set, FocalSet):
                raise ValidationError(
                    "Bba entries must be (FocalSet, mass) pairs; build_bba "
                    "also takes mappings and sets of labels or positions"
                )
            if focal_set.frame is not frame and focal_set.frame != frame:
                raise FrameMismatchError(
                    f"focal set {focal_set!r} belongs to a different frame"
                )
            if type(mass) is not float:
                mass = _to_mass(mass, frame, focal_set.bits)
            if not mass > 0.0:
                raise ValidationError(
                    f"focal masses must be positive, got {mass!r} on {focal_set!r}"
                )
            if focal_set.bits in by_bits:
                raise ValidationError(f"duplicate focal set {focal_set!r}")
            by_bits[focal_set.bits] = mass
        # Sorted and summed as every other BBA is.
        by_bits = self._from_bits(frame, by_bits)._by_bits
        d = self.__dict__
        d["frame"] = frame
        d["_by_bits"] = by_bits

    @classmethod
    def _from_bits(
        cls,
        frame: Frame,
        masses: Mapping[int, float],
        *,
        tolerance: float = MASS_SUM_TOLERANCE,
    ) -> Bba:
        """Trusted constructor for masses that are valid by construction.

        ``masses`` maps distinct non-empty bitmasks on ``frame`` to positive
        finite masses. Only their sum is checked, in canonical order,
        against ``tolerance``.
        """
        by_bits = {bits: masses[bits] for bits in sorted(masses, key=_canonical_key)}
        total = 0.0
        for mass in by_bits.values():
            total += mass
        if abs(total - 1.0) > tolerance:
            raise ValidationError(f"masses sum to {total!r}, expected 1 within {tolerance}")
        bba = object.__new__(cls)
        # Item by item: __dict__.update() took about 90 bytes more per BBA.
        d = bba.__dict__
        d["frame"] = frame
        d["_by_bits"] = by_bits
        return bba

    def __hash__(self):
        return hash((self.frame, tuple(self._by_bits.items())))

    @cached_property
    def entries(self) -> tuple[tuple[FocalSet, float], ...]:
        """(focal set, mass) pairs in canonical order."""
        frame = self.frame
        return tuple(
            (FocalSet(frame, bits), mass) for bits, mass in self._by_bits.items()
        )

    @property
    def focal_sets(self) -> tuple[FocalSet, ...]:
        return tuple(fs for fs, _ in self.entries)

    def __repr__(self):
        body = ", ".join(f"{fs!r}: {mass:g}" for fs, mass in self.entries)
        return f"Bba({body})"


def _not_a(expected: type, value) -> ValidationError:
    name = expected.__name__
    article = "an" if name[0] in "AEIOUaeiou" else "a"
    return ValidationError(f"expected {article} {name}, got {type(value).__name__}")


def _iterate(values) -> Iterator:
    try:
        return iter(values)
    except TypeError:
        raise _not_a(Iterable, values) from None


def _check_same_frame(m1: Bba, m2: Bba):
    if not (isinstance(m1, Bba) and isinstance(m2, Bba)):
        raise _not_a(Bba, m2 if isinstance(m1, Bba) else m1)
    # Identity first: comparing two frames field by field is a Python call.
    if m1.frame is not m2.frame and m1.frame != m2.frame:
        raise FrameMismatchError("BBAs are defined on different frames")


def build_frame(labels: Iterable[str]) -> Frame:
    """Build a frame whose grade order is the given label order."""
    return Frame(labels)


def build_bba(
    frame: Frame,
    entries: (
        Mapping[FocalSet | Iterable[str | int], float]
        | Iterable[tuple[FocalSet | Iterable[str | int], float]]
    ),
    *,
    renormalize: bool = False,
) -> Bba:
    """Build a validated BBA from (set, mass) pairs.

    Sets may be FocalSet instances or iterables of labels / 1-based
    positions, but not a bare str or bytes. Masses must be finite,
    nonnegative numbers; text and bools are rejected. Pairs naming the
    same set merge by summing their masses; zero-mass pairs drop out.
    With ``renormalize`` the merged masses are scaled to sum to one,
    otherwise the sum must already be 1 within MASS_SUM_TOLERANCE.
    """
    if not isinstance(frame, Frame):
        raise _not_a(Frame, frame)
    # A list, what the document parser passes, skips the slower ABC check.
    if type(entries) is not list and isinstance(entries, Mapping):
        entries = entries.items()
    # A FocalSet is built only to name a set in an error message.
    merged: dict[int, float] = {}
    for entry in entries:
        try:
            set_like, mass = entry
        except (TypeError, ValueError):
            raise ValidationError(
                f"build_bba entries must be (set, mass) pairs, got {entry!r}"
            ) from None
        if isinstance(set_like, FocalSet):
            if set_like.frame is not frame and set_like.frame != frame:
                raise FrameMismatchError(
                    f"focal set {set_like!r} belongs to a different frame"
                )
            bits = set_like.bits
        else:  # on ``frame`` by construction
            bits = frame._mask(set_like)
        if type(mass) is not float:  # the document parser passes floats
            mass = _to_mass(mass, frame, bits)
        if not math.isfinite(mass):
            raise ValidationError(
                f"focal masses must be finite, got {mass!r} on {FocalSet(frame, bits)!r}"
            )
        if mass < 0.0:
            raise ValidationError(
                f"focal masses must be nonnegative, got {mass!r} "
                f"on {FocalSet(frame, bits)!r}"
            )
        merged[bits] = merged.get(bits, 0.0) + mass
    positive = {bits: mass for bits, mass in merged.items() if mass > 0.0}
    if renormalize:
        total = _left_sum(positive.values())
        if total <= 0.0:
            raise ValidationError("cannot renormalize: total mass is zero")
        positive = {bits: mass / total for bits, mass in positive.items()}
        # A mass far below the total can underflow to zero when scaled.
        underflowed = [bits for bits, mass in positive.items() if not mass > 0.0]
        if underflowed:
            bits = min(underflowed, key=_canonical_key)
            raise ValidationError(
                f"focal masses must be positive, got {positive[bits]!r} "
                f"on {FocalSet(frame, bits)!r}"
            )
    return Bba._from_bits(frame, positive)


def vacuous_bba(frame: Frame) -> Bba:
    """Total ignorance: all mass on the full frame."""
    if not isinstance(frame, Frame):
        raise _not_a(Frame, frame)
    return Bba(frame, ((frame.full_set(), 1.0),))


def mass_of(bba: Bba, focal_set: FocalSet) -> float:
    """Mass assigned to a set, 0.0 when the set is not focal."""
    if not isinstance(bba, Bba):
        raise _not_a(Bba, bba)
    if not isinstance(focal_set, FocalSet):
        raise _not_a(FocalSet, focal_set)
    if focal_set.frame != bba.frame:
        raise FrameMismatchError("queried set belongs to a different frame")
    return bba._by_bits.get(focal_set.bits, 0.0)
