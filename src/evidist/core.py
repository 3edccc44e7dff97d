"""Frames of discernment, focal sets, and basic belief assignments.

These are the value types the rest of the package operates on. All of
them are immutable once constructed and every construction path runs the
same validation, so a ``Bba`` in hand is always well formed: positive
masses on non-empty subsets of its frame, summing to one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Union

from .errors import FrameMismatchError, ValidationError

MAX_FRAME_SIZE = 64
MASS_SUM_TOLERANCE = 1e-9

Member = Union[str, int]
_TABLE_TYPES = frozenset((str, int))


@dataclass(frozen=True)
class Frame:
    """An ordered frame of discernment.

    The label order is semantic: the position distance between two grades
    is what the order-aware distance measure feeds on. Positions are
    1-based. Labels may not contain ',', '{' or '}', the characters a
    focal set's display uses.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValidationError("a frame needs at least one label")
        if len(self.labels) > MAX_FRAME_SIZE:
            raise ValidationError(
                f"frame has {len(self.labels)} labels, maximum is {MAX_FRAME_SIZE}"
            )
        for label in self.labels:
            if not isinstance(label, str):
                raise ValidationError(f"labels must be strings, got {label!r}")
            if "," in label or "{" in label or "}" in label:
                raise ValidationError(
                    f"label {label!r} contains ',', '{{' or '}}', "
                    "which would make set displays ambiguous"
                )
        if len(set(self.labels)) != len(self.labels):
            dupes = sorted({x for x in self.labels if self.labels.count(x) > 1})
            raise ValidationError("duplicate labels: " + ", ".join(dupes))
        # Each label and each 1-based position to its bit. A str key never
        # equals an int key, so the two spellings share one table.
        bits = {x: 1 << i for i, x in enumerate(self.labels)}
        bits.update((i + 1, 1 << i) for i in range(len(self.labels)))
        object.__setattr__(self, "_bits", bits)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index_of(self, member: Member) -> int:
        """Resolve a label or 1-based position to a 1-based position."""
        if isinstance(member, bool):
            raise ValidationError(f"invalid frame member {member!r}")
        if isinstance(member, str):
            bit = self._bits.get(member)
            if bit is None:
                raise ValidationError(f"unknown label {member!r}")
            return bit.bit_length()
        if isinstance(member, int):
            if not 1 <= member <= self.size:
                raise ValidationError(
                    f"index {member} out of range 1..{self.size}"
                )
            return member
        raise ValidationError(f"invalid frame member {member!r}")

    def label(self, index: int) -> str:
        if not 1 <= index <= self.size:
            raise ValidationError(f"index {index} out of range 1..{self.size}")
        return self.labels[index - 1]

    def subset(self, members: Iterable[Member]) -> FocalSet:
        """Build a focal set from labels and/or 1-based positions."""
        table = self._bits
        bits = 0
        for member in members:
            # Only an exact str or int may use the table: True and 1.0 hash
            # like 1, and index_of must reject them with its own message.
            bit = table.get(member) if type(member) in _TABLE_TYPES else None
            if bit is None:
                bit = 1 << (self.index_of(member) - 1)
            bits |= bit
        return FocalSet(self, bits)

    def singleton(self, member: Member) -> FocalSet:
        return FocalSet(self, 1 << (self.index_of(member) - 1))

    def full_set(self) -> FocalSet:
        return FocalSet(self, (1 << self.size) - 1)


@dataclass(frozen=True)
class FocalSet:
    """A non-empty subset of a frame, stored as a bitmask over positions.

    Bit ``i - 1`` is set exactly when position ``i`` belongs to the set,
    which keeps intersections, unions and cardinalities exact and cheap
    for frames up to MAX_FRAME_SIZE elements.
    """

    frame: Frame
    bits: int

    def __post_init__(self):
        if self.bits <= 0:
            raise ValidationError("a focal set must be non-empty")
        if self.bits >> self.frame.size:
            raise ValidationError("focal set has members outside its frame")

    @property
    def members(self) -> tuple[int, ...]:
        """Member positions, ascending and 1-based."""
        members = []
        bits = self.bits
        while bits:
            low = bits & -bits
            members.append(low.bit_length())
            bits ^= low
        return tuple(members)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.frame.labels[i - 1] for i in self.members)

    def __len__(self):
        return self.bits.bit_count()

    def __contains__(self, member: Member):
        return bool(self.bits >> (self.frame.index_of(member) - 1) & 1)

    def __repr__(self):
        return "{" + ",".join(self.labels) + "}"


def focal_sort_key(focal_set: FocalSet) -> tuple[int, tuple[int, ...]]:
    """Canonical display and storage order: by cardinality, then members."""
    return (focal_set.bits.bit_count(), focal_set.members)


@dataclass(frozen=True)
class Bba:
    """A basic belief assignment.

    ``entries`` holds (focal set, mass) pairs in canonical order, with
    strictly positive masses that sum to one within MASS_SUM_TOLERANCE.
    The empty set never appears, so no mass sits outside the frame.
    """

    frame: Frame
    entries: tuple[tuple[FocalSet, float], ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.entries, key=lambda e: focal_sort_key(e[0])))
        object.__setattr__(self, "entries", ordered)
        frame = self.frame
        total = 0.0
        by_bits: dict[int, float] = {}
        for focal_set, mass in ordered:
            if focal_set.frame is not frame and focal_set.frame != frame:
                raise FrameMismatchError(
                    f"focal set {focal_set!r} belongs to a different frame"
                )
            if not mass > 0.0:
                raise ValidationError(
                    f"focal masses must be positive, got {mass!r} on {focal_set!r}"
                )
            if focal_set.bits in by_bits:
                raise ValidationError(f"duplicate focal set {focal_set!r}")
            by_bits[focal_set.bits] = mass
            total += mass
        if abs(total - 1.0) > MASS_SUM_TOLERANCE:
            raise ValidationError(
                f"masses sum to {total!r}, expected 1 within {MASS_SUM_TOLERANCE}"
            )
        object.__setattr__(self, "_by_bits", by_bits)

    @property
    def focal_sets(self) -> tuple[FocalSet, ...]:
        return tuple(fs for fs, _ in self.entries)

    def __repr__(self):
        body = ", ".join(f"{fs!r}: {mass:g}" for fs, mass in self.entries)
        return f"Bba({body})"


def _check_same_frame(m1: Bba, m2: Bba):
    # Identity first: comparing two frames field by field is a Python call.
    if m1.frame is not m2.frame and m1.frame != m2.frame:
        raise FrameMismatchError("BBAs are defined on different frames")


def build_frame(labels: Iterable[str]) -> Frame:
    """Build a frame whose grade order is the given label order."""
    return Frame(tuple(labels))


SetLike = Union[FocalSet, Iterable[Member]]


def build_bba(
    frame: Frame,
    entries: Union[Mapping[SetLike, float], Iterable[tuple[SetLike, float]]],
    *,
    renormalize: bool = False,
) -> Bba:
    """Build a validated BBA from (set, mass) pairs.

    Sets may be FocalSet instances or iterables of labels / 1-based
    positions. Masses must be finite and nonnegative. Pairs naming the
    same set merge by summing their masses; zero-mass pairs drop out.
    With ``renormalize`` the merged masses are scaled to sum to one,
    otherwise the sum must already be 1 within MASS_SUM_TOLERANCE.
    """
    if isinstance(entries, Mapping):
        entries = entries.items()
    # [first FocalSet seen, summed mass] per bitmask. Keyed by the int:
    # hashing a FocalSet would hash its frame's labels on every entry.
    merged: dict[int, list] = {}
    for set_like, mass in entries:
        if isinstance(set_like, FocalSet):
            focal_set = set_like
            if focal_set.frame is not frame and focal_set.frame != frame:
                raise FrameMismatchError(
                    f"focal set {focal_set!r} belongs to a different frame"
                )
        else:  # on ``frame`` by construction
            focal_set = frame.subset(set_like)
        mass = float(mass)
        if not math.isfinite(mass):
            raise ValidationError(
                f"focal masses must be finite, got {mass!r} on {focal_set!r}"
            )
        if mass < 0.0:
            raise ValidationError(
                f"focal masses must be nonnegative, got {mass!r} on {focal_set!r}"
            )
        merged.setdefault(focal_set.bits, [focal_set, 0.0])[1] += mass
    positive = [(fs, mass) for fs, mass in merged.values() if mass > 0.0]
    if renormalize:
        total = sum(mass for _, mass in positive)
        if total <= 0.0:
            raise ValidationError("cannot renormalize: total mass is zero")
        positive = [(fs, mass / total) for fs, mass in positive]
    return Bba(frame, tuple(positive))


def vacuous_bba(frame: Frame) -> Bba:
    """Total ignorance: all mass on the full frame."""
    return Bba(frame, ((frame.full_set(), 1.0),))


def mass_of(bba: Bba, focal_set: FocalSet) -> float:
    """Mass assigned to a set, 0.0 when the set is not focal."""
    if focal_set.frame != bba.frame:
        raise FrameMismatchError("queried set belongs to a different frame")
    return bba._by_bits.get(focal_set.bits, 0.0)
