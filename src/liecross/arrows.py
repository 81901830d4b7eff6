"""Lazy results: LazySequence, and ArrowTable, the lazy sequence of a groupoid's arrows.

A LazySequence builds each item on first access and keeps it; the
enumerations (see groupoid) return one.  build_hom_groupoid fills an
ArrowTable with three columns, src, dst and the residue rows of d, and an
Arrow and its Derivation are built only when an item is read.  Readers
that need only the ends or the rows read the columns.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from .homotopy import Derivation
from .linalg import LinearMap
from .morphisms import CrossedMorphism

# A matrix over GF(p) as a tuple of rows of residues.
Rows = tuple[tuple[int, ...], ...]


class LazySequence(Sequence):
    """A read-only sequence whose items are built on first access.

    make(k) builds item k; each item is built once and then returned again
    on every later access.  Length, negative indices, slices (as lists) and
    iteration behave as on a list of the built items.
    """

    __slots__ = ("_items", "_make")

    def __init__(self, length: int, make: Callable[[int], object]):
        self._items: list = [None] * length
        self._make = make

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self._items)))]
        items = self._items
        item = items[k]
        if item is None:
            item = items[k] = self._make(k % len(items))
        return item


@dataclass(frozen=True)
class Arrow:
    """One groupoid arrow: derivation anchored at objects[src], into objects[dst]."""

    src: int
    dst: int
    derivation: Derivation


class ArrowTable(LazySequence):
    """The arrows of a hom-groupoid as three read-only parallel columns.

    Arrow t runs from objects[src[t]] to objects[dst[t]], and rows[t] is
    its d as the map stores it (residue rows; see linalg).  A table that
    build_hom_groupoid fills builds Arrow t, anchored at objects[src[t]]
    with its d from the build's map maker, on first access; a table of
    given arrows (ArrowTable.of) holds them as they are.  A slice is a
    tuple, and so is a table plus a tuple or a tuple plus a table.  Two
    tables are equal when they hold equal arrows in the same order, which
    builds their items; a table never equals a tuple, just as a list never
    does.  The hash is of the columns, which equal tables share.
    """

    __slots__ = ("src", "dst", "rows")

    def __init__(self, src: tuple[int, ...], dst: tuple[int, ...],
                 rows: tuple[Rows, ...], objects: Sequence[CrossedMorphism],
                 maps: Mapping[Rows, LinearMap] | None):
        # The maker closes over the columns, not the table, so a dropped
        # table is freed without the cycle collector.
        super().__init__(len(src), lambda t: Arrow(
            src[t], dst[t], Derivation(objects[src[t]], maps[rows[t]])))
        self.src, self.dst, self.rows = src, dst, rows

    @classmethod
    def of(cls, arrows) -> "ArrowTable":
        """The table of the given arrows, kept as they are."""
        arrows = tuple(arrows)
        table = cls(tuple([a.src for a in arrows]), tuple([a.dst for a in arrows]),
                    tuple([a.derivation.d._numbers for a in arrows]), (), None)
        table._items[:] = arrows
        return table

    def __getitem__(self, t):
        item = super().__getitem__(t)
        return tuple(item) if isinstance(t, slice) else item

    def __add__(self, other):
        if not isinstance(other, tuple):
            return NotImplemented
        return tuple(self) + other

    def __radd__(self, other):
        if not isinstance(other, tuple):
            return NotImplemented
        return other + tuple(self)

    def __eq__(self, other):
        if not isinstance(other, ArrowTable):
            return NotImplemented
        return self is other or (
            (self.src, self.dst, self.rows) == (other.src, other.dst, other.rows)
            and tuple(self) == tuple(other))

    def __hash__(self):
        return hash((self.src, self.dst, self.rows))

    def __repr__(self):
        return f"ArrowTable({len(self.src)} arrows)"
