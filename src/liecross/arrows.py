"""The arrows of a hom-groupoid: Arrow, and ArrowTable, the lazy table of them.

build_hom_groupoid (see groupoid) fills an ArrowTable with three columns,
src, dst and the residue rows of d, and the table builds an Arrow and its
Derivation only when an item is read.  Readers that need only the ends or
the rows read the columns.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .homotopy import Derivation
from .linalg import LinearMap
from .morphisms import CrossedMorphism

# A matrix over GF(p) as a tuple of rows of residues.
Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Arrow:
    """One groupoid arrow: derivation anchored at objects[src], into objects[dst]."""

    src: int
    dst: int
    derivation: Derivation


class ArrowTable(Sequence):
    """The arrows of a hom-groupoid as three read-only parallel columns.

    Arrow t runs from objects[src[t]] to objects[dst[t]], and rows[t] is
    its d as the map stores it (residue rows; see linalg).
    A table that build_hom_groupoid fills builds Arrow t, anchored at
    objects[src[t]] with its d from the build's map maker, on first access;
    a table of given arrows (ArrowTable.of) holds them as they are.  Items
    are built once.  Indexing (negative too) and iteration behave as on a
    tuple; a slice is a tuple, and so is a table plus a tuple or a tuple
    plus a table.  Two tables are equal when they hold equal arrows in the
    same order, which builds their items; a table never equals a tuple,
    just as a list never does.  The hash is of the columns, which equal
    tables share.
    """

    __slots__ = ("src", "dst", "rows", "_items", "_objects", "_maps",
                 "_complete", "_from")

    def __init__(self, src: tuple[int, ...], dst: tuple[int, ...],
                 rows: tuple[Rows, ...], objects: Sequence[CrossedMorphism],
                 maps: Mapping[Rows, LinearMap] | None):
        self.src, self.dst, self.rows = src, dst, rows
        self._items: list = [None] * len(src)
        self._objects, self._maps = objects, maps
        self._complete = not src
        self._from: dict[int, list[int]] | None = None

    @classmethod
    def of(cls, arrows) -> "ArrowTable":
        """The table of the given arrows, kept as they are."""
        arrows = tuple(arrows)
        table = cls(tuple([a.src for a in arrows]), tuple([a.dst for a in arrows]),
                    tuple([a.derivation.d._numbers for a in arrows]), (), None)
        table._items[:] = arrows
        table._complete = True
        return table

    def d(self, t: int) -> LinearMap:
        """Arrow t's d, without building the arrow."""
        item = self._items[t]
        return self._maps[self.rows[t]] if item is None else item.derivation.d

    def _make(self, t: int) -> Arrow:
        s = self.src[t]
        return Arrow(s, self.dst[t], Derivation(self._objects[s],
                                                self._maps[self.rows[t]]))

    def __len__(self) -> int:
        return len(self.src)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return tuple([self[i] for i in range(*t.indices(len(self.src)))])
        items = self._items
        item = items[t]
        if item is None:
            t %= len(items)
            item = items[t] = self._make(t)
        return item

    def __iter__(self):
        items = self._items
        if not self._complete:
            objects, maps = self._objects, self._maps
            for t, (item, s, d, r) in enumerate(zip(items, self.src, self.dst, self.rows)):
                if item is None:
                    items[t] = Arrow(s, d, Derivation(objects[s], maps[r]))
            self._complete = True
        return iter(items)

    def positions_from(self, i: int) -> list[int]:
        """The positions of the arrows with src i, in order; the index by src
        is made on the first call."""
        if self._from is None:
            self._from = {}
            for t, s in enumerate(self.src):
                self._from.setdefault(s, []).append(t)
        return self._from.get(i, [])

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
