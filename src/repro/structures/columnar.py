"""Columnar relation storage and int/bitset kernels over interned ids.

This is the representation layer behind the evaluation core: relations as
``array('q')`` columns of interned element ids with per-position sorted-id
indexes, the Gaifman adjacency as a CSR int-array pair, and a small kernel
library (bitset membership, union/intersection, galloping sorted-array
intersection, radius-bounded ball expansion) that the hot paths in
``core/local_eval.py``, ``core/cover_eval.py`` and ``sparse/covers.py``
run on.  Everything here is *representation only*: the kernels compute
exactly the sets the element-space reference code computes, and callers
convert back to user-facing elements at result boundaries.

Cache contract
--------------
A :class:`ColumnarStructure` is derived data of one
:class:`~repro.structures.structure.Structure` and lives under the same
contract as the adjacency/index/statistics caches (see the ``Structure``
docstring): built lazily by :meth:`Structure.columnar`, cached on the
instance, dropped by :meth:`Structure.invalidate_caches`, and **not**
carried over by :meth:`Structure.with_tuple` (the derived structure
rebuilds lazily against its own relations; only the
:class:`~repro.structures.interning.ElementInterner` is shared, because
the universe — and hence the id space — is identical).  The view keeps
the structure's signature and relations mapping, not the structure
itself, so the structure and its view form no reference cycle and are
freed by reference counting.

Bitset convention: a set of ids is a non-negative Python int with bit
``i`` set iff id ``i`` is a member.  ``(bs >> i) & 1`` is the membership
test; ``|``/``&`` are union/intersection; ``a & ~b == 0`` is ``a ⊆ b``.
On the universe sizes this engine targets the int spans a handful of
machine words, so these are effectively O(1) C-loop operations.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import ArityError, SignatureError
from .interning import ElementInterner
from .signature import RelationSymbol

__all__ = [
    "ColumnarRelation",
    "ColumnarStructure",
    "bitset_of",
    "bitset_ids",
    "intersect_sorted",
    "union_sorted",
]


# ---------------------------------------------------------------------------
# Kernels on sorted id arrays and int bitsets
# ---------------------------------------------------------------------------


def bitset_of(ids: Iterable[int], n: int) -> int:
    """The bitset of a collection of ids drawn from ``0..n-1``.

    Built through a ``bytearray`` so the cost is O(|ids| + n/8) rather
    than O(|ids| * n/64) of repeated big-int shifts.
    """
    buf = bytearray((n >> 3) + 1)
    for i in ids:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def bitset_ids(bitset: int) -> List[int]:
    """The sorted ids of a bitset (inverse of :func:`bitset_of`)."""
    out: List[int] = []
    while bitset:
        low = bitset & -bitset
        out.append(low.bit_length() - 1)
        bitset ^= low
    return out


def intersect_sorted(a: Sequence[int], b: Sequence[int]) -> "array[int]":
    """Intersection of two sorted id runs, galloping from the shorter one.

    Each element of the shorter run gallops (exponential probe, then a
    bisect inside the bracketed window) through the remainder of the
    longer run, so the cost is O(|short| * log(|long|/|short|)) — the
    classic adaptive bound, degrading gracefully to a linear merge when
    the runs interleave densely.
    """
    if len(a) > len(b):
        a, b = b, a
    out = array("q")
    lo = 0
    hi = len(b)
    for x in a:
        # Gallop: double the step until b[lo + step] >= x (or we run out).
        step = 1
        probe = lo
        while probe < hi and b[probe] < x:
            probe = lo + step
            step <<= 1
        lo = bisect_left(b, x, min(probe >> 1, hi) if step > 2 else lo, min(probe + 1, hi))
        if lo >= hi:
            break
        if b[lo] == x:
            out.append(x)
            lo += 1
    return out


def union_sorted(a: Sequence[int], b: Sequence[int]) -> "array[int]":
    """Union of two sorted id runs (linear merge, duplicates collapsed)."""
    out = array("q")
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x < y:
            out.append(x)
            i += 1
        elif y < x:
            out.append(y)
            j += 1
        else:
            out.append(x)
            i += 1
            j += 1
    if i < la:
        out.extend(a[i:la] if isinstance(a, array) else array("q", a[i:la]))
    if j < lb:
        out.extend(b[j:lb] if isinstance(b, array) else array("q", b[j:lb]))
    return out


# ---------------------------------------------------------------------------
# Columnar relations
# ---------------------------------------------------------------------------


class ColumnarRelation:
    """One relation as id columns plus lazy per-position sorted-id indexes.

    Rows are sorted lexicographically by id, giving every relation a
    deterministic, compact layout regardless of the ``frozenset``
    iteration order of the element-space representation.
    """

    __slots__ = ("name", "arity", "row_count", "columns", "_indexes")

    def __init__(self, name: str, arity: int, rows: List[Tuple[int, ...]]):
        rows.sort()
        self.name = name
        self.arity = arity
        self.row_count = len(rows)
        #: ``columns[p][r]`` is the interned id at position ``p`` of row ``r``.
        self.columns: Tuple["array[int]", ...] = tuple(
            array("q", (row[p] for row in rows)) for p in range(arity)
        )
        self._indexes: Dict[int, Dict[int, "array[int]"]] = {}

    def index(self, position: int) -> Dict[int, "array[int]"]:
        """Per-position index: id -> sorted row indices with that id at
        ``position``.  Keys iterate in sorted-id order (insertion order of
        the build).  Built lazily, once per position."""
        if not 0 <= position < self.arity:
            raise ArityError(
                f"position {position} out of range for "
                f"{self.name}/{self.arity}"
            )
        built = self._indexes.get(position)
        if built is None:
            grouped: Dict[int, "array[int]"] = {}
            column = self.columns[position]
            for row, value in enumerate(column):
                entry = grouped.get(value)
                if entry is None:
                    grouped[value] = array("q", (row,))
                else:
                    entry.append(row)
            built = {value: grouped[value] for value in sorted(grouped)}
            self._indexes[position] = built
        return built

    def distinct_count(self, position: int) -> int:
        """Number of distinct ids at ``position`` (off the sorted index)."""
        return len(self.index(position))

    def row(self, index: int) -> Tuple[int, ...]:
        return tuple(column[index] for column in self.columns)


# ---------------------------------------------------------------------------
# The per-structure columnar view
# ---------------------------------------------------------------------------


class ColumnarStructure:
    """Id-space view of one structure: CSR adjacency + columnar relations.

    Constructed from (and cached on) a
    :class:`~repro.structures.structure.Structure`; see the module
    docstring for the cache contract.  All sets of ids returned by the
    kernels are sorted, so converting through
    ``interner.elements[i]`` yields elements in universe order.
    """

    __slots__ = (
        "interner",
        "n",
        "_signature",
        "_source",
        "_offsets",
        "_targets",
        "_neigh",
        "_relations",
        "_full_bitset",
    )

    def __init__(self, structure) -> None:
        self._signature = structure.signature
        #: The element-space relations (symbol -> frozenset of tuples).
        self._source = structure.relations()
        self.interner: ElementInterner = structure.interner()
        self.n: int = len(self.interner)
        self._offsets: "array[int] | None" = None
        self._targets: "array[int] | None" = None
        self._neigh: "Tuple[Tuple[int, ...], ...] | None" = None
        self._relations: Dict[str, ColumnarRelation] = {}
        self._full_bitset: "int | None" = None

    # -- relations ------------------------------------------------------------

    def relation(self, key: object) -> ColumnarRelation:
        """The columnar form of one relation, built lazily and cached."""
        symbol = (
            key
            if isinstance(key, RelationSymbol)
            else self._signature[key]  # type: ignore[index]
        )
        cached = self._relations.get(symbol.name)
        if cached is None:
            if symbol not in self._signature:
                raise SignatureError(f"symbol {symbol!r} is not in the signature")
            id_of = self.interner._ids
            rows = [
                tuple(id_of[entry] for entry in tup)
                for tup in self._source[symbol]
            ]
            cached = ColumnarRelation(symbol.name, symbol.arity, rows)
            self._relations[symbol.name] = cached
        return cached

    def distinct_per_column(self, key: object) -> Tuple[int, ...]:
        """Distinct-id count per position of a relation — the statistic
        :mod:`repro.cost.stats` serves without rescanning the relation."""
        relation = self.relation(key)
        return tuple(
            relation.distinct_count(p) for p in range(relation.arity)
        )

    # -- Gaifman adjacency as CSR ----------------------------------------------

    def _adjacency_csr(self) -> Tuple["array[int]", "array[int]"]:
        """CSR adjacency: ``targets[offsets[i]:offsets[i+1]]`` are the
        sorted neighbour ids of ``i``.  Built directly from the relations
        (never through the element-space adjacency dict)."""
        if self._offsets is None:
            if self._neigh is not None:
                # A derived view (see :meth:`derive_insert`) carries its
                # adjacency as neighbour tuples; fold them back into CSR.
                offsets = array("q", [0])
                targets = array("q")
                for neighbours in self._neigh:
                    targets.extend(neighbours)
                    offsets.append(len(targets))
                self._offsets = offsets
                self._targets = targets
                return self._offsets, self._targets
            id_of = self.interner._ids
            # Accumulate raw (possibly duplicated) neighbour ids per node
            # and dedupe once at the end: plain list appends beat per-tuple
            # set allocations, and binary relations — the dominant case —
            # get a branch with no intermediate collection at all.
            acc: List[List[int]] = [[] for _ in range(self.n)]
            for symbol, rel in self._source.items():
                if symbol.arity < 2:
                    continue
                if symbol.arity == 2:
                    for x, y in rel:
                        a = id_of[x]
                        b = id_of[y]
                        if a != b:
                            acc[a].append(b)
                            acc[b].append(a)
                    continue
                for tup in rel:
                    distinct = {id_of[entry] for entry in tup}
                    if len(distinct) < 2:
                        continue
                    for a in distinct:
                        acc[a].extend(distinct)
            offsets = array("q", [0])
            targets = array("q")
            for i, bucket in enumerate(acc):
                uniq = set(bucket)
                uniq.discard(i)
                targets.extend(sorted(uniq))
                offsets.append(len(targets))
            self._offsets = offsets
            self._targets = targets
        return self._offsets, self._targets  # type: ignore[return-value]

    def _neighbour_ids(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-id neighbour tuples for BFS iteration.

        The CSR pair is the compact storage form, but iterating an
        ``array('q')`` slice re-boxes every id on every visit; the BFS
        kernels instead walk this one-time materialisation, whose tuples
        hold already-boxed ints (the same trade the element-space
        adjacency dict makes, minus the element objects)."""
        if self._neigh is None:
            offsets, targets = self._adjacency_csr()
            self._neigh = tuple(
                tuple(targets[offsets[i] : offsets[i + 1]])
                for i in range(self.n)
            )
        return self._neigh

    def neighbours(self, eid: int) -> "array[int]":
        """Sorted neighbour ids of one element."""
        offsets, targets = self._adjacency_csr()
        return targets[offsets[eid] : offsets[eid + 1]]

    def derive_insert(self, structure, symbol, tup) -> "ColumnarStructure":
        """The derived view after a single-tuple *insertion* — the columnar
        leg of :meth:`Structure.with_tuple`'s copy-on-write contract.

        Shares the interner and every untouched relation's columnar form,
        drops the touched relation's (rebuilt lazily against the derived
        structure), and extends the adjacency incrementally with the new
        tuple's co-occurrence edges — the exact policy of the dict
        adjacency (deletions reset instead, since other tuples may still
        witness the affected edges; ``with_tuple`` simply leaves
        ``_columnar`` unset in that case)."""
        view = ColumnarStructure.__new__(ColumnarStructure)
        view._signature = structure.signature
        view._source = structure.relations()
        view.interner = self.interner
        view.n = self.n
        view._full_bitset = self._full_bitset
        view._relations = {
            name: relation
            for name, relation in self._relations.items()
            if name != symbol.name
        }
        id_of = self.interner._ids
        distinct = {id_of[entry] for entry in tup}
        if len(distinct) < 2:
            # No Gaifman edges in a (near-)singleton tuple: the parent's
            # adjacency is the derived one, share it as-is.
            view._offsets = self._offsets
            view._targets = self._targets
            view._neigh = self._neigh
        elif self._neigh is not None or self._offsets is not None:
            updated = list(self._neighbour_ids())
            for a in distinct:
                merged = set(updated[a])
                merged.update(distinct)
                merged.discard(a)
                updated[a] = tuple(sorted(merged))
            view._neigh = tuple(updated)
            view._offsets = None
            view._targets = None
        else:
            view._neigh = None
            view._offsets = None
            view._targets = None
        return view

    def degree(self, eid: int) -> int:
        offsets, _ = self._adjacency_csr()
        return offsets[eid + 1] - offsets[eid]

    # -- ball kernels ----------------------------------------------------------

    def ball_ids(self, sources: Iterable[int], radius: int) -> List[int]:
        """Sorted ids of ``N_radius(sources)`` (radius-bounded multi-source
        BFS over the CSR adjacency)."""
        neigh = self._neighbour_ids()
        seen = bytearray(self.n)
        frontier: List[int] = []
        result: List[int] = []
        for source in sources:
            if not seen[source]:
                seen[source] = 1
                frontier.append(source)
                result.append(source)
        depth = 0
        while frontier and depth < radius:
            nxt: List[int] = []
            for node in frontier:
                for neighbour in neigh[node]:
                    if not seen[neighbour]:
                        seen[neighbour] = 1
                        nxt.append(neighbour)
            if not nxt:
                break
            result.extend(nxt)
            frontier = nxt
            depth += 1
        result.sort()
        return result

    def distances(
        self, sources: Iterable[int], radius: "float | None" = None
    ) -> Tuple[List[int], List[int]]:
        """BFS distances: ``(ids, dists)`` in discovery order, each id at
        its distance from the closest source, bounded by ``radius`` when
        given (the paper's ``dist(a-bar, b) = min_i dist(a_i, b)``)."""
        neigh = self._neighbour_ids()
        seen = bytearray(self.n)
        ids: List[int] = []
        dists: List[int] = []
        frontier: List[int] = []
        for source in sources:
            if not seen[source]:
                seen[source] = 1
                frontier.append(source)
                ids.append(source)
                dists.append(0)
        depth = 0
        while frontier and (radius is None or depth < radius):
            nxt: List[int] = []
            depth += 1
            for node in frontier:
                for neighbour in neigh[node]:
                    if not seen[neighbour]:
                        seen[neighbour] = 1
                        nxt.append(neighbour)
                        ids.append(neighbour)
                        dists.append(depth)
            frontier = nxt
        return ids, dists

    def distance_between(self, source: int, target: int) -> "int | None":
        """Shortest-path distance, ``None`` when unreachable (early exit)."""
        if source == target:
            return 0
        neigh = self._neighbour_ids()
        seen = bytearray(self.n)
        seen[source] = 1
        frontier = [source]
        depth = 0
        while frontier:
            nxt: List[int] = []
            depth += 1
            for node in frontier:
                for neighbour in neigh[node]:
                    if neighbour == target:
                        return depth
                    if not seen[neighbour]:
                        seen[neighbour] = 1
                        nxt.append(neighbour)
            frontier = nxt
        return None

    # -- bitsets ---------------------------------------------------------------

    def bitset(self, ids: Iterable[int]) -> int:
        """The bitset of a set of ids in this structure's id space."""
        return bitset_of(ids, self.n)

    def bitset_of_elements(self, elements: Iterable[object]) -> int:
        id_of = self.interner._ids
        return bitset_of((id_of[element] for element in elements), self.n)

    def full_bitset(self) -> int:
        """The whole universe as a bitset."""
        if self._full_bitset is None:
            self._full_bitset = (1 << self.n) - 1
        return self._full_bitset

    def ball_bitset(self, sources: Iterable[int], radius: int) -> int:
        return self.bitset(self.ball_ids(sources, radius))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarStructure(n={self.n})"
