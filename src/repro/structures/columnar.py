"""Id-space Gaifman adjacency and int/bitset kernels over interned ids.

This is the representation layer behind the evaluation core: the
structure's one Gaifman graph, as per-id neighbour tuples, and a small
kernel library (bitset membership, union/intersection, galloping
sorted-array intersection, radius-bounded ball expansion) that the hot
paths in ``core/local_eval.py``, ``core/cover_eval.py``,
``sparse/covers.py`` and every function of ``structures/gaifman.py`` run
on.  The element-space readers of the Gaifman graph — the cost
statistics, the Hanf invariants, the sparsity measures and the splitter
game — read the same tuples through :meth:`ColumnarStructure.neighbours`
and :meth:`ColumnarStructure.degree`.  Everything here is
*representation only*: the kernels compute exactly the sets the test
suite's element-space oracle computes from the relations, and callers
convert back to user-facing elements at result boundaries.

Cache contract
--------------
A :class:`ColumnarStructure` is derived data of one
:class:`~repro.structures.structure.Structure` and lives under the same
contract as the index and projection caches (see the ``Structure``
docstring): built lazily by :meth:`Structure.columnar`, cached on the
instance and dropped by :meth:`Structure.invalidate_caches`.
:meth:`Structure.with_tuple` carries a built view over to the derived
structure through :meth:`ColumnarStructure.derive_insert` or
:meth:`ColumnarStructure.derive_delete`: the derived view shares the
:class:`~repro.structures.interning.ElementInterner` (the universe, and
hence the id space, is identical) and its neighbour tuples are a version
of the parent's (:class:`~repro.structures.overlay.PatchedRows`): the
parent's tuples as a shared base, patched at the rows of the written
tuple's entries.  A write costs that tuple's edges and its patch, not a
copy of the rows or a rebuild over ``||A||``; the kernels read a version
row by row as they read plain tuples.  :meth:`Structure.with_relations`
hands the parent's neighbour tuples to an expansion by symbols of arity
at most 1 (:meth:`ColumnarStructure._derive`), which adds no Gaifman
edge.  The view keeps the structure's relations mapping, not the
structure itself, so the structure and its view form no reference cycle
and are freed by reference counting.

Bitset convention: a set of ids is a non-negative Python int with bit
``i`` set iff id ``i`` is a member.  ``(bs >> i) & 1`` is the membership
test; ``|``/``&`` are union/intersection; ``a & ~b == 0`` is ``a ⊆ b``.
On the universe sizes this engine targets the int spans a handful of
machine words, so these are effectively O(1) C-loop operations.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable, List, Sequence, Tuple

from .interning import ElementInterner
from .overlay import PatchedRows

__all__ = [
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
# The per-structure columnar view
# ---------------------------------------------------------------------------


class ColumnarStructure:
    """Id-space view of one structure: its Gaifman adjacency and kernels.

    Constructed from (and cached on) a
    :class:`~repro.structures.structure.Structure`; see the module
    docstring for the cache contract.  All sets of ids returned by the
    kernels are sorted, so converting through
    ``interner.elements[i]`` yields elements in universe order.
    """

    __slots__ = ("interner", "n", "_source", "_neigh", "_full_bitset")

    def __init__(self, structure) -> None:
        #: The structure's relations mapping (symbol -> frozenset of
        #: tuples, or a version of one), read only to build the adjacency.
        self._source = structure._relations
        self.interner: ElementInterner = structure.interner()
        self.n: int = len(self.interner)
        self._neigh: "Sequence[Tuple[int, ...]] | None" = None
        self._full_bitset: "int | None" = None

    # -- Gaifman adjacency -----------------------------------------------------

    def _neighbour_ids(self) -> Sequence[Tuple[int, ...]]:
        """The Gaifman adjacency: ``_neighbour_ids()[i]`` is the sorted
        tuple of the neighbour ids of ``i``.

        Built once from the relations as a tuple of rows, then carried
        down ``with_tuple`` derivations by :meth:`derive_insert` and
        :meth:`derive_delete` as a version of it, and down ≤ 1-ary
        ``with_relations`` expansions.  The rows hold already-boxed ints:
        the BFS kernels iterate them on every visit, and iterating an
        ``array('q')`` would re-box every id."""
        if self._neigh is None:
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
            neigh: List[Tuple[int, ...]] = []
            for i, bucket in enumerate(acc):
                uniq = set(bucket)
                uniq.discard(i)
                neigh.append(tuple(sorted(uniq)))
            self._neigh = tuple(neigh)
        return self._neigh

    def neighbours(self, eid: int) -> Tuple[int, ...]:
        """Sorted neighbour ids of one element."""
        return self._neighbour_ids()[eid]

    def degree(self, eid: int) -> int:
        return len(self._neighbour_ids()[eid])

    # -- derivation (the columnar leg of Structure.with_tuple) -----------------

    def derive_insert(self, structure, tup) -> "ColumnarStructure":
        """The view of ``structure``, which is this view's structure with
        ``tup`` inserted: every Gaifman edge of the tuple is added to the
        neighbour tuples, as a version patched at the rows it changes."""
        neigh = self._neigh
        ids = {self.interner._ids[entry] for entry in tup}
        if neigh is not None and len(ids) > 1:
            changed = {}
            for a in ids:
                merged = set(neigh[a])
                merged.update(ids)
                merged.discard(a)
                if len(merged) > len(neigh[a]):
                    changed[a] = tuple(sorted(merged))
            if changed:
                neigh = PatchedRows.derive(neigh, changed)
        return self._derive(structure, neigh)

    def derive_delete(self, structure, tup) -> "ColumnarStructure":
        """The view of ``structure``, which is this view's structure with
        ``tup`` deleted: a Gaifman edge ``{a, b}`` of the tuple is dropped
        from the neighbour tuples, as a version patched at the rows it
        changes, unless a remaining tuple of ``structure`` still holds
        both ``a`` and ``b``."""
        neigh = self._neigh
        entries = list(dict.fromkeys(tup))
        if neigh is not None and len(entries) > 1:
            id_of = self.interner._ids
            dropped = [
                (id_of[a], id_of[b])
                for i, a in enumerate(entries)
                for b in entries[i + 1 :]
                if not _co_occur(structure, a, b)
            ]
            if dropped:
                changed = {}
                for a, b in dropped:
                    changed[a] = tuple(x for x in changed.get(a, neigh[a]) if x != b)
                    changed[b] = tuple(x for x in changed.get(b, neigh[b]) if x != a)
                neigh = PatchedRows.derive(neigh, changed)
        return self._derive(structure, neigh)

    def _derive(self, structure, neigh) -> "ColumnarStructure":
        """A view of ``structure`` that shares this one's interner and
        holds the given neighbour tuples (``None``: built lazily)."""
        view = ColumnarStructure.__new__(ColumnarStructure)
        view._source = structure._relations
        view.interner = self.interner
        view.n = self.n
        view._full_bitset = self._full_bitset
        view._neigh = neigh
        return view

    # -- ball kernels ----------------------------------------------------------

    def ball_ids(self, sources: Iterable[int], radius: int) -> List[int]:
        """Sorted ids of ``N_radius(sources)`` (radius-bounded multi-source
        BFS over the neighbour tuples)."""
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


def _co_occur(structure, a, b) -> bool:
    """Whether some tuple of ``structure`` holds both elements: two
    membership probes per binary relation, and for a higher arity the
    tuples holding ``a`` at each position, read off ``structure.index``."""
    for symbol in structure.signature:
        if symbol.arity == 2:
            rel = structure.tuples(symbol)
            if (a, b) in rel or (b, a) in rel:
                return True
        elif symbol.arity > 2:
            for position in range(symbol.arity):
                for tup in structure.index(symbol, position).get(a, ()):
                    if b in tup:
                        return True
    return False
