"""Finite relational structures (Section 2 of the paper).

A sigma-structure ``A`` consists of a finite non-empty universe and one finite
relation per symbol of its signature.  Structures here are immutable after
construction; derived data (per-position indexes, projection pools, the
columnar view holding the Gaifman graph) is computed lazily and cached,
which is safe precisely because the relational content never changes.

Universe elements may be arbitrary hashable Python objects.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Set,
    Tuple,
)

from ..errors import ArityError, SignatureError, UniverseError
from .overlay import ABSENT, PatchedSet, PatchedTable, flat
from .signature import RelationSymbol, Signature

Element = Hashable
Tup = Tuple[Element, ...]


def _checked(
    symbol: RelationSymbol, tuples: Iterable[Tup], universe: AbstractSet[Element]
) -> FrozenSet[Tup]:
    """The tuples as a frozenset, after checking each one's arity and that
    its entries belong to the universe."""
    checked = []
    for tup in tuples:
        tup = tuple(tup)
        if len(tup) != symbol.arity:
            raise ArityError(
                f"tuple {tup!r} has length {len(tup)}, but "
                f"{symbol.name} has arity {symbol.arity}"
            )
        for entry in tup:
            if entry not in universe:
                raise UniverseError(
                    f"tuple {tup!r} of {symbol.name} mentions "
                    f"{entry!r}, which is not in the universe"
                )
        checked.append(tup)
    return frozenset(checked)


def _group_of(bound: Tuple[int, ...]) -> Callable[[Tup], object]:
    """A projection's group key of a tuple: the bare value at one bound
    position, the tuple of values at several, ``()`` at none."""
    if len(bound) == 1:
        return itemgetter(bound[0])
    if bound:
        return itemgetter(*bound)
    return lambda tup: ()


def _patched(table, group: object, member: object, present: bool):
    """A version of an index or projection table (see
    :mod:`repro.structures.overlay`) with ``member`` added to
    (``present``) or removed from the pool at ``group``; a pool left empty
    is removed."""
    pool = table.get(group, ())
    if present:
        pool = pool + (member,)
    else:
        pool = tuple(m for m in pool if m != member) or ABSENT
    return PatchedTable.derive(table, {group: pool})


class Structure:
    """An immutable finite sigma-structure.

    Parameters
    ----------
    signature:
        The structure's signature.
    universe:
        A non-empty iterable of hashable elements.  Duplicates are collapsed;
        iteration order of the structure follows first occurrence, giving
        deterministic behaviour for evaluation and printing.
    relations:
        Mapping from relation *names* (or :class:`RelationSymbol`) to iterables
        of tuples.  Symbols of the signature that are missing from the mapping
        get the empty relation.  Every tuple must have the symbol's arity and
        all its entries must belong to the universe.

    Cache contract
    --------------
    Derived data — the per-position :meth:`index` maps, the
    :meth:`projection` pools and the :meth:`columnar` view — is computed
    lazily and cached on the instance.  This is sound because the
    relational content never changes through the public API.  The columnar
    view's neighbour tuples are the structure's one Gaifman graph: every
    function of :mod:`repro.structures.gaifman`, the cost statistics, the
    sparsity measures and the splitter game read it.  "Updates" are
    expressed as *derivation*: :meth:`with_tuple` returns a **new**
    structure sharing the unchanged relations (and the still-valid caches)
    with its parent, patching the written relation's indexes and covering
    projections at the tuple's group and deriving its columnar view from
    the parent's, so a query → update → query sequence always sees fresh
    derived data on the derived structure while the parent's caches stay
    valid for the parent.  A patched pool holds exactly the members a
    rebuild would, but on a derived structure it may iterate in another
    order: that can move the order of enumerated solutions and the point
    where an existence search stops, never a count or a truth value.
    :meth:`with_relations` (the expansion by fresh symbols) derives
    the same way: the parent's relations and the index and projection
    caches built for them are shared, and so are the view's neighbour
    tuples when the fresh symbols add no Gaifman edges.  A derived
    structure copies the cache *mappings*, never shares them.  An
    expansion stores what it builds for an inherited relation on the
    parent too, where it stays valid; what it builds for a fresh symbol
    (say, a projection of a relation that another expansion of the same
    parent interprets differently) never reaches the parent.  Code that
    nevertheless reaches into the internals (test harnesses, surgical
    subclasses) must call :meth:`invalidate_caches` afterwards or the next
    :meth:`index` / :meth:`projection` / :meth:`columnar` read will serve
    stale answers.

    A write copies only what it changes.  The written relation, each
    patched table and the view's neighbour tuples become *versions*
    (:mod:`repro.structures.overlay`): the parent's container, shared as
    a base, plus a small immutable patch, folded into a fresh base once
    it passes the square root of the base's size.  Dropping a version
    frees its patches, never a base.  Structures from ``__init__``, from
    ``_fill`` (the removal surgery) and from :meth:`with_relations` of such
    a structure hold plain frozensets, dicts and tuples.  On a version,
    :meth:`tuples`, :meth:`has_tuple`, :meth:`index` and
    :meth:`projection` read the patch without flattening, and so do the
    view's neighbour tuples; :meth:`relation`, :meth:`relations`,
    pickling, ``==``/``hash`` and the content digest flatten a relation
    once, cache it on the version and hand out frozensets.

    The content digest of :func:`repro.robust.checkpoint.structure_digest`
    is cached in ``_digest``, opaque to this module.  It describes the
    relations, so every structure that does not come from ``__init__``
    starts without one: :meth:`with_tuple` (unless the update is a no-op
    and returns ``self``), :meth:`with_relations` and unpickling.
    :meth:`invalidate_caches` drops it.
    """

    __slots__ = (
        "_signature",
        "_universe_order",
        "_universe",
        "_relations",
        "_indexes",
        "_projections",
        "_size",
        "_interner",
        "_columnar",
        "_digest",
        "_base",
    )

    def __init__(
        self,
        signature: Signature,
        universe: Iterable[Element],
        relations: "Mapping[object, Iterable[Tup]] | None" = None,
    ):
        universe_order: List[Element] = []
        seen = set()
        for element in universe:
            if element not in seen:
                seen.add(element)
                universe_order.append(element)
        if not universe_order:
            raise UniverseError("a structure's universe must be non-empty")

        resolved: Dict[RelationSymbol, FrozenSet[Tup]] = {
            symbol: frozenset() for symbol in signature
        }
        if relations:
            for key, tuples in relations.items():
                symbol = self._resolve_symbol(signature, key)
                resolved[symbol] = _checked(symbol, tuples, seen)
        self._fill(signature, tuple(universe_order), resolved)

    def _fill(
        self,
        signature: Signature,
        universe_order: Tuple[Element, ...],
        relations: Dict[RelationSymbol, FrozenSet[Tup]],
        universe: "FrozenSet[Element] | None" = None,
    ) -> "Structure":
        """Fill every slot from data the caller has validated — a
        non-empty, duplicate-free universe and a frozenset of tuples of the
        right arity over it for every symbol of ``signature`` (or, from
        :meth:`with_tuple`, a version of one) — with no cache built;
        returns ``self``.  ``__init__`` validates first;
        derivations (:meth:`with_tuple`, :meth:`with_relations`, the
        removal surgery of :mod:`repro.core.removal`) fill a
        ``Structure.__new__(Structure)`` and then share what stays valid
        of their parent's caches."""
        self._signature = signature
        self._universe_order = universe_order
        self._universe = frozenset(universe_order) if universe is None else universe
        self._relations = relations
        self._size = len(universe_order) + sum(len(rel) for rel in relations.values())
        self._indexes: Dict[Tuple[str, int], Dict[Element, Tuple[Tup, ...]]] = {}
        self._projections: Dict[Tuple, Dict[object, Tuple[Element, ...]]] = {}
        # Interned-id layer (repro.structures.interning / .columnar), lazy.
        # The interner depends only on the universe and is therefore shared
        # with derived structures and kept across invalidate_caches(); the
        # columnar view depends on the relations and follows the same
        # lifecycle as the indexes and projections.
        self._interner: "object | None" = None
        self._columnar: "object | None" = None
        # Content digest (repro.robust.checkpoint.structure_digest), lazy;
        # built and read only there.
        self._digest: "str | None" = None
        # The structure this one expands (with_relations), or None: an
        # index or projection built here for a relation inherited from it
        # is stored there too (see _holders).
        self._base: "Structure | None" = None
        return self

    @staticmethod
    def _resolve_symbol(signature: Signature, key: object) -> RelationSymbol:
        if isinstance(key, RelationSymbol):
            if key not in signature:
                raise SignatureError(f"symbol {key!r} is not in the signature")
            return key
        if isinstance(key, str):
            return signature[key]
        raise SignatureError(f"cannot resolve relation key {key!r}")

    # -- basic accessors -------------------------------------------------------

    @property
    def signature(self) -> Signature:
        return self._signature

    @property
    def universe(self) -> FrozenSet[Element]:
        return self._universe

    @property
    def universe_order(self) -> Tuple[Element, ...]:
        """The universe in deterministic (insertion) order."""
        return self._universe_order

    def relation(self, key: object) -> FrozenSet[Tup]:
        """The interpretation of a relation symbol (by symbol or name)."""
        rel = self._relations[self._resolve_symbol(self._signature, key)]
        return rel if type(rel) is frozenset else rel.flat()

    def relations(self) -> Mapping[RelationSymbol, FrozenSet[Tup]]:
        return {symbol: flat(rel) for symbol, rel in self._relations.items()}

    def tuples(self, key: object) -> AbstractSet[Tup]:
        """The relation of a symbol for membership probes, its length and
        iteration: the frozenset :meth:`relation` returns, or on a version
        that :meth:`with_tuple` derived, the version itself, read without
        flattening."""
        return self._relations[self._resolve_symbol(self._signature, key)]

    def has_tuple(self, key: object, tup: Tup) -> bool:
        return tuple(tup) in self.tuples(key)

    def order(self) -> int:
        """``|A|``: the number of universe elements."""
        return len(self._universe_order)

    def size(self) -> int:
        """``||A||`` = |A| + sum of relation cardinalities."""
        return self._size

    def __contains__(self, element: Element) -> bool:
        return element in self._universe

    def __len__(self) -> int:
        return len(self._universe_order)

    # -- derived data (lazy, cached) -------------------------------------------

    def index(self, key: object, position: int) -> Dict[Element, Tuple[Tup, ...]]:
        """Per-position index: maps each value ``v`` to the tuples of the
        relation whose ``position``-th entry is ``v``.  Built lazily."""
        symbol = self._resolve_symbol(self._signature, key)
        if not 0 <= position < symbol.arity:
            raise ArityError(
                f"position {position} out of range for {symbol.name}/{symbol.arity}"
            )
        cache_key = (symbol.name, position)
        cached = self._indexes.get(cache_key)
        if cached is None:
            built: Dict[Element, List[Tup]] = {}
            for tup in self._relations[symbol]:
                built.setdefault(tup[position], []).append(tup)
            cached = {v: tuple(ts) for v, ts in built.items()}
            for holder in self._holders(symbol):
                holder._indexes.setdefault(cache_key, cached)
        return cached

    def projection(
        self, key: object, bound: Tuple[int, ...], targets: Tuple[int, ...]
    ) -> Dict[object, Tuple[Element, ...]]:
        """The relation projected onto ``targets`` and grouped by the values
        at ``bound``: maps each bound-value key to the distinct values ``v``
        such that some tuple carries ``v`` at *every* target position (a
        repeated variable) and that key at the bound positions.  Built
        lazily, once per ``(relation, bound, targets)``.

        The key is the bare value for one bound position, the tuple of
        values for several, and ``()`` for none (the whole relation's
        projection).  Each pool built here iterates in the order of a
        ``set`` filled in relation order: guarded enumeration's candidate
        order.  A pool that :meth:`with_tuple` patched holds exactly the
        members a rebuild would, but may iterate in another order.
        """
        symbol = self._resolve_symbol(self._signature, key)
        for position in bound + targets:
            if not 0 <= position < symbol.arity:
                raise ArityError(
                    f"position {position} out of range for {symbol.name}/{symbol.arity}"
                )
        cache_key = (symbol.name, bound, targets)
        cached = self._projections.get(cache_key)
        if cached is None:
            first, repeats = targets[0], targets[1:]
            key_of = _group_of(bound)
            pools: Dict[object, Set[Element]] = {}
            for tup in self._relations[symbol]:
                value = tup[first]
                if repeats and any(tup[p] != value for p in repeats):
                    continue
                group = key_of(tup)
                pool = pools.get(group)
                if pool is None:
                    pool = pools[group] = set()
                pool.add(value)
            cached = {group: tuple(pool) for group, pool in pools.items()}
            for holder in self._holders(symbol):
                holder._projections.setdefault(cache_key, cached)
        return cached

    def _holders(self, symbol: RelationSymbol) -> Iterable["Structure"]:
        """This structure, then each structure it expands that holds the
        very relation it has for ``symbol`` (an inherited relation): an
        index or projection of that relation is valid on all of them.  A
        fresh symbol's relation stops at this structure."""
        relation = self._relations[symbol]
        holder: "Structure | None" = self
        while holder is not None and holder._relations.get(symbol) is relation:
            yield holder
            holder = holder._base

    def interner(self):
        """The structure's :class:`~repro.structures.interning.ElementInterner`
        (lazy; shared with structures derived via :meth:`with_tuple`, since
        the universe — and hence the id space — is identical)."""
        if self._interner is None:
            from .interning import ElementInterner

            self._interner = ElementInterner(self._universe_order)
        return self._interner

    def columnar(self):
        """The structure's :class:`~repro.structures.columnar.
        ColumnarStructure` — the id-space view the kernel-backed evaluation
        paths run on.  Lazy, cached, dropped by :meth:`invalidate_caches`."""
        if self._columnar is None:
            from .columnar import ColumnarStructure

            self._columnar = ColumnarStructure(self)
        return self._columnar

    def invalidate_caches(self) -> None:
        """Drop all lazily derived data (per-position indexes, projections,
        the columnar view, the content digest) and recount :meth:`size`.

        The public API never needs this — structures are immutable and the
        caches are therefore always consistent.  It exists for code that
        mutates ``_relations`` in place (test fixtures, instrumentation):
        after any such mutation the caches are stale and *must* be dropped,
        or :meth:`index` / :meth:`columnar` will answer for the old
        relational content.  The interner survives: in-place mutation can
        only touch ``_relations``, never the universe it is built from.
        """
        self._size = len(self._universe_order) + sum(
            len(rel) for rel in self._relations.values()
        )
        self._indexes.clear()
        self._projections.clear()
        self._columnar = None
        self._digest = None

    # -- derivation (copy-on-write updates) --------------------------------------

    def with_tuple(self, key: object, tup: Tup, present: bool = True) -> "Structure":
        """A structure that differs from this one by exactly one tuple.

        Validates only the delta (arity and universe membership of ``tup``)
        instead of revalidating every relation, and shares with the parent:

        * the universe, signature and size bookkeeping;
        * every *untouched* relation, with its per-position index and
          projection caches;
        * the touched relation itself, as the base of a version that
          carries the tuple in its patch (see the cache contract above).

        The touched relation's built indexes are patched at the tuple's
        group: a version of the table whose patch gives that group's pool
        with the tuple added (or removed), and a pool left empty removed.
        So are its built projections whose bound and target positions
        cover the relation, as a binary relation's two guard shapes do:
        there the tuple is the only witness of its value in its group.  Its
        other projections are dropped and rebuilt lazily.  A patched pool
        holds exactly a rebuild's members, in an order that may differ.

        A built columnar view is derived, on insertion and on deletion
        (:meth:`~repro.structures.columnar.ColumnarStructure.derive_insert`,
        :meth:`~repro.structures.columnar.ColumnarStructure.derive_delete`):
        the derived view patches the parent's neighbour tuples at the
        tuple's entries only, keeping a deleted edge that another tuple
        still witnesses.  A write therefore costs its patches and the
        Gaifman kernels its tuple's balls, not a copy of any container.

        Returns ``self`` unchanged when the update is a no-op (inserting a
        present tuple / deleting an absent one).  The parent structure and
        its caches are never touched — this is the copy-on-write leg of the
        cache contract above.
        """
        symbol = self._resolve_symbol(self._signature, key)
        (tup,) = _checked(symbol, (tup,), self._universe)
        current = self._relations[symbol]
        if (tup in current) == present:
            return self

        relations = dict(self._relations)
        relations[symbol] = PatchedSet.derive(current, {tup: True if present else ABSENT})
        derived = Structure.__new__(Structure)._fill(
            self._signature, self._universe_order, relations, self._universe
        )
        # Caches of untouched relations stay valid; the touched relation's
        # are patched at the tuple's group, or dropped (see above).  The
        # items are snapshotted first: an expansion of this structure on
        # another thread may store a cache here meanwhile.
        name = symbol.name
        indexes = derived._indexes
        for cache_key, index in tuple(self._indexes.items()):
            if cache_key[0] == name:
                index = _patched(index, tup[cache_key[1]], tup, present)
            indexes[cache_key] = index
        projections = derived._projections
        for cache_key, pools in tuple(self._projections.items()):
            if cache_key[0] == name:
                _, bound, targets = cache_key
                if len(set(bound + targets)) < symbol.arity:
                    continue
                value = tup[targets[0]]
                if all(tup[p] == value for p in targets[1:]):
                    pools = _patched(pools, _group_of(bound)(tup), value, present)
            projections[cache_key] = pools
        # Same universe, same id space: the interner is shared, keeping ids
        # stable along derivation chains.  A built columnar view is derived
        # by the one tuple's Gaifman edges, on insertion and on deletion.
        derived._interner = self._interner
        if self._columnar is not None and present:
            derived._columnar = self._columnar.derive_insert(derived, tup)
        elif self._columnar is not None:
            derived._columnar = self._columnar.derive_delete(derived, tup)
        return derived

    def with_relations(
        self, signature: Signature, relations: Mapping[object, Iterable[Tup]]
    ) -> "Structure":
        """The expansion of this structure to ``signature`` (a superset of
        its own) by the fresh relations in ``relations``; fresh symbols
        missing there are empty.

        Validates only the fresh tuples and shares with the parent, as
        :meth:`with_tuple` does: the universe and its interner, every
        existing relation with its per-position index and projection
        caches, and the columnar view's neighbour tuples when every fresh
        symbol has arity at most 1 (such a relation adds no Gaifman edge).
        Otherwise the view is rebuilt lazily.

        Sharing runs both ways for the inherited relations: an index or
        projection the expansion builds for one of them is stored on the
        parent too (and on the parent's parent, while the relation is
        inherited), so the next expansion of the parent finds it.  Those of
        fresh symbols stay on the expansion.
        """
        if not self._signature.is_subsignature_of(signature):
            raise SignatureError("an expansion must keep every existing symbol")
        fresh: Dict[RelationSymbol, FrozenSet[Tup]] = {
            symbol: frozenset() for symbol in signature if symbol not in self._signature
        }
        for key, tuples in relations.items():
            symbol = self._resolve_symbol(signature, key)
            if symbol in self._signature:
                raise SignatureError(
                    f"{symbol!r} is already interpreted; expansions may only add symbols"
                )
            fresh[symbol] = _checked(symbol, tuples, self._universe)

        relations = {
            symbol: fresh[symbol] if symbol in fresh else self._relations[symbol]
            for symbol in signature
        }
        derived = Structure.__new__(Structure)._fill(
            signature, self._universe_order, relations, self._universe
        )
        derived._indexes = dict(self._indexes)
        derived._projections = dict(self._projections)
        derived._base = self
        derived._interner = self._interner
        if self._columnar is not None and all(symbol.arity <= 1 for symbol in fresh):
            derived._columnar = self._columnar._derive(derived, self._columnar._neigh)
        return derived

    # -- pickling ----------------------------------------------------------------

    def __getstate__(self):
        """Pickle only the defining data (signature, ordered universe,
        relations as frozensets) — derived caches are rebuilt lazily on the
        receiving side.  This keeps payloads shipped to child processes
        compact: indexes, projections, the columnar view, the digest and a
        version's base and patch never cross the pipe."""
        return (self._signature, self._universe_order, self.relations())

    def __setstate__(self, state):
        self._fill(*state)

    # -- equality is extensional -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self._signature == other._signature
            and self._universe == other._universe
            and self.relations() == other.relations()
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._signature,
                self._universe,
                tuple(
                    sorted(
                        ((s.name, rel) for s, rel in self.relations().items()),
                        key=lambda pair: pair[0],
                    )
                ),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rels = ", ".join(
            f"{s.name}:{len(rel)}" for s, rel in sorted(self._relations.items(), key=lambda p: p[0].name)
        )
        return f"Structure(|A|={self.order()}, {rels})"
