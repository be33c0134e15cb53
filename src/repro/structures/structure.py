"""Finite relational structures (Section 2 of the paper).

A sigma-structure ``A`` consists of a finite non-empty universe and one finite
relation per symbol of its signature.  Structures here are immutable after
construction; derived data (Gaifman adjacency, per-position indexes) is
computed lazily and cached, which is safe precisely because the relational
content never changes.

Universe elements may be arbitrary hashable Python objects.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    AbstractSet,
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
    Derived data — the Gaifman :meth:`adjacency`, the per-position
    :meth:`index` maps, the :meth:`projection` pools and the
    :meth:`columnar` view — is computed lazily and cached on the instance.
    This is sound because the relational content never changes through the
    public API.  The columnar view's neighbour tuples are the Gaifman
    adjacency every function of :mod:`repro.structures.gaifman` reads;
    :meth:`adjacency` is an independent element-space build from the
    relations, for the element-space callers and the reference oracle.
    "Updates" are expressed as *derivation*: :meth:`with_tuple` returns a
    **new** structure sharing the unchanged relations (and the still-valid
    caches) with its parent and deriving its columnar view from the
    parent's, so a query → update → query sequence always sees fresh
    derived data on the derived structure while the parent's caches stay
    valid for the parent.  :meth:`with_relations` (the expansion by fresh
    symbols) derives the same way: the parent's relations and the index and
    projection caches built for them are shared, and so is the adjacency
    when the fresh symbols add no Gaifman edges.  A derived structure
    copies the cache *mappings*, never shares them, so what it builds later
    (say, a projection of a fresh relation that another expansion of the
    same parent interprets differently) never reaches the parent.  Code
    that nevertheless reaches into the internals (test harnesses, surgical
    subclasses) must call :meth:`invalidate_caches` afterwards or the next
    :meth:`adjacency` / :meth:`index` / :meth:`projection` read will serve
    stale answers.

    The content digest of :func:`repro.robust.checkpoint.structure_digest`
    is cached in ``_digest``, opaque to this module like ``_stats``.  It
    describes the relations, so every structure that does not come from
    ``__init__`` starts without one: :meth:`with_tuple` (unless the update
    is a no-op and returns ``self``), :meth:`with_relations` and
    unpickling.  :meth:`invalidate_caches` drops it.
    """

    __slots__ = (
        "_signature",
        "_universe_order",
        "_universe",
        "_relations",
        "_adjacency",
        "_indexes",
        "_projections",
        "_size",
        "_stats",
        "_interner",
        "_columnar",
        "_digest",
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
        right arity over it for every symbol of ``signature`` — with no
        cache built; returns ``self``.  ``__init__`` validates first;
        derivations (:meth:`with_tuple`, :meth:`with_relations`, the
        removal surgery of :mod:`repro.core.removal`) fill a
        ``Structure.__new__(Structure)`` and then share what stays valid
        of their parent's caches."""
        self._signature = signature
        self._universe_order = universe_order
        self._universe = frozenset(universe_order) if universe is None else universe
        self._relations = relations
        self._size = len(universe_order) + sum(len(rel) for rel in relations.values())
        self._adjacency: "Dict[Element, FrozenSet[Element]] | None" = None
        self._indexes: Dict[Tuple[str, int], Dict[Element, Tuple[Tup, ...]]] = {}
        self._projections: Dict[Tuple, Dict[object, Tuple[Element, ...]]] = {}
        # Cached cost-model statistics (repro.cost.stats.StructureStats).
        # Opaque to this module: built and read through structure_stats(),
        # derived duck-typed in with_tuple(), dropped by invalidate_caches().
        self._stats: "object | None" = None
        # Interned-id layer (repro.structures.interning / .columnar), lazy.
        # The interner depends only on the universe and is therefore shared
        # with derived structures and kept across invalidate_caches(); the
        # columnar view depends on the relations and follows the same
        # lifecycle as adjacency/indexes/stats.
        self._interner: "object | None" = None
        self._columnar: "object | None" = None
        # Content digest (repro.robust.checkpoint.structure_digest), lazy;
        # built and read only there.
        self._digest: "str | None" = None
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
        return self._relations[self._resolve_symbol(self._signature, key)]

    def relations(self) -> Mapping[RelationSymbol, FrozenSet[Tup]]:
        return dict(self._relations)

    def has_tuple(self, key: object, tup: Tup) -> bool:
        return tuple(tup) in self.relation(key)

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

    def adjacency(self) -> Dict[Element, FrozenSet[Element]]:
        """Gaifman-graph adjacency: ``a`` and ``b`` are adjacent iff distinct
        and co-occurring in some tuple of some relation."""
        if self._adjacency is None:
            neighbours: Dict[Element, set] = {a: set() for a in self._universe_order}
            for rel in self._relations.values():
                for tup in rel:
                    distinct = set(tup)
                    if len(distinct) < 2:
                        continue
                    for a in distinct:
                        for b in distinct:
                            if a != b:
                                neighbours[a].add(b)
            self._adjacency = {a: frozenset(ns) for a, ns in neighbours.items()}
        return self._adjacency

    def index(self, key: object, position: int) -> Dict[Element, Tuple[Tup, ...]]:
        """Per-position index: maps each value ``v`` to the tuples of the
        relation whose ``position``-th entry is ``v``.  Built lazily."""
        symbol = self._resolve_symbol(self._signature, key)
        if not 0 <= position < symbol.arity:
            raise ArityError(
                f"position {position} out of range for {symbol.name}/{symbol.arity}"
            )
        cache_key = (symbol.name, position)
        if cache_key not in self._indexes:
            built: Dict[Element, List[Tup]] = {}
            for tup in self._relations[symbol]:
                built.setdefault(tup[position], []).append(tup)
            self._indexes[cache_key] = {v: tuple(ts) for v, ts in built.items()}
        return self._indexes[cache_key]

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
        projection).  Each pool iterates in the order of a ``set`` filled in
        relation order: guarded enumeration's candidate order.
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
            if len(bound) == 1:
                key_of = itemgetter(bound[0])
            elif bound:
                key_of = itemgetter(*bound)
            else:
                key_of = lambda tup: ()  # noqa: E731
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
            self._projections[cache_key] = cached
        return cached

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
        """Drop all lazily derived data (adjacency, per-position indexes,
        projections, cost-model statistics, the columnar view, the content
        digest).

        The public API never needs this — structures are immutable and the
        caches are therefore always consistent.  It exists for code that
        mutates ``_relations`` in place (test fixtures, instrumentation):
        after any such mutation the caches are stale and *must* be dropped,
        or :meth:`adjacency` / :meth:`index` will answer for the old
        relational content.  The interner survives: in-place mutation can
        only touch ``_relations``, never the universe it is built from.
        """
        self._adjacency = None
        self._indexes.clear()
        self._projections.clear()
        self._stats = None
        self._columnar = None
        self._digest = None

    # -- derivation (copy-on-write updates) --------------------------------------

    def with_tuple(self, key: object, tup: Tup, present: bool = True) -> "Structure":
        """A structure that differs from this one by exactly one tuple.

        Validates only the delta (arity and universe membership of ``tup``)
        instead of revalidating every relation, and shares with the parent:

        * the universe, signature and size bookkeeping;
        * the per-position index and projection caches of every
          *untouched* relation (the touched relation's are dropped and
          rebuilt lazily);
        * the adjacency dict of :meth:`adjacency` when the tuple has fewer
          than two distinct entries, and so no Gaifman edge (otherwise the
          derived structure rebuilds it lazily).

        A built columnar view is derived, on insertion and on deletion
        (:meth:`~repro.structures.columnar.ColumnarStructure.derive_insert`,
        :meth:`~repro.structures.columnar.ColumnarStructure.derive_delete`):
        the derived view changes the parent's neighbour tuples by the
        tuple's Gaifman edges only, keeping a deleted edge that another
        tuple still witnesses.  A write therefore costs the Gaifman kernels
        its tuple's balls, not an adjacency rebuild over ``||A||``.

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
        relations[symbol] = (
            current | {tup} if present else current - {tup}
        )
        derived = Structure.__new__(Structure)._fill(
            self._signature, self._universe_order, relations, self._universe
        )
        # Index caches of untouched relations stay valid; the touched
        # relation's are rebuilt lazily on demand.
        derived._indexes = {
            cache_key: index
            for cache_key, index in self._indexes.items()
            if cache_key[0] != symbol.name
        }
        derived._projections = {
            cache_key: pools
            for cache_key, pools in self._projections.items()
            if cache_key[0] != symbol.name
        }
        # A tuple with fewer than two distinct entries has no Gaifman edge,
        # so the parent's adjacency dict is the derived one; otherwise the
        # dict is rebuilt lazily from the relations.
        derived._adjacency = self._adjacency if len(set(tup)) < 2 else None
        # Statistics follow the same copy-on-write discipline as the other
        # caches: the parent's stay untouched, the derived structure gets an
        # incrementally adjusted copy (duck-typed so this module stays free
        # of a repro.cost import).
        if self._stats is not None:
            derived._stats = self._stats.derive(symbol.name, present, derived)
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
        caches, and the Gaifman adjacency when every fresh symbol has arity
        at most 1 (such a relation adds no Gaifman edge).  The statistics
        and the columnar view are rebuilt lazily.
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
        derived._adjacency = (
            self._adjacency if all(symbol.arity <= 1 for symbol in fresh) else None
        )
        derived._interner = self._interner
        return derived

    # -- pickling ----------------------------------------------------------------

    def __getstate__(self):
        """Pickle only the defining data (signature, ordered universe,
        relations) — derived caches are rebuilt lazily on the receiving
        side.  This keeps process-backend payloads compact: adjacency,
        indexes, the columnar view and the digest never cross the pipe."""
        return (self._signature, self._universe_order, self._relations)

    def __setstate__(self, state):
        self._fill(*state)

    # -- equality is extensional -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self._signature == other._signature
            and self._universe == other._universe
            and self._relations == other._relations
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._signature,
                self._universe,
                tuple(
                    sorted(
                        ((s.name, rel) for s, rel in self._relations.items()),
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
