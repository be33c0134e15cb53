"""Structure-level operations: expansions, reducts, disjoint unions,
relabelling, and isomorphism-invariant fingerprints (Section 2).

These are the algebraic operations the paper's constructions rely on:

* sigma'-expansions and sigma-reducts (used throughout Sections 5-8 whenever
  fresh unary/0-ary symbols are added);
* disjoint unions (Feferman-Vaught style reasoning in Lemma 6.4);
* the free-variable elimination of Section 5 adds singleton unary relations,
  provided here as :func:`pin_elements`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, Mapping, Tuple

from ..errors import SignatureError, UniverseError
from .signature import Signature
from .structure import Element, Structure, Tup


def expansion(
    structure: Structure,
    new_symbols: Signature,
    new_relations: Mapping[object, Iterable[Tup]],
) -> Structure:
    """The (sigma ∪ new_symbols)-expansion of ``structure``.

    ``new_relations`` interprets the fresh symbols; existing relations are
    kept unchanged.  Fresh symbols missing from ``new_relations`` get the
    empty relation.  Only the fresh tuples are validated; the expansion
    shares the parent's relations and still-valid caches (see
    :meth:`Structure.with_relations`).
    """
    return structure.with_relations(
        structure.signature.union(new_symbols), new_relations
    )


def reduct(structure: Structure, signature: Signature) -> Structure:
    """The sigma-reduct: forget all symbols outside ``signature``."""
    if not signature.is_subsignature_of(structure.signature):
        raise SignatureError("reduct target must be a sub-signature")
    relations = {
        symbol: structure.relation(symbol) for symbol in signature
    }
    return Structure(signature, structure.universe_order, relations)


def pin_elements(
    structure: Structure, assignments: Mapping[str, Element]
) -> Structure:
    """Section 5's free-variable elimination on the structure side.

    For each ``name -> a`` adds a fresh unary symbol ``name`` interpreted as
    the singleton ``{a}``.  The companion formula rewriting lives in
    :mod:`repro.core.query`.
    """
    fresh = Signature.of(**{name: 1 for name in assignments})
    interpretation = {
        name: [(element,)] for name, element in assignments.items()
    }
    for name, element in assignments.items():
        if element not in structure:
            raise UniverseError(f"pinned element {element!r} not in the universe")
    return expansion(structure, fresh, interpretation)


def disjoint_union(left: Structure, right: Structure) -> Structure:
    """The disjoint union of two structures over the same signature.

    Universe elements are tagged with 0/1 to force disjointness:
    the result's elements are ``(0, a)`` for ``a`` in ``left`` and ``(1, b)``
    for ``b`` in ``right``.
    """
    if left.signature != right.signature:
        raise SignatureError("disjoint union requires identical signatures")

    def tag(which: int, tup: Tup) -> Tup:
        return tuple((which, entry) for entry in tup)

    universe = [(0, a) for a in left.universe_order] + [
        (1, b) for b in right.universe_order
    ]
    relations = {}
    for symbol in left.signature:
        relations[symbol] = {tag(0, t) for t in left.relation(symbol)} | {
            tag(1, t) for t in right.relation(symbol)
        }
    return Structure(left.signature, universe, relations)


def relabel(structure: Structure, mapping: "Mapping[Element, Element] | Callable[[Element], Element]") -> Structure:
    """Rename universe elements through an injective mapping."""
    if callable(mapping) and not isinstance(mapping, Mapping):
        fn = mapping
    else:
        table = dict(mapping)
        fn = table.__getitem__
    new_universe = [fn(a) for a in structure.universe_order]
    if len(set(new_universe)) != len(new_universe):
        raise UniverseError("relabelling must be injective")
    relations = {
        symbol: {tuple(fn(entry) for entry in tup) for tup in rel}
        for symbol, rel in structure.relations().items()
    }
    return Structure(structure.signature, new_universe, relations)


def are_isomorphic(left: Structure, right: Structure, limit: int = 8) -> bool:
    """Exact isomorphism test by backtracking, for small structures only.

    Intended for tests; refuses structures with more than ``limit`` elements
    (the search is factorial).  Uses degree/relation profiles to prune.
    """
    if left.signature != right.signature:
        return False
    if left.order() != right.order():
        return False
    if left.order() > limit:
        raise ValueError(
            f"are_isomorphic is a test helper; order {left.order()} exceeds limit {limit}"
        )
    for symbol in left.signature:
        if len(left.relation(symbol)) != len(right.relation(symbol)):
            return False

    left_elems = list(left.universe_order)
    right_elems = list(right.universe_order)

    def profile(structure: Structure, element: Element) -> Tuple:
        parts = []
        for symbol in structure.signature:
            count = 0
            positions = []
            for tup in structure.relation(symbol):
                occurrences = tuple(i for i, entry in enumerate(tup) if entry == element)
                if occurrences:
                    count += 1
                    positions.append(occurrences)
            parts.append((count, tuple(sorted(positions))))
        return tuple(parts)

    left_profiles = {a: profile(left, a) for a in left_elems}
    right_profiles = {b: profile(right, b) for b in right_elems}
    if sorted(left_profiles.values()) != sorted(right_profiles.values()):
        return False

    def consistent(mapping: Dict[Element, Element]) -> bool:
        mapped = set(mapping)
        for symbol in left.signature:
            right_rel = right.relation(symbol)
            for tup in left.relation(symbol):
                if all(entry in mapped for entry in tup):
                    image = tuple(mapping[entry] for entry in tup)
                    if image not in right_rel:
                        return False
        return True

    def extend(index: int, mapping: Dict[Element, Element], used: set) -> bool:
        if index == len(left_elems):
            # Verify the inverse direction: mapping must be onto each relation.
            inverse = {b: a for a, b in mapping.items()}
            for symbol in left.signature:
                left_rel = left.relation(symbol)
                for tup in right.relation(symbol):
                    pre = tuple(inverse[entry] for entry in tup)
                    if pre not in left_rel:
                        return False
            return True
        a = left_elems[index]
        for b in right_elems:
            if b in used or right_profiles[b] != left_profiles[a]:
                continue
            mapping[a] = b
            used.add(b)
            if consistent(mapping) and extend(index + 1, mapping, used):
                return True
            del mapping[a]
            used.discard(b)
        return False

    return extend(0, {}, set())


def substructures_of(structure: Structure, max_order: int) -> Iterable[Structure]:
    """All induced substructures up to ``max_order`` elements (test helper)."""
    elems = list(structure.universe_order)
    for size in range(1, min(max_order, len(elems)) + 1):
        for subset in itertools.combinations(elems, size):
            from .gaifman import induced

            yield induced(structure, subset)
