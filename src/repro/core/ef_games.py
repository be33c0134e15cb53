"""The distance-preserving Ehrenfeucht–Fraïssé game EF+_q (Section 7.1).

Theorem 7.2 (from [13]) characterises indistinguishability by FO+-formulas
of bounded q-rank through an l-round game in which every position must be a
*partial f_q(l-i)-isomorphism*: an isomorphism of induced substructures
that additionally preserves distances up to the (shrinking) threshold.

This module implements:

* :func:`is_partial_r_isomorphism` — the winning condition at one position;
* :func:`duplicator_wins` — exact minimax game solving (exponential: use
  on small structures only; the tests do);
* :func:`distinguish` — a search for an FO+ formula of bounded q-rank
  separating two pointed structures, used to validate Theorem 7.2's
  equivalence empirically.

The rank-preserving machinery of Theorem 7.1 rests on this game; having it
executable lets the test suite check the paper's Lemma 7.3-style transfer
statements on concrete structures.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import FormulaError
from ..logic.semantics import satisfies
from ..logic.syntax import (
    And,
    Atom,
    DistAtom,
    Eq,
    Exists,
    Formula,
    Not,
    Variable,
)
from ..structures.gaifman import distance
from ..structures.structure import Element, Structure
from .rank import fq


def is_partial_r_isomorphism(
    left: Structure,
    left_tuple: Sequence[Element],
    right: Structure,
    right_tuple: Sequence[Element],
    threshold: int,
) -> bool:
    """Whether ``a_i -> b_i`` is a partial r-isomorphism (Section 7.1):
    an isomorphism between the induced substructures on the tuples that
    preserves distances up to ``threshold``."""
    if len(left_tuple) != len(right_tuple):
        return False
    if left.signature != right.signature:
        raise FormulaError("partial isomorphisms need a common signature")
    k = len(left_tuple)
    # consistency as a map (repeated entries must pair up)
    for i in range(k):
        for j in range(k):
            if (left_tuple[i] == left_tuple[j]) != (
                right_tuple[i] == right_tuple[j]
            ):
                return False
    # relation atoms over the tuple
    for symbol in left.signature:
        if symbol.arity == 0:
            if left.relation(symbol) != right.relation(symbol):
                return False
            continue
        positions = range(k)
        for combo in itertools.product(positions, repeat=symbol.arity):
            l_tup = tuple(left_tuple[i] for i in combo)
            r_tup = tuple(right_tuple[i] for i in combo)
            if (l_tup in left.tuples(symbol)) != (r_tup in right.tuples(symbol)):
                return False
    # distance preservation up to the threshold
    for i in range(k):
        for j in range(i + 1, k):
            dl = distance(left, left_tuple[i], left_tuple[j])
            dr = distance(right, right_tuple[i], right_tuple[j])
            if dl <= threshold or dr <= threshold:
                if dl != dr:
                    return False
    return True


def duplicator_wins(
    left: Structure,
    left_tuple: Sequence[Element],
    right: Structure,
    right_tuple: Sequence[Element],
    q: int,
    rounds: int,
) -> bool:
    """Exact solution of the ``rounds``-round EF+_q game on the position
    ``(left, a-bar, right, b-bar)`` (Theorem 7.2's game).

    Exponential in ``rounds`` and the structure sizes; intended for the
    validation experiments on small structures.
    """
    if rounds < 0:
        raise FormulaError("rounds must be non-negative")

    left_elements = tuple(left.universe_order)
    right_elements = tuple(right.universe_order)

    def play(a: Tuple[Element, ...], b: Tuple[Element, ...], remaining: int) -> bool:
        threshold = fq(q, remaining)
        if not is_partial_r_isomorphism(left, a, right, b, threshold):
            return False
        if remaining == 0:
            return True
        # Spoiler moves in the left structure ...
        for pick in left_elements:
            if not any(
                play(a + (pick,), b + (answer,), remaining - 1)
                for answer in right_elements
            ):
                return False
        # ... or in the right structure.
        for pick in right_elements:
            if not any(
                play(a + (answer,), b + (pick,), remaining - 1)
                for answer in left_elements
            ):
                return False
        return True

    return play(tuple(left_tuple), tuple(right_tuple), rounds)


def _formula_pool(
    variables: Tuple[Variable, ...], q: int, rounds: int
) -> Iterable[Formula]:
    """A systematic (not exhaustive) pool of FO+ formulas of q-rank at most
    ``rounds`` over a graph signature, used to probe distinguishability."""
    atoms: List[Formula] = []
    for x in variables:
        for y in variables:
            if x != y:
                atoms.append(Atom("E", (x, y)))
                atoms.append(Eq(x, y))
                for bound in (1, 2, min(fq(q, 0), 8)):
                    atoms.append(DistAtom(x, y, bound))
    yield from atoms
    yield from (Not(a) for a in atoms)
    if rounds >= 1:
        fresh = f"_g{len(variables)}"
        inner_atoms: List[Formula] = []
        for x in variables:
            inner_atoms.append(Atom("E", (x, fresh)))
            inner_atoms.append(Atom("E", (fresh, x)))
            for bound in (1, min(fq(q, max(rounds - 1, 0)), 8)):
                inner_atoms.append(DistAtom(x, fresh, bound))
        for atom in inner_atoms:
            yield Exists(fresh, atom)
            yield Not(Exists(fresh, atom))
            for other in inner_atoms:
                if other is not atom:
                    yield Exists(fresh, And(atom, other))


def distinguish(
    left: Structure,
    left_tuple: Sequence[Element],
    right: Structure,
    right_tuple: Sequence[Element],
    q: int,
    rounds: int,
) -> Optional[Formula]:
    """Search the probe pool for an FO+ formula of q-rank <= ``rounds`` on
    which the two pointed structures disagree; None if none found.

    By Theorem 7.2, if :func:`duplicator_wins` holds then this *must*
    return None — the property the tests check.
    """
    variables = tuple(f"x{i+1}" for i in range(len(left_tuple)))
    left_env = dict(zip(variables, left_tuple))
    right_env = dict(zip(variables, right_tuple))
    for formula in _formula_pool(variables, q, rounds):
        if satisfies(left, formula, left_env) != satisfies(
            right, formula, right_env
        ):
            return formula
    return None
