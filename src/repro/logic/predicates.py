"""Numerical predicate collections (P, ar, ⟦.⟧) — Section 3.

A numerical predicate is a named, fixed-arity predicate over the integers.
The paper treats the collection P as a parameter of the logic and assumes a
*P-oracle*: membership ``(i_1, ..., i_m) in ⟦P⟧`` is decided at unit cost.
We realise predicates as Python callables and count oracle invocations so
that benchmarks can report them.

The collection shipped as :data:`STANDARD_PREDICATES` contains the paper's
basic examples (P>=1, P=, P<=, Prime) plus a few conveniences used by the
test and benchmark workloads.  The paper requires every collection to contain
P>=1; :class:`PredicateCollection` enforces that on construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, Tuple

from ..errors import PredicateError


@dataclass(frozen=True)
class NumericalPredicate:
    """A named predicate over integer tuples.

    ``semantics`` decides membership in ⟦P⟧ ⊆ Z^arity.  It must be pure: the
    evaluation engines freely cache and reorder oracle calls.
    """

    name: str
    arity: int
    semantics: Callable[[Tuple[int, ...]], bool] = field(compare=False)

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise PredicateError(
                f"numerical predicate {self.name!r} must have arity >= 1"
            )

    def holds(self, values: Tuple[int, ...]) -> bool:
        if len(values) != self.arity:
            raise PredicateError(
                f"predicate {self.name} has arity {self.arity}, got {len(values)} arguments"
            )
        return bool(self.semantics(values))


class PredicateCollection:
    """A numerical predicate collection with an oracle-call counter.

    Iteration yields predicates sorted by name; the counter
    :attr:`oracle_calls` increases on every semantic membership query, which
    the benchmark harness reads to report "P-oracle cost" per evaluation.
    """

    def __init__(self, predicates: Iterable[NumericalPredicate], require_geq1: bool = True):
        self._by_name: Dict[str, NumericalPredicate] = {}
        for predicate in predicates:
            if predicate.name in self._by_name:
                raise PredicateError(f"duplicate predicate name {predicate.name!r}")
            self._by_name[predicate.name] = predicate
        if require_geq1 and "geq1" not in self._by_name:
            raise PredicateError(
                "the paper fixes collections containing P>=1; add the 'geq1' "
                "predicate or pass require_geq1=False"
            )
        self.oracle_calls = 0

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> NumericalPredicate:
        try:
            return self._by_name[name]
        except KeyError:
            raise PredicateError(f"unknown numerical predicate {name!r}") from None

    def __iter__(self) -> Iterator[NumericalPredicate]:
        return iter(sorted(self._by_name.values(), key=lambda p: p.name))

    def __len__(self) -> int:
        return len(self._by_name)

    def arity(self, name: str) -> int:
        return self[name].arity

    def query(self, name: str, values: Tuple[int, ...]) -> bool:
        """The P-oracle: decide ``values in ⟦name⟧`` (counted)."""
        self.oracle_calls += 1
        return self[name].holds(tuple(values))

    def extended(self, *predicates: NumericalPredicate) -> "PredicateCollection":
        """A new collection with additional predicates."""
        return PredicateCollection(list(self._by_name.values()) + list(predicates))

    def reset_counter(self) -> None:
        self.oracle_calls = 0


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    divisor = 3
    while divisor * divisor <= n:
        if n % divisor == 0:
            return False
        divisor += 2
    return True


# The standard semantics are module-level functions, not lambdas, so the
# standard collection pickles and crosses to worker processes as itself.


def _geq1(v: Tuple[int, ...]) -> bool:
    return v[0] >= 1


def _eq(v: Tuple[int, ...]) -> bool:
    return v[0] == v[1]


def _leq(v: Tuple[int, ...]) -> bool:
    return v[0] <= v[1]


def _prime(v: Tuple[int, ...]) -> bool:
    return _is_prime(v[0])


def _gt(v: Tuple[int, ...]) -> bool:
    return v[0] > v[1]


def _lt(v: Tuple[int, ...]) -> bool:
    return v[0] < v[1]


def _neq(v: Tuple[int, ...]) -> bool:
    return v[0] != v[1]


def _even(v: Tuple[int, ...]) -> bool:
    return v[0] % 2 == 0


def _odd(v: Tuple[int, ...]) -> bool:
    return v[0] % 2 == 1


def _divides(v: Tuple[int, ...]) -> bool:
    return v[0] != 0 and v[1] % v[0] == 0


def _zero(v: Tuple[int, ...]) -> bool:
    return v[0] == 0


#: P>=1 — required by the paper in every collection.
GEQ1 = NumericalPredicate("geq1", 1, _geq1)
#: P= — the equality predicate of Theorems 4.1/4.3 and Example 5.4.
EQ = NumericalPredicate("eq", 2, _eq)
#: P<= — the order predicate from Section 3's examples.
LEQ = NumericalPredicate("leq", 2, _leq)
#: Prime — from Example 3.2.
PRIME = NumericalPredicate("prime", 1, _prime)
#: Strictly-positive variants and small conveniences for workloads.
GT = NumericalPredicate("gt", 2, _gt)
LT = NumericalPredicate("lt", 2, _lt)
NEQ = NumericalPredicate("neq", 2, _neq)
EVEN = NumericalPredicate("even", 1, _even)
ODD = NumericalPredicate("odd", 1, _odd)
DIVIDES = NumericalPredicate("divides", 2, _divides)
ZERO = NumericalPredicate("zero", 1, _zero)


def standard_collection() -> PredicateCollection:
    """A fresh collection with the paper's basic predicates (fresh counter)."""
    return PredicateCollection(
        [GEQ1, EQ, LEQ, PRIME, GT, LT, NEQ, EVEN, ODD, DIVIDES, ZERO]
    )


#: A module-level default instance, used when no collection is supplied.
STANDARD_PREDICATES = standard_collection()
