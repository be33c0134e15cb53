"""Tests for numerical predicate collections (the P-oracle)."""

import itertools
import pickle

import pytest

from repro.errors import PredicateError
from repro.logic.predicates import (
    EQ,
    GEQ1,
    PRIME,
    NumericalPredicate,
    PredicateCollection,
    standard_collection,
)


class TestPredicates:
    def test_geq1(self):
        assert GEQ1.holds((1,)) and GEQ1.holds((5,))
        assert not GEQ1.holds((0,)) and not GEQ1.holds((-2,))

    def test_eq(self):
        assert EQ.holds((3, 3)) and not EQ.holds((3, 4))

    def test_prime_semantics(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 97}
        for n in range(-5, 100):
            assert PRIME.holds((n,)) == (n in primes or (n > 23 and _slow_prime(n)))

    def test_arity_validation(self):
        with pytest.raises(PredicateError):
            NumericalPredicate("bad", 0, lambda v: True)
        with pytest.raises(PredicateError):
            EQ.holds((1,))


def _slow_prime(n):
    return n > 1 and all(n % d for d in range(2, n))


class TestCollection:
    def test_standard_contains_paper_basics(self):
        collection = standard_collection()
        for name in ("geq1", "eq", "leq", "prime"):
            assert name in collection

    def test_geq1_required(self):
        with pytest.raises(PredicateError):
            PredicateCollection([EQ])
        # but can be waived explicitly
        PredicateCollection([EQ], require_geq1=False)

    def test_duplicate_names_rejected(self):
        with pytest.raises(PredicateError):
            PredicateCollection([GEQ1, NumericalPredicate("geq1", 1, lambda v: True)])

    def test_oracle_counting(self):
        collection = standard_collection()
        assert collection.oracle_calls == 0
        collection.query("eq", (1, 1))
        collection.query("geq1", (0,))
        assert collection.oracle_calls == 2
        collection.reset_counter()
        assert collection.oracle_calls == 0

    def test_unknown_predicate(self):
        with pytest.raises(PredicateError):
            standard_collection().query("nope", (1,))

    def test_extended(self):
        custom = NumericalPredicate("big", 1, lambda v: v[0] > 100)
        collection = standard_collection().extended(custom)
        assert collection.query("big", (101,))
        assert "big" not in standard_collection()

    def test_iteration_sorted(self):
        names = [p.name for p in standard_collection()]
        assert names == sorted(names)


# Each standard predicate's meaning, written out independently of the
# module's definitions.  "divides" follows the module's convention that
# 0 divides nothing.
_DEFINITIONS = {
    "geq1": lambda a: a >= 1,
    "eq": lambda a, b: a == b,
    "leq": lambda a, b: not b < a,
    "prime": _slow_prime,
    "gt": lambda a, b: b < a,
    "lt": lambda a, b: a < b,
    "neq": lambda a, b: not a == b,
    "even": lambda a: a % 2 == 0,
    "odd": lambda a: a % 2 != 0,
    "divides": lambda a, b: a != 0 and any(a * k == b for k in range(-abs(b), abs(b) + 1)),
    "zero": lambda a: not a,
}


class TestStandardPredicates:
    def test_definitions_cover_the_collection(self):
        assert sorted(p.name for p in standard_collection()) == sorted(_DEFINITIONS)

    @pytest.mark.parametrize("name", sorted(_DEFINITIONS))
    def test_semantics_match_the_definition(self, name):
        predicate = standard_collection()[name]
        definition = _DEFINITIONS[name]
        for values in itertools.product(range(-7, 14), repeat=predicate.arity):
            assert predicate.holds(values) == definition(*values), values

    def test_collection_pickles_as_itself(self):
        # Module-level semantics pickle by reference: the copy a worker
        # process receives holds the very same functions and the
        # sender's oracle count.
        collection = standard_collection()
        collection.query("prime", (7,))
        clone = pickle.loads(pickle.dumps(collection))
        assert clone.oracle_calls == 1
        assert [p.name for p in clone] == [p.name for p in collection]
        for original, copied in zip(collection, clone):
            assert copied == original
            assert copied.semantics is original.semantics
