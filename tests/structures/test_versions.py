"""Structure versions: a written relation, its patched tables and the
view's neighbour tuples share their parent's container as a base and
carry a small patch (:mod:`repro.structures.overlay`).

The property: along a seeded write stream, every version reads exactly
as a structure built fresh from its content — through every reader, the
flattening ones and the ones that read the patch — and every earlier
version still reads as it did.  The streams are long enough to fold each
kind of patch several times.
"""

import pickle
import random
import sys
import threading

import pytest

from repro.robust.checkpoint import structure_digest
from repro.structures.overlay import (
    ABSENT,
    Overlay,
    PatchedRows,
    PatchedSet,
    PatchedTable,
    flat,
)
from repro.structures.signature import Signature
from repro.structures.structure import Structure

from ..reference import gaifman_adjacency
from .test_cache_invalidation import _fresh, _members, _view_graph, _warm

ARITY = {"E": 2, "T": 3, "U": 1}


def _check(version, content, absent, flatten=True):
    """``version`` against a fresh build of ``content`` (name -> frozenset),
    probing membership of every present tuple and of ``absent`` ones.
    Without ``flatten``, only the readers that read a version's patch."""
    fresh = Structure(version.signature, version.universe_order, content)
    for name, expected in content.items():
        tuples = version.tuples(name)
        assert len(tuples) == len(expected)
        assert set(iter(tuples)) == expected
        assert all(tup in tuples for tup in expected)
        assert all(version.has_tuple(name, tup) for tup in expected)
        assert not any(tup in tuples for tup in absent[name] if tup not in expected)
    assert version.size() == fresh.size()
    for (relation, position), table in version._indexes.items():
        assert _members(table) == _members(fresh.index(relation, position))
    for (relation, bound, targets), table in version._projections.items():
        assert _members(table) == _members(fresh.projection(relation, bound, targets))
    assert _view_graph(version) == gaifman_adjacency(fresh)
    if not flatten:
        return
    for name, expected in content.items():
        relation = version.relation(name)
        assert type(relation) is frozenset
        assert relation == expected
    assert structure_digest(version) == structure_digest(fresh)
    clone = pickle.loads(pickle.dumps(version))
    assert clone == fresh and hash(clone) == hash(fresh)
    assert all(type(rel) is frozenset for rel in clone.relations().values())
    assert version == fresh and hash(version) == hash(fresh)


def _stream(seed, steps):
    """A start structure over E/2, T/3 and U/1 on 24 elements, and a
    seeded stream of ``(name, tuple, present)`` writes from it: new
    tuples, deletes of present ones (the added ones among them),
    re-inserts of removed ones and no-op writes."""
    rng = random.Random(seed)
    nodes = list(range(24))

    def draw(name):
        if rng.random() < 0.1:  # a self-loop / all-equal tuple
            return (rng.choice(nodes),) * ARITY[name]
        return tuple(rng.choice(nodes) for _ in range(ARITY[name]))

    content = {
        "E": {draw("E") for _ in range(70)},
        "T": {draw("T") for _ in range(30)},
        "U": {draw("U") for _ in range(9)},
    }
    start = Structure(Signature.of(**ARITY), nodes, content)
    removed = {name: [] for name in ARITY}
    writes = []
    for _ in range(steps):
        name = rng.choice("EEETU")
        present = content[name]
        roll = rng.random()
        if roll < 0.1:  # a no-op: insert a present tuple or delete an absent one
            tup = rng.choice(sorted(present)) if present and roll < 0.05 else draw(name)
            writes.append((name, tup, tup in present))
            continue
        if roll < 0.25 and removed[name]:
            tup = removed[name].pop(rng.randrange(len(removed[name])))
            if tup not in present:
                present.add(tup)
                writes.append((name, tup, True))
                continue
        if roll < 0.6 and present:
            tup = rng.choice(sorted(present))
            present.discard(tup)
            removed[name].append(tup)
            writes.append((name, tup, False))
        else:
            tup = draw(name)
            present.add(tup)
            writes.append((name, tup, True))
    return start, writes


class TestVersionStreams:
    @pytest.mark.parametrize("seed", range(4))
    def test_every_version_reads_as_a_fresh_build(self, seed):
        start, writes = _stream(seed, 300)
        _warm(start)
        start.columnar()._neighbour_ids()
        content = {name: start.relation(name) for name in ARITY}
        absent = {name: set() for name in ARITY}
        history = []
        folds = {PatchedSet: 0, PatchedTable: 0, PatchedRows: 0}
        patched = {PatchedSet: 0, PatchedTable: 0, PatchedRows: 0}
        current = start
        for name, tup, present in writes:
            derived = current.with_tuple(name, tup, present)
            absent[name].add(tup)
            if (tup in content[name]) == present:
                assert derived is current
                continue
            symbol = current.signature[name]
            before = [
                (PatchedSet, current._relations[symbol], derived._relations[symbol]),
                (PatchedRows, current._columnar._neigh, derived._columnar._neigh),
            ] + [
                (PatchedTable, table, derived._indexes[key])
                for key, table in current._indexes.items()
                if key[0] == name
            ]
            for kind, old, new in before:
                if type(new) is kind:
                    patched[kind] += 1
                    if type(old) is kind:  # a flattened parent is the base
                        old = old.base if old._flat is None else old._flat
                    assert new.base is old
                elif type(old) is kind and new is not old:
                    folds[kind] += 1
            # Every 25th version is flattened once its child is derived:
            # what the child shares with it (the relations and tables the
            # write left alone) takes the flattening as its base at its
            # next write.
            _check(current, content, absent, flatten=len(history) % 25 == 0)
            history.append((current, content))
            content = dict(content)
            content[name] = (
                content[name] | {tup} if present else content[name] - {tup}
            )
            _warm(derived)
            current = derived
        _check(current, content, absent)
        for version, expected in history:
            _check(version, expected, absent)
        assert all(count >= 3 for count in folds.values()), folds
        assert all(count >= 20 for count in patched.values()), patched

    def test_concurrent_flattening_and_writes_of_one_version(self):
        """Threads flatten one version (``relation()``, the digest) while
        others derive writes from it, as the service's threads may: the
        flattening is cached by whichever thread gets there first, a
        child derived meanwhile takes either the base or the flattening,
        and every child reads as a fresh build.  A new version per round
        reopens the window."""
        start, writes = _stream(1, 200)
        _warm(start)
        start.columnar()._neighbour_ids()
        versions, current = [], start
        for name, tup, present in writes:
            current = current.with_tuple(name, tup, present)
            versions.append(current)
        versions = [v for v in versions if isinstance(v._relations[v.signature["E"]], Overlay)]
        assert len(versions) >= 20
        rounds = versions[-20:]
        barrier = threading.Barrier(8)
        failures = []

        def run(k):
            rng = random.Random(k)
            try:
                for version in rounds:
                    content = {name: frozenset(version.tuples(name)) for name in ARITY}
                    barrier.wait(timeout=30)
                    if k % 2:
                        assert {name: version.relation(name) for name in ARITY} == content
                        structure_digest(version)
                        continue
                    name = "E" if k % 4 else "T"
                    tup = rng.choice(sorted(content[name]))
                    child = version.with_tuple(name, tup, present=False)
                    _warm(child)
                    expected = dict(content, **{name: content[name] - {tup}})
                    _check(child, expected, {n: set() for n in ARITY}, flatten=False)
            except Exception as error:  # an assertion in a thread is lost
                failures.append((k, error))
                barrier.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        for version in rounds:
            assert structure_digest(version) == structure_digest(_fresh(version))

    def test_plain_structures_hold_plain_containers(self):
        start, writes = _stream(0, 40)
        _warm(start)
        start.columnar()._neighbour_ids()
        current = start
        for name, tup, present in writes:
            current = current.with_tuple(name, tup, present)
        rebuilt = _fresh(current)
        expanded = rebuilt.with_relations(
            Signature.of(M=1, **ARITY), {"M": [(0,)]}
        )
        for structure in (start, rebuilt, expanded, pickle.loads(pickle.dumps(current))):
            _warm(structure)
            structure.columnar()._neighbour_ids()
            assert not any(
                isinstance(container, Overlay)
                for container in (
                    *structure._relations.values(),
                    *structure._indexes.values(),
                    *structure._projections.values(),
                    structure._columnar._neigh,
                )
            )


class TestOverlay:
    def test_a_version_shares_its_base_and_copies_its_patch(self):
        base = frozenset((i,) for i in range(100))
        first = PatchedSet.derive(base, {(100,): True})
        second = PatchedSet.derive(first, {(0,): ABSENT})
        assert first.base is base and second.base is base
        assert first.patch == {(100,): True}
        assert second.patch == {(100,): True, (0,): ABSENT}
        assert (0,) in first and (0,) not in second and (100,) in second
        assert len(first) == 101 and len(second) == 100
        # Re-inserting a removed tuple and deleting an added one return
        # the keys to their base values.
        back = PatchedSet.derive(second, {(0,): True, (100,): ABSENT})
        assert back.patch == {} and len(back) == 100 and back == base

    def test_the_patch_folds_past_the_square_root_of_the_base(self):
        base = {i: (i,) for i in range(16)}
        table = base
        for i in range(4):
            table = PatchedTable.derive(table, {100 + i: (i,)})
            assert type(table) is PatchedTable and table.base is base
        folded = PatchedTable.derive(table, {200: (0,)})
        assert type(folded) is dict
        assert folded == {**base, 100: (0,), 101: (1,), 102: (2,), 103: (3,), 200: (0,)}

    def test_flat_is_built_once_and_becomes_the_childs_base(self):
        rows = tuple((i,) for i in range(25))
        version = PatchedRows.derive(rows, {3: (1, 2)})
        flattened = version.flat()
        assert flattened is version.flat() is flat(version)
        assert type(flattened) is tuple and flattened[3] == (1, 2)
        assert version == flattened and flattened == version
        child = PatchedRows.derive(version, {4: ()})
        assert child.base is flattened and child.patch == {4: ()}
        assert flat(rows) is rows

    def test_a_table_version_reads_as_a_dict(self):
        base = {"a": (1,), "b": (2,), "c": (3,)}
        version = PatchedTable.derive(
            {**base, **{k: (0,) for k in range(20)}}, {"a": ABSENT, "d": (4,)}
        )
        assert "a" not in version and version.get("a") is None
        assert version.get("a", ()) == () and version["d"] == (4,)
        with pytest.raises(KeyError):
            version["a"]
        assert len(version) == len(list(version)) == 23
        assert dict(version) == version.flat()
        assert version == version.flat()
