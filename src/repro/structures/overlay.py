"""Versions of a container: a shared base and a small immutable patch.

A write to a :class:`~repro.structures.structure.Structure` changes one
tuple of one relation, a group of each of that relation's carried index
and projection tables, and the neighbour rows of the tuple's entries
(:meth:`~repro.structures.structure.Structure.with_tuple`).  Copying each
container for that costs its whole size per write, and so does freeing
the copy the write replaces.  A *version* here is instead

* ``base``: a plain container (a frozenset, dict or tuple), shared with
  every version derived from it and never changed, and
* ``patch``: a dict from each key at which the version differs from its
  base to the key's value in the version (:data:`ABSENT` for a key it
  removes).

:meth:`Overlay.derive` copies the parent's patch, never its base, so a
write and the release of the version it replaces cost O(|patch|).  Once
the patch passes √|base| entries, a bound read off the data, the
derivation folds it into a fresh base and returns the plain container
instead: O(|base|) once per √|base| writes, which keeps every patch, and
so every write, within O(√|base|).

A version reads its patch first and its base second: membership, lookups
and its length cost O(1), with no flattening.  :meth:`Overlay.flat` builds
the plain container once and caches it on the version, for a reader that
needs a frozenset or reads every key; two threads may both build it and
store equal containers, so no lock is needed.  A version derived from a
flattened one takes the flattening as its base, with an empty patch.

Three kinds share the mechanism and differ only in how a base value is
read and how a patch folds: :class:`PatchedSet` (a relation: tuple to
present), :class:`PatchedTable` (an index or projection table: group to
pool) and :class:`PatchedRows` (the columnar view's neighbour rows: id to
row).  Each reads as its plain counterpart does (a set, a mapping, a
sequence) and compares equal to it.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence, Set
from itertools import chain, filterfalse

__all__ = ["ABSENT", "Overlay", "PatchedRows", "PatchedSet", "PatchedTable", "flat"]


class _Absent:
    __slots__ = ()

    def __repr__(self) -> str:
        return "ABSENT"


#: A patch value: the key is absent from the version.
ABSENT = _Absent()


class Overlay:
    """A version of a plain container: ``base`` with ``patch`` on top.

    Each kind gives ``_base_value(base, key)``, the key's value in the
    base (:data:`ABSENT` when it has none), and ``_fold(base, patch)``,
    the plain container of the version."""

    __slots__ = ("base", "patch", "_len", "_flat")

    def __init__(self, base, patch: dict, length: int):
        self.base = base
        self.patch = patch
        self._len = length
        self._flat = None

    @classmethod
    def derive(cls, container, changes: dict):
        """The version of ``container`` (a plain container, or a version of
        this kind) with each key of ``changes`` set to its value
        (:data:`ABSENT`: removed).  Returns the plain container when the
        patch folds."""
        if type(container) is cls:
            flattened = container._flat
            if flattened is None:
                base, patch, length = container.base, dict(container.patch), container._len
            else:
                base, patch, length = flattened, {}, len(flattened)
        else:
            base, patch, length = container, {}, len(container)
        for key, value in changes.items():
            before = cls._base_value(base, key)
            length += (value is not ABSENT) - (patch.get(key, before) is not ABSENT)
            if value is before:
                patch.pop(key, None)
            else:
                patch[key] = value
        if len(patch) ** 2 > len(base):
            return cls._fold(base, patch)
        return cls(base, patch, length)

    def flat(self):
        """The plain container this version reads as, built once."""
        flattened = self._flat
        if flattened is None:
            flattened = self._flat = self._fold(self.base, self.patch)
        return flattened

    def __len__(self) -> int:
        return self._len

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(|base|={len(self.base)}, |patch|={len(self.patch)})"


class PatchedSet(Overlay, Set):
    """A relation version over a frozenset: the patch maps an added tuple
    to ``True`` and a removed one to :data:`ABSENT`."""

    __slots__ = ()

    @staticmethod
    def _base_value(base, key):
        return True if key in base else ABSENT

    @staticmethod
    def _fold(base, patch):
        folded = set(base)
        for tup, present in patch.items():
            if present is True:
                folded.add(tup)
            else:
                folded.discard(tup)
        return frozenset(folded)

    @classmethod
    def _from_iterable(cls, iterable):
        return frozenset(iterable)

    def __contains__(self, tup) -> bool:
        present = self.patch.get(tup)
        if present is None:
            return tup in self.base
        return present is True

    def __iter__(self):
        patch = self.patch
        added = [tup for tup, present in patch.items() if present is True]
        return chain(filterfalse(patch.__contains__, self.base), added)


class PatchedTable(Overlay, Mapping):
    """An index or projection table version over a dict: the patch maps a
    changed group to its pool, or to :data:`ABSENT` when it emptied."""

    __slots__ = ()

    @staticmethod
    def _base_value(base, key):
        return base.get(key, ABSENT)

    @staticmethod
    def _fold(base, patch):
        folded = dict(base)
        for group, pool in patch.items():
            if pool is ABSENT:
                del folded[group]
            else:
                folded[group] = pool
        return folded

    def get(self, group, default=None):
        pool = self.patch.get(group)
        if pool is None:
            return self.base.get(group, default)
        return default if pool is ABSENT else pool

    def __getitem__(self, group):
        pool = self.patch.get(group)
        if pool is None:
            return self.base[group]
        if pool is ABSENT:
            raise KeyError(group)
        return pool

    def __contains__(self, group) -> bool:
        pool = self.patch.get(group)
        if pool is None:
            return group in self.base
        return pool is not ABSENT

    def __iter__(self):
        patch = self.patch
        added = [group for group, pool in patch.items() if pool is not ABSENT]
        return chain(filterfalse(patch.__contains__, self.base), added)


class PatchedRows(Overlay, Sequence):
    """A neighbour-row version over a tuple indexed by id: the patch maps
    a changed id to its row; no id is ever absent."""

    __slots__ = ()

    @staticmethod
    def _base_value(base, key):
        return base[key]

    @staticmethod
    def _fold(base, patch):
        folded = list(base)
        for i, row in patch.items():
            folded[i] = row
        return tuple(folded)

    def __getitem__(self, i):
        row = self.patch.get(i)
        return self.base[i] if row is None else row

    def __iter__(self):
        return map(self.patch.get, range(len(self.base)), self.base)

    def __eq__(self, other):
        if isinstance(other, PatchedRows):
            other = tuple(other)
        if not isinstance(other, tuple):
            return NotImplemented
        return tuple(self) == other

    __hash__ = None  # type: ignore[assignment]


def flat(container):
    """The plain container a version reads as (built once and cached on
    it); a plain container is returned as it is."""
    return container.flat() if isinstance(container, Overlay) else container
