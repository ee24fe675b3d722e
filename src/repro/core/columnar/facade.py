"""Lazy dataclass facade over a :class:`ColumnarDataset`.

Every existing consumer — the delta engine, the service, the analyses,
`MalGraph.build` — takes a :class:`MalwareDataset`. The facade keeps
that contract: it *is* a ``MalwareDataset`` whose ``entries`` /
``reports`` sequences hydrate :class:`DatasetEntry` /
:class:`CollectedReport` objects from the columnar rows only when a
specific index is touched, and memoise them so repeated access returns
the identical object (callers rely on ``is``-identity for caching and
on mutating hydrated entries via the delta engine's reference
semantics).

Hydration rules (see DESIGN.md §12):

* an index is hydrated at most once; ``entries[i] is entries[i]``;
* hydrated artifacts come pre-seeded with the pooled SHA256, so no
  consumer ever re-canonicalises code the ingest already signed;
* iterating the facade hydrates everything: analyses and
  ``MalGraph.build`` read a facade exactly as they read the dataclass
  dataset, one hydrated row at a time;
* the facade never writes back: once a caller mutates a hydrated entry
  the columnar table is stale, which is why the pipeline treats
  columnar artifacts as immutable snapshots keyed by fingerprint.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.collection.records import DatasetEntry, MalwareDataset
from repro.core.columnar.tables import ColumnarDataset
from repro.ecosystem.package import PackageId
from repro.errors import DatasetError


class _LazyRows(Sequence):
    """Sequence hydrating one row per index on first touch."""

    def __init__(self, count: int, hydrate) -> None:
        self._count = count
        self._hydrate = hydrate
        self._cache: List[Optional[object]] = [None] * count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._count))]
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(index)
        held = self._cache[index]
        if held is None:
            held = self._hydrate(index)
            self._cache[index] = held
        return held

    def __iter__(self):
        for i in range(self._count):
            yield self[i]


class ColumnarMalwareDataset(MalwareDataset):
    """A MalwareDataset whose rows live in columnar tables.

    Subclasses the dataclass but bypasses its ``__init__`` /
    ``__post_init__``: entries, reports and the key index are built
    lazily. Everything downstream that iterates or indexes keeps
    working; code that checks ``isinstance(x, MalwareDataset)`` sees the
    type it expects.
    """

    def __init__(self, columnar: ColumnarDataset) -> None:
        self.columnar = columnar
        self.entries = _LazyRows(columnar.n_packages, columnar.entry_at)
        self.reports = _LazyRows(columnar.n_reports, columnar.report_at)
        self._key_index: Optional[Dict[PackageId, int]] = None

    # MalwareDataset is a dataclass; keep its repr from exploding the pool
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarMalwareDataset(entries={len(self.entries)}, "
            f"reports={len(self.reports)})"
        )

    def _keys(self) -> Dict[PackageId, int]:
        if self._key_index is None:
            index: Dict[PackageId, int] = {}
            for i in range(self.columnar.n_packages):
                index[self.columnar.package_id_at(i)] = i
            if len(index) != self.columnar.n_packages:
                raise DatasetError("duplicate package keys in dataset entries")
            self._key_index = index
        return self._key_index

    # `_by_key` is a real dict field on the dataclass; expose the lazy
    # index under the same name for any attribute-level consumer.
    @property
    def _by_key(self) -> Dict[PackageId, DatasetEntry]:
        return {key: self.entries[i] for key, i in self._keys().items()}

    @_by_key.setter
    def _by_key(self, value) -> None:  # pragma: no cover - dataclass compat
        raise DatasetError("ColumnarMalwareDataset key index is derived")

    def get(self, package: PackageId) -> Optional[DatasetEntry]:
        i = self._keys().get(package)
        return None if i is None else self.entries[i]

    def to_dataset(self) -> MalwareDataset:
        """Fully hydrated plain MalwareDataset (materialises all rows)."""
        return MalwareDataset(
            entries=list(self.entries), reports=list(self.reports)
        )
