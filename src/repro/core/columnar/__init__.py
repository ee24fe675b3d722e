"""Columnar corpus codec (DESIGN.md §12).

A lossless encoding of a collected :class:`MalwareDataset` as flat numpy
tables over one interned string pool, persisted one ``.npy`` per array
so a cached corpus memory-maps back in. The lazy dataclass facade
hydrates rows on demand; every analysis, and ``MalGraph.build``, reads
the facade like any other ``MalwareDataset``.
"""

from repro.core.columnar.facade import ColumnarMalwareDataset
from repro.core.columnar.io import load_columnar, save_columnar
from repro.core.columnar.pool import NULL, StringPool
from repro.core.columnar.tables import ColumnarBuilder, ColumnarDataset

__all__ = [
    "NULL",
    "StringPool",
    "ColumnarBuilder",
    "ColumnarDataset",
    "ColumnarMalwareDataset",
    "load_columnar",
    "save_columnar",
]
