"""Columnar corpus layer (DESIGN.md §12).

Flat numpy tables + interned string pools for the hot corpora —
package/version records and the edge census — with a lazy dataclass
facade so every existing consumer keeps its `MalwareDataset` contract
while hot paths read arrays.
"""

from repro.core.columnar.edges import (
    census,
    coexisting_row_groups,
    coexisting_stats,
    dependency_pair_rows,
    dependency_stats,
    duplicated_row_groups,
    duplicated_stats,
)
from repro.core.columnar.facade import ColumnarMalwareDataset
from repro.core.columnar.io import load_columnar, save_columnar
from repro.core.columnar.merge import merge_columnar
from repro.core.columnar.pool import NULL, StringPool
from repro.core.columnar.tables import ColumnarBuilder, ColumnarDataset

__all__ = [
    "NULL",
    "StringPool",
    "ColumnarBuilder",
    "ColumnarDataset",
    "ColumnarMalwareDataset",
    "census",
    "coexisting_row_groups",
    "coexisting_stats",
    "dependency_pair_rows",
    "dependency_stats",
    "duplicated_row_groups",
    "duplicated_stats",
    "load_columnar",
    "merge_columnar",
    "save_columnar",
]
