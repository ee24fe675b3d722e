"""Persistence for columnar tables: one ``.npy`` per backing array.

Layout under a directory::

    <dir>/manifest.json          # format version + array names
    <dir>/<array>.npy            # one file per backing array

Arrays are written atomically (tmp + ``os.replace``) so a crashed writer
never leaves a half-valid table, and loaded with
``np.load(mmap_mode="r")`` by default: opening a corpus costs page
tables, not RSS — rows fault in only when hydration touches them.
The pipeline's ``ArtifactStore`` points a cache slot at such a
directory; see ``repro.pipeline.stages.ColumnarCodec``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.core.columnar.tables import ColumnarDataset
from repro.errors import DatasetError

PathLike = Union[str, Path]

#: bump when the array schema changes incompatibly
COLUMNAR_FORMAT = 1


def _write_arrays(arrays: Dict[str, np.ndarray], directory: Path, kind: str) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for name, array in arrays.items():
        tmp = directory / f".{name}.npy.tmp"
        with tmp.open("wb") as handle:
            np.save(handle, np.ascontiguousarray(array))
        os.replace(tmp, directory / f"{name}.npy")
    manifest = {
        "format": COLUMNAR_FORMAT,
        "kind": kind,
        "arrays": sorted(arrays),
    }
    tmp = directory / ".manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    os.replace(tmp, directory / "manifest.json")
    return directory


def _read_arrays(
    directory: Path, kind: str, mmap: bool
) -> Dict[str, np.ndarray]:
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise DatasetError(f"no columnar manifest under {directory}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != COLUMNAR_FORMAT:
        raise DatasetError(
            f"columnar format {manifest.get('format')!r} != {COLUMNAR_FORMAT}"
        )
    if manifest.get("kind") != kind:
        raise DatasetError(
            f"columnar table kind {manifest.get('kind')!r}, expected {kind!r}"
        )
    mode = "r" if mmap else None
    return {
        name: np.load(directory / f"{name}.npy", mmap_mode=mode)
        for name in manifest["arrays"]
    }


def save_columnar(dataset: ColumnarDataset, directory: PathLike) -> Path:
    """Write every backing array (pool included) under ``directory``."""
    return _write_arrays(dataset.arrays(), Path(directory), kind="dataset")


def load_columnar(directory: PathLike, mmap: bool = True) -> ColumnarDataset:
    """Load a table written by :func:`save_columnar`; memory-mapped
    unless ``mmap=False`` (then fully materialised in RAM)."""
    return ColumnarDataset.from_array_map(
        _read_arrays(Path(directory), kind="dataset", mmap=mmap)
    )
