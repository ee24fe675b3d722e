"""Interned string pool backing every columnar table.

Every string a corpus row references — package names, ecosystems,
versions, SHA256 signatures, source keys, file paths, file contents —
is stored exactly once in a :class:`StringPool` and referenced by a
64-bit id. Three properties matter at scale:

* **dedup** — flood campaigns publish thousands of near-identical
  packages; interning collapses their shared file contents, claim
  sources and ecosystem names to one copy each;
* **flat persistence** — the pool freezes to two numpy arrays (UTF-8
  bytes + offsets) that memory-map straight back in, so a loaded corpus
  pays for a string only when a row that references it is hydrated;
* **stable order** — ids are assigned in first-intern order and never
  move, so row columns written against a pool stay valid across
  save/load.

``NULL`` (``-1``) encodes Python ``None``; the empty string is a real
pooled value and distinct from it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

#: id encoding Python ``None`` in any pooled column
NULL = -1


class StringPool:
    """Append-only interned string table with lazy mmap-backed decode.

    A pool is built by :meth:`intern` and read by :meth:`lookup`; one
    rebuilt :meth:`from_arrays` is for reading only.
    """

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self._strings: List[Optional[str]] = []
        # frozen backing (set when loaded from arrays); decoded lazily
        self._data: Optional[np.ndarray] = None
        self._offsets: Optional[np.ndarray] = None

    # -- building ----------------------------------------------------------
    def intern(self, value: Optional[str]) -> int:
        """Id of ``value``, adding it on first sight. ``None`` -> NULL."""
        if value is None:
            return NULL
        held = self._index.get(value)
        if held is not None:
            return held
        idx = len(self._strings)
        self._index[value] = idx
        self._strings.append(value)
        return idx

    # -- reading -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._strings)

    def lookup(self, idx: int) -> Optional[str]:
        """String for ``idx``; NULL -> ``None``. Decodes lazily when the
        pool is backed by (possibly memory-mapped) arrays."""
        if idx == NULL:
            return None
        held = self._strings[idx]
        if held is None:
            start, end = int(self._offsets[idx]), int(self._offsets[idx + 1])
            held = bytes(self._data[start:end]).decode("utf-8")
            self._strings[idx] = held
        return held

    # -- persistence -------------------------------------------------------
    def freeze(self) -> Dict[str, np.ndarray]:
        """The pool as flat arrays: UTF-8 ``data`` + ``offsets`` (n+1)."""
        encoded = [
            s.encode("utf-8") for s in (self.lookup(i) for i in range(len(self)))
        ]
        offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
        if encoded:
            np.cumsum([len(b) for b in encoded], out=offsets[1:])
        data = np.frombuffer(b"".join(encoded), dtype=np.uint8).copy()
        return {"data": data, "offsets": offsets}

    @classmethod
    def from_arrays(cls, data: np.ndarray, offsets: np.ndarray) -> "StringPool":
        """Rehydrate from :meth:`freeze` output (arrays may be mmapped);
        strings decode lazily on first :meth:`lookup`."""
        pool = cls()
        pool._data = data
        pool._offsets = offsets
        pool._strings = [None] * (len(offsets) - 1)
        return pool
