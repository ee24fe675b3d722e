"""Unified stage-DAG runtime with a fingerprinted, persistent artifact store.

The paper's evaluation is one chain of expensive stages — world
simulation, Section II collection, the MALGRAPH build — consumed by 15+
tables and figures, the CLI, the enrichment service, every example and
every benchmark. This package gives that chain an explicit runtime:

* :mod:`repro.pipeline.fingerprint` — canonical config fingerprints
  (every knob of ``WorldConfig`` and ``SimilarityConfig``, hashed);
* :mod:`repro.pipeline.store` — :class:`ArtifactStore`, a bounded
  in-memory LRU over live objects plus an optional on-disk cache under
  ``~/.cache/repro`` (``REPRO_CACHE_DIR`` / ``--cache-dir``) with
  schema-version stamps and corruption fallback;
* :mod:`repro.pipeline.stages` — :class:`PipelineRuntime`, resolving
  its four stages (``world``, ``collection``, ``columnar``,
  ``malgraph``) through the store;
* :mod:`repro.pipeline.report` — :class:`PipelineReport`, per-stage
  wall-time and hit/miss accounting, queryable from the CLI.

One process-wide store and report back every facade (``repro.world``
defaults, :class:`repro.paper.PaperArtifacts`, the CLI and service), so
``python -m repro warm`` makes any later process's analysis path start
from disk instead of re-simulating the world.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.pipeline.fingerprint import (
    SCHEMA_VERSION,
    config_payload,
    fingerprint,
)
from repro.pipeline.report import PipelineReport, StageRun
from repro.pipeline.stages import (
    STAGE_COLLECTION,
    STAGE_COLUMNAR,
    STAGE_MALGRAPH,
    STAGE_WORLD,
    STAGES,
    PipelineRuntime,
)
from repro.pipeline.store import ArtifactStore, default_cache_dir

__all__ = [
    "ArtifactStore",
    "PipelineReport",
    "PipelineRuntime",
    "SCHEMA_VERSION",
    "STAGES",
    "STAGE_COLLECTION",
    "STAGE_COLUMNAR",
    "STAGE_MALGRAPH",
    "STAGE_WORLD",
    "StageRun",
    "config_payload",
    "configure",
    "default_cache_dir",
    "fingerprint",
    "get_report",
    "get_store",
    "reset_report",
]

_lock = threading.Lock()
_store: Optional[ArtifactStore] = None
_report = PipelineReport()


def get_store() -> ArtifactStore:
    """The process-wide artifact store (created on first use)."""
    global _store
    with _lock:
        if _store is None:
            _store = ArtifactStore()
        return _store


def configure(
    cache_dir=None,
    disk_enabled: Optional[bool] = None,
    memory_capacity: Optional[int] = None,
) -> ArtifactStore:
    """Replace the process-wide store (CLI ``--cache-dir``/``--no-disk-cache``)."""
    global _store
    with _lock:
        kwargs = {}
        if memory_capacity is not None:
            kwargs["memory_capacity"] = memory_capacity
        _store = ArtifactStore(
            cache_dir=cache_dir, disk_enabled=disk_enabled, **kwargs
        )
        return _store


def get_report() -> PipelineReport:
    """The process-wide pipeline report."""
    return _report


def reset_report() -> PipelineReport:
    """Clear the process-wide report (keeps the same object)."""
    _report.clear()
    return _report
