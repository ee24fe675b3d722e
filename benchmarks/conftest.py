"""Shared fixtures for the benchmark harness.

Every bench regenerates one table or figure of the paper from the
canonical deterministic world (seed=7, scale=1.0). The expensive stages
(world simulation, Section II collection, MALGRAPH build) resolve once
through the shared :mod:`repro.pipeline` artifact store — warmed on
first use (or straight from a ``python -m repro warm`` disk cache) — so
each bench times only the analysis it reproduces; the pipeline stages
themselves, including the warm-vs-cold startup comparison, are timed
separately in ``bench_pipeline_stages.py``.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.paper import PaperArtifacts, default_artifacts


@pytest.fixture(scope="session")
def artifacts() -> PaperArtifacts:
    """The canonical warmed artifact bundle shared by all benches."""
    return default_artifacts()


@pytest.fixture(scope="session")
def show():
    """Print a rendered table once, under a banner, so ``--benchmark-only``
    output doubles as the paper-style report."""

    seen = set()

    def _show(title: str, rendered: str) -> None:
        if title in seen:
            return
        seen.add(title)
        bar = "=" * 72
        print(f"\n{bar}\n{title}\n{bar}\n{rendered}")

    return _show
