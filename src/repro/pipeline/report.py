"""Observability over the stage DAG: what ran, what was cached, how long.

Every stage resolution appends one :class:`StageRun` to a
:class:`PipelineReport` — a hit (served from the memory tier, loaded
from disk, or elided because a downstream artifact made the stage
unnecessary) or a miss (built from scratch). The CLI exposes the
process-wide report via ``--report`` / ``--report-json`` and the
``warm`` command; ``scripts/smoke_pipeline.py`` asserts on its counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

def current_peak_rss_kb() -> Optional[int]:
    """This process's peak RSS in KiB (``None`` where unsupported).

    Prefers ``VmHWM`` from ``/proc/self/status``: unlike ``ru_maxrss``
    it is reset when a process execs, so a freshly spawned child (the
    scaling benchmark measures every corpus pass that way) reports its
    own footprint instead of inheriting the parent's high-water mark.
    Falls back to ``getrusage`` elsewhere — kibibytes on Linux, bytes on
    macOS, normalised here so report rows and benches agree on units.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):  # pragma: no cover - no procfs
        pass
    try:
        import resource
        import sys
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        peak //= 1024
    return int(peak)


#: A stage served from cache (memory, disk, or elided entirely).
STATUS_HIT = "hit"
#: A stage that had to be built.
STATUS_MISS = "miss"

SOURCE_MEMORY = "memory"
SOURCE_DISK = "disk"
SOURCE_BUILD = "build"
#: The stage was never executed because a downstream artifact resolved
#: from cache without needing it (e.g. the world simulation when the
#: collected dataset came off disk).
SOURCE_ELIDED = "elided"


@dataclass
class StageRun:
    """One resolution of one stage."""

    stage: str
    status: str  # STATUS_HIT | STATUS_MISS
    source: str  # SOURCE_MEMORY | SOURCE_DISK | SOURCE_BUILD | SOURCE_ELIDED
    seconds: float
    fingerprint: str
    #: process peak RSS (``VmHWM``, KiB; see :func:`current_peak_rss_kb`)
    #: sampled when the stage resolved; high-water mark, so deltas between
    #: rows bound a stage's own footprint. ``None`` where unsupported.
    peak_rss_kb: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "status": self.status,
            "source": self.source,
            "seconds": self.seconds,
            "fingerprint": self.fingerprint,
            "peak_rss_kb": self.peak_rss_kb,
        }


@dataclass
class SubstageRun:
    """One timed substage of a stage build (e.g. the malgraph stage's
    embed / cluster / split phases), with counters such as embedding
    cache hits in ``detail``."""

    stage: str
    name: str
    seconds: float
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "name": self.name,
            "seconds": self.seconds,
            "detail": dict(self.detail),
        }


@dataclass
class PipelineReport:
    """Append-only log of stage resolutions plus aggregate counts."""

    runs: List[StageRun] = field(default_factory=list)
    substages: List[SubstageRun] = field(default_factory=list)

    def record(
        self,
        stage: str,
        status: str,
        source: str,
        seconds: float,
        fingerprint: str,
        peak_rss_kb: Optional[int] = None,
    ) -> StageRun:
        if peak_rss_kb is None:
            peak_rss_kb = current_peak_rss_kb()
        run = StageRun(
            stage=stage,
            status=status,
            source=source,
            seconds=seconds,
            fingerprint=fingerprint,
            peak_rss_kb=peak_rss_kb,
        )
        self.runs.append(run)
        return run

    def record_substage(
        self,
        stage: str,
        name: str,
        seconds: float,
        detail: Optional[Dict[str, Any]] = None,
    ) -> SubstageRun:
        run = SubstageRun(
            stage=stage, name=name, seconds=seconds, detail=detail or {}
        )
        self.substages.append(run)
        return run

    def counts(self) -> Dict[str, Dict[str, int]]:
        """Per-stage ``{"hits": n, "misses": n}`` totals."""
        totals: Dict[str, Dict[str, int]] = {}
        for run in self.runs:
            bucket = totals.setdefault(run.stage, {"hits": 0, "misses": 0})
            if run.status == STATUS_HIT:
                bucket["hits"] += 1
            else:
                bucket["misses"] += 1
        return totals

    @property
    def total_seconds(self) -> float:
        return sum(run.seconds for run in self.runs)

    def clear(self) -> None:
        self.runs.clear()
        self.substages.clear()

    def to_dict(self) -> dict:
        return {
            "runs": [run.to_dict() for run in self.runs],
            "substages": [run.to_dict() for run in self.substages],
            "counts": self.counts(),
            "total_seconds": self.total_seconds,
        }

    def render(self) -> str:
        """ASCII table of every stage resolution, oldest first."""
        lines = [
            "pipeline report",
            "stage       status  source   seconds  peak_rss_mb",
        ]
        for run in self.runs:
            rss = (
                f"{run.peak_rss_kb / 1024.0:11.1f}"
                if run.peak_rss_kb is not None
                else f"{'-':>11}"
            )
            lines.append(
                f"{run.stage:<11} {run.status:<7} {run.source:<8} "
                f"{run.seconds:8.3f}  {rss}"
            )
        for sub in self.substages:
            detail = ", ".join(f"{k}={v}" for k, v in sorted(sub.detail.items()))
            lines.append(
                f"  {sub.stage}.{sub.name:<17} {sub.seconds:8.3f}"
                + (f"  ({detail})" if detail else "")
            )
        counts = self.counts()
        summary = ", ".join(
            f"{stage}: {c['hits']} hit / {c['misses']} miss"
            for stage, c in sorted(counts.items())
        )
        lines.append(summary if summary else "(no stages resolved)")
        return "\n".join(lines)
