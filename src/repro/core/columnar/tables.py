"""Columnar tables for the collected corpus.

A :class:`ColumnarDataset` holds the same information as a
:class:`~repro.collection.records.MalwareDataset` — entries, claims,
artifacts, reports — but as numpy structured arrays over one shared
:class:`~repro.core.columnar.pool.StringPool` instead of a Python object
per record. Variable-length fields (claims, files, keywords,
dependencies, scripts, report package lists) are CSR encoded: an
``offsets`` array of length ``n + 1`` plus flat value arrays, so row
``i`` owns slots ``offsets[i]:offsets[i + 1]``.

Rows keep the source dataset's entry/report order. Hydration back to
dataclasses goes through
:mod:`repro.core.columnar.facade`; this module only promises that
:meth:`ColumnarDataset.entry_at` / :meth:`report_at` reproduce the
original records byte-identically under the canonical serialisation in
:mod:`repro.io.datasets`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.collection.records import (
    CollectedReport,
    DatasetEntry,
    MalwareDataset,
    SourceClaim,
)
from repro.core.columnar.pool import NULL, StringPool
from repro.ecosystem.package import PackageArtifact, PackageId, PackageMetadata

#: fixed-width per-package columns; every string field is a pool id
PACKAGE_DTYPE = np.dtype(
    [
        ("eco", "i8"),
        ("name", "i8"),
        ("version", "i8"),
        ("origin", "i8"),
        ("release_day", "i8"),
        ("has_release", "?"),
        ("removal_day", "i8"),
        ("has_removal", "?"),
        ("detection_day", "i8"),
        ("has_detection", "?"),
        ("downloads", "i8"),
        ("campaign", "i8"),
        ("actor", "i8"),
        ("archetype", "i8"),
        ("behavior", "i8"),
        ("has_artifact", "?"),
        ("sha", "i8"),
        ("meta_description", "i8"),
        ("meta_author", "i8"),
        ("meta_homepage", "i8"),
    ]
)

REPORT_DTYPE = np.dtype(
    [
        ("report_id", "i8"),
        ("url", "i8"),
        ("site", "i8"),
        ("category", "i8"),
        ("source", "i8"),
        ("publish_day", "i8"),
        ("has_publish", "?"),
        ("actor_alias", "i8"),
    ]
)


def _offsets(counts: Sequence[int]) -> np.ndarray:
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    if len(counts):
        np.cumsum(counts, out=out[1:])
    return out


class ColumnarBuilder:
    """Accumulates rows in Python lists, freezes to a ColumnarDataset.

    One builder = one output table over its own pool; entries and
    reports are appended in the order they should occupy rows.
    """

    def __init__(self) -> None:
        self.pool = StringPool()
        self._rows: List[tuple] = []
        self._claim_counts: List[int] = []
        self._claim_source: List[int] = []
        self._claim_day: List[int] = []
        self._claim_shares: List[bool] = []
        self._file_counts: List[int] = []
        self._file_path: List[int] = []
        self._file_text: List[int] = []
        self._kw_counts: List[int] = []
        self._kw: List[int] = []
        self._dep_counts: List[int] = []
        self._dep: List[int] = []
        self._script_counts: List[int] = []
        self._script_key: List[int] = []
        self._script_val: List[int] = []
        self._report_rows: List[tuple] = []
        self._rpkg_counts: List[int] = []
        self._rpkg_eco: List[int] = []
        self._rpkg_name: List[int] = []
        self._rpkg_ver: List[int] = []
        self._unres_counts: List[int] = []
        self._unres_a: List[int] = []
        self._unres_b: List[int] = []

    # -- entries -----------------------------------------------------------
    def add_entry(self, entry: DatasetEntry) -> None:
        """Append one package row; the SHA256 is the artifact's own."""
        pool = self.pool
        artifact = entry.artifact
        if artifact is not None:
            files = sorted(artifact.files.items())
            for path, text in files:
                self._file_path.append(pool.intern(path))
                self._file_text.append(pool.intern(text))
            self._file_counts.append(len(files))
            sha_id = pool.intern(artifact.sha256())
            metadata = artifact.metadata
        else:
            self._file_counts.append(0)
            sha_id = NULL
            metadata = None
        package = entry.package
        self._rows.append(
            (
                pool.intern(package.ecosystem),
                pool.intern(package.name),
                pool.intern(package.version),
                pool.intern(entry.artifact_origin),
                entry.release_day if entry.release_day is not None else 0,
                entry.release_day is not None,
                entry.removal_day if entry.removal_day is not None else 0,
                entry.removal_day is not None,
                entry.detection_day if entry.detection_day is not None else 0,
                entry.detection_day is not None,
                entry.downloads,
                pool.intern(entry.campaign_id),
                pool.intern(entry.actor),
                pool.intern(entry.archetype),
                pool.intern(entry.behavior_key),
                metadata is not None,
                sha_id,
                pool.intern(metadata.description) if metadata else NULL,
                pool.intern(metadata.author) if metadata else NULL,
                pool.intern(metadata.homepage) if metadata else NULL,
            )
        )
        self._claim_counts.append(len(entry.claims))
        for claim in entry.claims:
            self._claim_source.append(pool.intern(claim.source))
            self._claim_day.append(claim.report_day)
            self._claim_shares.append(claim.shares_artifact)
        keywords = metadata.keywords if metadata else ()
        self._kw_counts.append(len(keywords))
        self._kw.extend(pool.intern(k) for k in keywords)
        dependencies = metadata.dependencies if metadata else ()
        self._dep_counts.append(len(dependencies))
        self._dep.extend(pool.intern(d) for d in dependencies)
        scripts = list(metadata.scripts.items()) if metadata else []
        self._script_counts.append(len(scripts))
        for key, val in scripts:
            self._script_key.append(pool.intern(key))
            self._script_val.append(pool.intern(val))

    # -- reports -----------------------------------------------------------
    def add_report(self, report: CollectedReport) -> None:
        pool = self.pool
        self._report_rows.append(
            (
                pool.intern(report.report_id),
                pool.intern(report.url),
                pool.intern(report.site),
                pool.intern(report.category),
                pool.intern(report.source),
                report.publish_day if report.publish_day is not None else 0,
                report.publish_day is not None,
                pool.intern(report.actor_alias),
            )
        )
        self._rpkg_counts.append(len(report.packages))
        for package in report.packages:
            self._rpkg_eco.append(pool.intern(package.ecosystem))
            self._rpkg_name.append(pool.intern(package.name))
            self._rpkg_ver.append(pool.intern(package.version))
        self._unres_counts.append(len(report.unresolved))
        for a, b in report.unresolved:
            self._unres_a.append(pool.intern(a))
            self._unres_b.append(pool.intern(b))

    # -- freeze ------------------------------------------------------------
    def build(self) -> "ColumnarDataset":
        i8 = np.int64
        return ColumnarDataset(
            pool=self.pool,
            packages=np.array(self._rows, dtype=PACKAGE_DTYPE),
            claim_offsets=_offsets(self._claim_counts),
            claim_source=np.asarray(self._claim_source, dtype=i8),
            claim_day=np.asarray(self._claim_day, dtype=i8),
            claim_shares=np.asarray(self._claim_shares, dtype=bool),
            file_offsets=_offsets(self._file_counts),
            file_path=np.asarray(self._file_path, dtype=i8),
            file_text=np.asarray(self._file_text, dtype=i8),
            keyword_offsets=_offsets(self._kw_counts),
            keyword=np.asarray(self._kw, dtype=i8),
            dep_offsets=_offsets(self._dep_counts),
            dep=np.asarray(self._dep, dtype=i8),
            script_offsets=_offsets(self._script_counts),
            script_key=np.asarray(self._script_key, dtype=i8),
            script_val=np.asarray(self._script_val, dtype=i8),
            reports=np.array(self._report_rows, dtype=REPORT_DTYPE),
            rpkg_offsets=_offsets(self._rpkg_counts),
            rpkg_eco=np.asarray(self._rpkg_eco, dtype=i8),
            rpkg_name=np.asarray(self._rpkg_name, dtype=i8),
            rpkg_ver=np.asarray(self._rpkg_ver, dtype=i8),
            unresolved_offsets=_offsets(self._unres_counts),
            unresolved_a=np.asarray(self._unres_a, dtype=i8),
            unresolved_b=np.asarray(self._unres_b, dtype=i8),
        )


@dataclass
class ColumnarDataset:
    """The corpus as flat arrays over one string pool. Immutable by
    convention."""

    pool: StringPool
    packages: np.ndarray  # PACKAGE_DTYPE
    claim_offsets: np.ndarray
    claim_source: np.ndarray
    claim_day: np.ndarray
    claim_shares: np.ndarray
    file_offsets: np.ndarray
    file_path: np.ndarray
    file_text: np.ndarray
    keyword_offsets: np.ndarray
    keyword: np.ndarray
    dep_offsets: np.ndarray
    dep: np.ndarray
    script_offsets: np.ndarray
    script_key: np.ndarray
    script_val: np.ndarray
    reports: np.ndarray  # REPORT_DTYPE
    rpkg_offsets: np.ndarray
    rpkg_eco: np.ndarray
    rpkg_name: np.ndarray
    rpkg_ver: np.ndarray
    unresolved_offsets: np.ndarray
    unresolved_a: np.ndarray
    unresolved_b: np.ndarray

    # -- construction ------------------------------------------------------
    @classmethod
    def from_dataset(cls, dataset: MalwareDataset) -> "ColumnarDataset":
        builder = ColumnarBuilder()
        for entry in dataset.entries:
            builder.add_entry(entry)
        for report in dataset.reports:
            builder.add_report(report)
        return builder.build()

    # -- shape -------------------------------------------------------------
    @property
    def n_packages(self) -> int:
        return len(self.packages)

    @property
    def n_reports(self) -> int:
        return len(self.reports)

    def __len__(self) -> int:
        return self.n_packages

    # -- hydration ---------------------------------------------------------
    def package_id_at(self, i: int) -> PackageId:
        row = self.packages[i]
        look = self.pool.lookup
        return PackageId(
            look(int(row["eco"])), look(int(row["name"])), look(int(row["version"]))
        )

    def entry_at(self, i: int) -> DatasetEntry:
        """Hydrate row ``i`` into a fresh DatasetEntry (sha memo
        pre-seeded, so hydration never re-canonicalises code)."""
        row = self.packages[i]
        look = self.pool.lookup
        package = PackageId(
            look(int(row["eco"])), look(int(row["name"])), look(int(row["version"]))
        )
        c0, c1 = int(self.claim_offsets[i]), int(self.claim_offsets[i + 1])
        claims = [
            SourceClaim(
                source=look(int(self.claim_source[j])),
                report_day=int(self.claim_day[j]),
                shares_artifact=bool(self.claim_shares[j]),
            )
            for j in range(c0, c1)
        ]
        artifact = None
        if bool(row["has_artifact"]):
            f0, f1 = int(self.file_offsets[i]), int(self.file_offsets[i + 1])
            files = {
                look(int(self.file_path[j])): look(int(self.file_text[j]))
                for j in range(f0, f1)
            }
            k0, k1 = int(self.keyword_offsets[i]), int(self.keyword_offsets[i + 1])
            d0, d1 = int(self.dep_offsets[i]), int(self.dep_offsets[i + 1])
            s0, s1 = int(self.script_offsets[i]), int(self.script_offsets[i + 1])
            metadata = PackageMetadata(
                description=look(int(row["meta_description"])),
                author=look(int(row["meta_author"])),
                homepage=look(int(row["meta_homepage"])),
                keywords=tuple(look(int(self.keyword[j])) for j in range(k0, k1)),
                dependencies=tuple(look(int(self.dep[j])) for j in range(d0, d1)),
                scripts={
                    look(int(self.script_key[j])): look(int(self.script_val[j]))
                    for j in range(s0, s1)
                },
            )
            artifact = PackageArtifact(
                id=package,
                metadata=metadata,
                files=files,
                _sha256=look(int(row["sha"])),
            )
        return DatasetEntry(
            package=package,
            claims=claims,
            artifact=artifact,
            artifact_origin=look(int(row["origin"])),
            release_day=int(row["release_day"]) if bool(row["has_release"]) else None,
            removal_day=int(row["removal_day"]) if bool(row["has_removal"]) else None,
            detection_day=(
                int(row["detection_day"]) if bool(row["has_detection"]) else None
            ),
            downloads=int(row["downloads"]),
            campaign_id=look(int(row["campaign"])),
            actor=look(int(row["actor"])),
            archetype=look(int(row["archetype"])),
            behavior_key=look(int(row["behavior"])),
        )

    def report_at(self, i: int) -> CollectedReport:
        row = self.reports[i]
        look = self.pool.lookup
        p0, p1 = int(self.rpkg_offsets[i]), int(self.rpkg_offsets[i + 1])
        u0, u1 = int(self.unresolved_offsets[i]), int(self.unresolved_offsets[i + 1])
        return CollectedReport(
            report_id=look(int(row["report_id"])),
            url=look(int(row["url"])),
            site=look(int(row["site"])),
            category=look(int(row["category"])),
            source=look(int(row["source"])),
            publish_day=int(row["publish_day"]) if bool(row["has_publish"]) else None,
            packages=[
                PackageId(
                    look(int(self.rpkg_eco[j])),
                    look(int(self.rpkg_name[j])),
                    look(int(self.rpkg_ver[j])),
                )
                for j in range(p0, p1)
            ],
            unresolved=[
                (look(int(self.unresolved_a[j])), look(int(self.unresolved_b[j])))
                for j in range(u0, u1)
            ],
            actor_alias=look(int(row["actor_alias"])),
        )

    # -- persistence -------------------------------------------------------
    _ARRAY_FIELDS = (
        "packages",
        "claim_offsets",
        "claim_source",
        "claim_day",
        "claim_shares",
        "file_offsets",
        "file_path",
        "file_text",
        "keyword_offsets",
        "keyword",
        "dep_offsets",
        "dep",
        "script_offsets",
        "script_key",
        "script_val",
        "reports",
        "rpkg_offsets",
        "rpkg_eco",
        "rpkg_name",
        "rpkg_ver",
        "unresolved_offsets",
        "unresolved_a",
        "unresolved_b",
    )

    def arrays(self) -> Dict[str, np.ndarray]:
        """Every backing array keyed by a stable name (pool included) —
        the persistence surface for the mmap tier."""
        out = {name: getattr(self, name) for name in self._ARRAY_FIELDS}
        frozen = self.pool.freeze()
        out["pool_data"] = frozen["data"]
        out["pool_offsets"] = frozen["offsets"]
        return out

    @classmethod
    def from_array_map(cls, arrays: Dict[str, np.ndarray]) -> "ColumnarDataset":
        """Inverse of :meth:`arrays`; the arrays may be memory-mapped."""
        pool = StringPool.from_arrays(arrays["pool_data"], arrays["pool_offsets"])
        kwargs = {name: arrays[name] for name in cls._ARRAY_FIELDS}
        return cls(pool=pool, **kwargs)

