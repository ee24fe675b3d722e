"""RQ1 dataset-quality analyses: Table V, Table VI and Fig. 5.

* Table V — update cadence of each source (profile cadence plus the
  observed last-update date from collected claims);
* Table VI — per-source missing rate, single-source vs after
  supplementation from other sources and mirrors;
* Fig. 5 — the two causes of unavailability, measured by classifying
  every unrecovered package against the mirror fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.render import render_bars, render_table
from repro.analysis.stats import percentage
from repro.collection.mirrorsearch import MissCause, classify_miss
from repro.collection.records import MalwareDataset
from repro.ecosystem.clock import day_to_date
from repro.ecosystem.mirror import MirrorNetwork
from repro.intel.sources import SOURCE_INDEX, SOURCE_PROFILES


def _cadence_label(interval_days: int) -> str:
    """Human cadence label in Table V's vocabulary."""
    if interval_days <= 0:
        return "Never update"
    if interval_days < 30:
        return "several per month"
    months = max(1, round(interval_days / 30))
    return f"one per {months} month"


@dataclass
class FreshnessRow:
    """One Table V row."""

    source: str
    label: str
    last_update_day: Optional[int]
    cadence: str

    @property
    def last_update_date(self) -> str:
        if self.last_update_day is None:
            return "-"
        return day_to_date(self.last_update_day).strftime("%b %Y")


@dataclass
class FreshnessTable:
    """Table V: update frequency of the sources."""

    rows: List[FreshnessRow]

    def render(self) -> str:
        return render_table(
            ["Source", "Last update", "Frequency"],
            [[r.label, r.last_update_date, r.cadence] for r in self.rows],
            title="Table V: the update frequency of different online sources",
        )


def compute_freshness(dataset: MalwareDataset) -> FreshnessTable:
    """Observed last report day per source + configured cadence (Table V)."""
    last_seen: Dict[str, int] = {}
    for entry in dataset.entries:
        for claim in entry.claims:
            if claim.source not in last_seen or claim.report_day > last_seen[claim.source]:
                last_seen[claim.source] = claim.report_day
    rows = [
        FreshnessRow(
            source=profile.key,
            label=profile.label,
            last_update_day=last_seen.get(profile.key),
            cadence=_cadence_label(profile.update_interval_days),
        )
        for profile in SOURCE_PROFILES
    ]
    return FreshnessTable(rows=rows)


@dataclass
class MissingRateRow:
    """One Table VI row."""

    source: str
    label: str
    total: int
    missing_single: int  # this source's sharing alone
    missing_all: int  # after supplementation from anywhere

    @property
    def single_rate(self) -> float:
        return percentage(self.missing_single, self.total)

    @property
    def all_rate(self) -> float:
        return percentage(self.missing_all, self.total)


@dataclass
class MissingRateTable:
    """Table VI: missing rates of all sources."""

    rows: List[MissingRateRow]
    overall_missing: int
    overall_total: int

    @property
    def overall_rate(self) -> float:
        return percentage(self.overall_missing, self.overall_total)

    def render(self) -> str:
        table_rows = [
            [
                r.label,
                f"{r.missing_single} ({r.total})",
                f"{r.single_rate:.2f}%",
                f"{r.all_rate:.2f}%",
            ]
            for r in self.rows
        ]
        table_rows.append(
            [
                "Total",
                f"{self.overall_missing} ({self.overall_total})",
                "",
                f"{self.overall_rate:.2f}%",
            ]
        )
        return render_table(
            ["Source", "Missing # (Total #)", "Single MR", "All MR"],
            table_rows,
            title="Table VI: the missing rate of all sources",
        )


def compute_missing_rates(dataset: MalwareDataset) -> MissingRateTable:
    """Single vs overall missing rate per source (Table VI)."""
    rows: List[MissingRateRow] = []
    by_source = dataset.entries_by_source()
    for profile in SOURCE_PROFILES:
        entries = by_source.get(profile.key, [])
        if not entries:
            rows.append(
                MissingRateRow(
                    source=profile.key, label=profile.label,
                    total=0, missing_single=0, missing_all=0,
                )
            )
            continue
        own_shared = sum(
            1
            for e in entries
            if any(c.source == profile.key and c.shares_artifact for c in e.claims)
        )
        available = sum(1 for e in entries if e.available)
        rows.append(
            MissingRateRow(
                source=profile.key,
                label=profile.label,
                total=len(entries),
                missing_single=len(entries) - own_shared,
                missing_all=len(entries) - available,
            )
        )
    overall_missing = len(dataset.unavailable_entries())
    return MissingRateTable(
        rows=rows, overall_missing=overall_missing, overall_total=len(dataset)
    )


@dataclass
class UnavailabilityCauses:
    """Fig. 5: why unrecovered packages could not be obtained."""

    counts: Dict[MissCause, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fraction(self, cause: MissCause) -> float:
        return self.counts.get(cause, 0) / self.total if self.total else 0.0

    def render(self) -> str:
        labels = [cause.value for cause in MissCause]
        values = [float(self.counts.get(cause, 0)) for cause in MissCause]
        return render_bars(
            labels,
            values,
            title="Fig. 5: causes of package unavailability",
            value_format="{:.0f}",
        )


def compute_unavailability_causes(
    dataset: MalwareDataset, mirrors: MirrorNetwork
) -> UnavailabilityCauses:
    """Classify every still-missing package against the mirror fleet."""
    counts: Dict[MissCause, int] = {}
    for entry in dataset.unavailable_entries():
        cause = classify_miss(entry, mirrors)
        counts[cause] = counts.get(cause, 0) + 1
    return UnavailabilityCauses(counts=counts)
