"""Dataset inventory analyses: Table I, Table III and Fig. 2.

* Table I — per-source counts of available vs unavailable packages;
* Table III — security-report counts by website category;
* Fig. 2 — monthly release timeline of the collected packages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.render import render_table, render_timeline
from repro.analysis.stats import bin_by
from repro.collection.records import MalwareDataset
from repro.ecosystem.clock import day_to_month
from repro.intel.reports import CATEGORIES
from repro.intel.sources import SOURCE_PROFILES, Sector


@dataclass
class SourceInventoryRow:
    """One Table I row."""

    source: str
    label: str
    sector: Sector
    unavailable: int
    available: int

    @property
    def total(self) -> int:
        return self.unavailable + self.available


@dataclass
class SourceInventory:
    """Table I: source and size of the collected malicious packages."""

    rows: List[SourceInventoryRow]

    @property
    def total_available(self) -> int:
        return sum(r.available for r in self.rows)

    @property
    def total_unavailable(self) -> int:
        return sum(r.unavailable for r in self.rows)

    def render(self) -> str:
        table_rows = [
            [
                row.sector.value,
                row.label,
                row.unavailable,
                row.available,
            ]
            for row in self.rows
        ]
        table_rows.append(
            ["", "Total", self.total_unavailable, self.total_available]
        )
        return render_table(
            ["Category", "Data Source", "Unavailable #", "Available #"],
            table_rows,
            title="Table I: source and size of collected malicious packages",
        )


def compute_source_inventory(dataset: MalwareDataset) -> SourceInventory:
    """Count per-source available/unavailable packages (Table I).

    A package counts as available for a source if the pipeline holds its
    artifact (from any origin), mirroring the paper's bookkeeping.
    """
    rows: List[SourceInventoryRow] = []
    by_source = dataset.entries_by_source()
    for profile in SOURCE_PROFILES:
        entries = by_source.get(profile.key, [])
        available = sum(1 for e in entries if e.available)
        rows.append(
            SourceInventoryRow(
                source=profile.key,
                label=profile.label,
                sector=profile.sector,
                unavailable=len(entries) - available,
                available=available,
            )
        )
    return SourceInventory(rows=rows)


@dataclass
class ReportInventoryRow:
    """One Table III row."""

    category: str
    websites: int
    reports: int


@dataclass
class ReportInventory:
    """Table III: source of security analysis reports."""

    rows: List[ReportInventoryRow]

    @property
    def total_websites(self) -> int:
        return sum(r.websites for r in self.rows)

    @property
    def total_reports(self) -> int:
        return sum(r.reports for r in self.rows)

    def render(self) -> str:
        table_rows = [[r.category, r.websites, r.reports] for r in self.rows]
        table_rows.append(["Total", self.total_websites, self.total_reports])
        return render_table(
            ["Category", "Website #", "Report #"],
            table_rows,
            title="Table III: source of security analysis reports",
        )


def compute_report_inventory(dataset: MalwareDataset) -> ReportInventory:
    """Count crawled reports and websites per category (Table III)."""
    sites_by_category: Dict[str, set] = {c: set() for c in CATEGORIES}
    reports_by_category: Dict[str, int] = {c: 0 for c in CATEGORIES}
    for report in dataset.reports:
        category = report.category if report.category in reports_by_category else "Other"
        reports_by_category[category] += 1
        sites_by_category[category].add(report.site)
    rows = [
        ReportInventoryRow(
            category=category,
            websites=len(sites_by_category[category]),
            reports=reports_by_category[category],
        )
        for category in CATEGORIES
    ]
    return ReportInventory(rows=rows)


@dataclass
class ReleaseTimeline:
    """Fig. 2: monthly release counts of the collected packages."""

    months: List[str]
    counts: List[int]

    def render(self) -> str:
        return render_timeline(
            self.months,
            self.counts,
            title="Fig. 2: release timeline of collected malicious packages",
        )

    def yearly_totals(self) -> Dict[int, int]:
        totals: Dict[int, int] = {}
        for month, count in zip(self.months, self.counts):
            year = int(month.split("-")[0])
            totals[year] = totals.get(year, 0) + count
        return totals


def compute_release_timeline(dataset: MalwareDataset) -> ReleaseTimeline:
    """Bin entry release days by calendar month (Fig. 2)."""
    dated = [e for e in dataset.entries if e.release_day is not None]
    bins = bin_by(dated, key=lambda e: day_to_month(e.release_day))
    months = list(bins)
    counts = [len(bins[m]) for m in months]
    return ReleaseTimeline(months=months, counts=counts)
