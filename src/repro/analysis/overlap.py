"""RQ1 overlap analyses: Table IV and Fig. 4.

* Table IV — the 10x10 matrix of package overlap between sources;
* Fig. 4 — CDF of the DG size (how many sources report each package) for
  the three major ecosystems.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Tuple

from repro.analysis.render import render_cdf, render_table
from repro.analysis.stats import CdfPoint, cdf_fraction_at, empirical_cdf
from repro.collection.records import MalwareDataset
from repro.ecosystem.package import MAJOR_ECOSYSTEMS
from repro.intel.sources import SOURCE_INDEX, SOURCE_PROFILES, Sector


@dataclass
class OverlapMatrix:
    """Table IV: pairwise package overlap between sources."""

    sources: List[str]  # source keys, Table I order
    totals: Dict[str, int]
    matrix: Dict[Tuple[str, str], int]

    def overlap(self, a: str, b: str) -> int:
        if a == b:
            return self.totals.get(a, 0)
        return self.matrix.get((a, b), self.matrix.get((b, a), 0))

    def sector_block_means(self) -> Dict[Tuple[Sector, Sector], float]:
        """Average overlap within/between sectors (the RQ1 reading aid)."""
        blocks: Dict[Tuple[Sector, Sector], List[int]] = {}
        for a, b in combinations(self.sources, 2):
            sa = SOURCE_INDEX[a].sector
            sb = SOURCE_INDEX[b].sector
            key = tuple(sorted((sa, sb), key=lambda s: s.value))
            blocks.setdefault(key, []).append(self.overlap(a, b))
        return {
            key: (sum(values) / len(values) if values else 0.0)
            for key, values in blocks.items()
        }

    def render(self) -> str:
        headers = [""] + [
            f"{SOURCE_INDEX[s].short} ({self.totals[s]})" for s in self.sources
        ]
        rows = []
        for a in self.sources:
            row = [f"{SOURCE_INDEX[a].short} ({self.totals[a]})"]
            for b in self.sources:
                row.append("" if a == b else self.overlap(a, b))
            rows.append(row)
        return render_table(
            headers, rows, title="Table IV: the overlapping matrix of all sources"
        )


def compute_overlap_matrix(dataset: MalwareDataset) -> OverlapMatrix:
    """Count packages claimed by each pair of sources (Table IV)."""
    sources = [p.key for p in SOURCE_PROFILES]
    totals = {s: 0 for s in sources}
    matrix: Dict[Tuple[str, str], int] = {}
    for entry in dataset.entries:
        claimed = sorted(entry.sources)
        for source in claimed:
            if source in totals:
                totals[source] += 1
        for a, b in combinations(claimed, 2):
            matrix[(a, b)] = matrix.get((a, b), 0) + 1
    return OverlapMatrix(sources=sources, totals=totals, matrix=matrix)


@dataclass
class DgSizeCdf:
    """Fig. 4: CDF of DG size (sources per package) per major ecosystem."""

    per_ecosystem: Dict[str, List[CdfPoint]]
    single_source_fraction: float
    more_than_three_fraction: float

    def render(self) -> str:
        blocks = [
            render_cdf(
                points,
                title=f"Fig. 4 ({ecosystem.upper()}): CDF of DG size",
                value_label="DG size (# reporting sources)",
            )
            for ecosystem, points in self.per_ecosystem.items()
        ]
        blocks.append(
            f"single-source packages: {self.single_source_fraction:.1%}; "
            f"reported by more than three sources: "
            f"{self.more_than_three_fraction:.1%}"
        )
        return "\n\n".join(blocks)


def compute_dg_size_cdf(dataset: MalwareDataset) -> DgSizeCdf:
    """DG size = number of distinct sources reporting a package (Fig. 4)."""
    per_ecosystem: Dict[str, List[CdfPoint]] = {}
    all_sizes: List[int] = []
    for ecosystem in MAJOR_ECOSYSTEMS:
        sizes = [len(entry.sources) for entry in dataset.for_ecosystem(ecosystem)]
        all_sizes.extend(sizes)
        per_ecosystem[ecosystem] = empirical_cdf(sizes)
    single = cdf_fraction_at(all_sizes, 1)
    more_than_three = 1.0 - cdf_fraction_at(all_sizes, 3)
    return DgSizeCdf(
        per_ecosystem=per_ecosystem,
        single_source_fraction=single,
        more_than_three_fraction=more_than_three,
    )
