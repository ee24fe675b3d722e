"""Connected-subgraph groups: DG, DeG, SG, CG (Section III-B).

A group is a connected component of one edge type's subgraph. Groups
carry the per-group measurements the analyses need: ecosystem, size,
first/last release (the active period of Fig. 9) and the release-ordered
member sequence used by the RQ4 evolution analyses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.collection.records import DatasetEntry, MalwareDataset
from repro.core.graph import EdgeType, PropertyGraph
from repro.ecosystem.package import PackageId


class GroupKind(str, Enum):
    """The paper's group abbreviations."""

    DG = "DG"  # duplicated group
    DEG = "DeG"  # dependency group
    SG = "SG"  # similarity group
    CG = "CG"  # co-existing group

    @property
    def edge_type(self) -> EdgeType:
        return _KIND_TO_EDGE[self]


_KIND_TO_EDGE = {
    GroupKind.DG: EdgeType.DUPLICATED,
    GroupKind.DEG: EdgeType.DEPENDENCY,
    GroupKind.SG: EdgeType.SIMILAR,
    GroupKind.CG: EdgeType.COEXISTING,
}


#: where a member with no known release day sorts: after every dated one
_NO_DAY = 1 << 30

#: a group's place among the groups of its kind (see :func:`rank_key`)
RankKey = Tuple[int, str]


def member_key(release_day: Optional[int], node: str) -> Tuple[int, str]:
    """A member's place in its group: by release day, unknown days last,
    then by node id (``str(PackageId)``)."""
    return (_NO_DAY if release_day is None else release_day, node)


def rank_key(size: int, earliest: str) -> RankKey:
    """A group's place among the groups of its kind: larger groups
    first, then by the node id of its earliest member in
    :func:`member_key` order. Group ids (``SG-0003``) are these ranks."""
    return (-size, earliest)


@dataclass
class PackageGroup:
    """One malware family / attack campaign group."""

    kind: GroupKind
    members: List[DatasetEntry]

    def __post_init__(self) -> None:
        self.members = sorted(
            self.members, key=lambda e: member_key(e.release_day, str(e.package))
        )

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def ecosystem(self) -> str:
        """Dominant ecosystem of the group."""
        counts = Counter(e.package.ecosystem for e in self.members)
        return counts.most_common(1)[0][0]

    def release_days(self) -> List[int]:
        return [e.release_day for e in self.members if e.release_day is not None]

    @property
    def first_day(self) -> Optional[int]:
        days = self.release_days()
        return min(days) if days else None

    @property
    def last_day(self) -> Optional[int]:
        days = self.release_days()
        return max(days) if days else None

    @property
    def active_period_days(self) -> Optional[int]:
        """t_l - t_f: the attack campaign's active period (Fig. 9)."""
        days = self.release_days()
        if not days:
            return None
        return max(days) - min(days)

    def ordered_downloads(self) -> List[int]:
        """Download counts in release order (Fig. 11's series)."""
        return [
            e.downloads
            for e in self.members
            if e.release_day is not None
        ]

    # -- ground-truth validation helpers ------------------------------------
    def campaign_ids(self) -> List[str]:
        return sorted({e.campaign_id for e in self.members if e.campaign_id})

    @property
    def purity(self) -> float:
        """Fraction of members belonging to the dominant true campaign."""
        labels = [e.campaign_id for e in self.members if e.campaign_id]
        if not labels:
            return 0.0
        return Counter(labels).most_common(1)[0][1] / len(labels)


def extract_groups(
    graph: PropertyGraph, dataset: MalwareDataset, kind: GroupKind
) -> List[PackageGroup]:
    """Connected components of one edge type as :class:`PackageGroup`s,
    in :func:`rank_key` order."""
    groups: List[PackageGroup] = []
    for component in graph.connected_components([kind.edge_type]):
        members: List[DatasetEntry] = []
        for node in component:
            attrs = graph.node(node)
            entry = dataset.get(
                PackageId(attrs["ecosystem"], attrs["name"], attrs["version"])
            )
            if entry is not None:
                members.append(entry)
        if len(members) >= 2:
            groups.append(PackageGroup(kind=kind, members=members))
    groups.sort(key=lambda g: rank_key(g.size, str(g.members[0].package)))
    return groups


def groups_by_ecosystem(
    groups: Sequence[PackageGroup],
) -> Dict[str, List[PackageGroup]]:
    """Bucket groups by dominant ecosystem (Table VII rows)."""
    buckets: Dict[str, List[PackageGroup]] = {}
    for group in groups:
        buckets.setdefault(group.ecosystem, []).append(group)
    return buckets
