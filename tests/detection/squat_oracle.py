"""The exhaustive typosquat check, kept as the oracle for the index.

:class:`SweepIndex` is the popular-name sweep that
:class:`repro.detection.typosquat.TyposquatIndex` replaced: one
Damerau-Levenshtein computation per popular name of the ecosystem, over
the full dynamic-programming matrix. It answers every name the way the
index must, ties included, and is too slow to serve. Only the tests
read it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.detection.typosquat import SquatMatch, _normalize
from repro.malware.naming import POPULAR_NAMES


def damerau_levenshtein(a: str, b: str, cap: int = 4) -> int:
    """Restricted Damerau-Levenshtein distance with an early-exit cap.

    Returns ``cap`` when the true distance is >= cap, which keeps the
    scan O(len_a * len_b) only for plausibly-close pairs.
    """
    if a == b:
        return 0
    if abs(len(a) - len(b)) >= cap:
        return cap
    previous2: Optional[List[int]] = None
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i] + [0] * len(b)
        row_min = i
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            value = min(
                previous[j] + 1,  # deletion
                current[j - 1] + 1,  # insertion
                previous[j - 1] + cost,  # substitution
            )
            if (
                previous2 is not None
                and i > 1
                and j > 1
                and ca == b[j - 2]
                and a[i - 2] == cb
            ):
                value = min(value, previous2[j - 2] + 1)  # transposition
            current[j] = value
            row_min = min(row_min, value)
        if row_min >= cap:
            return cap
        previous2, previous = previous, current
    return min(previous[-1], cap)


class SweepIndex:
    """Popular names checked one by one, in list order."""

    def __init__(
        self,
        popular: Optional[Dict[str, Sequence[str]]] = None,
        max_distance: int = 2,
    ):
        self.popular = {
            eco: list(names)
            for eco, names in (POPULAR_NAMES if popular is None else popular).items()
        }
        self.max_distance = max_distance

    def check(self, ecosystem: str, name: str) -> Optional[SquatMatch]:
        """Return the closest squat target, or None if the name is clean."""
        candidates = self.popular.get(ecosystem, [])
        normalized = _normalize(name)
        best: Optional[SquatMatch] = None
        for target in candidates:
            if name == target:
                return None  # it IS the popular package
            target_norm = _normalize(target)
            if target_norm == normalized:
                # normalization collision ('scipy-' vs 'scipy'): a pure
                # separator/case squat — the strongest typo signal.
                return SquatMatch(name=name, target=target, distance=0, kind="typo")
            # combosquat: popular name embedded with an affix
            if (
                target_norm
                and target_norm != normalized
                and (
                    normalized.startswith(target_norm)
                    or normalized.endswith(target_norm)
                )
                and len(normalized) - len(target_norm) <= 8
            ):
                match = SquatMatch(name=name, target=target, distance=0, kind="combo")
                if best is None or best.kind != "typo":
                    best = match
                continue
            distance = damerau_levenshtein(
                normalized, target_norm, cap=self.max_distance + 1
            )
            if 1 <= distance <= self.max_distance:
                if best is None or distance < best.distance or best.kind == "combo":
                    best = SquatMatch(
                        name=name, target=target, distance=distance, kind="typo"
                    )
        return best

    def check_all(self, name: str) -> Optional[SquatMatch]:
        """The first ecosystem, in sorted order, that flags ``name``."""
        for ecosystem in sorted(self.popular):
            match = self.check(ecosystem, name)
            if match is not None:
                return match
        return None
