"""Typosquatting detection by edit distance against popular names.

Typosquatting is the most popular attack vector in OSS ecosystems
(Section V cites Spellbound and related work); the detector flags a
package whose name sits within a small Damerau-Levenshtein distance of a
popular package without being it.

The check does not sweep the popular names. Two names within distance
d share a string reached by at most d deletions from each (SymSpell's
observation, :func:`deletion_variants`), so :class:`TyposquatIndex`
keeps a table from deletion variant to popular names and measures the
distance only to the few names a query's own variants reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.malware.naming import POPULAR_NAMES

#: How much longer than a popular name a combosquat may be: the affix
#: a name adds before or after it, in normalised characters.
COMBO_AFFIX = 8


def damerau_levenshtein(a: str, b: str, cap: int = 4) -> int:
    """Restricted Damerau-Levenshtein distance with an early-exit cap.

    Returns ``cap`` when the true distance is >= cap. Only the cells
    with ``|i - j| < cap`` are computed: a cell that far off the
    diagonal can only hold ``cap`` or more, so the cells outside the
    band read as ``cap``, and the scan stops at the first row whose
    band holds nothing below it.
    """
    if a == b:
        return 0
    len_b = len(b)
    if abs(len(a) - len_b) >= cap:
        return cap
    previous2: Optional[List[int]] = None
    previous = [j if j < cap else cap for j in range(len_b + 1)]
    for i in range(1, len(a) + 1):
        ca = a[i - 1]
        current = [cap] * (len_b + 1)
        row_min = cap
        if i < cap:
            current[0] = row_min = i
        low = i - cap + 1 if i >= cap else 1
        high = i + cap - 1 if i + cap - 1 < len_b else len_b
        for j in range(low, high + 1):
            cb = b[j - 1]
            value = previous[j - 1] if ca == cb else previous[j - 1] + 1
            other = previous[j] + 1  # deletion
            if other < value:
                value = other
            other = current[j - 1] + 1  # insertion
            if other < value:
                value = other
            if previous2 is not None and j > 1 and ca == b[j - 2] and a[i - 2] == cb:
                other = previous2[j - 2] + 1  # transposition
                if other < value:
                    value = other
            current[j] = value
            if value < row_min:
                row_min = value
        if row_min >= cap:
            return cap
        previous2, previous = previous, current
    return previous[len_b] if previous[len_b] < cap else cap


def deletion_variants(word: str, depth: int) -> Set[str]:
    """``word`` plus every string reached from it by up to ``depth``
    single-character deletions.

    Two words within restricted Damerau-Levenshtein distance ``depth``
    always share one: deleting one character from one side undoes an
    insertion or a deletion, and one from each side undoes a
    substitution or an adjacent transposition. Intersecting variant sets
    therefore finds every near name with a handful of dict hits.
    """
    variants = {word}
    if depth > 0:
        _delete_from(word, 0, depth, variants)
    return variants


def _delete_from(word: str, start: int, depth: int, into: Set[str]) -> None:
    """Add to ``into`` every string up to ``depth`` deletions at positions
    ``start`` or later reach from ``word``.

    Deleting in ascending position order reaches each set of deleted
    positions once.
    """
    for i in range(start, len(word)):
        cut = word[:i] + word[i + 1 :]
        into.add(cut)
        if depth > 1:
            _delete_from(cut, i, depth - 1, into)


def _normalize(name: str) -> str:
    return name.lower().replace("-", "").replace("_", "").replace(".", "")


@dataclass
class SquatMatch:
    """A name flagged as squatting a popular package."""

    name: str
    target: str
    distance: int
    kind: str  # "typo" | "combo"


class TyposquatIndex:
    """Popular names indexed by normalised name and deletion variant.

    The tables are built once per instance. Targets are numbered in
    (sorted ecosystem, popular-list position) order, so a sorted set of
    candidates meets them in the order a sweep of each ecosystem's list
    would, and every tie resolves as that sweep resolves it.
    """

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
        #: (ecosystem, target, normalised target) by target number, and
        #: each ecosystem's range of target numbers
        self._targets: List[Tuple[str, str, str]] = []
        self._spans: Dict[str, range] = {}
        for eco in sorted(self.popular):
            start = len(self._targets)
            self._targets.extend(
                (eco, target, _normalize(target)) for target in self.popular[eco]
            )
            self._spans[eco] = range(start, len(self._targets))
        #: normalised name -> target numbers (collisions and combos)
        self._by_norm: Dict[str, Tuple[int, ...]] = {}
        #: deletion variant to depth max_distance -> target numbers
        self._by_variant: Dict[str, Tuple[int, ...]] = {}
        for at, (_, _, norm) in enumerate(self._targets):
            self._by_norm[norm] = self._by_norm.get(norm, ()) + (at,)
            for variant in deletion_variants(norm, max_distance):
                self._by_variant[variant] = self._by_variant.get(variant, ()) + (at,)

    def _candidates(self, normalized: str) -> Set[int]:
        """Every target that can flag a name normalising to ``normalized``:
        equal normalisations, combos and deletion-variant neighbours."""
        by_norm = self._by_norm
        found = set(by_norm.get(normalized, ()))
        size = len(normalized)
        for length in range(max(1, size - COMBO_AFFIX), size):
            found.update(by_norm.get(normalized[:length], ()))
            found.update(by_norm.get(normalized[size - length :], ()))
        by_variant = self._by_variant
        for variant in deletion_variants(normalized, self.max_distance):
            hits = by_variant.get(variant)
            if hits:
                found.update(hits)
        return found

    def check(self, ecosystem: Optional[str], name: str) -> Optional[SquatMatch]:
        """The popular package ``name`` squats, or None if it is clean.

        Within one ecosystem, the first target whose normalised name
        equals the name's answers (a distance-0 typo), and the name is
        clean when that target is the name itself. Otherwise the first
        target at the smallest distance in 1..``max_distance`` answers,
        among those the name does not merely extend. Otherwise the last
        combo does: a target the name extends by a prefix or suffix of at
        most ``COMBO_AFFIX`` characters.

        ``ecosystem=None`` checks every ecosystem in one pass, and the
        first ecosystem in sorted order that flags the name answers.
        Distances are computed only for the candidates the tables give.
        """
        normalized = _normalize(name)
        candidates = self._candidates(normalized)
        if ecosystem is not None:
            span = self._spans.get(ecosystem, range(0))
            candidates = [at for at in candidates if at in span]
        cap = self.max_distance + 1
        walking: Optional[str] = None  # the ecosystem being walked
        best: Optional[SquatMatch] = None
        clean = False
        for at in sorted(candidates):
            eco, target, target_norm = self._targets[at]
            if eco != walking:
                if best is not None:
                    return best
                walking, clean = eco, False
            if clean:
                continue
            if target_norm == normalized:
                if name == target:
                    clean = True  # it IS this ecosystem's popular package
                    best = None
                    continue
                # normalization collision ('scipy-' vs 'scipy'): a pure
                # separator/case squat — the strongest typo signal.
                return SquatMatch(name=name, target=target, distance=0, kind="typo")
            # combosquat: popular name embedded with an affix
            if (
                target_norm
                and (
                    normalized.startswith(target_norm)
                    or normalized.endswith(target_norm)
                )
                and len(normalized) - len(target_norm) <= COMBO_AFFIX
            ):
                if best is None or best.kind != "typo":
                    best = SquatMatch(
                        name=name, target=target, distance=0, kind="combo"
                    )
                continue
            distance = damerau_levenshtein(normalized, target_norm, cap=cap)
            if 1 <= distance <= self.max_distance:
                if best is None or distance < best.distance or best.kind == "combo":
                    best = SquatMatch(
                        name=name, target=target, distance=distance, kind="typo"
                    )
        return best
