"""Damerau-Levenshtein distance and the typosquat index."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.detection.typosquat import (
    SquatMatch,
    TyposquatIndex,
    _normalize,
    damerau_levenshtein,
)
from repro.malware.naming import POPULAR_NAMES, combosquat, typosquat

names = st.text(alphabet="abcdefgh-", min_size=1, max_size=12)


# -- distance ------------------------------------------------------------------

def test_distance_identity():
    assert damerau_levenshtein("requests", "requests") == 0


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ("requests", "request", 1),  # deletion
        ("requests", "requestss", 1),  # insertion
        ("requests", "requosts", 1),  # substitution
        ("requests", "reqeusts", 1),  # transposition
        ("react", "chalk", 4),  # capped far-apart
    ],
)
def test_distance_single_edits(a, b, expected):
    assert damerau_levenshtein(a, b) == expected


def test_distance_cap_on_length_gap():
    assert damerau_levenshtein("ab", "abcdefgh", cap=4) == 4


def test_distance_cap_respected():
    assert damerau_levenshtein("aaaa", "bbbb", cap=3) == 3


@given(names, names)
@settings(max_examples=120, deadline=None)
def test_distance_symmetry(a, b):
    assert damerau_levenshtein(a, b) == damerau_levenshtein(b, a)


@given(names, names)
@settings(max_examples=120, deadline=None)
def test_distance_positivity(a, b):
    d = damerau_levenshtein(a, b)
    assert 0 <= d <= 4
    assert (d == 0) == (a == b)


@given(names, names, names)
@settings(max_examples=80, deadline=None)
def test_distance_triangle_inequality_within_cap(a, b, c):
    cap = 50
    ab = damerau_levenshtein(a, b, cap=cap)
    bc = damerau_levenshtein(b, c, cap=cap)
    ac = damerau_levenshtein(a, c, cap=cap)
    assert ac <= ab + bc


# -- index ------------------------------------------------------------------

def test_normalize_strips_separators_and_case():
    assert _normalize("Beautiful-Soup_4.x") == "beautifulsoup4x"


def test_index_flags_typosquats():
    index = TyposquatIndex()
    rng = random.Random(0)
    for _ in range(30):
        target = rng.choice(POPULAR_NAMES["pypi"])
        squatted = typosquat(target, rng)
        match = index.check("pypi", squatted)
        assert match is not None, f"{squatted!r} should be flagged"
        assert match.distance <= 2


def test_index_flags_combosquats():
    index = TyposquatIndex()
    rng = random.Random(1)
    for _ in range(30):
        target = rng.choice(POPULAR_NAMES["npm"])
        squatted = combosquat(target, rng)
        match = index.check("npm", squatted)
        assert match is not None
        assert match.kind in ("typo", "combo")


def test_index_popular_name_itself_is_clean():
    index = TyposquatIndex()
    for target in POPULAR_NAMES["pypi"]:
        assert index.check("pypi", target) is None


def test_index_unrelated_name_is_clean():
    index = TyposquatIndex()
    assert index.check("pypi", "zzqxv-internal-metrics") is None


def test_index_unknown_ecosystem_is_clean():
    index = TyposquatIndex()
    assert index.check("nonexistent", "requests1") is None


def test_index_prefers_typo_over_combo_across_targets():
    """'pandaz' is a combo of 'pan' but a distance-1 typo of 'pandas';
    the stronger typo interpretation wins."""
    index = TyposquatIndex(popular={"pypi": ["pan", "pandas"]})
    match = index.check("pypi", "pandaz")
    assert match.kind == "typo"
    assert match.target == "pandas"


def test_index_normalization_collision_is_distance_zero():
    index = TyposquatIndex()
    match = index.check("pypi", "scipy-")
    assert match is not None
    assert match.kind == "typo"
    assert match.distance == 0
    assert match.target == "scipy"


def test_index_custom_popular_set():
    index = TyposquatIndex(popular={"pypi": ["leftpad"]})
    assert index.check("pypi", "leftpa") is not None
    assert index.check("pypi", "requests1") is None


def test_index_empty_popular_table_flags_nothing():
    """An empty table is a table, not a request for the defaults."""
    index = TyposquatIndex(popular={})
    assert index.check("pypi", "reqeusts") is None
    assert index.check(None, "reqeusts") is None
