"""The typosquat index and the banded distance kernel against the sweep.

``squat_oracle`` keeps the exhaustive popular-name sweep and the
full-matrix distance the index replaced; every verdict, ties included,
and every capped distance must come out the same.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.detection import typosquat
from repro.detection.typosquat import (
    TyposquatIndex,
    _normalize,
    damerau_levenshtein,
    deletion_variants,
)
from repro.malware.naming import POPULAR_NAMES

from tests.detection import squat_oracle
from tests.detection.squat_oracle import SweepIndex

LETTERS = "abcdefghijklmnopqrstuvwxyz0123456789"
SEPARATORS = "-_."

#: Popular tables whose ties the index must break as the sweep does.
TIE_TABLES = {
    "default": None,
    # 'abcz' is one edit from both; the first in list order answers
    "same-distance": {"pypi": ["abcx", "abcy"], "npm": ["abcy", "abcx"]},
    # 'pandaz' extends 'pan' (a combo) and is one edit from 'pandas'
    "combo-before-typo": {"pypi": ["pan", "pandas"]},
    "combo-after-typo": {"pypi": ["pandas", "pan", "and"]},
    # three spellings of one normalisation
    "one-normalisation": {"pypi": ["foo-bar", "foo_bar", "Foo.Bar"], "npm": ["foobar"]},
    "duplicated-target": {
        "pypi": ["leftpad", "left-pad", "leftpad"],
        "npm": ["leftpad"],
    },
}
INDEXES = {
    key: (TyposquatIndex(popular=table), SweepIndex(popular=table))
    for key, table in TIE_TABLES.items()
}


def _targets(table):
    held = POPULAR_NAMES if table is None else table
    return sorted({name for names in held.values() for name in names})


@st.composite
def _squat_names(draw, targets):
    """A target with up to two edits, a case and separator restyle and
    an optional combo affix of 1, 8 or 9 characters."""
    name = draw(st.sampled_from(targets))
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["insert", "delete", "substitute", "transpose"]))
        at = draw(st.integers(0, max(0, len(name) - 1)))
        letter = draw(st.sampled_from(LETTERS + SEPARATORS))
        if edit == "insert":
            name = name[:at] + letter + name[at:]
        elif edit == "delete":
            name = name[:at] + name[at + 1 :]
        elif edit == "substitute":
            name = name[:at] + letter + name[at + 1 :]
        elif len(name) > 1:
            at = min(at, len(name) - 2)
            name = name[:at] + name[at + 1] + name[at] + name[at + 2 :]
    name = draw(st.sampled_from([str, str.upper, str.title, str.swapcase]))(name)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(name)))
        name = name[:at] + draw(st.sampled_from(SEPARATORS)) + name[at:]
    size = draw(st.sampled_from([0, 0, 1, 8, 9]))
    affix = draw(st.text(alphabet=LETTERS, min_size=size, max_size=size))
    return affix + name if draw(st.booleans()) else name + affix


def _names(table):
    return st.one_of(
        _squat_names(_targets(table)),
        st.sampled_from(["-", "._", "", "np-qwertyuiop", "redis", "realt"]),
        st.text(alphabet=LETTERS[:6] + SEPARATORS, max_size=10),
    )


def _assert_same_verdicts(index, oracle, name):
    for ecosystem in sorted(oracle.popular) + ["no-such-ecosystem"]:
        assert index.check(ecosystem, name) == oracle.check(ecosystem, name), (
            ecosystem,
            name,
        )
    assert index.check(None, name) == oracle.check_all(name), name


@pytest.mark.parametrize("table", list(TIE_TABLES))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_check_equals_the_sweep(table, data):
    index, oracle = INDEXES[table]
    _assert_same_verdicts(index, oracle, data.draw(_names(TIE_TABLES[table])))


@given(
    table=st.dictionaries(
        st.sampled_from(["pypi", "npm", "rust"]),
        st.lists(st.text(alphabet="abc-", max_size=6), max_size=6),
        max_size=3,
    ),
    name=st.text(alphabet="abcA-", max_size=8),
    max_distance=st.integers(0, 3),
)
@settings(max_examples=300, deadline=None)
def test_check_equals_the_sweep_on_small_alphabet_tables(table, name, max_distance):
    """Tiny alphabets make ties, duplicates, shared normalisations, empty
    normalisations and combos the common case, at every depth."""
    _assert_same_verdicts(
        TyposquatIndex(popular=table, max_distance=max_distance),
        SweepIndex(popular=table, max_distance=max_distance),
        name,
    )


@st.composite
def _pairs(draw):
    a = draw(st.text(alphabet="abcd-", max_size=12))
    if draw(st.booleans()):
        return a, draw(st.text(alphabet="abcd-", max_size=12))
    b = a
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(b)))
        letter = draw(st.sampled_from("abcd-"))
        edit = draw(st.integers(0, 3))
        if edit == 0:
            b = b[:at] + letter + b[at:]
        elif edit == 1:
            b = b[:at] + b[at + 1 :]
        elif edit == 2:
            b = b[:at] + letter + b[at + 1 :]
        elif at + 1 < len(b):
            b = b[:at] + b[at + 1] + b[at] + b[at + 2 :]
    return a, b


@given(_pairs())
@settings(max_examples=400, deadline=None)
def test_banded_kernel_equals_the_full_matrix(pair):
    a, b = pair
    for cap in (1, 2, 3, 4, 50):
        assert damerau_levenshtein(a, b, cap) == squat_oracle.damerau_levenshtein(
            a, b, cap
        ), (a, b, cap)


# -- candidates, not a sweep ------------------------------------------------------

def _deletions(word: str, depth: int) -> set:
    """Every string ``word`` reaches by deleting up to ``depth`` characters."""
    return {
        "".join(c for at, c in enumerate(word) if at not in cut)
        for size in range(depth + 1)
        for cut in itertools.combinations(range(len(word)), size)
    }


@given(st.text(alphabet="abc-", max_size=9), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_deletion_variants_are_every_deletion_up_to_depth(word, depth):
    assert deletion_variants(word, depth) == _deletions(word, depth)


@pytest.fixture
def distance_calls(monkeypatch):
    calls = []

    def counted(a, b, cap=4):
        calls.append(b)
        return damerau_levenshtein(a, b, cap)

    monkeypatch.setattr(typosquat, "damerau_levenshtein", counted)
    return calls


def test_check_measures_no_popular_name_for_a_far_name(distance_calls):
    index = TyposquatIndex()
    for ecosystem in [None] + sorted(index.popular):
        distance_calls.clear()
        assert index.check(ecosystem, "np-qwertyuiop") is None
        assert distance_calls == [], ecosystem


def test_check_measures_only_the_candidates_of_a_typo(distance_calls):
    index = TyposquatIndex()
    typo = _normalize("reqursts")
    candidates = {
        ecosystem: [
            target
            for target in targets
            if _deletions(typo, index.max_distance)
            & _deletions(_normalize(target), index.max_distance)
        ]
        for ecosystem, targets in index.popular.items()
    }
    match = index.check("pypi", "reqursts")
    assert match.target == "requests" and match.distance == 1
    assert len(distance_calls) <= len(candidates["pypi"]) < len(index.popular["pypi"])
    distance_calls.clear()
    match = index.check(None, "reqursts")
    assert match.target == "requests" and match.distance == 1
    assert len(distance_calls) <= sum(len(found) for found in candidates.values())
