"""Similarity pipeline: AST → embedding → growing-k K-Means → groups,
including the automated false-positive split."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import similarity
from repro.core.delta.similar import IncrementalSimilarStage
from repro.core.similarity import (
    SimilarityConfig,
    _similarity_components,
    cluster_artifacts,
)
from repro.ecosystem.package import make_artifact
from repro.malware.behaviors import BEHAVIORS, get_behavior
from repro.malware.codegen import generate_source_tree, make_style, mutate_code


def _campaign_artifacts(behavior_key: str, style_seed: int, count: int, prefix: str):
    """`count` CC-mutated variants of one campaign's code base."""
    behavior = get_behavior(behavior_key)
    style = make_style(style_seed)
    tree = generate_source_tree(behavior, style, f"pkg_{prefix}")
    rng = random.Random(style_seed)
    artifacts = []
    files = dict(tree.files)
    for idx in range(count):
        if idx:
            files = mutate_code(files, rng)
        artifacts.append(
            make_artifact("pypi", f"{prefix}-{idx}", "1.0.0", dict(files))
        )
    return artifacts


def test_cluster_recovers_campaigns():
    """Three synthetic campaigns come back as three groups."""
    artifacts = (
        _campaign_artifacts("credential-stealer", 11, 6, "alpha")
        + _campaign_artifacts("cryptominer", 22, 5, "beta")
        + _campaign_artifacts("backdoor-shell", 33, 7, "gamma")
    )
    # max_k caps the growth loop: with only 18 points the default cap
    # (n // 2) fragments the three campaigns.
    result = cluster_artifacts(artifacts, SimilarityConfig(seed=0, max_k=3))
    assert result.group_count == 3
    # members of one campaign share a label
    labels = result.labels
    assert len(set(labels[0:6].tolist())) == 1
    assert len(set(labels[6:11].tolist())) == 1
    assert len(set(labels[11:18].tolist())) == 1
    # campaigns are separated
    assert len({labels[0], labels[6], labels[11]}) == 3


def test_cluster_empty_input():
    result = cluster_artifacts([])
    assert result.groups == []
    assert result.labels.size == 0
    assert result.kmeans_k == 0


def test_singletons_are_unlabelled():
    """A lone artifact unlike everything else gets label -1 (groups need
    two members, per the connected-subgraph semantics)."""
    artifacts = _campaign_artifacts("credential-stealer", 44, 4, "main")
    loner = make_artifact(
        "pypi", "loner", "0.1",
        {"x/weird.py": "class Unique:\n    marker = 'zzz-one-of-a-kind'\n"},
    )
    result = cluster_artifacts(artifacts + [loner], SimilarityConfig(seed=1))
    assert result.labels[-1] == -1
    assert all(idx != 4 for group in result.groups for idx in group)


def test_groups_are_disjoint_and_sorted():
    artifacts = (
        _campaign_artifacts("downloader", 55, 8, "a")
        + _campaign_artifacts("keylogger", 66, 3, "b")
    )
    result = cluster_artifacts(artifacts, SimilarityConfig(seed=2))
    seen = set()
    for group in result.groups:
        assert group == sorted(group)
        assert not (set(group) & seen)
        seen.update(group)
    sizes = [len(g) for g in result.groups]
    assert sizes == sorted(sizes, reverse=True)


def test_min_similarity_split_removes_false_positives():
    """With the FP pass off, loosely attached members may share a group;
    the cosine split only ever refines groups, never merges them."""
    artifacts = (
        _campaign_artifacts("dns-exfiltrator", 77, 5, "x")
        + _campaign_artifacts("discord-stealer", 88, 5, "y")
    )
    raw = cluster_artifacts(
        artifacts, SimilarityConfig(seed=3, min_similarity=None)
    )
    refined = cluster_artifacts(
        artifacts, SimilarityConfig(seed=3, min_similarity=0.9)
    )
    assert refined.group_count >= raw.group_count
    # refinement preserves: members grouped after the split were grouped before
    raw_label = {i: raw.labels[i] for i in range(len(artifacts))}
    for group in refined.groups:
        raw_labels = {raw_label[i] for i in group}
        assert len(raw_labels) == 1


def test_identical_artifacts_share_group():
    base = _campaign_artifacts("env-beacon", 99, 1, "dup")[0]
    clones = [
        make_artifact("pypi", f"dup-{i}", "1.0.0", dict(base.files))
        for i in range(4)
    ]
    result = cluster_artifacts(clones, SimilarityConfig(seed=4))
    assert result.group_count == 1
    assert len(result.groups[0]) == 4


def test_similarity_components_threshold_behaviour():
    X = np.array(
        [
            [1.0, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
        ]
    )
    members = np.array([0, 1, 2])
    strict = _similarity_components(X, members, threshold=0.99)
    assert sorted(sorted(c) for c in strict) == [[0, 1], [2]]
    loose = _similarity_components(X, members, threshold=-1.0)
    assert sorted(sorted(c) for c in loose) == [[0, 1, 2]]


def test_similarity_components_single_unique_vector():
    X = np.tile(np.array([0.6, 0.8]), (5, 1))
    members = np.arange(5)
    components = _similarity_components(X, members, threshold=0.99)
    assert [sorted(c) for c in components] == [[0, 1, 2, 3, 4]]


def _unblocked_components(vectors: np.ndarray, threshold: float):
    """Reference: components of the cosine >= threshold graph, from the
    whole cosine matrix at once."""
    linked = vectors @ vectors.T >= threshold
    unseen = set(range(len(vectors)))
    components = set()
    while unseen:
        stack = [unseen.pop()]
        component = set(stack)
        while stack:
            for j in np.flatnonzero(linked[stack.pop()]).tolist():
                if j in unseen:
                    unseen.remove(j)
                    component.add(j)
                    stack.append(j)
        components.add(frozenset(component))
    return components


def _clustered_unit_rows(seed: int, count: int) -> np.ndarray:
    """Unit rows scattered around a few directions, so the 0.9-cosine
    graph has several multi-row components and some singletons."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(4, 6))
    rows = centers[rng.integers(0, 4, size=count)] + rng.normal(
        scale=0.35, size=(count, 6)
    )
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.mark.parametrize("block_rows", [2, 3])
def test_similarity_components_across_block_boundaries(monkeypatch, block_rows):
    monkeypatch.setattr(similarity, "SIMILARITY_BLOCK_ROWS", block_rows)
    unique = _clustered_unit_rows(seed=block_rows, count=23)
    # duplicated rows collapse to one unique vector before the kernel
    X = np.vstack([unique, unique[[0, 5, 5, 17]]])
    members = np.arange(3, len(X))
    components = _similarity_components(X, members, threshold=0.9)
    assert {frozenset(c) for c in components} == {
        frozenset(int(members[i]) for i in component)
        for component in _unblocked_components(X[members], 0.9)
    }
    assert len(components) > 1 and any(len(c) > block_rows for c in components)


@pytest.mark.parametrize("block_rows", [2, 3])
def test_stage_global_components_across_block_boundaries(monkeypatch, block_rows):
    """Keys arrive in batches whose first new key sits mid-block; after
    each batch the global components equal the unblocked reference."""
    monkeypatch.setattr(similarity, "SIMILARITY_BLOCK_ROWS", block_rows)
    vectors = _clustered_unit_rows(seed=10 + block_rows, count=26)
    stage = IncrementalSimilarStage(SimilarityConfig(dim=6, min_similarity=0.9))
    stage._vectors = {f"sha{i}": row for i, row in enumerate(vectors)}
    for end in (5, 13, 19, 26):
        first_new = stage._key_matrix.shape[0]
        assert first_new == 0 or first_new % block_rows
        ids = stage._ids_for([f"sha{i}" for i in range(end)])
        assert ids == list(range(end))
        grouped = {}
        for key in ids:
            grouped.setdefault(stage._components.find(key), set()).add(key)
        assert {frozenset(g) for g in grouped.values()} == _unblocked_components(
            vectors[:end].round(9), 0.9
        )
        # root sizes drive the stage's whole-component shortcut
        sizes = stage._components.size
        assert all(sizes[root] == len(group) for root, group in grouped.items())
    assert len(grouped) > 1 and max(map(len, grouped.values())) > block_rows


def test_trace_records_growth():
    artifacts = sum(
        (
            _campaign_artifacts(b.key, 100 + i, 4, f"t{i}")
            for i, b in enumerate(BEHAVIORS[:5])
        ),
        [],
    )
    result = cluster_artifacts(artifacts, SimilarityConfig(seed=5))
    assert result.trace, "growth trace is recorded"
    assert result.trace[0].k == 3  # the paper starts at k = 3
