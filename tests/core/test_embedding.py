"""AST embedder: deterministic, normalised, and 'similar code → nearby
vectors' — the property the similarity pipeline relies on."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.embedding import (
    PARALLEL_MIN_BATCH,
    AstEmbedder,
    cosine_similarity,
    iter_lexical_features,
    iter_structural_features,
    resolve_jobs,
)
from repro.ecosystem.package import make_artifact
from repro.errors import EmbeddingError
from repro.malware.behaviors import get_behavior
from repro.malware.codegen import generate_source_tree, make_style, mutate_code

SOURCE_A = """
import os
import json

def gather(root):
    rows = []
    for name in os.listdir(root):
        rows.append({'name': name, 'size': len(name)})
    return json.dumps(rows)
"""

SOURCE_B = """
import os
import json

def collect(base):
    items = []
    for entry in os.listdir(base):
        items.append({'name': entry, 'size': len(entry)})
    return json.dumps(items)
"""

SOURCE_C = """
class Matrix:
    def __init__(self, rows):
        self.rows = rows

    def transpose(self):
        return Matrix(list(zip(*self.rows)))

    def scale(self, factor):
        return Matrix([[v * factor for v in row] for row in self.rows])
"""


def _artifact(name: str, source: str):
    return make_artifact("pypi", name, "1.0.0", {f"{name}/main.py": source})


@pytest.fixture(scope="module")
def embedder() -> AstEmbedder:
    return AstEmbedder()


def test_embedding_is_unit_norm(embedder):
    vec = embedder.embed_source(SOURCE_A)
    assert np.linalg.norm(vec) == pytest.approx(1.0)
    assert vec.shape == (embedder.dim,)


def test_embedding_deterministic(embedder):
    a = embedder.embed_source(SOURCE_A)
    b = embedder.embed_source(SOURCE_A)
    assert np.array_equal(a, b)


def test_same_shape_different_names_still_close(embedder):
    """Structural features keep renamed-but-identical logic nearby."""
    sim_renamed = cosine_similarity(
        embedder.embed_source(SOURCE_A), embedder.embed_source(SOURCE_B)
    )
    sim_unrelated = cosine_similarity(
        embedder.embed_source(SOURCE_A), embedder.embed_source(SOURCE_C)
    )
    assert sim_renamed > sim_unrelated


def test_identical_code_has_similarity_one(embedder):
    sim = cosine_similarity(
        embedder.embed_source(SOURCE_C), embedder.embed_source(SOURCE_C)
    )
    assert sim == pytest.approx(1.0)


def test_syntax_error_falls_back_to_tokens(embedder):
    vec = embedder.embed_source("def broken(:\n    pass")
    assert np.linalg.norm(vec) == pytest.approx(1.0)
    # the fallback still separates different token streams
    other = embedder.embed_source("class Also(:\n    ...")
    assert cosine_similarity(vec, other) < 0.999


def test_empty_source_is_zero_vector(embedder):
    vec = embedder.embed_source("")
    assert np.linalg.norm(vec) == pytest.approx(0.0)


def test_embed_package_requires_code(embedder):
    artifact = make_artifact("pypi", "meta-only", "1.0", {"README.md": "hi"})
    with pytest.raises(EmbeddingError):
        embedder.embed_package(artifact)


def test_embed_package_combines_files(embedder):
    one = _artifact("single", SOURCE_A)
    two = make_artifact(
        "pypi", "double", "1.0.0",
        {"double/a.py": SOURCE_A, "double/b.py": SOURCE_C},
    )
    va, vb = embedder.embed_package(one), embedder.embed_package(two)
    assert np.linalg.norm(va) == pytest.approx(1.0)
    assert np.linalg.norm(vb) == pytest.approx(1.0)
    assert not np.array_equal(va, vb)


def test_embed_many_shape_and_cache(embedder):
    artifacts = [_artifact("p1", SOURCE_A), _artifact("p2", SOURCE_A)]
    matrix = embedder.embed_many(artifacts)
    assert matrix.shape == (2, embedder.dim)
    # identical code -> identical rows (signature cache and determinism)
    assert np.array_equal(matrix[0], matrix[1])


def test_embed_many_empty(embedder):
    assert embedder.embed_many([]).shape == (0, embedder.dim)


def test_campaign_code_clusters_tighter_than_cross_campaign(embedder):
    """The embedding separates two campaigns using the same behaviour
    template but different styles, while keeping a campaign's own
    CC-mutated variants close — the core requirement of Section III-A."""
    behavior = get_behavior("credential-stealer")
    style_one, style_two = make_style(101), make_style(202)
    tree_one = generate_source_tree(behavior, style_one, "pkg_one")
    tree_two = generate_source_tree(behavior, style_two, "pkg_two")
    rng = random.Random(0)
    mutated = mutate_code(dict(tree_one.files), rng)

    base = make_artifact("pypi", "camp1-a", "1.0", tree_one.files)
    variant = make_artifact("pypi", "camp1-b", "1.0", mutated)
    foreign = make_artifact("pypi", "camp2-a", "1.0", tree_two.files)

    v_base = embedder.embed_package(base)
    v_variant = embedder.embed_package(variant)
    v_foreign = embedder.embed_package(foreign)

    within = cosine_similarity(v_base, v_variant)
    across = cosine_similarity(v_base, v_foreign)
    assert within > 0.95
    assert within > across


def test_structural_features_cover_nesting():
    import ast

    tree = ast.parse("def f():\n    if True:\n        return 1")
    feats = list(iter_structural_features(tree))
    assert "st2:FunctionDef>If" in feats
    assert any(f.startswith("st3:") for f in feats)


def test_lexical_features_cover_vocabulary():
    import ast

    tree = ast.parse(
        "import os\n"
        "def send(url):\n"
        "    data = os.environ\n"
        "    return post(url, 'token-xyz')\n"
    )
    feats = set(iter_lexical_features(tree))
    assert "import:os" in feats
    assert "def:send" in feats
    assert "arg:url" in feats
    assert "attr:environ" in feats
    assert "str:token-xyz" in feats


def test_long_strings_not_used_as_features():
    import ast

    tree = ast.parse(f"x = {'a' * 100!r}")
    feats = set(iter_lexical_features(tree))
    assert not any(f.startswith("str:") for f in feats)


def test_cosine_similarity_handles_zero_vectors():
    z = np.zeros(4)
    assert cosine_similarity(z, z) == 0.0
    assert cosine_similarity(z, np.ones(4)) == 0.0


def test_cosine_similarity_unnormalised_inputs():
    a = np.array([2.0, 0.0])
    b = np.array([4.0, 0.0])
    assert cosine_similarity(a, b) == pytest.approx(1.0)
    c = np.array([0.0, 9.0])
    assert cosine_similarity(a, c) == pytest.approx(0.0)


def test_dim_is_configurable():
    small = AstEmbedder(dim=32)
    vec = small.embed_source(SOURCE_A)
    assert vec.shape == (32,)
    assert np.linalg.norm(vec) == pytest.approx(1.0)


# -- batch embedding: dedup, cache, parallel ----------------------------------

def _distinct_artifacts(count: int):
    """`count` artifacts with genuinely different code (unique SHA256s)."""
    return [
        _artifact(
            f"pkg{idx}",
            f"def handler_{idx}(payload):\n"
            f"    token_{idx} = payload.get('k{idx}')\n"
            f"    return [token_{idx}, {idx}]\n",
        )
        for idx in range(count)
    ]


def test_embed_many_parallel_is_byte_identical_to_serial(embedder):
    """The tentpole guarantee: worker processes change wall time, never
    a single byte of the matrix (batch is sized past PARALLEL_MIN_BATCH
    so the pool actually engages)."""
    artifacts = _distinct_artifacts(PARALLEL_MIN_BATCH + 8)
    serial = embedder.embed_many(artifacts, jobs=1)
    parallel = embedder.embed_many(artifacts, jobs=4)
    assert serial.tobytes() == parallel.tobytes()


def test_embed_many_deduplicates_before_embedding(embedder):
    """Duplicated artifacts are embedded once; every copy gets the row."""
    base = _distinct_artifacts(3)
    artifacts = base + [base[1], base[0]]
    matrix = embedder.embed_many(artifacts)
    assert np.array_equal(matrix[1], matrix[3])
    assert np.array_equal(matrix[0], matrix[4])


def test_embed_many_honours_and_updates_the_cache(embedder):
    artifacts = _distinct_artifacts(3)
    poisoned = np.zeros(embedder.dim)
    poisoned[0] = 1.0
    cache = {artifacts[0].sha256(): poisoned}
    matrix = embedder.embed_many(artifacts, cache=cache)
    # cached vectors are trusted verbatim, never recomputed
    assert np.array_equal(matrix[0], poisoned)
    # newly computed vectors land in the cache, keyed by sha256
    assert set(cache) == {a.sha256() for a in artifacts}
    assert np.array_equal(cache[artifacts[1].sha256()], matrix[1])


def test_embedder_fingerprint_tracks_every_result_knob():
    base = AstEmbedder()
    assert base.fingerprint() == AstEmbedder().fingerprint()
    for changed in (
        AstEmbedder(dim=128),
        AstEmbedder(structural_weight=0.3),
        AstEmbedder(lexical_weight=1.0),
        AstEmbedder(max_tokens=100),
    ):
        assert changed.fingerprint() != base.fingerprint()


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(1) == 1
    auto = resolve_jobs(0)
    assert auto >= 1
    assert resolve_jobs(-1) == auto


def _artifacts_sharing_files(count: int):
    """Distinct packages built from shared files: one file every package
    carries, one of four family files, and one file of their own."""
    shared = "import os\n\ndef beacon(host):\n    return os.getenv(host)\n"
    families = [
        f"def family_{f}(data):\n    return [item * {f} for item in data]\n"
        for f in range(4)
    ]
    return [
        make_artifact(
            "pypi",
            f"pkg{idx}",
            "1.0.0",
            {
                f"pkg{idx}/__init__.py": shared,
                f"pkg{idx}/family.py": families[idx % 4],
                f"pkg{idx}/own.py": f"TOKEN_{idx} = '{idx}'\n",
            },
        )
        for idx in range(count)
    ]


def test_embed_many_parses_each_distinct_source_once(embedder, monkeypatch):
    artifacts = _artifacts_sharing_files(PARALLEL_MIN_BATCH + 8)
    expected = np.vstack([embedder.embed_package(a) for a in artifacts])
    embedded = []
    embed_source = AstEmbedder.embed_source

    def counting(self, source):
        embedded.append(source)
        return embed_source(self, source)

    monkeypatch.setattr(AstEmbedder, "embed_source", counting)
    matrix = embedder.embed_many(artifacts, jobs=1)
    # 1 shared + 4 family + one own file per package, each parsed once
    assert len(embedded) == len(set(embedded)) == 1 + 4 + len(artifacts)
    monkeypatch.undo()
    assert matrix.tobytes() == expected.tobytes()
    # worker chunks memoise too; the pool engages past PARALLEL_MIN_BATCH
    assert embedder.embed_many(artifacts, jobs=2).tobytes() == expected.tobytes()
