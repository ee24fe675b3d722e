"""AST code embeddings (the OpenAI-embedding substitute).

Section III-A embeds each package's AST with OpenAI's
``text-embedding-3-large``. Offline we use a deterministic feature-hashed
embedding with the property the pipeline actually relies on: *similar
source code maps to nearby vectors*. Features are:

* **structural n-grams** — parent→child AST node-type digrams and
  DFS-path trigrams, capturing program shape independent of naming;
* **lexical tokens** — identifier names, attribute names, call names and
  short string constants, capturing the campaign-specific vocabulary
  (hosts, tokens, helper names) that distinguishes one actor's code base
  from another's use of the same general pattern.

Each feature is hashed into a fixed-dimension signed bucket (feature
hashing), TF-weighted and L2-normalised, so cosine similarity is a dot
product.

The embedder is the hot path of ``MalGraph.build``, so it is built to
scale: one fused AST pass collects both feature families, the
feature→bucket mapping is memoised process-wide (the same digrams repeat
across every package), batches deduplicate by SHA256 before any work,
and :meth:`AstEmbedder.embed_many` can fan the unique artifacts out over
a process pool — the resulting matrix is byte-identical to the serial
path because each vector is a pure function of the artifact bytes.

Malicious packages reuse code (the paper's finding 2), so distinct
artifacts still share most of their files. Within one
:meth:`AstEmbedder.embed_many` call — and within each worker's chunk —
each distinct source text is parsed and embedded once; the package
vector sums the per-file vectors in file order exactly as
:meth:`AstEmbedder.embed_package` does, so the matrix is unchanged. The
source memo is local to the call and freed when it returns.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.ecosystem.package import PackageArtifact
from repro.errors import EmbeddingError

#: The paper reports an embedding dimension of 3,072 with 8,000-token
#: inputs; 256 hashed dimensions give the same clustering behaviour at a
#: fraction of the cost.
DEFAULT_DIM = 256

#: Version of the feature-extraction + hashing scheme. Folded into
#: :meth:`AstEmbedder.fingerprint`, so persisted embedding-cache entries
#: from an older scheme are invalidated rather than misread. v2: blake2b
#: bucket hash (MD5 raises on FIPS-enabled hosts) and the fused
#: single-pass AST walk.
FEATURE_VERSION = 2

#: Below this many *unique* artifacts a process pool costs more than it
#: saves; :meth:`AstEmbedder.embed_many` stays serial regardless of the
#: requested ``jobs``.
PARALLEL_MIN_BATCH = 32

#: Upper bound on the memoised feature→(bucket, sign) table per
#: dimension. Repetition, not vocabulary, is what the memo exploits;
#: past the bound new features are hashed without being remembered.
_BUCKET_TABLE_LIMIT = 1 << 20

_BUCKET_TABLES: Dict[int, Dict[str, Tuple[int, float]]] = {}


def resolve_jobs(jobs: int) -> int:
    """Worker count for a ``jobs`` knob: ``0`` (or negative) = one per core."""
    if jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return jobs


def _bucket(feature: str, dim: int) -> Tuple[int, float]:
    """Feature -> (bucket index, sign) via a stable, memoised hash."""
    table = _BUCKET_TABLES.setdefault(dim, {})
    entry = table.get(feature)
    if entry is None:
        digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=5).digest()
        entry = (int.from_bytes(digest[:4], "big") % dim, 1.0 if digest[4] & 1 else -1.0)
        if len(table) < _BUCKET_TABLE_LIMIT:
            table[feature] = entry
    return entry


def iter_structural_features(tree: ast.AST) -> Iterable[str]:
    """Parent->child digrams and grandparent paths over node types."""
    stack: List[tuple] = [(tree, None, None)]
    while stack:
        node, parent, grandparent = stack.pop()
        name = type(node).__name__
        if parent is not None:
            yield f"st2:{parent}>{name}"
        if grandparent is not None:
            yield f"st3:{grandparent}>{parent}>{name}"
        for child in ast.iter_child_nodes(node):
            stack.append((child, name, parent))


def iter_lexical_features(tree: ast.AST) -> Iterable[str]:
    """Identifier / attribute / literal vocabulary of the code."""
    for node in ast.walk(tree):
        yield from _lexical_of(node)


def _lexical_of(node: ast.AST) -> Iterable[str]:
    """Lexical features contributed by one AST node."""
    if isinstance(node, ast.Name):
        yield f"id:{node.id}"
    elif isinstance(node, ast.Attribute):
        yield f"attr:{node.attr}"
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield f"def:{node.name}"
    elif isinstance(node, ast.arg):
        yield f"arg:{node.arg}"
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        value = node.value
        if 0 < len(value) <= 60:
            yield f"str:{value}"
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        for alias in node.names:
            yield f"import:{alias.name}"


def _collect_features(
    tree: ast.AST, max_tokens: int
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """One fused DFS pass collecting structural and lexical counts.

    Emits the same feature strings as :func:`iter_structural_features`
    and :func:`iter_lexical_features` but walks the tree once; the
    ``max_tokens`` budget is shared and consumed in emission order.
    """
    structural: Dict[str, int] = {}
    lexical: Dict[str, int] = {}
    budget = max_tokens
    stack: List[tuple] = [(tree, None, None)]
    while stack:
        if budget <= 0:
            break
        node, parent, grandparent = stack.pop()
        name = type(node).__name__
        if parent is not None:
            feature = f"st2:{parent}>{name}"
            structural[feature] = structural.get(feature, 0) + 1
            budget -= 1
        if grandparent is not None:
            feature = f"st3:{grandparent}>{parent}>{name}"
            structural[feature] = structural.get(feature, 0) + 1
            budget -= 1
        for feature in _lexical_of(node):
            lexical[feature] = lexical.get(feature, 0) + 1
            budget -= 1
        for child in ast.iter_child_nodes(node):
            stack.append((child, name, parent))
    return structural, lexical


def _token_fallback_features(source: str) -> Iterable[str]:
    """Crude token features for code that does not parse as Python."""
    token = []
    for ch in source:
        if ch.isalnum() or ch == "_":
            token.append(ch)
        else:
            if len(token) > 1:
                yield f"tok:{''.join(token)}"
            token = []
    if len(token) > 1:
        yield f"tok:{''.join(token)}"


def _embed_chunk(
    embedder: "AstEmbedder", chunk: List[Tuple[str, PackageArtifact]]
) -> List[Tuple[str, np.ndarray]]:
    """Embed one chunk of (sha256, artifact) pairs, each distinct source
    file once: the body of the serial path and of every worker."""
    sources: Dict[str, np.ndarray] = {}
    return [
        (sha, embedder._embed_files(artifact, sources)) for sha, artifact in chunk
    ]


@dataclass
class AstEmbedder:
    """Deterministic code embedder.

    ``structural_weight`` balances shape vs vocabulary: structure groups
    same-behaviour code, vocabulary separates distinct campaigns.
    """

    dim: int = DEFAULT_DIM
    structural_weight: float = 0.15
    lexical_weight: float = 5.0
    max_tokens: int = 8000  # matches the paper's input truncation

    def payload(self) -> dict:
        """Everything a vector depends on besides the artifact bytes:
        what :meth:`fingerprint` hashes and the ``embeddings`` cache
        metadata records."""
        return {
            "feature_version": FEATURE_VERSION,
            "dim": self.dim,
            "structural_weight": self.structural_weight,
            "lexical_weight": self.lexical_weight,
            "max_tokens": self.max_tokens,
        }

    def fingerprint(self) -> str:
        """Content address of :meth:`payload` — the key of the persistent
        embedding cache."""
        canonical = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def embed_source(self, source: str) -> np.ndarray:
        """Embed one source file.

        Term frequencies are damped with ``log1p`` so the handful of
        campaign-specific identifiers is not drowned out by the hundreds
        of repeated structural digrams every package shares.
        """
        vector = np.zeros(self.dim, dtype=np.float64)
        try:
            tree = ast.parse(source)
        except SyntaxError:
            counts: Dict[str, int] = {}
            for count, feature in enumerate(_token_fallback_features(source)):
                if count >= self.max_tokens:
                    break
                counts[feature] = counts.get(feature, 0) + 1
            self._accumulate(vector, counts, 1.0)
            return self._normalize(vector)
        structural, lexical = _collect_features(tree, self.max_tokens)
        self._accumulate(vector, structural, self.structural_weight)
        self._accumulate(vector, lexical, self.lexical_weight)
        return self._normalize(vector)

    def _accumulate(
        self, vector: np.ndarray, counts: Dict[str, int], weight: float
    ) -> None:
        for feature, count in counts.items():
            index, sign = _bucket(feature, self.dim)
            vector[index] += sign * weight * math.log1p(count)

    def embed_package(self, artifact: PackageArtifact) -> np.ndarray:
        """Embed a package: normalised sum of its code-file embeddings."""
        return self._embed_files(artifact, {})

    def _embed_files(
        self, artifact: PackageArtifact, sources: Dict[str, np.ndarray]
    ) -> np.ndarray:
        """:meth:`embed_package`, reusing and filling ``sources`` (source
        text → file vector) so a file shared by many packages is
        embedded once."""
        code_files = artifact.code_files()
        if not code_files:
            raise EmbeddingError(
                f"{artifact.id} has no code files to embed"
            )
        total = np.zeros(self.dim, dtype=np.float64)
        for _path, source in code_files.items():
            vector = sources.get(source)
            if vector is None:
                vector = sources[source] = self.embed_source(source)
            total += vector
        return self._normalize(total)

    def embed_many(
        self,
        artifacts: Sequence[PackageArtifact],
        jobs: int = 1,
        cache: Optional[MutableMapping[str, np.ndarray]] = None,
    ) -> np.ndarray:
        """Embed a batch into an (n, dim) matrix of unit rows.

        Artifacts are deduplicated by SHA256 before any embedding work,
        vectors already present in ``cache`` (sha256 → vector) are
        reused, and the remaining unique artifacts are embedded with up
        to ``jobs`` worker processes (``0`` = one per core), parsing
        each distinct source file once per call (once per chunk when
        workers run). ``cache`` is updated in place with every newly
        computed vector. The matrix is byte-identical for any
        ``jobs``/``cache`` combination.
        """
        if not artifacts:
            return np.zeros((0, self.dim), dtype=np.float64)
        vectors: MutableMapping[str, np.ndarray] = cache if cache is not None else {}
        shas = [artifact.sha256() for artifact in artifacts]
        pending: Dict[str, PackageArtifact] = {}
        for sha, artifact in zip(shas, artifacts):
            if sha not in vectors and sha not in pending:
                pending[sha] = artifact
        if pending:
            vectors.update(self._embed_unique(list(pending.items()), jobs))
        matrix = np.empty((len(artifacts), self.dim), dtype=np.float64)
        for row, sha in enumerate(shas):
            matrix[row] = vectors[sha]
        return matrix

    def _embed_unique(
        self, pending: List[Tuple[str, PackageArtifact]], jobs: int
    ) -> Dict[str, np.ndarray]:
        """Embed deduplicated (sha256, artifact) pairs, in parallel when
        the batch is big enough to pay for the pool."""
        workers = min(resolve_jobs(jobs), len(pending))
        if workers <= 1 or len(pending) < PARALLEL_MIN_BATCH:
            return dict(_embed_chunk(self, pending))
        # Deterministic contiguous chunks, one per worker; merge order is
        # irrelevant because each vector is keyed by its sha256.
        chunk_size = -(-len(pending) // workers)
        chunks = [
            pending[start : start + chunk_size]
            for start in range(0, len(pending), chunk_size)
        ]
        computed: Dict[str, np.ndarray] = {}
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for rows in pool.map(_embed_chunk, [self] * len(chunks), chunks):
                    computed.update(rows)
        except (OSError, PermissionError):
            # Process pools can be unavailable (restricted sandboxes,
            # exhausted fds); the serial path computes the same matrix.
            return dict(_embed_chunk(self, pending))
        return computed

    @staticmethod
    def _normalize(vector: np.ndarray) -> np.ndarray:
        norm = float(np.linalg.norm(vector))
        if norm == 0.0:
            return vector
        return vector / norm


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two (already normalised or not) vectors."""
    denom = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.dot(a, b)) / denom
