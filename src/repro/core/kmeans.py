"""K-Means clustering (scikit-learn substitute).

Section III-A clusters package embeddings with K-Means, starting at
``k = 3`` and increasing the number of clusters "until the centroids of
newly formed clusters do not change". :func:`grow_kmeans` implements that
procedure: ``k`` grows until a freshly added cluster's centroid is no
longer distinct from the existing ones (or inertia stops improving),
meaning further splits create no new structure.

Vectors are assumed L2-normalised (cosine geometry), so assignment is an
argmax of dot products — a single BLAS matmul per Lloyd iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError


@dataclass
class KMeansResult:
    """Outcome of one K-Means run."""

    centroids: np.ndarray  # (k, dim)
    labels: np.ndarray  # (n,)
    inertia: float
    iterations: int

    @property
    def k(self) -> int:
        return int(self.centroids.shape[0])

    def clusters(self) -> List[np.ndarray]:
        """Member indices per cluster (empty clusters omitted)."""
        out = []
        for cluster in range(self.k):
            members = np.flatnonzero(self.labels == cluster)
            if members.size:
                out.append(members)
        return out


def _kmeans_pp_extend(
    X: np.ndarray,
    centroids: np.ndarray,
    start: int,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """k-means++ D² sampling for slots ``[start:k]``, given that
    ``centroids[:start]`` are already chosen."""
    n = X.shape[0]
    # For unit vectors, ||x - c||^2 = 2 - 2 x.c
    closest = 2.0 - 2.0 * (X @ centroids[:start].T).max(axis=1)
    np.maximum(closest, 0.0, out=closest)
    for idx in range(start, k):
        total = float(closest.sum())
        if total <= 1e-12:
            choice = int(rng.integers(n))
        else:
            choice = int(rng.choice(n, p=closest / total))
        centroids[idx] = X[choice]
        distance = 2.0 - 2.0 * (X @ centroids[idx])
        np.maximum(distance, 0.0, out=distance)
        np.minimum(closest, distance, out=closest)
    return centroids


def _kmeans_pp_init(
    X: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding under squared-Euclidean distance."""
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]), dtype=X.dtype)
    first = int(rng.integers(n))
    centroids[0] = X[first]
    return _kmeans_pp_extend(X, centroids, 1, k, rng)


def kmeans(
    X: np.ndarray,
    k: int,
    rng: Optional[np.random.Generator] = None,
    max_iter: int = 30,
    tol: float = 1e-6,
    init: Optional[np.ndarray] = None,
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ initialisation.

    ``X`` must be an (n, dim) array; rows should be L2-normalised for
    cosine behaviour. Empty clusters are re-seeded with the point
    furthest from its centroid. ``init`` warm-starts the run: its rows
    seed the first centroids and only the remaining slots (if any) are
    drawn with k-means++ — the growth loop uses this so each round
    refines the previous round's structure instead of restarting cold.
    """
    if k <= 0:
        raise ConfigError(f"k must be positive, got {k}")
    if max_iter < 1:
        # iteration would never bind and the epilogue would raise
        # UnboundLocalError; zero Lloyd steps is a config error, not a run.
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    n = X.shape[0]
    if n == 0:
        return KMeansResult(
            centroids=np.zeros((0, X.shape[1])), labels=np.zeros(0, int),
            inertia=0.0, iterations=0,
        )
    k = min(k, n)
    rng = rng if rng is not None else np.random.default_rng(0)
    if init is not None and init.shape[0] > 0:
        seeded = min(int(init.shape[0]), k)
        centroids = np.empty((k, X.shape[1]), dtype=X.dtype)
        centroids[:seeded] = init[:seeded]
        if seeded < k:
            centroids = _kmeans_pp_extend(X, centroids, seeded, k, rng)
    else:
        centroids = _kmeans_pp_init(X, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    sq_norms = np.einsum("ij,ij->i", X, X)
    inertia = float("inf")
    for iteration in range(1, max_iter + 1):
        # assignment: minimise ||x||^2 - 2 x.c + ||c||^2
        scores = X @ centroids.T
        c_norms = np.einsum("ij,ij->i", centroids, centroids)
        distances = sq_norms[:, None] - 2.0 * scores + c_norms[None, :]
        new_labels = np.argmin(distances, axis=1)
        new_inertia = float(
            np.maximum(distances[np.arange(n), new_labels], 0.0).sum()
        )
        # update: per-cluster sums as a one-hot matmul — BLAS makes this
        # an order of magnitude faster than np.add.at's scattered writes
        counts = np.bincount(new_labels, minlength=k).astype(np.float64)
        onehot = np.zeros((n, k), dtype=X.dtype)
        onehot[np.arange(n), new_labels] = 1.0
        new_centroids = onehot.T @ X
        empty = counts == 0
        if empty.any():
            worst = np.argsort(
                -np.maximum(distances[np.arange(n), new_labels], 0.0)
            )
            for slot, point in zip(np.flatnonzero(empty), worst):
                new_centroids[slot] = X[point]
                counts[slot] = 1.0
        new_centroids /= counts[:, None]
        moved = float(np.linalg.norm(new_centroids - centroids))
        centroids, labels = new_centroids, new_labels
        if moved <= tol or abs(inertia - new_inertia) <= tol * max(inertia, 1.0):
            inertia = new_inertia
            break
        inertia = new_inertia
    return KMeansResult(
        centroids=centroids, labels=labels, inertia=inertia, iterations=iteration
    )


@dataclass
class GrowthTrace:
    """One step of the k-growth procedure."""

    k: int
    inertia: float
    min_centroid_gap: float
    #: centroids inherited from the previous round (0 = cold k-means++)
    seeded: int = 0
    #: Lloyd iterations this round's run took to converge
    iterations: int = 0


def grow_kmeans(
    X: np.ndarray,
    start_k: int = 3,
    max_k: Optional[int] = None,
    seed: int = 0,
    duplicate_eps: float = 0.05,
    improvement_tol: float = 0.02,
    growth: float = 0.34,
    warm_start: bool = False,
) -> Tuple[KMeansResult, List[GrowthTrace]]:
    """The paper's cluster-growth loop.

    Starting at ``start_k`` (the paper uses 3), ``k`` grows by ~34% per
    round until either

    * two centroids nearly coincide (``min gap < duplicate_eps`` — the
      "centroids of newly formed clusters do not change" stop), or
    * inertia improves by less than ``improvement_tol`` per round, or
    * ``k`` reaches ``max_k`` (default: n // 2; a ``max_k`` below
      ``start_k`` caps the first round too).

    With ``warm_start`` each growth round seeds Lloyd's from the
    previous round's centroids and draws k-means++ picks only for the
    newly added slots, instead of restarting from scratch — the stopping
    rule is unchanged and the trace records how many centroids every
    round inherited (``seeded``) and how many Lloyd iterations it took
    (``iterations``). On data whose cluster structure the cold restarts
    recover, the warm path converges to the same partition in fewer
    total iterations. It is *opt-in* because the two paths are different
    optimisations: on messy embeddings the warm candidates keep finding
    lower-inertia refinements the cold restarts cannot, so the loop
    stops at a different (finer) ``k`` than the calibrated default —
    and the canonical pipeline must stay byte-identical across every
    execution knob. Returns the final clustering and the trace.
    """
    if max_k is not None and max_k < 1:
        raise ConfigError(f"max_k must be >= 1, got {max_k}")
    n = X.shape[0]
    if n == 0:
        return kmeans(X, 1), []
    rng = np.random.default_rng(seed)
    cap = max_k if max_k is not None else max(start_k, n // 2)
    cap = min(cap, n)
    k = min(start_k, cap)
    trace: List[GrowthTrace] = []
    best = kmeans(X, k, rng)
    best_seeded = 0
    while True:
        gap = _min_centroid_gap(best.centroids)
        trace.append(
            GrowthTrace(
                k=best.k,
                inertia=best.inertia,
                min_centroid_gap=gap,
                seeded=best_seeded,
                iterations=best.iterations,
            )
        )
        if gap < duplicate_eps:
            break
        if best.k >= cap:
            break
        next_k = min(cap, max(best.k + 1, int(best.k * (1.0 + growth))))
        init = best.centroids if warm_start else None
        candidate_seeded = best.k if warm_start else 0
        candidate = kmeans(X, next_k, rng, init=init)
        if best.inertia > 0 and (
            (best.inertia - candidate.inertia) / best.inertia < improvement_tol
        ):
            # Additional clusters no longer explain new structure; keep
            # the candidate only if it found genuinely distinct centroids.
            if _min_centroid_gap(candidate.centroids) < duplicate_eps:
                break
            best, best_seeded = candidate, candidate_seeded
            gap = _min_centroid_gap(best.centroids)
            trace.append(
                GrowthTrace(
                    k=best.k,
                    inertia=best.inertia,
                    min_centroid_gap=gap,
                    seeded=best_seeded,
                    iterations=best.iterations,
                )
            )
            break
        best, best_seeded = candidate, candidate_seeded
    return best, trace


def _min_centroid_gap(centroids: np.ndarray) -> float:
    """Smallest pairwise distance between centroids."""
    k = centroids.shape[0]
    if k < 2:
        return float("inf")
    gram = centroids @ centroids.T
    sq = np.einsum("ij,ij->i", centroids, centroids)
    dist2 = sq[:, None] - 2.0 * gram + sq[None, :]
    np.fill_diagonal(dist2, np.inf)
    return float(np.sqrt(max(dist2.min(), 0.0)))
