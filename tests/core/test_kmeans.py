"""K-Means (Lloyd + k-means++ + the paper's growing-k loop)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.kmeans import (
    GrowthTrace,
    KMeansResult,
    _min_centroid_gap,
    grow_kmeans,
    kmeans,
)
from repro.errors import ConfigError


def _unit_rows(X: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return X / norms


def _blobs(seed: int, centers: int = 3, per: int = 30, dim: int = 8) -> np.ndarray:
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(centers, dim)) * 6
    points = np.concatenate(
        [means[i] + rng.normal(scale=0.15, size=(per, dim)) for i in range(centers)]
    )
    return _unit_rows(points)


# -- kmeans -------------------------------------------------------------------

def test_kmeans_recovers_separated_blobs():
    X = _blobs(0, centers=3)
    result = kmeans(X, 3, rng=np.random.default_rng(1))
    # each true blob maps to exactly one label
    for start in (0, 30, 60):
        assert len(set(result.labels[start:start + 30].tolist())) == 1
    assert result.k == 3
    assert len(set(result.labels.tolist())) == 3


def test_kmeans_label_shape_and_range():
    X = _blobs(2)
    result = kmeans(X, 4, rng=np.random.default_rng(0))
    assert result.labels.shape == (90,)
    assert result.labels.min() >= 0
    assert result.labels.max() < result.k


def test_kmeans_k_clamped_to_n():
    X = _unit_rows(np.random.default_rng(3).normal(size=(4, 5)))
    result = kmeans(X, 10)
    assert result.k == 4


def test_kmeans_empty_input():
    result = kmeans(np.zeros((0, 5)), 3)
    assert result.k == 0
    assert result.labels.size == 0
    assert result.inertia == 0.0


def test_kmeans_rejects_nonpositive_k():
    with pytest.raises(ConfigError):
        kmeans(np.zeros((3, 2)), 0)
    with pytest.raises(ConfigError):
        kmeans(np.zeros((3, 2)), -1)


def test_kmeans_rejects_nonpositive_max_iter():
    # regression: max_iter=0 used to skip the Lloyd loop entirely and
    # crash with UnboundLocalError on `iteration` in the epilogue
    X = _blobs(2, centers=2, per=5)
    with pytest.raises(ConfigError):
        kmeans(X, 2, max_iter=0)
    with pytest.raises(ConfigError):
        kmeans(X, 2, max_iter=-3)
    # empty input with a valid max_iter still short-circuits cleanly
    empty = kmeans(np.zeros((0, 4)), 1, max_iter=5)
    assert empty.iterations == 0


def test_kmeans_single_point():
    X = _unit_rows(np.ones((1, 4)))
    result = kmeans(X, 3)
    assert result.k == 1
    assert result.labels.tolist() == [0]
    assert result.inertia == pytest.approx(0.0, abs=1e-9)


def test_kmeans_identical_points_zero_inertia():
    X = _unit_rows(np.tile(np.arange(1.0, 5.0), (20, 1)))
    result = kmeans(X, 3, rng=np.random.default_rng(5))
    assert result.inertia == pytest.approx(0.0, abs=1e-9)


def test_kmeans_deterministic_given_rng_state():
    X = _blobs(7)
    a = kmeans(X, 3, rng=np.random.default_rng(42))
    b = kmeans(X, 3, rng=np.random.default_rng(42))
    assert np.array_equal(a.labels, b.labels)
    assert a.inertia == b.inertia


def test_clusters_partition_points():
    X = _blobs(8, centers=4)
    result = kmeans(X, 4, rng=np.random.default_rng(0))
    members = np.concatenate(result.clusters())
    assert sorted(members.tolist()) == list(range(X.shape[0]))


def test_more_clusters_never_raise_inertia_much():
    X = _blobs(9, centers=5, per=20)
    few = kmeans(X, 2, rng=np.random.default_rng(0)).inertia
    many = kmeans(X, 5, rng=np.random.default_rng(0)).inertia
    assert many <= few


# -- growing-k ------------------------------------------------------------------

def test_grow_kmeans_starts_at_paper_k():
    X = _blobs(10, centers=6, per=15)
    _result, trace = grow_kmeans(X, start_k=3, seed=0)
    assert trace[0].k == 3


def test_grow_kmeans_finds_at_least_true_structure():
    X = _blobs(11, centers=6, per=15)
    result, _trace = grow_kmeans(X, start_k=3, seed=0)
    assert result.k >= 5  # at least near the 6 true blobs


def test_grow_kmeans_stops_at_max_k():
    X = _blobs(12, centers=8, per=10)
    result, _ = grow_kmeans(X, start_k=3, max_k=4, seed=0)
    assert result.k <= 4
    # a cap below start_k binds the first round too
    for max_k in (1, 2):
        result, trace = grow_kmeans(X, start_k=3, max_k=max_k, seed=0)
        assert result.k == max_k
        assert [t.k for t in trace] == [max_k]
    for max_k in (0, -1):
        with pytest.raises(ConfigError):
            grow_kmeans(X, start_k=3, max_k=max_k, seed=0)


def test_grow_kmeans_trace_is_monotone_in_k():
    X = _blobs(13, centers=5, per=20)
    _result, trace = grow_kmeans(X, start_k=3, seed=1)
    ks = [t.k for t in trace]
    assert ks == sorted(ks)
    assert all(isinstance(t, GrowthTrace) for t in trace)


def test_grow_kmeans_duplicate_centroid_stop():
    """With 2 genuine blobs, growing k creates coinciding centroids and
    the loop stops early rather than running to n/2."""
    X = _blobs(14, centers=2, per=40)
    result, _trace = grow_kmeans(X, start_k=3, seed=0)
    assert result.k < 20


def test_grow_kmeans_empty_input():
    result, trace = grow_kmeans(np.zeros((0, 4)))
    assert result.k == 0
    assert trace == []


def test_min_centroid_gap_basics():
    assert _min_centroid_gap(np.zeros((1, 3))) == float("inf")
    centroids = np.array([[0.0, 0.0], [3.0, 4.0], [100.0, 0.0]])
    assert _min_centroid_gap(centroids) == pytest.approx(5.0)


# -- property-based ------------------------------------------------------------

matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 25), st.just(6)),
    elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False),
)


@given(matrices, st.integers(1, 6))
@settings(max_examples=50, deadline=None)
def test_kmeans_invariants_hold_for_any_input(X, k):
    X = _unit_rows(np.asarray(X))
    result = kmeans(X, k, rng=np.random.default_rng(0))
    n = X.shape[0]
    assert result.k == min(k, n)
    assert result.labels.shape == (n,)
    assert np.all(result.labels >= 0)
    assert np.all(result.labels < result.k)
    assert result.inertia >= 0.0
    assert np.all(np.isfinite(result.centroids))


def test_assignment_is_nearest_centroid_after_convergence():
    """Once Lloyd's converges (centroids stop moving), every point's label
    is its nearest centroid."""
    X = _blobs(21, centers=3)
    result = kmeans(X, 3, rng=np.random.default_rng(1), max_iter=200, tol=0.0)
    d = ((X[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
    best = d.min(axis=1)
    chosen = d[np.arange(X.shape[0]), result.labels]
    assert np.allclose(chosen, best, atol=1e-8)


# -- warm start ---------------------------------------------------------------

def _unit_blobs(seed: int, centers: int = 5, per: int = 30, dim: int = 24,
                noise: float = 0.01) -> np.ndarray:
    """Tight, well-separated blobs on the unit sphere — data whose
    cluster structure every reasonable initialisation recovers."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(centers):
        center = rng.normal(size=dim)
        center /= np.linalg.norm(center)
        blob = center + noise * rng.normal(size=(per, dim))
        points.append(blob / np.linalg.norm(blob, axis=1, keepdims=True))
    return np.vstack(points)


def _partition(result: KMeansResult):
    return sorted(tuple(sorted(m.tolist())) for m in result.clusters())


def test_kmeans_init_seeds_the_centroids():
    """With a full warm init at the optimum, Lloyd's converges
    immediately and keeps the seeded structure."""
    X = _unit_blobs(0, centers=3)
    cold = kmeans(X, 3, rng=np.random.default_rng(0))
    warm = kmeans(X, 3, rng=np.random.default_rng(1), init=cold.centroids)
    assert _partition(warm) == _partition(cold)
    assert warm.iterations <= cold.iterations


def test_kmeans_init_extends_missing_slots():
    """An init with fewer rows than k keeps the seeded rows and fills
    the rest with k-means++ picks."""
    X = _unit_blobs(1, centers=4)
    seed_run = kmeans(X, 2, rng=np.random.default_rng(0))
    extended = kmeans(X, 4, rng=np.random.default_rng(0), init=seed_run.centroids)
    assert extended.k == 4
    assert len(_partition(extended)) == 4


def test_warm_start_reaches_cold_groups_on_separable_data():
    """On data whose structure the cold restarts recover, the warm-started
    growth loop converges to the identical partition (the documented
    contract; on messy embeddings the two are different optimisations,
    which is why warm start is opt-in)."""
    for seed in range(10):
        X = _unit_blobs(seed)
        cold, _ = grow_kmeans(X, start_k=3, seed=seed, max_k=5)
        warm, _ = grow_kmeans(X, start_k=3, seed=seed, max_k=5, warm_start=True)
        assert _partition(cold) == _partition(warm), seed


def test_warm_start_trace_records_seeding():
    X = _unit_blobs(2)
    _, cold_trace = grow_kmeans(X, start_k=3, seed=2, max_k=5)
    _, warm_trace = grow_kmeans(X, start_k=3, seed=2, max_k=5, warm_start=True)
    assert all(t.seeded == 0 for t in cold_trace)
    # round 1 is always cold; later rounds inherit the previous round's k
    assert warm_trace[0].seeded == 0
    assert [t.seeded for t in warm_trace[1:]] == [t.k for t in warm_trace[:-1]]
    assert all(t.iterations >= 1 for t in warm_trace)


def test_warm_start_uses_fewer_total_iterations():
    """The point of warm starting: refinement rounds converge faster than
    cold restarts, at the same stopping rule."""
    totals = {"cold": 0, "warm": 0}
    for seed in range(10):
        X = _unit_blobs(seed)
        _, cold_trace = grow_kmeans(X, start_k=3, seed=seed, max_k=5)
        _, warm_trace = grow_kmeans(
            X, start_k=3, seed=seed, max_k=5, warm_start=True
        )
        totals["cold"] += sum(t.iterations for t in cold_trace)
        totals["warm"] += sum(t.iterations for t in warm_trace)
    assert totals["warm"] <= totals["cold"]
