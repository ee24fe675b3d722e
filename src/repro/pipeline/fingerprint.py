"""Canonical configuration fingerprints for pipeline artifacts.

Every cached artifact is addressed by ``(stage, fingerprint)`` where the
fingerprint hashes *all* of the configuration the stage's output depends
on — the full :class:`~repro.world.WorldConfig` (seed, scale, horizon,
detection_latency_scale) and, for stages downstream of the similarity
pipeline, the full :class:`~repro.core.similarity.SimilarityConfig`.
Hashing the complete config closes the aliasing bug the old
``lru_cache`` keys had, where two configurations differing only in
horizon or similarity knobs collapsed onto one cache slot.

The payload is canonical JSON (sorted keys, no whitespace) so the digest
is stable across processes and Python versions; :data:`SCHEMA_VERSION`
is folded into every digest and stamped into on-disk metadata, so a
format change invalidates old cache entries instead of misreading them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Optional

from repro.core.similarity import SimilarityConfig
from repro.world import WorldConfig

#: Bump when the serialised artifact formats change; old disk entries are
#: then treated as misses and rebuilt. v2: CollectionStats gained
#: pages_unfetchable / recovery.skipped / degraded / degradation.
#: v3: the embedder's feature hashing moved from MD5 to blake2b —
#: every vector (and the similar-edge structure built on them) changed,
#: so v2 malgraph artifacts must not be reused.
#: v4: the columnar corpus tier landed (DESIGN.md §12) — collection
#: artifacts gained a sibling ``columnar`` stage addressed off the same
#: configuration, and on-disk layouts now coexist; bumping keeps v3
#: stores from aliasing the new stage graph.
SCHEMA_VERSION = 4

#: Hex digits kept from the SHA256 digest (64 bits; collisions across a
#: handful of configurations are not a realistic concern).
FINGERPRINT_LENGTH = 16


def config_payload(
    config: WorldConfig,
    similarity: Optional[SimilarityConfig] = None,
    fault_plan=None,
    max_retries: Optional[int] = None,
) -> dict:
    """The exact dict that gets hashed (and stamped into disk metadata).

    ``fault_plan`` (a :class:`repro.reliability.FaultPlan`) and the retry
    budget are folded in only when chaos is active, so every fault-free
    fingerprint — the overwhelmingly common case — is unchanged by their
    existence.
    """
    payload = {"world": asdict(config)}
    if similarity is not None:
        similarity_knobs = asdict(similarity)
        # jobs is an execution knob (worker-process count): the embedding
        # matrix is byte-identical for any value, so it must not split
        # the cache address space.
        similarity_knobs.pop("jobs", None)
        payload["similarity"] = similarity_knobs
    if fault_plan is not None:
        payload["faults"] = fault_plan.to_dict()
        if max_retries is not None:
            payload["max_retries"] = max_retries
    return payload


def fingerprint(
    stage: str,
    config: WorldConfig,
    similarity: Optional[SimilarityConfig] = None,
    fault_plan=None,
    max_retries: Optional[int] = None,
) -> str:
    """Deterministic content address for one stage's artifact."""
    body = {
        "schema": SCHEMA_VERSION,
        "stage": stage,
        "config": config_payload(config, similarity, fault_plan, max_retries),
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return digest[:FINGERPRINT_LENGTH]
