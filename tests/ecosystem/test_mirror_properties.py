"""Property tests on mirror sync semantics (hypothesis).

The two mirror behaviours drive Fig. 5's unavailability causes, so
their invariants matter: archival mirrors never lose a captured
package; lagging mirrors equal the upstream live set right after a
sync; and anything any mirror serves was genuinely live at some sync
point. A mirror answers from registry serials instead of copying the
live set, so the copy-on-sync mirror is kept here as the oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.ecosystem.mirror import MirrorRegistry
from repro.ecosystem.package import make_artifact
from repro.ecosystem.registry import Registry

# A compact event script: publish / remove / sync actions over time.
actions = st.lists(
    st.tuples(
        st.sampled_from(["publish", "remove", "sync"]),
        st.integers(0, 5),  # package index
    ),
    min_size=1,
    max_size=25,
)


def _held(mirror: MirrorRegistry):
    """Names of the upstream registry's packages the mirror serves."""
    return {
        record.artifact.name
        for record in mirror.upstream.all_packages()
        if mirror.lookup(record.artifact.name, record.artifact.version)
        is not None
    }


def _replay(script, archival: bool):
    registry = Registry("pypi")
    mirror = MirrorRegistry(
        name="m", upstream=registry, sync_interval=1, archival=archival
    )
    day = 0
    published = set()
    removed = set()
    live_at_sync = []
    captured_history = set()
    for verb, idx in script:
        day += 1
        name = f"pkg-{idx}"
        if verb == "publish" and name not in published:
            registry.publish(
                make_artifact("pypi", name, "1.0", {"m/a.py": f"V = {idx}\n"}),
                day=day,
                malicious=True,
            )
            published.add(name)
        elif verb == "remove" and name in published and name not in removed:
            registry.mark_detected(name, "1.0", day)
            registry.remove(name, "1.0", day)
            removed.add(name)
        elif verb == "sync":
            mirror.sync(day)
            live = {key[0] for key in registry.live_snapshot()}
            live_at_sync.append(live)
            captured_history |= live
    return mirror, live_at_sync, captured_history


@given(actions)
@settings(max_examples=80, deadline=None)
def test_archival_mirror_accumulates(script):
    mirror, live_at_sync, captured = _replay(script, archival=True)
    held = _held(mirror)
    assert held == captured, "archival mirror = union of all sync snapshots"


@given(actions)
@settings(max_examples=80, deadline=None)
def test_lagging_mirror_equals_last_snapshot(script):
    mirror, live_at_sync, _captured = _replay(script, archival=False)
    held = _held(mirror)
    expected = live_at_sync[-1] if live_at_sync else set()
    assert held == expected


@given(actions)
@settings(max_examples=60, deadline=None)
def test_mirror_never_serves_never_live_packages(script):
    for archival in (True, False):
        mirror, _snaps, captured = _replay(script, archival=archival)
        for idx in range(6):
            hit = mirror.lookup(f"pkg-{idx}", "1.0")
            if hit is not None:
                assert f"pkg-{idx}" in captured


@given(actions)
@settings(max_examples=60, deadline=None)
def test_archival_dominates_lagging(script):
    """Whatever a lagging mirror still holds, the archival twin holds."""
    lagging, _s, _c = _replay(script, archival=False)
    archival, _s2, _c2 = _replay(script, archival=True)
    assert _held(lagging) <= _held(archival)


# -- the copy-on-sync oracle --------------------------------------------------

class SnapshotMirror:
    """Reference mirror: copies the registry's live set at every sync."""

    def __init__(self, upstream: Registry, archival: bool):
        self.upstream = upstream
        self.archival = archival
        self.store = {}

    def sync(self) -> None:
        snapshot = self.upstream.live_snapshot()
        if self.archival:
            self.store.update(snapshot)
        else:
            self.store = dict(snapshot)

    def lookup(self, name, version):
        return self.store.get((name, version))

    def __len__(self) -> int:
        return len(self.store)


#: Three names with two versions each: several versions of a name can be
#: live at once, and one can be removed while the other stays.
KEYS = [(f"pkg-{i}", version) for i in range(3) for version in ("1.0", "2.0")]

#: Days of several operations each; a sync may land anywhere in a day,
#: before or after that day's publishes and removals.
days = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["publish", "detect", "remove", "sync"]),
            st.integers(0, len(KEYS) - 1),
        ),
        max_size=6,
    ),
    min_size=1,
    max_size=12,
)


@pytest.mark.parametrize("archival", [False, True], ids=["lagging", "archival"])
@given(script=days)
@settings(max_examples=120, deadline=None)
def test_mirror_matches_the_copy_on_sync_oracle(archival, script):
    registry = Registry("pypi")
    mirror = MirrorRegistry(
        name="m", upstream=registry, sync_interval=1, archival=archival
    )
    oracle = SnapshotMirror(registry, archival)
    for day, operations in enumerate(script):
        for verb, idx in operations:
            name, version = KEYS[idx]
            published = (name, version) in registry
            if verb == "publish" and not published:
                source = {"m/a.py": f"V = {idx}\n"}
                registry.publish(make_artifact("pypi", name, version, source), day)
            elif verb == "detect" and published:
                registry.mark_detected(name, version, day)
            elif verb == "remove" and published:
                registry.remove(name, version, day)
            elif verb == "sync":
                mirror.sync(day)
                oracle.sync()
            for key in KEYS:
                assert mirror.lookup(*key) is oracle.lookup(*key), (key, verb)
            assert len(mirror) == len(oracle)
