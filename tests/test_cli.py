"""CLI commands (run in-process against a small world)."""

from __future__ import annotations

import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main

SMALL = ["--seed", "3", "--scale", "0.05"]


def test_experiment_registry_covers_all_paper_methods():
    from repro.paper import PaperArtifacts

    for method in EXPERIMENTS.values():
        assert hasattr(PaperArtifacts, method)
    assert len(EXPERIMENTS) == 16


def test_show_each_experiment(capsys):
    for key in ("table1", "table7", "fig12"):
        assert main(SMALL + ["show", key]) == 0
        out = capsys.readouterr().out
        assert out.strip()


def test_show_handles_missing_fig8(capsys):
    # tiny worlds may lack a qualifying Fig. 8 campaign; either output is fine
    assert main(SMALL + ["show", "fig8"]) == 0
    assert capsys.readouterr().out.strip()


def test_tables_renders_everything(capsys):
    assert main(SMALL + ["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "Fig. 12" in out
    assert "Table VIII" in out


def test_dataset_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "ds"
    assert main(SMALL + ["dataset", "--out", str(out_dir)]) == 0
    assert (out_dir / "entries.jsonl").exists()
    from repro.io.datasets import load_dataset

    assert len(load_dataset(out_dir)) > 0


def test_publish_command(tmp_path, capsys):
    out_dir = tmp_path / "site"
    assert main(SMALL + ["publish", "--out", str(out_dir)]) == 0
    index = json.loads((out_dir / "index.json").read_text())
    assert index["summary"]["packages"] > 0


def test_export_graphml(tmp_path, capsys):
    out_dir = tmp_path / "g"
    assert main(SMALL + ["export", "--out", str(out_dir), "--format", "graphml"]) == 0
    assert (out_dir / "malgraph.graphml").exists()


def test_export_csv_with_edge_filter(tmp_path, capsys):
    out_dir = tmp_path / "csv"
    code = main(
        SMALL
        + ["export", "--out", str(out_dir), "--format", "csv", "--edges", "dependency"]
    )
    assert code == 0
    edges = (out_dir / "edges.csv").read_text().splitlines()
    assert all("SIMILAR" not in line for line in edges)


def test_query_command(capsys):
    assert main(SMALL + ["query", "MATCH (a) RETURN count(*)"]) == 0
    out = capsys.readouterr().out
    assert "count(*)" in out


def test_query_command_error(capsys):
    assert main(SMALL + ["query", "MATCH oops"]) == 2
    assert "query error" in capsys.readouterr().err


def test_validate_command(capsys):
    assert main(SMALL + ["validate"]) == 0
    out = capsys.readouterr().out
    assert "ARI" in out


def test_insights_command(capsys):
    code = main(SMALL + ["insights"])
    out = capsys.readouterr().out
    assert "learned lessons" in out
    assert code in (0, 1)  # tiny worlds may not satisfy every lesson


def test_report_command_stdout(capsys):
    assert main(SMALL + ["report"]) == 0
    out = capsys.readouterr().out
    assert "# Evaluation report" in out
    assert "## table1" in out and "## fig12" in out


def test_report_command_file(tmp_path, capsys):
    target = tmp_path / "report.md"
    assert main(SMALL + ["report", "--out", str(target)]) == 0
    assert "## table8" in target.read_text()


def test_whatif_command(capsys):
    assert main(SMALL + ["whatif", "--scales", "0.5", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "defender latency" in out
    assert "0.5x" in out


def test_census_command(capsys):
    assert main(SMALL + ["census"]) == 0
    assert "family census" in capsys.readouterr().out


def test_stability_command(capsys):
    assert main(SMALL + ["stability", "--snapshots", "3"]) == 0
    assert "Dynamic changing" in capsys.readouterr().out


def test_detect_command(capsys):
    assert main(SMALL + ["detect", "--sample", "20"]) == 0
    assert "precision" in capsys.readouterr().out


def test_scan_malicious_directory(tmp_path, capsys):
    from repro.malware.behaviors import get_behavior
    from repro.malware.codegen import generate_source_tree, make_style

    tree = generate_source_tree(get_behavior("credential-stealer"), make_style(1), "pkg_x")
    root = tmp_path / "suspicious-pkg"
    for path, source in tree.files.items():
        target = root / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    assert main(SMALL + ["scan", str(root)]) == 1  # flagged
    assert "MALICIOUS" in capsys.readouterr().out


def test_scan_benign_directory(tmp_path, capsys):
    root = tmp_path / "nice-pkg"
    root.mkdir()
    (root / "util.py").write_text("def add(a, b):\n    return a + b\n")
    assert main(SMALL + ["scan", str(root)]) == 0
    assert "clean" in capsys.readouterr().out


def test_scan_bad_paths(tmp_path, capsys):
    assert main(SMALL + ["scan", str(tmp_path / "missing")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(SMALL + ["scan", str(empty)]) == 2


def test_enrich_command_unknown_name(capsys):
    assert main(SMALL + ["enrich", "surely-not-collected-zz"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] in ("unknown", "suspicious")
    assert set(payload) >= {"verdict", "matches", "families", "campaigns", "actors"}


def test_enrich_command_requires_indicator(capsys):
    assert main(SMALL + ["enrich"]) == 2
    assert "needs a package name" in capsys.readouterr().err


def test_enrich_help(capsys):
    with pytest.raises(SystemExit) as stop:
        main(SMALL + ["enrich", "--help"])
    assert stop.value.code == 0
    assert "--sha256" in capsys.readouterr().out


def test_serve_help(capsys):
    with pytest.raises(SystemExit) as stop:
        main(SMALL + ["serve", "--help"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    assert "--port" in out and "--cache" in out and "--verbose" in out
    assert "--webhook" in out


def test_feed_command_walks_everything(capsys):
    assert main(SMALL + ["feed"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["generation"] == 0
    assert payload["total"] == len(payload["items"]) > 0
    first = payload["items"][0]
    assert first["type"] == "indicator"
    assert first["id"].startswith("indicator--")


def test_feed_command_pages_with_cross_process_cursors(capsys):
    """A cursor printed by one invocation keeps working in the next: the
    fresh process materialises the cursor's generation on demand."""
    assert main(SMALL + ["feed", "--limit", "5"]) == 0
    page = json.loads(capsys.readouterr().out)
    assert page["count"] == 5 and page["next_cursor"]
    assert main(
        SMALL + ["feed", "--cursor", page["next_cursor"], "--limit", "1000"]
    ) == 0
    rest = json.loads(capsys.readouterr().out)
    assert rest["offset"] == 5
    assert rest["count"] == page["total"] - 5
    assert rest["next_cursor"] is None


def test_feed_command_rejects_garbage_cursor(capsys):
    assert main(SMALL + ["feed", "--cursor", "!!!"]) == 2
    captured = capsys.readouterr()
    assert "bad cursor" in captured.err
    assert "Traceback" not in captured.err


def test_feed_command_writes_out_file(tmp_path, capsys):
    out = tmp_path / "feed.json"
    assert main(SMALL + ["feed", "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["total"] == len(payload["items"])


def test_serve_exits_2_when_port_is_taken(capsys):
    import socket

    blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        assert main(SMALL + ["serve", "--port", str(port)]) == 2
    finally:
        blocker.close()
    captured = capsys.readouterr()
    assert "already in use" in captured.err
    assert "Traceback" not in captured.err


def test_collect_without_faults(capsys):
    assert main(SMALL + ["collect"]) == 0
    out = capsys.readouterr().out
    assert "collected" in out
    assert "degradation" not in out  # no plan, no report


def test_collect_moderate_plan_recovers(capsys):
    code = main(
        SMALL + ["collect", "--fault-plan", "moderate", "--fault-seed", "11"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "degradation: fully recovered" in out
    assert "faults injected" in out


def test_collect_heavy_plan_exits_3_unless_allowed(tmp_path, capsys):
    report_path = tmp_path / "degradation.json"
    code = main(
        SMALL
        + [
            "collect",
            "--fault-plan", "heavy",
            "--fault-seed", "11",
            "--degradation-json", str(report_path),
        ]
    )
    assert code == 3  # degraded without --allow-degraded
    assert "degradation: DEGRADED" in capsys.readouterr().out
    payload = json.loads(report_path.read_text())
    assert payload["degraded"] is True
    assert sum(payload["faults_injected"].values()) == (
        payload["errors_recovered"] + payload["errors_fatal"]
    )
    # opting in turns the same run into a success
    assert main(
        SMALL
        + ["collect", "--fault-plan", "heavy", "--fault-seed", "11",
           "--allow-degraded"]
    ) == 0


def test_collect_custom_plan_file_and_out(tmp_path, capsys):
    from repro.reliability import FaultPlan

    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(FaultPlan.moderate(seed=7).to_dict()))
    out_dir = tmp_path / "ds"
    code = main(
        SMALL
        + ["collect", "--fault-plan", str(plan_path), "--out", str(out_dir)]
    )
    assert code == 0
    assert (out_dir / "entries.jsonl").exists()
    assert "wrote dataset" in capsys.readouterr().out


def test_collect_moderate_with_two_dark_sources_exits_3(tmp_path, capsys):
    """The acceptance scenario: moderate faults plus two sources forced
    dark completes degraded (exit 3) with exact DegradationReport books."""
    import dataclasses

    from repro.reliability import FaultPlan

    plan = dataclasses.replace(
        FaultPlan.moderate(seed=11), dark_sources=("maloss", "datadog")
    )
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan.to_dict()))
    report_path = tmp_path / "degradation.json"
    code = main(
        SMALL
        + ["collect", "--fault-plan", str(plan_path),
           "--degradation-json", str(report_path)]
    )
    assert code == 3
    assert "degradation: DEGRADED" in capsys.readouterr().out
    payload = json.loads(report_path.read_text())
    assert payload["degraded"] is True
    assert set(payload["skipped_sources"]) >= {"maloss", "datadog"}
    assert sum(payload["faults_injected"].values()) == (
        payload["errors_recovered"] + payload["errors_fatal"]
    )
    # the dark feeds burned their whole retry budget before being skipped
    assert payload["feed_attempts"]["maloss"] > 2
    assert payload["feed_attempts"]["datadog"] > 2
    # opting in accepts the same degraded run
    assert main(
        SMALL + ["collect", "--fault-plan", str(plan_path), "--allow-degraded"]
    ) == 0


def test_collect_rejects_bad_preset():
    with pytest.raises(FileNotFoundError):
        main(SMALL + ["collect", "--fault-plan", "nonsense"])


def test_warm_command(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(SMALL + ["--cache-dir", str(cache), "warm"]) == 0
    out = capsys.readouterr().out
    assert "pipeline report" in out
    assert str(cache) in out
    assert (cache / "collection").exists()
    assert (cache / "malgraph").exists()


def test_warm_accepts_jobs_after_the_subcommand(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = SMALL + ["--cache-dir", str(cache), "--no-disk-cache", "warm", "--jobs", "1"]
    assert main(argv) == 0
    assert "pipeline report" in capsys.readouterr().out


def test_warm_jobs_after_subcommand_does_not_clobber_global(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = SMALL + ["--cache-dir", str(cache), "--no-disk-cache", "--jobs", "1", "warm"]
    assert main(argv) == 0
    assert "pipeline report" in capsys.readouterr().out


def test_warm_with_no_disk_cache_writes_nothing(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(SMALL + ["--cache-dir", str(cache), "--no-disk-cache", "warm"]) == 0
    assert "disk cache: disabled" in capsys.readouterr().out
    assert not cache.exists()


def test_report_warm_prints_one_table_and_one_world_build(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = SMALL + ["--cache-dir", str(cache), "--no-disk-cache", "--report", "warm"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out + captured.err).count("pipeline report") == 1
    assert "world: 0 hit / 1 miss" in captured.err


def test_cache_info_and_clear(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(SMALL + ["--cache-dir", str(cache), "warm"]) == 0
    capsys.readouterr()

    assert main(SMALL + ["--cache-dir", str(cache), "cache", "info"]) == 0
    out = capsys.readouterr().out
    assert "collection" in out and "malgraph" in out
    assert "embeddings" in out
    assert "seed=3" in out

    # collection + malgraph + the embeddings tier written during the build
    assert main(SMALL + ["--cache-dir", str(cache), "cache", "clear"]) == 0
    assert "removed 3 cache entries" in capsys.readouterr().out

    assert main(SMALL + ["--cache-dir", str(cache), "cache", "info"]) == 0
    assert "no cached artifacts" in capsys.readouterr().out


def test_report_flags(tmp_path, capsys):
    cache = tmp_path / "cache"
    target = tmp_path / "report.json"
    code = main(
        SMALL
        + ["--cache-dir", str(cache), "--report", "--report-json", str(target)]
        + ["show", "table2"]
    )
    assert code == 0
    assert "pipeline report" in capsys.readouterr().err
    payload = json.loads(target.read_text())
    assert set(payload) == {"counts", "runs", "substages", "total_seconds"}
    assert payload["counts"]["malgraph"]["misses"] == 1
    assert {sub["name"] for sub in payload["substages"]} == {
        "embed",
        "cluster",
        "split",
    }


def test_warmed_cache_reused_across_invocations(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(SMALL + ["--cache-dir", str(cache), "warm"]) == 0
    capsys.readouterr()
    target = tmp_path / "report.json"
    # configure() in main() replaces the in-memory store, so this
    # invocation resolves purely from the warmed disk tier.
    assert main(
        SMALL
        + ["--cache-dir", str(cache), "--report-json", str(target)]
        + ["show", "table2"]
    ) == 0
    counts = json.loads(target.read_text())["counts"]
    for stage in ("world", "collection", "malgraph"):
        assert counts[stage] == {"hits": 1, "misses": 0}, counts


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--version"])
    assert stop.value.code == 0
    assert "repro 1" in capsys.readouterr().out


def test_update_command_evolves_a_bundle(tmp_path, capsys):
    from repro.core.delta.events import GraphEvent, events_to_jsonl
    from repro.core.malgraph import MalGraph
    from repro.io.malgraphs import load_malgraph_bundle, save_malgraph_bundle

    from tests.core.helpers import dataset, entry, report

    shared = "def payload():\n    return 'twin'\n"
    ds = dataset([entry("seed-a", code=shared)])
    bundle = tmp_path / "bundle"
    save_malgraph_bundle(MalGraph.build(ds), bundle)
    twin = entry("late-twin", code=shared)
    events_path = events_to_jsonl(
        [
            GraphEvent.package_added(twin),
            GraphEvent.report_ingested(
                report("r-x", [twin.package, ds.entries[0].package])
            ),
        ],
        tmp_path / "events.jsonl",
    )
    assert main(["update", "--graph", str(bundle), str(events_path)]) == 0
    out = capsys.readouterr().out
    assert "epoch 1" in out and "2 events" in out
    # the twins form one DG, SG and CG group; nothing declares a dependency
    assert "\ngroups DG=1, DeG=0, SG=1, CG=1\n" in out
    evolved = load_malgraph_bundle(bundle)  # updated in place
    assert evolved.dataset.get(twin.package) is not None
    assert evolved.graph.has_node(f"pypi:{twin.package.name}@1.0")


def test_update_command_reuses_the_embedding_cache(tmp_path, capsys, monkeypatch):
    """`update` bootstraps the delta engine on the process artifact
    store, so a warm ``embeddings`` tier leaves nothing to embed."""
    from repro.core.delta.events import GraphEvent, events_to_jsonl
    from repro.core.embedding import AstEmbedder
    from repro.core.malgraph import MalGraph
    from repro.io.malgraphs import (
        canonical_malgraph_json,
        load_malgraph_bundle,
        save_malgraph_bundle,
    )
    from repro.pipeline.store import ArtifactStore

    from tests.core.helpers import dataset, entry

    cache = tmp_path / "cache"
    shared = "def payload():\n    return 'twin'\n"
    ds = dataset([entry("seed-a", code=shared), entry("seed-b", code="x = 1\n")])
    bundle = tmp_path / "bundle"
    save_malgraph_bundle(
        MalGraph.build(ds, store=ArtifactStore(cache_dir=cache)), bundle
    )
    events = [GraphEvent.package_added(entry("late-twin", code=shared))]
    expected = canonical_malgraph_json(
        load_malgraph_bundle(bundle).apply_delta(events)[0]
    )

    def no_embedding(self, source):
        raise AssertionError("update re-embedded a cached artifact")

    monkeypatch.setattr(AstEmbedder, "embed_source", no_embedding)
    events_path = events_to_jsonl(events, tmp_path / "events.jsonl")
    argv = ["--cache-dir", str(cache), "update", "--graph", str(bundle)]
    assert main(argv + [str(events_path)]) == 0
    assert "epoch 1" in capsys.readouterr().out
    assert canonical_malgraph_json(load_malgraph_bundle(bundle)) == expected


def test_update_command_writes_to_out_dir(tmp_path, capsys):
    from repro.core.delta.events import GraphEvent, events_to_jsonl
    from repro.core.malgraph import MalGraph
    from repro.io.malgraphs import (
        canonical_malgraph_json,
        load_malgraph_bundle,
        save_malgraph_bundle,
    )

    from tests.core.helpers import dataset, entry

    ds = dataset([entry("seed-a")])
    bundle = tmp_path / "bundle"
    save_malgraph_bundle(MalGraph.build(ds), bundle)
    before = canonical_malgraph_json(load_malgraph_bundle(bundle))
    events_path = events_to_jsonl(
        [GraphEvent.package_added(entry("other", code="x = 1\n"))],
        tmp_path / "events.jsonl",
    )
    out_dir = tmp_path / "evolved"
    assert main(
        ["update", "--graph", str(bundle), str(events_path), "--out", str(out_dir)]
    ) == 0
    # source bundle untouched; target holds the evolved graph
    assert canonical_malgraph_json(load_malgraph_bundle(bundle)) == before
    evolved = load_malgraph_bundle(out_dir)
    assert evolved.dataset.get(entry("other").package) is not None


def test_update_command_error_paths(tmp_path, capsys):
    from repro.core.delta.events import GraphEvent, events_to_jsonl
    from repro.core.malgraph import MalGraph
    from repro.io.malgraphs import save_malgraph_bundle

    from tests.core.helpers import dataset, entry

    events_path = events_to_jsonl(
        [GraphEvent.package_added(entry("other", code="x = 1\n"))],
        tmp_path / "events.jsonl",
    )
    # missing bundle directory
    assert main(["update", "--graph", str(tmp_path / "nope"), str(events_path)]) == 2
    # empty events file
    bundle = tmp_path / "bundle"
    save_malgraph_bundle(MalGraph.build(dataset([entry("seed-a")])), bundle)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["update", "--graph", str(bundle), str(empty)]) == 2
    # invalid batch: adding a package that already exists
    bad = events_to_jsonl(
        [GraphEvent.package_added(entry("seed-a"))], tmp_path / "bad.jsonl"
    )
    assert main(["update", "--graph", str(bundle), str(bad)]) == 2
    err = capsys.readouterr().err
    assert "update error" in err

    # a malformed events file is refused by file and line before the
    # bundle is touched
    good = events_path.read_text()
    removed = GraphEvent.package_removed(entry("seed-a").package).to_dict()
    added = GraphEvent.package_added(entry("other", code="x = 1\n")).to_dict()
    del removed["payload"]["ecosystem"]
    del added["payload"]["name"]
    malformed = {
        "not-json.jsonl": good + "{not json\n",
        "bogus-kind.jsonl": good + json.dumps({"kind": "bogus", "payload": {}}) + "\n",
        "no-ecosystem.jsonl": good + json.dumps(removed) + "\n",
        "no-name.jsonl": good + json.dumps(added) + "\n",
        "not-utf8.jsonl": good + "\udcff{}\n",  # a 0xff byte
    }
    files = {path: path.read_bytes() for path in bundle.iterdir()}
    for name, text in malformed.items():
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert main(["update", "--graph", str(bundle), str(path)]) == 2, name
        err = capsys.readouterr().err
        assert f"update error: {path}:2: " in err, (name, err)
    missing = tmp_path / "missing.jsonl"
    assert main(["update", "--graph", str(bundle), str(missing)]) == 2
    err = capsys.readouterr().err
    assert "update error" in err and str(missing) in err
    assert {path: path.read_bytes() for path in bundle.iterdir()} == files
