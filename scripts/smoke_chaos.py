#!/usr/bin/env python
"""Smoke test for deterministic chaos runs across processes.

Runs ``collect --fault-plan heavy`` twice in fresh subprocesses with the
same fault-plan seed and asserts the two DegradationReports are
byte-identical (bit-reproducible chaos), that the run really degraded,
and that its internal accounting balances: every injected fault is
either a recovered or a fatal observed error. Also proves the moderate
plan recovers completely — its collect exits 0 with ``degraded: false``
— and that against a real disk cache a degraded collection stays out of
it (exit 3, ``cache info`` empty) unless ``--allow-degraded`` opts in
(exit 0, one ``collection`` entry). Exits nonzero on any failure.

Usage: PYTHONPATH=src python scripts/smoke_chaos.py [--seed N] [--scale F]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(*cli_args: str, expect: int = 0) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-m", "repro", *cli_args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        check=False,
    )
    assert result.returncode == expect, (
        f"repro {' '.join(cli_args)} exited {result.returncode} "
        f"(wanted {expect}):\n{result.stderr}\n{result.stdout}"
    )
    return result.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--fault-seed", type=int, default=17)
    args = parser.parse_args(argv)

    world_args = (
        "--no-disk-cache",
        "--seed", str(args.seed),
        "--scale", str(args.scale),
    )
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        reports = []
        for attempt in ("first", "second"):
            out = Path(tmp) / f"degradation-{attempt}.json"
            run_cli(
                *world_args,
                "collect",
                "--fault-plan", "heavy",
                "--fault-seed", str(args.fault_seed),
                "--allow-degraded",
                "--degradation-json", str(out),
            )
            reports.append(out.read_bytes())
        assert reports[0] == reports[1], (
            "two heavy chaos runs with one seed diverged"
        )
        print("heavy chaos DegradationReport byte-identical across processes")

        report = json.loads(reports[0])
        assert report["degraded"] is True, report
        injected = sum(report["faults_injected"].values())
        observed = sum(report["errors_by_kind"].values())
        booked = report["errors_recovered"] + report["errors_fatal"]
        assert injected == observed == booked, (
            f"accounting broken: injected={injected} observed={observed} "
            f"booked={booked}"
        )
        print(
            f"accounting balanced: {injected} faults = "
            f"{report['errors_recovered']} recovered + "
            f"{report['errors_fatal']} fatal"
        )

        # The moderate plan must recover everything: exit 0, not degraded.
        out = Path(tmp) / "degradation-moderate.json"
        run_cli(
            *world_args,
            "collect",
            "--fault-plan", "moderate",
            "--fault-seed", str(args.fault_seed),
            "--degradation-json", str(out),
        )
        moderate = json.loads(out.read_text())
        assert moderate["degraded"] is False, moderate
        assert moderate["retries"] > 0, moderate
        print(
            f"moderate chaos fully recovered "
            f"({moderate['retries']} retries absorbed)"
        )

        # The quarantine against a real disk cache.
        cache_args = (
            "--cache-dir", str(Path(tmp) / "cache"),
            "--seed", str(args.seed),
            "--scale", str(args.scale),
        )
        heavy = (
            "collect",
            "--fault-plan", "heavy",
            "--fault-seed", str(args.fault_seed),
        )
        run_cli(*cache_args, *heavy, expect=3)
        listing = run_cli(*cache_args, "cache", "info")
        assert "no cached artifacts" in listing, listing
        print("degraded collection quarantined: nothing cached (exit 3)")
        run_cli(*cache_args, *heavy, "--allow-degraded")
        listing = run_cli(*cache_args, "cache", "info")
        # rows follow the "cache dir:" line and the column header
        stages = [line.split()[0] for line in listing.splitlines()[2:]]
        assert stages == ["collection"], listing
        print("--allow-degraded cached exactly one collection entry")
        print("smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
