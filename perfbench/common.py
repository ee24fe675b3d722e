"""Helpers shared by the benchmark's processes: paths, child processes,
percentiles and peak-RSS sampling.

Nothing here imports the program under test; each process that needs
``repro`` calls :func:`use_checkout_source` first, so the benchmark always
measures the source tree it sits in and never an installed copy.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: run outputs (results, traces); git-ignored
OUT_DIR = BENCH_DIR / ".out"
#: warmed artifact caches, one per source-tree digest; git-ignored
CACHE_ROOT = BENCH_DIR / ".cache"

#: The simulated world every workload builds or serves; the cold chain's
#: outputs for it are pinned in pinned.json.
WORLD = {"seed": 7, "scale": 1.0}


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, failed child)."""


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"imported repro from {where}, not from {SRC}")


def source_digest() -> str:
    """Digest of the program source: one warmed cache per commit under test."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Fixed hash seed: set/dict iteration order, and so timing, repeats.
    env["PYTHONHASHSEED"] = "0"
    # The program's default cache lives in the home directory; point it
    # at the benchmark's own directory so nothing outside is touched.
    env["REPRO_CACHE_DIR"] = str(CACHE_ROOT / "unused")
    return env


def spawn(script: str, args: Sequence[str]) -> subprocess.Popen:
    """Start one of the benchmark's scripts with line-based stdin/stdout."""
    return subprocess.Popen(
        [sys.executable, str(BENCH_DIR / script), *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=child_env(),
        text=True,
        bufsize=1,
        cwd=str(ROOT),
    )


def read_message(proc: subprocess.Popen, expect: str) -> Dict:
    """Next ``{"msg": expect, ...}`` line from a child's stdout."""
    line = proc.stdout.readline()
    if not line:
        code = proc.wait(timeout=30)
        raise BenchError(f"child exited with {code} before sending {expect!r}")
    message = json.loads(line)
    if message.get("msg") != expect:
        raise BenchError(f"expected {expect!r} from child, got {message!r}")
    return message


def send(proc: subprocess.Popen, word: str) -> None:
    proc.stdin.write(word + "\n")
    proc.stdin.flush()


def finish(proc: subprocess.Popen, timeout: float = 120.0) -> None:
    """Wait for a child to exit; kill it if it hangs. Raises on failure."""
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"child {proc.args[1]} did not exit in {timeout:g} s")
    if code != 0:
        raise BenchError(f"child {proc.args[1]} exited with {code}")


def stop_all(procs: Sequence[subprocess.Popen]) -> None:
    """Kill and reap any child still running (error paths)."""
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def message(msg: str, **fields) -> None:
    """One protocol line from a child to the runner."""
    print(json.dumps({"msg": msg, **fields}), flush=True)


def now_ns() -> int:
    # CLOCK_MONOTONIC on Linux: comparable across the benchmark's processes.
    return time.perf_counter_ns()


def peak_rss_kb(pid: Optional[int] = None) -> int:
    """VmHWM of a process (this one by default), in KiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError(f"no VmHWM in {path}")


#: Reference work: allocation-, hashing- and sort-heavy pure Python, the
#: kind of work the program does. The shared 2-vCPU virtual machine the
#: bounds were set on swings in speed by up to 2x from one second to the
#: next as other machines load its host, so the benchmark times short
#: bursts of this work during each run and scales every end-to-end time by
#: REFERENCE_NOMINAL_S / (median burst time over the interval it covers).
#: The constant is about the burst's median time on that machine when quiet.
REFERENCE_ROWS = 5_000
REFERENCE_REPEATS = 4
REFERENCE_NOMINAL_S = 0.03
#: pause between bursts (the probe uses roughly a quarter of one core)
REFERENCE_PAUSE_S = 0.12


def reference_burst(seed: int) -> float:
    """Wall time of one burst of reference work.

    The collector is off during the burst: in a process holding a large
    heap (a chain process) a collection it triggered would time that heap,
    not the machine. Small batches keep the burst from raising the peak
    RSS of the process it runs in by more than about a megabyte."""
    rng = random.Random(seed)
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = now_ns()
        for _ in range(REFERENCE_REPEATS):
            rows = [(f"pkg-{rng.randrange(10**9)}", rng.random(), n) for n in range(REFERENCE_ROWS)]
            index: Dict[str, List] = {}
            for name, score, n in rows:
                index.setdefault(name[:7], []).append((score, n))
            rows.sort()
            del rows, index
        return (now_ns() - started) / 1e9
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Times reference bursts on a thread between start() and stop(), so
    a time measured in any interval of the run can be scaled by the speed
    the machine had then."""

    #: half-width of the window around a moment whose bursts give its speed
    WINDOW_NS = 1_000_000_000

    def __init__(self) -> None:
        #: (burst midpoint ns, burst seconds), in time order
        self.samples: List[tuple] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(REFERENCE_PAUSE_S):
            started = now_ns()
            seconds = reference_burst(len(self.samples) % 3)
            self.samples.append((started + int(seconds * 5e8), seconds))

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling (idempotent)."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Nominal over measured speed in [start, end], widened to at least
        the surrounding window: multiply a wall time taken then by it."""
        middle = (start_ns + end_ns) // 2
        start_ns = min(start_ns, middle - self.WINDOW_NS)
        end_ns = max(end_ns, middle + self.WINDOW_NS)
        times = [mid for mid, _ in self.samples]
        held = [
            seconds
            for _, seconds in self.samples[
                bisect.bisect_left(times, start_ns) : bisect.bisect_right(times, end_ns)
            ]
        ]
        if not held:
            held = [seconds for _, seconds in self.samples] or [REFERENCE_NOMINAL_S]
        return REFERENCE_NOMINAL_S / median(held)


def steal_ticks() -> int:
    """CPU time the hypervisor took from this machine, in clock ticks."""
    with open("/proc/stat", encoding="ascii") as stat:
        fields = stat.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def write_json(path, payload) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(path)


def read_json(path: Path):
    return json.loads(Path(path).read_text())


def zipf_weights(n: int, exponent: float = 1.1) -> List[float]:
    """Cumulative Zipf weights over ranks 1..n (for random.choices)."""
    total = 0.0
    cumulative = []
    for rank in range(1, n + 1):
        total += 1.0 / rank**exponent
        cumulative.append(total)
    return cumulative
