"""Benchmark of the escortropy command line, end to end and layer by layer.

Usage, from the repository root:

    python3 benchmarks/run.py --workload sweep-4x3 --seed 1 --seconds 30 --trace 0

Each request calls ``escortropy.cli.main(argv)`` in this process, one after
another (a closed loop with one client). Inputs derive from ``--seed``. One
warm-up request runs before timing; every request's output is checked.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it alternates untraced and traced runs of the same
requests and reports the per-layer metrics from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
gives the run's provenance and a summary: request count, median and p90
latency, and failed fraction. ``attempted`` and ``failed`` count output rows,
so failed / attempted is the run's failed fraction. ``correct`` is false when
a request raised or wrote output of the wrong shape. Results and the spans of
the counted traced requests are also written under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy's OpenBLAS pool busy-waits while it starts, so with its default size
# the import time depends on whether a second CPU is free. The library makes
# no BLAS calls, so one thread changes no result. Set before numpy loads;
# the set-up probes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from tracing import Tracer, layer_metrics, request_profile, write_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 7
# Traced requests whose counts are reported and whose spans are written out.
COUNTED_REQUESTS = 3
# request_p90_ms needs at least ten samples beyond it.
P90_MIN_REQUESTS = 100
SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import escortropy, escortropy.cli
elapsed = time.perf_counter() - start
print(repr(elapsed), escortropy.__file__)
"""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import escortropy from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "escortropy" / "__init__.py").is_file():
        raise SystemExit(f"error: no escortropy sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import escortropy
    import escortropy.cli

    if not Path(escortropy.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported escortropy from {escortropy.__file__}, not {SRC}")
    return escortropy


def setup_probe() -> float:
    """Time to import the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    elapsed, origin = done.stdout.split()
    if not Path(origin).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up probe imported escortropy from {origin}")
    return float(elapsed)


def _read_first(path: str, prefix: str) -> str | None:
    with contextlib.suppress(OSError):
        for line in Path(path).read_text().splitlines():
            if line.startswith(prefix):
                return line.split(":", 1)[1].strip()
    return None


def provenance(args: argparse.Namespace) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "escortropy").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            caches[f"L{level}" + ("d" if kind == "Data" else "i" if kind == "Instruction" else "")] = size
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "caches": caches,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Runner:
    """Runs and checks the requests of one workload, tallying output rows."""

    def __init__(self, workload, cli):
        self.workload = workload
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.well_formed = True

    def request(self, i: int, tracer: Tracer | None = None) -> float:
        """Run request i, check its output and return its wall time."""
        self.workload.out.unlink(missing_ok=True)
        argv = self.workload.argv(i)
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                code = None
            elapsed = time.perf_counter() - start
        if code is None:
            failed, well_formed = self.workload.rows, False
        else:
            out = self.workload.out
            text = out.read_text(encoding="utf-8") if out.exists() else ""
            failed, well_formed = self.workload.check(i, code, text)
        self.attempted += self.workload.rows
        self.failed += failed
        self.well_formed &= well_formed
        return elapsed


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Time requests for ``seconds``. The set-up probes are spread evenly over
    the same interval, because the host's speed drifts over tens of seconds
    and probes taken together would all land in one phase."""
    runner.request(0)
    latencies, setup = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_PROBES and elapsed >= seconds * len(setup) / SETUP_PROBES:
            setup.append(setup_probe())
        elif elapsed < seconds or not latencies:
            latencies.append(runner.request(len(latencies) + 1))
        else:
            break
    metrics = {
        "rows_per_s": runner.workload.rows * len(latencies) / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "setup_s": statistics.median(setup),
    }
    summary = {
        "requests": len(latencies),
        "request_p50_ms": statistics.median(latencies) * 1e3,
    }
    if len(latencies) >= P90_MIN_REQUESTS:
        summary["request_p90_ms"] = statistics.quantiles(latencies, n=10)[-1] * 1e3
    return metrics, summary


def run_traced(runner: Runner, tracer: Tracer, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced runs of each request, flipping the order
    every pair so that neither side always runs on a warmer cache."""
    runner.request(0)
    untraced_s = traced_s = 0.0
    profiles, kept = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(profiles) < COUNTED_REQUESTS:
        i = len(profiles) + 1
        for traced in (False, True) if i % 2 else (True, False):
            if not traced:
                untraced_s += runner.request(i)
                continue
            traced_s += runner.request(i, tracer)
            spans = tracer.take()
            profiles.append(request_profile(spans))
            if len(kept) < COUNTED_REQUESTS:
                kept.append(spans)
    write_spans(spans_path, kept)
    metrics = layer_metrics(profiles[:COUNTED_REQUESTS], profiles, traced_s / untraced_s - 1.0)
    return metrics, {"requests": len(profiles), "counted_requests": COUNTED_REQUESTS}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    escortropy = import_package()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    info = provenance(args)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        runner = Runner(workload, escortropy.cli)
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            metrics, summary = run_traced(runner, Tracer(escortropy), args.seconds, spans_path)
        else:
            metrics, summary = run_untraced(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")

    summary.update(
        rows_per_request=workload.rows,
        attempted_rows=runner.attempted,
        failed_rows=runner.failed,
        failed_frac=runner.failed / runner.attempted,
    )
    result = {
        "correct": runner.well_formed,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {"provenance": info, "summary": summary, **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps({"provenance": info, "summary": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
