"""Self-test of the benchmark harness.

Run from the repository root with ``python3 -m pytest benchmarks/tests -q``.
It runs every workload at the shortest length, checks the anchor counts of
the traced run on a 4x3 joint, and checks that corrupted output is counted
as failed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import escortropy  # noqa: E402
import escortropy.cli  # noqa: E402
from escortropy.prob import random_joint  # noqa: E402

import run  # noqa: E402
from tracing import END, LAYERS, PARENT, START, Tracer, request_profile  # noqa: E402
from workloads import Chain, Sweep, Verify  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for value in (v["value"] for v in result["metrics"].values()):
        assert isinstance(value, (int, float)) and math.isfinite(value)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    provenance = json.loads(done.stdout.splitlines()[-2])
    assert provenance["provenance"]["workload"] == workload
    assert provenance["summary"]["requests"] >= 1
    if not trace:
        assert provenance["summary"]["request_p50_ms"] > 0


def traced_report(q: float) -> tuple[dict, list[list]]:
    tracer = Tracer(escortropy)
    joint = random_joint(4, 3, 0)
    with tracer.installed():
        escortropy.chain_rules.chain_rule_report(joint, q)
    spans = tracer.take()
    return request_profile(spans), spans


@pytest.mark.parametrize("q, objects, conditions, marginals", [(0.5, 17, 5, 6), (2.0, 17, 5, 6), (1.0, 7, 3, 4)])
def test_anchor_counts_on_a_4x3_joint(q, objects, conditions, marginals):
    profile, _ = traced_report(q)
    assert profile["reports"] == 1
    assert profile["objects"] == profile["objects_in_reports"] == objects
    assert profile["prob.condition_on_a"] == conditions
    assert profile["prob.marginal_a"] == marginals
    assert profile["chain_rules.conditional_axiomatic"] == 2
    assert profile["chain_rules.s_gap"] == (2 if q != 1.0 else 1)


def test_self_times_add_up_and_wrappers_are_removed():
    originals = (escortropy.chain_rules.condition_on_a, escortropy.prob.Distribution.__post_init__)
    profile, spans = traced_report(0.5)
    roots = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    assert sum(profile[f"{layer}.self_ns"] for layer in LAYERS) == roots
    assert (escortropy.chain_rules.condition_on_a, escortropy.prob.Distribution.__post_init__) == originals
    assert escortropy.cli.json is json


def test_traced_sweep_counts_repeat_the_anchors(tmp_path):
    profiles = []
    for _ in range(2):
        sweep = Sweep(3, tmp_path)
        tracer = Tracer(escortropy)
        with tracer.installed():
            escortropy.cli.main(sweep.argv(1))
        profiles.append(request_profile(tracer.take()))
    first, second = ({k: v for k, v in p.items() if not k.endswith("_ns")} for p in profiles)
    assert first == second
    # Orders 0.5, 1, 2: 17 + 7 + 17 objects and 5 + 3 + 5 conditionings per trial.
    trials = sweep.trials
    assert first["objects_in_reports"] == trials * 41 and first["reports"] == trials * 3
    assert first["prob.condition_on_a"] == trials * 13
    assert first["cli.fmt"] == trials * 3 * 7


class CorruptingCli:
    """Calls the real CLI, then damages one output row as the given edit says."""

    def __init__(self, edit):
        self.edit = edit

    def main(self, argv):
        code = escortropy.cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        out.write_text(self.edit(out.read_text(encoding="utf-8")), encoding="utf-8")
        return code


def _sweep_wrong_mi(text: str) -> str:
    lines = text.splitlines()
    fields = lines[4].split(",")
    fields[4] = escortropy.cli.fmt(float(fields[4]) * 1.001)
    lines[4] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _chain_wrong_s_gap(text: str) -> str:
    lines = text.splitlines()
    fields = lines[3 + 8].split("\t")  # q = 2
    fields[6] = escortropy.cli.fmt(float(fields[6]) * 1.001)
    lines[3 + 8] = "\t".join(fields)
    return "\n".join(lines) + "\n"


def _verify_one_failed(text: str) -> str:
    results = json.loads(text)
    results[4]["passed"] = False
    return json.dumps(results)


@pytest.mark.parametrize(
    "workload, edit",
    [(Sweep, _sweep_wrong_mi), (Chain, _chain_wrong_s_gap), (Verify, _verify_one_failed)],
)
def test_corrupted_row_counts_as_failed(tmp_path, workload, edit):
    instance = workload(3, tmp_path)
    instance.prepare()
    clean = run.Runner(instance, escortropy.cli)
    clean.request(1)
    corrupted = run.Runner(instance, CorruptingCli(edit))
    corrupted.request(1)
    assert corrupted.well_formed
    assert corrupted.attempted == clean.attempted == instance.rows
    assert corrupted.failed == clean.failed + 1


def test_nonzero_exit_fails_every_row(tmp_path):
    sweep = Sweep(3, tmp_path)
    text = "\n".join([escortropy.cli.SWEEP_HEADER] + ["x"] * sweep.rows) + "\n"
    assert sweep.check(1, 2, text) == (sweep.rows, False)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
