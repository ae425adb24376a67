"""Smoke test of the benchmark harness at tiny n.

    python3 -m pytest perfbench/test_harness.py -q

Records a throwaway reference at n=40 for seeds 0 and 1, then checks
that every workload runs in both modes and prints every metric that
BENCHMARK.json lists, by name and with its unit; that the traced counts
come out exact; that the correctness gate trips on a perturbed
reference and on a duplicated CSV row; and that the harness refuses to
run without the package sources beside it.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
N = 40
ACTIVE_POINTS = {"burst_aux": 21, "evolution_ir": 10, "twoqubit_ir": 11, "classical_ir": 21}
SHARES = (
    "channels.share", "sampling.share", "rates.share", "bounds.share",
    "runner.csv_share", "svgplot.share", "runner.self_share",
)


@pytest.fixture(scope="module")
def work():
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def reference(work):
    path = work / "reference.json"
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "record_reference.py"),
         "--n", str(N), "--seeds", "2", "--out", str(path)],
        cwd=ROOT, check=True, capture_output=True, timeout=600,
    )
    return path


def bench(workload, trace, reference, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--n", str(N), "--reference", str(reference)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(ACTIVE_POINTS))
def test_workload_prints_every_metric(workload, trace, reference):
    assert {w["name"] for w in SPEC["workloads"]} == set(ACTIVE_POINTS)
    result = result_of(bench(workload, trace, reference))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in m.values())
    if not trace:
        assert m["rows_ok_frac"] == 1.0
        assert m["uses_per_s"] > 0 and m["setup_s"] > 0 and m["peak_rss_mb"] > 0
        return
    assert m["sampling.traj_sha_mismatch"] == 0
    assert m["linalg.herm_calls_per_use"] == (0 if workload == "classical_ir" else 3)
    assert (m["bounds.share"] > 0) == (workload == "burst_aux")
    assert m["rates.steps"] == 2 * N * ACTIVE_POINTS[workload]
    assert sum(m[k] for k in SHARES) == pytest.approx(1.0, abs=1e-9)
    assert min(m[k] for k in SHARES) >= 0


@pytest.mark.parametrize("delta, trips", [(1e-6, True), (5e-10, False)])
def test_gate_applies_the_row_tolerance(delta, trips, reference, work):
    data = json.loads(reference.read_text(encoding="utf-8"))
    data["workloads"]["evolution_ir"]["seeds"]["1"]["rows"][0][2] += delta  # ir_bits
    perturbed = work / f"perturbed-{delta}.json"
    perturbed.write_text(json.dumps(data), encoding="utf-8")
    result = result_of(bench("evolution_ir", 0, perturbed))
    assert result["correct"] is not trips
    sweeps = result["attempted"] // ACTIVE_POINTS["evolution_ir"]
    assert result["failed"] == (sweeps if trips else 0)  # one row in every sweep
    assert (result["metrics"]["rows_ok_frac"]["value"] < 1.0) is trips


def test_gate_counts_duplicated_rows():
    sys.path.insert(0, str(BENCH_DIR))
    import run

    header = ",".join(("sweep_param", "sweep_value", "estimator_id", "seed", "n", *run.VALUE_COLUMNS))
    line = "p_b,0.5,ir,1,40,0.25,1.0,0.5,1.25\n"
    once = run.read_rows(f"{header}\n{line}".encode())
    twice = run.read_rows(f"{header}\n{line}{line}".encode())
    expected = {once[0][0]: (0.25, 1.0, 0.5, 1.25)}
    first = dict(once)
    assert run.failed_rows(once, expected, first) == 0
    assert run.failed_rows(twice, expected, first) == 1


def test_gate_trips_on_a_changed_trajectory(reference, work):
    data = json.loads(reference.read_text(encoding="utf-8"))
    digests = data["workloads"]["classical_ir"]["seeds"]["1"]["traj_sha256"]
    digests[3] = "0" * 64
    perturbed = work / "perturbed-sha.json"
    perturbed.write_text(json.dumps(data), encoding="utf-8")
    result = result_of(bench("classical_ir", 1, perturbed))
    assert result["correct"] is False
    assert result["metrics"]["sampling.traj_sha_mismatch"]["value"] == 1


def test_refuses_without_package_sources(reference, work):
    bare = work / "bare"
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("burst_aux", 0, reference, cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
