"""The benchmark's sampled streams, checked in the unit tests.

``perfbench/reference.json`` holds the SHA-256 of every trajectory that
a benchmark sweep samples.  Seed 0 of every workload point is sampled
here at the workload's sequence length, and every recorded seed of the
classical workload, whose sampler costs little, so a change to a
sampled stream fails this suite and not only the traced benchmark.  The
workloads are read from ``perfbench/run.py``, so the two cannot drift
apart.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from qchanrate.config import instantiate_channel, load_config
from qchanrate.sampling import sample_trajectory

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def benchmark_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = benchmark_workloads()


def stream_digest(traj) -> str:
    """SHA-256 of the inputs then the outputs as little-endian int64, as
    the benchmark's tracer hashes a trajectory."""
    digest = hashlib.sha256()
    digest.update(traj.x.astype("<i8").tobytes())
    digest.update(traj.y.astype("<i8").tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def reference():
    with open(PERFBENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def sweep_digests(name: str, seed: int) -> list[str]:
    path, n = WORKLOADS[name]
    cfg = load_config(ROOT / path)
    param = cfg.sweep.parameter
    digests = []
    for value in cfg.sweep.active_values():
        override = None if param == "n" else {param: value}
        model = instantiate_channel(cfg.channel, override)
        length = int(value) if param == "n" else n
        digests.append(stream_digest(sample_trajectory(model, cfg.input_law, length, seed)))
    return digests


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_0_streams_match_reference(name, reference):
    assert reference[name]["n"] == WORKLOADS[name][1]
    assert sweep_digests(name, 0) == reference[name]["seeds"]["0"]["traj_sha256"]


def test_every_classical_seed_matches_reference(reference):
    seeds = reference["classical_ir"]["seeds"]
    assert sorted(seeds, key=int) == [str(seed) for seed in range(16)]
    for seed, recorded in seeds.items():
        assert sweep_digests("classical_ir", int(seed)) == recorded["traj_sha256"], seed
