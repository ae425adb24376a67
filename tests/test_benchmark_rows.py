"""The benchmark's rows, checked in the unit tests.

``perfbench/reference.json`` holds every row that a benchmark sweep
writes.  Each workload's sweep runs here at seed 0 and the workload's
sequence length, both read from ``perfbench/run.py`` as the stream
digests are, and every row must match the reference within the
benchmark's tolerance, so a change to a rate fails this suite and not
only the benchmark.  The engine passes each sweep runs are pinned too.
"""

import dataclasses
import functools
import tempfile

import pytest

from qchanrate import rates
from qchanrate.config import load_config
from qchanrate.runner import run_experiment

from test_benchmark_streams import ROOT, WORKLOADS, reference  # noqa: F401 (a fixture)

TOLERANCE = 1e-9  # absolute, in bits, as the benchmark checks its rows

# Engine passes of each workload's seed-0 sweep.  Every true model and
# auxiliary of the benchmark has a uniform output process under its
# uniform input law, so no output-only recursion runs: the quantum ``ir``
# sweeps run none at all, and the others run only joint recursions.
PASSES = {"burst_aux": 4, "evolution_ir": 0, "twoqubit_ir": 0, "classical_ir": 4}


@functools.cache
def seed_0_sweep(name):
    """The output of a workload's seed-0 sweep, and the engine passes it ran."""
    path, n = WORKLOADS[name]
    cfg = dataclasses.replace(load_config(ROOT / path), n=n, seeds=(0,))
    before = rates.passes
    with tempfile.TemporaryDirectory() as out_dir:
        out = run_experiment(cfg, out_dir, workers=1, write_svg=False)
    return out, rates.passes - before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_0_rows_match_reference(name, reference):
    out, _ = seed_0_sweep(name)
    assert not out.errors
    got = {(r.sweep_value, r.estimator_id): (r.ir_bits, r.hx_bits, r.hy_bits, r.hxy_bits)
           for r in out.rows}
    want = {(value, est): values for value, est, *values in reference[name]["seeds"]["0"]["rows"]}
    assert len(got) == len(out.rows) and got.keys() == want.keys()
    off = {key: max(abs(g - w) for g, w in zip(got[key], want[key])) for key in want}
    assert max(off.values()) <= TOLERANCE, max(off.items(), key=lambda item: item[1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_0_sweep_engine_passes(name):
    assert seed_0_sweep(name)[1] == PASSES[name]
