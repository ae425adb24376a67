"""The benchmark's rows, checked in the unit tests.

``perfbench/reference.json`` holds every row that a benchmark sweep
writes.  Each workload's sweep runs here at seed 0 and the workload's
sequence length, both read from ``perfbench/run.py`` as the stream
digests are, and every row must match the reference within the
benchmark's tolerance, so a change to a rate fails this suite and not
only the benchmark.
"""

import dataclasses

import pytest

from qchanrate.config import load_config
from qchanrate.runner import run_experiment

from test_benchmark_streams import ROOT, WORKLOADS, reference  # noqa: F401 (a fixture)

TOLERANCE = 1e-9  # absolute, in bits, as the benchmark checks its rows


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_0_rows_match_reference(name, reference, tmp_path):
    path, n = WORKLOADS[name]
    cfg = dataclasses.replace(load_config(ROOT / path), n=n, seeds=(0,))
    out = run_experiment(cfg, tmp_path, workers=1, write_svg=False)
    assert not out.errors
    got = {(r.sweep_value, r.estimator_id): (r.ir_bits, r.hx_bits, r.hy_bits, r.hxy_bits)
           for r in out.rows}
    want = {(value, est): values for value, est, *values in reference[name]["seeds"]["0"]["rows"]}
    assert len(got) == len(out.rows) and got.keys() == want.keys()
    off = {key: max(abs(g - w) for g, w in zip(got[key], want[key])) for key in want}
    assert max(off.values()) <= TOLERANCE, max(off.items(), key=lambda item: item[1])
