"""The traced sweep benchmark (``perfbench/tracer.py``) times the pipeline
by swapping these module attributes for wrappers, so each must stay a
callable attribute of its module: an import dropped in a refactor would
crash the traced benchmark rather than any pipeline test."""

import json

import pytest

from qchanrate import rates, runner, sampling
from qchanrate.config import instantiate_channel, load_config

HOOKS = [
    (runner, "instantiate_channel"),
    (runner, "sample_trajectory"),
    (runner, "entropy_rate_estimates"),
    (runner, "lower_bound"),
    (runner, "write_rows_csv"),
    (runner, "write_line_plot"),
    (rates, "scaled_forward_quantum"),
    (rates, "scaled_forward_classical"),
    (rates, "stacked_forward_logs"),
    (sampling, "hermiticity_residue"),
    (rates, "hermiticity_residue"),
]


@pytest.mark.parametrize(
    "module, attr", HOOKS, ids=[f"{m.__name__.rsplit('.', 1)[-1]}.{a}" for m, a in HOOKS]
)
def test_hooked_attribute_is_callable(module, attr):
    assert callable(getattr(module, attr, None))


def test_sweep_samples_each_task_once_through_the_hook(tmp_path, monkeypatch):
    """The traced benchmark times and hashes every trajectory where the
    sweep calls ``runner.sample_trajectory``, so a sweep must sample each
    (value, seed) task through it exactly once, with that task's n and
    seed."""
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "channel": {"kind": "quantum_ge", "p_g": 0.05, "p_b": 0.95, "alpha": 1.0},
        "input_law": [0.5, 0.5],
        "n": 200,
        "seeds": [3, 4],
        "sweep": {"parameter": "p_b", "values": [0.8, 0.95]},
        "estimators": ["ir"],
    }))
    cfg = load_config(path)
    sample = runner.sample_trajectory
    calls = []

    def hook(model, q, n, seed):
        traj = sample(model, q, n, seed)
        calls.append((n, seed, traj.y.tobytes()))
        return traj

    monkeypatch.setattr(runner, "sample_trajectory", hook)
    out = runner.run_experiment(cfg, tmp_path / "out", write_svg=False)
    assert len(out.rows) == 4 and not out.errors
    expected = [
        (200, seed, sample(instantiate_channel(cfg.channel, {"p_b": value}), cfg.input_law, 200, seed).y.tobytes())
        for value in (0.8, 0.95)
        for seed in (3, 4)
    ]
    assert sorted(calls) == sorted(expected)
