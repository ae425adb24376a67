"""The traced sweep benchmark (``perfbench/tracer.py``) times the pipeline
by swapping these module attributes for wrappers, so each must stay a
callable attribute of its module: an import dropped in a refactor would
crash the traced benchmark rather than any pipeline test.  The tracer
itself, read from its file, is installed once to check that it wraps
each attribute and puts it back."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from qchanrate import rates, runner, sampling
from qchanrate.channels import build_gilbert_elliott, uniform_input
from qchanrate.config import instantiate_channel, load_config

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

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


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_each_hook_and_restores_it():
    """The tracer installs on the pipeline modules: it wraps each forward
    recursion name on its own, times a call through either as one
    ``rates.fwd_*`` span, and ``uninstall`` puts every original back."""
    originals = {(m, a): getattr(m, a) for m, a in HOOKS}
    names = ("scaled_forward_classical", "scaled_forward_quantum")
    tracer = load_tracer().Tracer()
    tracer.install(runner, rates, sampling)
    try:
        wrapped = [getattr(rates, a) for a in names]
        assert wrapped[0] is not wrapped[1]
        assert not any(w is originals[rates, a] for w, a in zip(wrapped, names))
        model = build_gilbert_elliott(0.1, 0.4, np.array([[0.9, 0.1], [0.2, 0.8]]))
        logs = rates.scaled_forward_classical(model, uniform_input(), np.array([0, 1, 1, 0, 1]))
        spans = [s for s in tracer.spans if s.name.startswith("rates.fwd_")]
        assert [(s.name, s.uses) for s in spans] == [("rates.fwd_y", logs.size)]
    finally:
        tracer.uninstall()
    assert all(getattr(m, a) is fn for (m, a), fn in originals.items())


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
