"""A fuzz gate for the classical sampler.

A fixed-seed generator draws classical models of four families: the
Gilbert-Elliott sweep of the benchmark's classical workload, with the
bad state's flip probability from 0 to 1; sparse kernels, about 40 %
zeros and some entries down to 1e-300, with one to five states and one
to three inputs and outputs, a quarter of them with one (state, input)
pair whose weights total 1.001; reducible (block-diagonal) chains of the
same kind; and one dense 16-state model.  Each is sampled at lengths 1,
2, 3, 17 and 2000.

Every trajectory must give the outputs of the sequential single-step
route (``reference.sample_outputs``), or raise its error at its step.
The sparse and reducible families must each have cases of both kinds,
so that the gate keeps its reach.
"""

import numpy as np
import pytest

import qchanrate as qc
from qchanrate.errors import QchanrateError

import models
import reference
from conftest import GE_TRANSITION, P_GOOD  # the benchmark's classical channel

LENGTHS = (1, 2, 3, 17, 2000)


def sparse_kernel(rng, states, x_size, y_size, reducible=False):
    k = rng.random((states, x_size, states, y_size))
    k[rng.random(k.shape) < 0.4] = 0.0
    tiny = rng.random(k.shape) < 0.2
    k[tiny] *= 10.0 ** -rng.uniform(0.0, 300.0, size=tiny.sum())
    if reducible:
        cut = int(rng.integers(1, states))
        k[:cut, :, cut:] = 0.0
        k[cut:, :, :cut] = 0.0
    for s in range(states):
        for x in range(x_size):
            if not k[s, x].any():
                k[s, x, s, rng.integers(y_size)] = 1.0
            k[s, x] /= k[s, x].sum()
    if rng.random() < 0.25:
        k[rng.integers(states), rng.integers(x_size)] *= 1.001
    initial = rng.random(states) * (rng.random(states) < 0.7)
    if not initial.any():
        initial[0] = 1.0
    return qc.ClassicalFsmc(k, initial / initial.sum())


def family(name):
    """The models of one family, each with its input law."""
    rng = np.random.default_rng(["ge", "sparse", "reducible", "dense"].index(name) + 40)
    if name == "ge":
        for p_b in np.linspace(0.0, 1.0, 11):
            yield qc.build_gilbert_elliott(P_GOOD, p_b, GE_TRANSITION), qc.uniform_input()
    elif name == "dense":
        yield models.random_classical_fsmc(rng, 16, 2, 2), qc.uniform_input()
    else:
        for _ in range(16):
            states = int(rng.integers(2 if name == "reducible" else 1, 6))
            x_size, y_size = (int(v) for v in rng.integers(1, 4, size=2))
            law = rng.random(x_size) * (rng.random(x_size) < 0.8)
            law = law / law.sum() if law.any() else np.full(x_size, 1.0 / x_size)
            yield sparse_kernel(rng, states, x_size, y_size, name == "reducible"), qc.InputLaw(law)


def outcome(f, q, n, seed):
    """The sampler's outputs or error message, and the reference's."""
    ref_rng = qc.make_rng(seed)
    x = qc.sample_input(q, n, ref_rng)
    y, failure = reference.sample_outputs(f, x, ref_rng.random(n + 1))
    expected = y.tolist() if failure is None else f"{failure[1]} at step {failure[0]}"
    try:
        got = qc.sample_trajectory(f, q, n, seed).y.tolist()
    except QchanrateError as exc:
        got = str(exc)
    return got, expected


@pytest.mark.parametrize("name", ["ge", "sparse", "reducible", "dense"])
def test_sampler_matches_single_step_route(name):
    outcomes = {"full": 0, "tripped": 0}
    for index, (f, q) in enumerate(family(name)):
        for n in LENGTHS:
            got, expected = outcome(f, q, n, seed=100 * index + n)
            assert got == expected, (name, index, n)
            outcomes["tripped" if isinstance(expected, str) else "full"] += 1
    if name in ("sparse", "reducible"):
        assert outcomes["tripped"] >= 5 and outcomes["full"] >= 50, outcomes
