"""A fuzz gate for the classical and quantum samplers.

A fixed-seed generator draws classical models of four families: the
Gilbert-Elliott sweep of the benchmark's classical workload, with the
bad state's flip probability from 0 to 1; sparse kernels, about 40 %
zeros and some entries down to 1e-300, with one to five states and one
to three inputs and outputs, a quarter of them with one (state, input)
pair whose weights total 1.001; reducible (block-diagonal) chains of the
same kind; and one dense 16-state model.  It draws quantum models of two
more: random quantum memory channels with one to four memory states, one
to three Kraus operators and one to three inputs and outputs; and sparse
classical kernels embedded as diagonal transfer operators, with one to
three states.  Every fourth quantum model has one (input, output)
operator scaled by 1.001 after compiling.  Each model is sampled at lengths 1, 2, 3, 17 and 2000;
the odd lengths end a two-output quantum model on a one-step word.

Every trajectory must give the outputs of the sequential single-step
route (``reference.sample_outputs``), or raise its error at its step.
A quantum trajectory's per-step log losses plus the input's must also
be within 1e-12 of the sequential joint recursion's logs
(``reference.iterate_steps``).  The sparse, reducible and quantum
families must each have cases of both kinds, so that the gate keeps its
reach.
"""

import numpy as np
import pytest

import qchanrate as qc
from qchanrate import channels, rates
from qchanrate.errors import QchanrateError

import models
import reference
from conftest import GE_TRANSITION, P_GOOD  # the benchmark's classical channel

LENGTHS = (1, 2, 3, 17, 2000)

FAMILIES = ["ge", "sparse", "reducible", "dense", "quantum", "embedded"]

# Models per quantum family, every fourth of them with a fault.
QUANTUM_MODELS = 10


def sparse_kernel(rng, states, x_size, y_size, reducible=False, fault=True):
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
    if fault and rng.random() < 0.25:
        k[rng.integers(states), rng.integers(x_size)] *= 1.001
    initial = rng.random(states) * (rng.random(states) < 0.7)
    if not initial.any():
        initial[0] = 1.0
    return qc.ClassicalFsmc(k, initial / initial.sum())


def input_law(rng, x_size):
    """A random law, about a fifth of its inputs never drawn."""
    law = rng.random(x_size) * (rng.random(x_size) < 0.8)
    return qc.InputLaw(law / law.sum() if law.any() else np.full(x_size, 1.0 / x_size))


def quantum_fault(rng, t, faulty):
    """With ``faulty``, one (x, y) operator scaled by 1.001 after
    compiling."""
    if not faulty:
        return t
    ops = t.operators.copy()
    ops[rng.integers(t.x_size), rng.integers(t.y_size)] *= 1.001
    return channels.TransferOperatorSet(ops, t.initial_state)


def family(name):
    """The models of one family, each with its input law."""
    rng = np.random.default_rng(FAMILIES.index(name) + 40)
    if name == "ge":
        for p_b in np.linspace(0.0, 1.0, 11):
            yield qc.build_gilbert_elliott(P_GOOD, p_b, GE_TRANSITION), qc.uniform_input()
    elif name == "dense":
        yield models.random_classical_fsmc(rng, 16, 2, 2), qc.uniform_input()
    elif name == "quantum":
        for i in range(QUANTUM_MODELS):
            states, kraus, x_size, y_size = (int(v) for v in rng.integers(1, [5, 4, 4, 4]))
            ch = models.random_quantum_memory_channel(
                rng, state_dim=states, n_kraus=kraus, x_size=x_size, y_size=y_size
            )
            t = quantum_fault(rng, qc.compile_transfer_operators(ch), i % 4 == 1)
            yield t, input_law(rng, x_size)
    elif name == "embedded":
        for i in range(QUANTUM_MODELS):
            states = int(rng.integers(1, 4))
            x_size, y_size = (int(v) for v in rng.integers(1, 4, size=2))
            law = input_law(rng, x_size)
            f = sparse_kernel(rng, states, x_size, y_size, fault=False)
            yield quantum_fault(rng, models.embed_classical_as_quantum(f), i % 4 == 1), law
    else:
        for _ in range(16):
            states = int(rng.integers(2 if name == "reducible" else 1, 6))
            x_size, y_size = (int(v) for v in rng.integers(1, 4, size=2))
            law = input_law(rng, x_size)
            yield sparse_kernel(rng, states, x_size, y_size, name == "reducible"), law


def outcome(model, q, n, seed):
    """The sampler's trajectory (None where it raised) and its outputs or
    error message, and the reference's outputs or error message."""
    ref_rng = qc.make_rng(seed)
    x = qc.sample_input(q, n, ref_rng)
    draws = n + isinstance(model, qc.ClassicalFsmc)  # a classical start draws its state
    y, failure = reference.sample_outputs(model, x, ref_rng.random(draws))
    expected = y.tolist() if failure is None else f"{failure[1]} at step {failure[0]}"
    try:
        traj = qc.sample_trajectory(model, q, n, seed)
    except QchanrateError as exc:
        return None, str(exc), expected
    return traj, traj.y.tolist(), expected


@pytest.mark.parametrize("name", FAMILIES)
def test_sampler_matches_single_step_route(name):
    outcomes = {"full": 0, "tripped": 0}
    for index, (model, q) in enumerate(family(name)):
        for n in LENGTHS:
            traj, got, expected = outcome(model, q, n, seed=100 * index + n)
            assert got == expected, (name, index, n)
            outcomes["tripped" if traj is None else "full"] += 1
            if traj is not None and traj.conditional_log_loss is not None:
                ref, _, failure = reference.iterate_steps(model, q, traj.y, traj.x)
                assert failure is None, (name, index, n)
                logs = traj.conditional_log_loss + rates.input_log_loss(q, traj.x)
                assert np.abs(logs - ref).max() <= 1e-12, (name, index, n)
    if name in ("sparse", "reducible"):
        assert outcomes["tripped"] >= 5 and outcomes["full"] >= 50, outcomes
    elif name in ("quantum", "embedded"):
        assert outcomes["tripped"] >= 5 and outcomes["full"] >= 30, outcomes
