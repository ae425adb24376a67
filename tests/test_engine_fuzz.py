"""A numerics fuzz gate for the forward engine.

A fixed-seed generator draws models and sequences that no sampler would
produce: classical kernels with many zeros, entries down to 1e-300 and
reducible (block-diagonal) chains, among them the underflow family of a
reducible chain with entries of 1e-78 or less; chains whose rare state
alone emits an output, so that observing it zeroes the rows that hold
the mass; random quantum models with one to four memory levels and one
to three Kraus operators; and classical models embedded as quantum ones.
Lengths sit at k**2 - 1, k**2 and k**2 + 1 (the engine's blocks hold
about sqrt(n / m) words of m steps) and around multiples of m.
Outputs are uniform-random or alternating, inputs marginalized or
pinned.

Every recursion, run alone, must give per-step logs within 1e-9 of the
sequential reference (``reference.iterate_steps``), or raise the same
error type at the same step, within a bounded number of passes.  The
gate runs at the default word lengths and at longer ones, which the
short lengths here would not otherwise reach.

The reference holds a normalized state in double precision, so a state
component below about 1e-308 of the largest one is lost to it (a run of
outputs that each favour one latent state by 1e-80, say), and one near
that edge has few bits left; the engine keeps components down to about
2**-900 of the largest.  A case where the reference's logs lose
accuracy, or whose logs depend on components below 2**-EDGE of the
largest, is outside what the reference can judge: a log-domain recursion
of the classical model, which keeps every component, or every one above
2**-EDGE, screens such cases out.  They must stay a small share of the
cases, so that the gate keeps its reach.
"""

import itertools
import math
import re

import numpy as np
import pytest

import qchanrate as qc
from qchanrate import rates
from qchanrate.errors import QchanrateError

import models
from reference import iterate_steps

CASES = 300
MAX_PASSES = 3
EDGE = 900


def sparse_kernel(rng, states, x_size, y_size, reducible):
    """Half the entries zero, a third of the rest scaled by up to 1e-300;
    with ``reducible``, no transitions between two blocks of states."""
    k = rng.random((states, x_size, states, y_size))
    k[rng.random(k.shape) < 0.5] = 0.0
    tiny = rng.random(k.shape) < 0.3
    k[tiny] *= 10.0 ** -rng.uniform(0.0, 300.0, size=tiny.sum())
    if reducible and states > 1:
        cut = int(rng.integers(1, states))
        k[:cut, :, cut:] = 0.0
        k[cut:, :, :cut] = 0.0
    for s in range(states):
        for x in range(x_size):
            if not k[s, x].any():
                k[s, x, s, rng.integers(y_size)] = 1.0
            k[s, x] /= k[s, x].sum()
    initial = rng.random(states) * (rng.random(states) < 0.7)
    if not initial.any():
        initial[0] = 1.0
    return qc.ClassicalFsmc(k, initial / initial.sum())


def underflow_family(rng):
    """Two states that never move; state 0 emits output 1, and state 1
    output 0, with probability 1e-78 or less."""
    e0, e1 = 10.0 ** -rng.uniform(78.0, 250.0, size=2)
    k = np.zeros((2, 1, 2, 2))
    k[0, 0, 0] = [1.0 - e0, e0]
    k[1, 0, 1] = [e1, 1.0 - e1]
    return qc.ClassicalFsmc(k, np.array([0.5, 0.5]))


def rare_emitter(rng):
    """States 0 and 1 emit outputs 0 and 1 and reach state 2 with a tiny
    probability; only state 2 emits output 2, so observing it zeroes
    the rows of states 0 and 1."""
    eps = 10.0 ** -rng.uniform(1.0, 150.0)
    k = np.zeros((3, 1, 3, 3))
    for s in range(2):
        k[s, 0, :2, :2] = rng.random((2, 2))
        k[s, 0] *= (1.0 - eps) / k[s, 0].sum()
        k[s, 0, 2, 2] = eps
    k[2, 0, :, 2] = rng.dirichlet(np.ones(3))
    return qc.ClassicalFsmc(k, np.array([0.5, 0.5, 0.0]))


def outputs(rng, kind, model, n):
    """Alternating or uniform-random outputs.  The rare state's output
    comes one step in twenty.  In the underflow family each output
    favours one state by a factor of 1e78 or more, so random runs of one
    output are kept short enough for the state to stay within 1e-250 of
    its largest component."""
    if kind == "rare":
        ys = rng.integers(0, 2, n)
        ys[rng.random(n) < 0.05] = 2
        return ys
    if rng.random() < 0.5:
        return np.arange(n) % model.y_size
    ys = rng.integers(0, model.y_size, n)
    if kind == "underflow":
        longest = int(250 // -math.log10(min(model.kernel[0, 0, 0, 1], model.kernel[1, 0, 1, 0])))
        for t in range(longest, n):
            if (ys[t - longest:t + 1] == ys[t]).all():
                ys[t] ^= 1
    return ys


def draw_model(rng):
    """A model, its classical kernel if it has one, and the family name."""
    kind = rng.choice(["sparse", "reducible", "underflow", "rare", "quantum", "embedded"])
    if kind == "underflow":
        f = underflow_family(rng)
    elif kind == "rare":
        f = rare_emitter(rng)
    elif kind == "quantum":
        channel = models.random_quantum_memory_channel(
            rng, state_dim=int(rng.integers(1, 5)), n_kraus=int(rng.integers(1, 4)),
            x_size=int(rng.integers(1, 4)), y_size=int(rng.integers(1, 4)),
        )
        return qc.compile_transfer_operators(channel), None, kind
    else:
        f = sparse_kernel(rng, *(int(v) for v in rng.integers(1, 5, size=3)),
                          reducible=kind == "reducible")
    return (models.embed_classical_as_quantum(f) if kind == "embedded" else f), f, kind


def draw_length(rng, model, q):
    """k**2 - 1, k**2 or k**2 + 1, or that near a multiple of the word
    length the engine picks at it."""
    n = max(1, int(rng.integers(1, 22)) ** 2 + int(rng.integers(-1, 2)))
    if rng.random() < 0.5:
        rec = rates.recursion(model, q, np.zeros(n, dtype=np.int64))
        m = rates._recursion_word_length(rec)
        n = max(1, m * max(1, n // m) + int(rng.integers(-1, 2)))
    return n


def cases(seed):
    rng = np.random.default_rng(seed)
    for _ in range(CASES):
        model, kernel, kind = draw_model(rng)
        q = qc.InputLaw(rng.dirichlet(np.ones(model.x_size)))
        n = draw_length(rng, model, q)
        ys = outputs(rng, kind, model, n)
        xs = rng.integers(0, model.x_size, n) if rng.random() < 0.5 else None
        yield kind, model, kernel, q, ys, xs


def log_domain_logs(f: qc.ClassicalFsmc, q, ys, xs, floor=math.inf):
    """Per-step logs of the classical recursion kept as logs of its
    normalized state, so that no component underflows, and the step of
    its first zero normalizer, or None.  Components below 2**-floor of
    the largest are dropped."""
    with np.errstate(divide="ignore"):
        if xs is None:
            steps = np.log(np.einsum("x,axby->yab", q.p, f.kernel))[ys]
        else:
            steps = np.log(q.p[xs])[:, None, None] + np.log(f.kernel[:, xs, :, ys])
        state = np.log(f.initial)
    logs = []
    for t, step in enumerate(steps):
        nxt = np.logaddexp.reduce(state[:, None] + step, axis=0)
        total = np.logaddexp.reduce(nxt)
        if total == -math.inf:
            return np.array(logs), t
        logs.append(-total)
        state = nxt - total
        state[state < state.max() - floor * math.log(2.0)] = -math.inf
    return np.array(logs), None


def in_reference_range(f: qc.ClassicalFsmc, q, ys, xs, ref, failure) -> bool:
    """Whether the reference's logs are those of the log-domain recursion
    and do not depend on state components below 2**-EDGE of the
    largest."""
    return all(
        zero_at == (None if failure is None else failure[0])
        and np.abs(logs[:ref.size] - ref[:logs.size]).max(initial=0.0) <= 1e-9
        for logs, zero_at in (log_domain_logs(f, q, ys, xs), log_domain_logs(f, q, ys, xs, EDGE))
    )


def agrees(logs, failure, got) -> bool:
    """``got`` (logs or an error) matches reference ``logs`` within 1e-9,
    or ``failure`` (step, error) by type and step."""
    if failure is None:
        return not isinstance(got, QchanrateError) and np.abs(got - logs).max() <= 1e-9
    at, exc = failure
    return type(got) is type(exc) and re.search(rf"at step {at}\b", str(got)) is not None


@pytest.mark.parametrize("word_steps", [rates.WORD_STEPS, 1], ids=["default", "long-words"])
def test_engine_matches_reference(monkeypatch, word_steps):
    monkeypatch.setattr(rates, "WORD_STEPS", word_steps)
    mismatches, screened, lengths = [], 0, set()
    for case, (kind, model, kernel, q, ys, xs) in enumerate(cases(23 + word_steps)):
        with np.errstate(all="ignore"):  # inf * 0 and underflow in the reference's steps
            ref, _, failure = iterate_steps(model, q, ys, xs)
        if kernel is not None and not in_reference_range(kernel, q, ys, xs, ref, failure):
            screened += 1
            continue
        rec = rates.recursion(model, q, ys, xs)
        lengths.add((ys.size, rates._recursion_word_length(rec)))
        before = rates.passes
        (got,) = rates.stacked_forward_logs([rec])
        if not agrees(ref, failure, got) or rates.passes - before > MAX_PASSES:
            mismatches.append((case, kind, ys.size, rates.passes - before, repr(got)[:80]))
    assert mismatches == []
    assert screened <= CASES // 10
    # Words of more than one step ran, and lengths sat on either side of a
    # multiple of the word length.
    if word_steps == 1:
        residues = {(n % m, m) for n, m in lengths if m > 2}
        assert {0, 1} <= {r for r, _ in residues} and any(r == m - 1 for r, m in residues)


def settles_in_two_passes(seed, item, kind, n, m):
    """Case ``item`` of ``cases(seed)``, replayed under the current
    WORD_STEPS (the lengths drawn depend on it), is the ``kind`` model at
    length ``n`` and word length ``m``.  Run alone, it takes a second
    pass, and its logs are the reference's."""
    got_kind, model, _, q, ys, xs = next(itertools.islice(cases(seed), item, None))
    rec = rates.recursion(model, q, ys, xs)
    assert (got_kind, ys.size, rates._recursion_word_length(rec)) == (kind, n, m)
    with np.errstate(all="ignore"):
        ref, _, failure = iterate_steps(model, q, ys, xs)
    assert failure is None
    before = rates.passes
    (got,) = rates.stacked_forward_logs([rec])
    assert agrees(ref, failure, got)
    assert rates.passes - before == 2


# Each redo trigger has a case that only it catches: with the trigger
# disabled (and the other two on), the case's logs or its error differ
# from the reference's.


def test_drift_alone_catches_reducible_kernel():
    """Inputs pinned, one step per word: without the drift trigger
    (``RESYNC_TOL`` infinite) the logs are off by up to 189 nats."""
    settles_in_two_passes(100, 232, "reducible", 168, 1)


def test_product_flag_alone_catches_embedded_kernel():
    """Inputs pinned, one step per word: without the flag on a block
    product's row that fell below ``PEAK_FLOOR`` the logs are off by
    31 nats."""
    settles_in_two_passes(129, 43, "embedded", 226, 1)


def test_lost_totals_alone_catch_sparse_kernel(monkeypatch):
    """Inputs pinned, words of three steps: without the lost-totals
    trigger (``PEAK_FLOOR`` zero) the engine raises a false zero
    probability at step 11."""
    monkeypatch.setattr(rates, "WORD_STEPS", 1)
    settles_in_two_passes(119, 248, "sparse", 34, 3)
