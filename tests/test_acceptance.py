"""Acceptance suite: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import time

import numpy as np

import qchanrate as qc
from qchanrate import rates
from qchanrate.bounds import AuxiliaryModel, lower_bound, make_auxiliary
from qchanrate.cli import main
from qchanrate.oracle import brute_force_oracle

import models
from conftest import P_BAD, P_GOOD, binary_entropy
from reference import dmc_information_rate, oracle_joint_prob, oracle_output_prob


def report(num: int, text: str) -> None:
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_1_memoryless_rate_exactness(uniform):
    ps = (0.0, 0.05, 0.11, 0.3, 0.5, 0.95, 1.0)
    laws = [qc.build_bsc(p).kernel[0, :, 0, :] for p in ps]
    dmc_information_rate(uniform, laws[0])  # warm up
    start = time.perf_counter()
    rates = [dmc_information_rate(uniform, w) for w in laws]
    elapsed = time.perf_counter() - start
    worst = max(abs(r - (1.0 - binary_entropy(p))) for r, p in zip(rates, ps))
    assert worst <= 1e-12
    assert elapsed < 1e-3
    report(1, f"closed-form rates exact (worst dev {worst:.1e}, {elapsed * 1e6:.0f}us)")


def test_criterion_2_oracle_equivalence(quantum_ge, classical_ge, uniform):
    rng = np.random.default_rng(2026)
    n = 6
    start = time.perf_counter()
    worst = 0.0
    for model, forward in (
        (quantum_ge, rates.scaled_forward_quantum),
        (classical_ge, rates.scaled_forward_classical),
    ):
        for _ in range(100):
            ys = rng.integers(0, 2, size=n)
            xs = rng.integers(0, 2, size=n)
            log_py = -forward(model, uniform, ys).sum()
            log_pxy = -forward(model, uniform, ys, xs).sum()
            worst = max(
                worst,
                abs(log_py - np.log(oracle_output_prob(model, uniform, ys))),
                abs(log_pxy - np.log(oracle_joint_prob(model, uniform, xs, ys))),
            )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    report(2, f"recursions match brute force at n=6 (worst {worst:.1e}, {elapsed:.1f}s)")


def test_criterion_3_random_model_property_suites(uniform):
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for _ in range(50):
        f = models.random_classical_fsmc(rng)
        assert qc.validate(f).ok
        tables = brute_force_oracle(f, uniform, 3)
        assert abs(tables.joint.sum() - 1.0) <= 1e-10
        assert tables.joint.min() >= -1e-12
    for _ in range(50):
        ch = models.random_quantum_memory_channel(rng)
        t = qc.compile_transfer_operators(ch)  # enforces p.s.d. + trace consistency
        assert qc.validate(t).ok
        tables = brute_force_oracle(t, uniform, 3)
        assert abs(tables.joint.sum() - 1.0) <= 1e-10
        assert tables.joint.min() >= -1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, f"50+50 random models pass all conditions ({elapsed:.1f}s)")


def test_criterion_4_memoryless_reduction(uniform):
    start = time.perf_counter()
    t = qc.compile_transfer_operators(qc.build_quantum_gilbert_elliott(0.05, 0.05, alpha=1.0))
    traj = qc.sample_trajectory(t, uniform, 100000, seed=1)
    r = qc.entropy_rate_estimates(t, uniform, traj)
    elapsed = time.perf_counter() - start
    assert abs(r.ir - 0.713603) <= 0.01
    assert elapsed < 60.0
    report(4, f"equal-flip channel estimates ir={r.ir:.4f} vs 0.7136 ({elapsed:.1f}s)")


def test_criterion_5_frozen_state_reduction(uniform):
    start = time.perf_counter()
    t = qc.compile_transfer_operators(
        qc.build_quantum_gilbert_elliott(
            P_GOOD, P_BAD, alpha=0.0, initial_state=np.diag([1.0, 0.0])
        )
    )
    traj = qc.sample_trajectory(t, uniform, 100000, seed=1)
    r = qc.entropy_rate_estimates(t, uniform, traj)
    elapsed = time.perf_counter() - start
    assert abs(r.ir - (1.0 - binary_entropy(P_GOOD))) <= 0.01
    assert elapsed < 60.0
    report(5, f"frozen good state estimates ir={r.ir:.4f} vs 0.7136 ({elapsed:.1f}s)")


def test_criterion_6_classical_quantum_bridge(classical_ge, uniform):
    embedded = models.embed_classical_as_quantum(classical_ge)
    traj = qc.sample_trajectory(classical_ge, uniform, 10000, seed=6)
    worst = 0.0
    for xs in (None, traj.x):
        lc = rates.scaled_forward_classical(classical_ge, uniform, traj.y, xs)
        lq = rates.scaled_forward_quantum(embedded, uniform, traj.y, xs)
        worst = max(worst, float(np.abs(lc - lq).max()))
    assert worst <= 1e-12
    report(6, f"embedded and native scale-factor logs identical (worst {worst:.1e})")


def test_criterion_7_burst_noise_sweep_trend(uniform):
    start = time.perf_counter()
    irs = []
    for p_b in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = qc.compile_transfer_operators(
            qc.build_quantum_gilbert_elliott(P_GOOD, p_b, alpha=1.0)
        )
        traj = qc.sample_trajectory(t, uniform, 100000, seed=7)
        irs.append(qc.entropy_rate_estimates(t, uniform, traj).ir)
    elapsed = time.perf_counter() - start
    for lo, hi in zip(irs[1:], irs[:-1]):
        assert lo <= hi + 0.01
    assert elapsed < 600.0
    report(7, "rate non-increasing in bad-state flip probability "
              f"({', '.join(f'{v:.3f}' for v in irs)}; {elapsed:.0f}s)")


def test_criterion_8_lower_bound_sanity(classical_ge, quantum_ge, uniform):
    start = time.perf_counter()
    # per-sequence self-consistency on the embedded true model
    embedded = models.embed_classical_as_quantum(classical_ge)
    traj = qc.sample_trajectory(embedded, uniform, 10000, seed=8)
    r = qc.entropy_rate_estimates(embedded, uniform, traj)
    assert lower_bound(traj, AuxiliaryModel(embedded, "true"), uniform) == r

    # expectation-level bound for a memoryless auxiliary grid
    seeds = range(20)
    n = 10000
    trajs = [qc.sample_trajectory(quantum_ge, uniform, n, seed=s) for s in seeds]
    irs = np.array([qc.entropy_rate_estimates(quantum_ge, uniform, t).ir for t in trajs])
    for eps in (0.05, 0.2, 0.35, 0.5):
        aux = make_auxiliary(qc.build_bsc(eps), f"bsc {eps}")
        lbs = np.array([lower_bound(t, aux, uniform).ir for t in trajs])
        diff = lbs - irs
        se = diff.std(ddof=1) / np.sqrt(len(diff))
        assert diff.mean() <= 2 * se, f"eps={eps}: mean excess {diff.mean():.4f} > 2*SE {2 * se:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(8, f"bounds consistent and below estimates ({elapsed:.0f}s)")


def test_criterion_9_run_determinism(tmp_path):
    cfg = {
        "channel": {"kind": "quantum_ge", "p_g": 0.05, "p_b": 0.95, "alpha": 1.0},
        "input_law": [0.5, 0.5],
        "n": 300,
        "seeds": [0, 1],
        "sweep": {"parameter": "p_b", "values": [0.5, 0.95]},
        "estimators": ["ir", "aux_lower"],
        "auxiliaries": [{"kind": "bsc", "label": "bsc", "p": 0.2}],
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    assert main(["estimate", str(path), "--out-dir", str(tmp_path / "r1")]) == 0
    assert main(["estimate", str(path), "--out-dir", str(tmp_path / "r2")]) == 0
    a = (tmp_path / "r1" / "results.csv").read_bytes()
    b = (tmp_path / "r2" / "results.csv").read_bytes()
    assert a == b and len(a) > 0
    report(9, f"repeated runs byte-identical ({len(a)} bytes)")
