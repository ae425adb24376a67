import json

import numpy as np
import pytest

import qchanrate as qc
from qchanrate.bounds import AuxiliaryModel, lower_bound, make_auxiliary
from qchanrate.cli import main
from qchanrate.errors import AuxiliaryLikelihoodError, ImpossibleObservationError

import models
from conftest import GE_TRANSITION, binary_entropy


class TestSelfConsistency:
    def test_classical_auxiliary_equals_true_model(self, classical_ge, uniform):
        traj = qc.sample_trajectory(classical_ge, uniform, 2000, seed=50)
        r = qc.entropy_rate_estimates(classical_ge, uniform, traj)
        aux = AuxiliaryModel(classical_ge, "true model")
        assert lower_bound(traj, aux, uniform) == r

    def test_quantum_auxiliary_equals_true_model(self, quantum_ge, uniform):
        traj = qc.sample_trajectory(quantum_ge, uniform, 2000, seed=51)
        r = qc.entropy_rate_estimates(quantum_ge, uniform, traj)
        assert lower_bound(traj, AuxiliaryModel(quantum_ge, "true model"), uniform) == r

    def test_embedded_true_model(self, classical_ge, uniform):
        embedded = models.embed_classical_as_quantum(classical_ge)
        traj = qc.sample_trajectory(embedded, uniform, 2000, seed=52)
        r = qc.entropy_rate_estimates(embedded, uniform, traj)
        assert lower_bound(traj, AuxiliaryModel(embedded, "embedded true"), uniform) == r


class TestMismatchedMetrics:
    def test_matched_bsc_on_memoryless_channel(self, uniform):
        p = 0.2
        true = qc.compile_transfer_operators(qc.build_quantum_gilbert_elliott(p, p, alpha=1.0))
        traj = qc.sample_trajectory(true, uniform, 100000, seed=53)
        aux = make_auxiliary(qc.build_bsc(p), "matched bsc")
        b = lower_bound(traj, aux, uniform)
        assert abs(b.ir - (1.0 - binary_entropy(p))) <= 0.01

    def test_uninformative_metric_gives_zero(self, quantum_ge, uniform):
        traj = qc.sample_trajectory(quantum_ge, uniform, 5000, seed=54)
        aux = make_auxiliary(qc.build_bsc(0.5), "bsc 0.5")
        b = lower_bound(traj, aux, uniform)
        assert abs(b.ir) <= 1e-10

    def test_zero_likelihood_advises_smoothing(self, quantum_ge, uniform):
        traj = qc.sample_trajectory(quantum_ge, uniform, 500, seed=55)
        raw = AuxiliaryModel(qc.build_bsc(0.0), "noiseless", smoothed=False)
        with pytest.raises(AuxiliaryLikelihoodError, match="smooth"):
            lower_bound(traj, raw, uniform)
        smoothed = make_auxiliary(qc.build_bsc(0.0), "noiseless")
        assert smoothed.smoothed
        assert np.isfinite(lower_bound(traj, smoothed, uniform).ir)

    def test_smoothing_keeps_kernel_normalized(self, classical_ge):
        smoothed = qc.smooth_classical_fsmc(classical_ge)
        assert smoothed.kernel.min() > 0.0
        assert np.abs(smoothed.kernel.sum(axis=(2, 3)) - 1.0).max() <= 1e-12

    def test_two_state_family_stays_below_estimate(self, quantum_ge, uniform):
        """Classical burst-noise auxiliaries on the quantum reference
        channel: the best bound must not exceed the rate estimate by
        more than estimation noise."""
        seeds = [10, 11, 12, 13, 14]
        n = 10000
        trajs = [qc.sample_trajectory(quantum_ge, uniform, n, seed=s) for s in seeds]
        irs = [qc.entropy_rate_estimates(quantum_ge, uniform, t).ir for t in trajs]

        def family(p_b):
            f = qc.build_gilbert_elliott(0.05, p_b, GE_TRANSITION)
            return make_auxiliary(f, f"ge {p_b}")

        best_mean = -np.inf
        for p_b in (0.5, 0.75, 0.95):
            aux = family(p_b)
            mean = np.mean([lower_bound(t, aux, uniform).ir for t in trajs])
            best_mean = max(best_mean, mean)
        assert best_mean <= np.mean(irs) + 0.01


class TestInputSideErrors:
    """An input of zero probability under the input law is the input's
    error, not the auxiliary's: it keeps its own category."""

    @pytest.fixture
    def held_one(self, uniform):
        # input law [1, 0] with a trajectory that holds x = 1
        traj = qc.sample_trajectory(qc.build_bsc(0.1), uniform, 200, seed=56)
        assert traj.x.max() == 1
        return qc.InputLaw([1.0, 0.0]), traj

    def test_lower_bound_raises_the_input_error(self, held_one):
        q, traj = held_one
        aux = make_auxiliary(qc.build_bsc(0.2), "bsc")
        with pytest.raises(ImpossibleObservationError) as caught:
            lower_bound(traj, aux, q)
        assert not isinstance(caught.value, AuxiliaryLikelihoodError)

    def test_bound_trajectory_records_the_input_error(self, held_one, tmp_path, capsys):
        _, traj = held_one
        qc.save_trajectory(traj, tmp_path / "traj.txt")
        cfg = {
            "channel": {"kind": "bsc", "p": 0.1},
            "input_law": [1.0, 0.0],
            "sweep": {"parameter": "p", "values": [0.1]},
            "estimators": ["aux_lower"],
            "auxiliaries": [{"kind": "bsc", "label": "a", "p": 0.2}],
            "output": {"csv": "r.csv"},
        }
        (tmp_path / "exp.json").write_text(json.dumps(cfg))
        argv = ["bound", str(tmp_path / "exp.json"), "--trajectory", str(tmp_path / "traj.txt"),
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 3
        capsys.readouterr()
        lines = (tmp_path / "out" / "r.errors.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[2:5] == ["aux_lower:a", "56", "ImpossibleObservationError"]
