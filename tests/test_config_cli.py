import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import qchanrate as qc
from qchanrate.cli import main
from qchanrate.config import load_config
from qchanrate.errors import ConfigError
from qchanrate.runner import CSV_COLUMNS, run_experiment


def write_config(tmp_path, name="exp.json", **overrides):
    cfg = {
        "channel": {"kind": "bsc", "p": 0.1},
        "input_law": [0.5, 0.5],
        "n": 400,
        "seeds": [0, 1],
        "sweep": {"parameter": "p", "values": [0.1, 0.3]},
        "estimators": ["ir"],
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


def read_rows(csv_path):
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestParsing:
    def test_reference_sweep_config(self, tmp_path):
        path = write_config(
            tmp_path,
            channel={"kind": "quantum_ge", "p_g": 0.05, "p_b": 0.95, "alpha": 1.0},
            n=100000,
            seeds=[1],
            sweep={"parameter": "p_b", "values": [round(0.05 * k, 2) for k in range(21)]},
        )
        cfg = load_config(path)
        assert cfg.channel.kind == "quantum_ge"
        assert cfg.n == 100000 and len(cfg.sweep.values) == 21
        assert cfg.sweep.parameter == "p_b"

    def test_negative_kernel_rejected_with_witness(self, tmp_path):
        kernel = np.full((1, 2, 1, 2), 0.5)
        kernel[0, 0, 0, 0] = -0.5
        kernel[0, 0, 0, 1] = 1.5
        path = write_config(
            tmp_path,
            channel={"kind": "custom_fsmc", "kernel": kernel.tolist(), "initial": [1.0]},
            sweep={"parameter": "n", "values": [100]},
        )
        with pytest.raises(ConfigError, match="kernel entries nonnegative"):
            load_config(path)

    def test_incomplete_kraus_rejected_by_name(self, tmp_path):
        def mat(rows):
            return [[[float(v), 0.0] for v in row] for row in rows]

        path = write_config(
            tmp_path,
            channel={
                "kind": "custom_kraus",
                "state_dim": 1,
                "encodings": [mat([[1, 0], [0, 0]]), mat([[0, 0], [0, 1]])],
                "kraus": [mat([[0.9, 0], [0, 0.9]])],
                "measurements": [mat([[1, 0], [0, 0]]), mat([[0, 0], [0, 1]])],
            },
            sweep={"parameter": "n", "values": [100]},
        )
        with pytest.raises(ConfigError, match="kraus completeness"):
            load_config(path)

    def test_custom_kraus_channel_accepted(self, tmp_path):
        def mat(rows):
            return [[[float(v), 0.0] for v in row] for row in rows]

        p = 0.2
        path = write_config(
            tmp_path,
            channel={
                "kind": "custom_kraus",
                "state_dim": 1,
                "encodings": [mat([[1, 0], [0, 0]]), mat([[0, 0], [0, 1]])],
                "kraus": [
                    mat([[np.sqrt(1 - p), 0], [0, np.sqrt(1 - p)]]),
                    mat([[0, np.sqrt(p)], [np.sqrt(p), 0]]),
                ],
                "measurements": [mat([[1, 0], [0, 0]]), mat([[0, 0], [0, 1]])],
            },
            sweep={"parameter": "n", "values": [200]},
        )
        assert load_config(path).channel.kind == "custom_kraus"

    def test_matrix_entry_path_in_diagnostic(self, tmp_path):
        path = write_config(
            tmp_path,
            channel={
                "kind": "quantum_ge",
                "p_g": 0.05,
                "p_b": 0.95,
                "hamiltonian": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], "bad"]],
            },
            sweep={"parameter": "p_b", "values": [0.95]},
        )
        with pytest.raises(ConfigError, match=r"hamiltonian\[1\]\[1\]"):
            load_config(path)

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"estimators": ["magic"]}, "estimators"),
            ({"estimators": ["aux_lower"]}, "auxiliar"),
            ({"sweep": {"parameter": "alpha", "values": [1.0]}}, "not sweepable"),
            ({"sweep": {"parameter": "p", "values": [0.1, 1.5]}}, "lie in"),
            ({"seeds": [1, 1]}, "distinct"),
            ({"input_law": [0.25, 0.25, 0.5]}, "symbols"),
            ({"typo_key": 1}, "unknown keys"),
            ({"burn_in": 400}, "burn_in"),
            (
                {"burn_in": 50, "sweep": {"parameter": "n", "values": [100, 40]}},
                r"sweep\.values\[1\]: .*burn_in",
            ),
            ({"seeds": [0, 2**64]}, r"seeds\[1\]: .*2\^64"),
        ],
    )
    def test_rejections(self, tmp_path, overrides, fragment):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=fragment):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")


class TestRunner:
    def test_sweep_rows_and_columns(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        out = run_experiment(cfg, tmp_path / "out")
        header, rows = read_rows(out.csv_path)
        assert header == list(CSV_COLUMNS)
        assert len(rows) == 4  # 2 sweep values x 2 seeds
        for row in rows:
            assert row["sweep_param"] == "p"
            combo = float(row["hx_bits"]) + float(row["hy_bits"]) - float(row["hxy_bits"])
            assert abs(float(row["ir_bits"]) - combo) <= 1e-12
            assert row["wallclock_seconds"] == "0.0"

    def test_single_point_single_seed(self, tmp_path):
        cfg = load_config(
            write_config(tmp_path, seeds=[3], sweep={"parameter": "p", "values": [0.2]})
        )
        out = run_experiment(cfg, tmp_path / "out", write_svg=False)
        _, rows = read_rows(out.csv_path)
        assert len(rows) == 1 and rows[0]["seed"] == "3"

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path)
        out1 = run_experiment(load_config(path), tmp_path / "a")
        out2 = run_experiment(load_config(path), tmp_path / "b")
        assert out1.csv_path.read_bytes() == out2.csv_path.read_bytes()
        assert out1.svg_path.read_bytes() == out2.svg_path.read_bytes()

    def test_n_sweep(self, tmp_path):
        cfg = load_config(
            write_config(tmp_path, seeds=[0], sweep={"parameter": "n", "values": [100, 200]})
        )
        out = run_experiment(cfg, tmp_path / "out", write_svg=False)
        _, rows = read_rows(out.csv_path)
        assert [row["n"] for row in rows] == ["100", "200"]

    def test_excluded_values_skipped(self, tmp_path):
        cfg = load_config(
            write_config(
                tmp_path,
                seeds=[0],
                sweep={"parameter": "p", "values": [0.1, 0.3], "exclude": [0.3]},
            )
        )
        out = run_experiment(cfg, tmp_path / "out", write_svg=False)
        _, rows = read_rows(out.csv_path)
        assert len(rows) == 1 and rows[0]["sweep_value"] == "0.1"

    def test_estimator_failure_recorded_and_run_continues(self, tmp_path):
        cfg = load_config(
            write_config(
                tmp_path,
                channel={"kind": "quantum_ge", "p_g": 0.3, "p_b": 0.3, "alpha": 0.0},
                seeds=[0],
                n=50,
                sweep={"parameter": "p_b", "values": [0.3]},
                estimators=["ir", "aux_lower"],
                auxiliaries=[
                    {"kind": "quantum_ge", "label": "impossible", "p_g": 0.0, "p_b": 0.0},
                    {"kind": "bsc", "label": "fine", "p": 0.3},
                ],
            )
        )
        out = run_experiment(cfg, tmp_path / "out", write_svg=False)
        assert {r.estimator_id for r in out.rows} == {"ir", "aux_lower:fine"}
        assert len(out.errors) == 1
        assert out.errors[0].estimator_id == "aux_lower:impossible"
        assert out.errors_path is not None and out.errors_path.exists()
        assert "AuxiliaryLikelihoodError" in out.errors_path.read_text()

    def test_point_budget_guard(self, tmp_path):
        cfg = load_config(write_config(tmp_path, point_budget_seconds=1e-9))
        out = run_experiment(cfg, tmp_path / "out", write_svg=False)
        # first seed of each value runs, the second is over budget
        assert len(out.rows) == 2
        assert len(out.errors) == 2
        assert all(e.category == "budget_exceeded" for e in out.errors)

    def test_svg_is_wellformed(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        out = run_experiment(cfg, tmp_path / "out")
        tree = ET.parse(out.svg_path)
        tags = {el.tag.split("}")[-1] for el in tree.iter()}
        assert "polyline" in tags and "text" in tags

    def test_worker_pool_matches_serial(self, tmp_path):
        path = write_config(tmp_path)
        serial = run_experiment(load_config(path), tmp_path / "s", write_svg=False)
        pooled = run_experiment(load_config(path), tmp_path / "p", write_svg=False, workers=2)
        assert serial.csv_path.read_bytes() == pooled.csv_path.read_bytes()

    def test_sweep_point_at_equal_flip_probabilities(self, tmp_path):
        """At the sweep point where good and bad flips coincide the
        channel is memoryless, so the estimate must land on the
        closed-form rate."""
        cfg = load_config(
            write_config(
                tmp_path,
                channel={"kind": "quantum_ge", "p_g": 0.05, "p_b": 0.95, "alpha": 1.0},
                n=10000,
                seeds=[0, 1, 2],
                sweep={"parameter": "p_b", "values": [0.05]},
            )
        )
        out = run_experiment(cfg, tmp_path / "out", write_svg=False)
        assert len(out.rows) == 3
        for row in out.rows:
            assert abs(row.ir_bits - 0.713603) <= 0.02


class TestCli:
    def test_estimate_and_determinism(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["estimate", str(path), "--out-dir", str(tmp_path / "r1")]) == 0
        assert main(["estimate", str(path), "--out-dir", str(tmp_path / "r2")]) == 0
        a = (tmp_path / "r1" / "results.csv").read_bytes()
        b = (tmp_path / "r2" / "results.csv").read_bytes()
        assert a == b

    def test_validate_verb(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["validate", str(path)]) == 0
        assert "configuration is valid" in capsys.readouterr().out

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, estimators=["magic"])
        assert main(["validate", str(path)]) == 2
        assert "error[ConfigError]" in capsys.readouterr().err

    def test_seed_and_n_overrides(self, tmp_path):
        path = write_config(tmp_path)
        assert main(
            ["estimate", str(path), "--seeds", "5", "--n", "100",
             "--out-dir", str(tmp_path / "o"), "--no-svg"]
        ) == 0
        _, rows = read_rows(tmp_path / "o" / "results.csv")
        assert {r["seed"] for r in rows} == {"5"} and {r["n"] for r in rows} == {"100"}

    def test_seeds_override_beyond_64_bits_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(
            ["estimate", str(path), "--seeds", "18446744073709551616",
             "--out-dir", str(tmp_path / "o"), "--no-svg"]
        ) == 2
        assert "error[ConfigError]: --seeds" in capsys.readouterr().err

    def test_sample_seed_out_of_range_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        for seed in ("-1", "18446744073709551616"):
            assert main(["sample", str(path), "-o", str(tmp_path / "t.txt"), "--seed", seed]) == 2
            assert "error[ConfigError]: --seed:" in capsys.readouterr().err
        assert not (tmp_path / "t.txt").exists()
        assert main(
            ["sample", str(path), "-o", str(tmp_path / "t.txt"), "--seed", str(2**64 - 1)]
        ) == 0

    def test_config_seed_beyond_64_bits_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, seeds=[2**64])
        assert main(["estimate", str(path), "--out-dir", str(tmp_path / "o"), "--no-svg"]) == 2
        assert "error[ConfigError]: seeds[0]" in capsys.readouterr().err

    def test_sample_bound_pipeline(self, tmp_path):
        """External trajectories feed the bound evaluator end to end."""
        cfg_path = write_config(
            tmp_path,
            channel={"kind": "quantum_ge", "p_g": 0.05, "p_b": 0.95, "alpha": 1.0},
            n=300,
            sweep={"parameter": "p_b", "values": [0.95]},
            estimators=["aux_lower"],
            auxiliaries=[{"kind": "bsc", "label": "bsc-ref", "p": 0.2}],
        )
        traj_path = tmp_path / "traj.txt"
        assert main(["sample", str(cfg_path), "-o", str(traj_path), "--seed", "9"]) == 0
        assert traj_path.exists()
        assert main(
            ["bound", str(cfg_path), "--trajectory", str(traj_path),
             "--out-dir", str(tmp_path / "b")]
        ) == 0
        header, rows = read_rows(tmp_path / "b" / "results.csv")
        assert header == list(CSV_COLUMNS)
        assert len(rows) == 1
        assert rows[0]["estimator_id"] == "aux_lower:bsc-ref"
        assert rows[0]["seed"] == "9"
        assert np.isfinite(float(rows[0]["ir_bits"]))

    def test_bound_rejects_corrupt_trajectory(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            estimators=["aux_lower"],
            auxiliaries=[{"kind": "bsc", "label": "a", "p": 0.2}],
        )
        bad = tmp_path / "bad.txt"
        bad.write_text("n=5 seed=1 gen=x\n0 1\n")
        assert main(["bound", str(cfg_path), "--trajectory", str(bad)]) == 3
        assert "error[TrajectoryFormatError]" in capsys.readouterr().err
        bad.write_text("n=1 seed=-4 gen=x\n0 1\n")
        assert main(["bound", str(cfg_path), "--trajectory", str(bad)]) == 3
        assert "error[TrajectoryFormatError]: line 1: seed" in capsys.readouterr().err

    def test_bound_rejects_out_of_alphabet_trajectory(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            estimators=["aux_lower"],
            auxiliaries=[{"kind": "bsc", "label": "a", "p": 0.2}],
        )
        bad = tmp_path / "bad.txt"
        bad.write_text("n=2 seed=1 gen=x\n0 1\n0 5\n")
        assert main(
            ["bound", str(cfg_path), "--trajectory", str(bad), "--out-dir", str(tmp_path)]
        ) == 3
        captured = capsys.readouterr()
        assert "aux_lower:a failed [SequenceError]" in captured.out
        assert "error[QchanrateError]" in captured.err

    def test_oracle_verb(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            channel={"kind": "quantum_ge", "p_g": 0.1, "p_b": 0.8, "alpha": 0.9},
            sweep={"parameter": "p_b", "values": [0.8]},
        )
        assert main(["oracle", str(path), "--oracle-n", "3"]) == 0
        assert "oracle cross-check passed" in capsys.readouterr().out
