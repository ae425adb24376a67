import concurrent.futures
import json
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qchanrate as qc
from qchanrate import cli, config, rates, runner
from qchanrate.bounds import lower_bound
from qchanrate.cli import main
from qchanrate.config import instantiate_channel, load_config
from qchanrate.errors import ConfigError, QchanrateError
from qchanrate.oracle import MAX_ORACLE_N
from qchanrate.rates import entropy_rate_estimates
from qchanrate.runner import CSV_COLUMNS, run_experiment
from qchanrate.sampling import Trajectory, load_trajectory, sample_trajectory

import models


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


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))

GE_PARAMS = {"p_g": 0.1, "p_b": 0.4, "transition": [[0.9, 0.1], [0.2, 0.8]]}

QUANTUM_GE = {"kind": "quantum_ge", "p_g": 0.05, "p_b": 0.95, "alpha": 1.0}

# At this n, write_config's sweep of four tasks runs as four chunks: a
# classical row costs 2 * n steps, so two tasks exceed runner.STACK_BUDGET.
# A pool starts.
MULTI_CHUNK_N = runner.STACK_BUDGET // 3


def dying_chunk(cfg, tasks):
    """Stands in for ``runner.evaluate_chunk``: the worker ends at once."""
    os._exit(1)


def failing_chunk(cfg, tasks):
    """Stands in for ``runner.evaluate_chunk``: a fault outside the
    package's error types."""
    raise RuntimeError("planted fault")


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
                r"^config: unknown keys \['burn_in'\]",
            ),
            ({"seeds": [0, 2**64]}, r"seeds\[1\]: .*2\^64"),
            ({"point_budget_seconds": 600}, r"unknown keys \['point_budget_seconds'\]"),
            (
                {"channel": dict(GE_PARAMS, kind="gilbert_elliott", initial=[0.2, 0.2]),
                 "sweep": {"parameter": "p_b", "values": [0.4]}},
                r"^channel: initial state pmf sums to one violated",
            ),
            (
                {"estimators": ["ir", "aux_lower"],
                 "auxiliaries": [dict(GE_PARAMS, kind="gilbert_elliott", label="g",
                                      initial=[0.2, 0.2])]},
                r"^auxiliaries\[g\]: initial state pmf sums to one violated",
            ),
            (
                {"input_law": [float("nan"), 1.0]},
                r"^input_law\[0\]: expected a finite number, got nan$",
            ),
            (
                {"channel": QUANTUM_GE,
                 "sweep": {"parameter": "alpha", "values": [float("nan"), 1.0]}},
                r"^sweep\.values\[0\]: expected a finite number, got nan$",
            ),
            (
                {"channel": QUANTUM_GE,
                 "sweep": {"parameter": "alpha", "values": [1.0, float("inf")]}},
                r"^sweep\.values\[1\]: expected a finite number, got inf$",
            ),
            (
                {"channel": dict(QUANTUM_GE, alpha=float("inf")),
                 "sweep": {"parameter": "p_b", "values": [0.95]}},
                r"^channel\.alpha: expected a finite number, got inf$",
            ),
            ({"channel": {"kind": "bsc", "p": 10**400}}, r"^channel\.p: expected a finite number"),
            # Entries of numeric arrays are read like scalar fields, each at
            # its own path.
            ({"input_law": [{}, 0.5]}, r"^input_law\[0\]: expected a number, got \{\}$"),
            ({"input_law": ["0.5", "0.5"]}, r"^input_law\[0\]: expected a number, got '0\.5'$"),
            ({"input_law": [True, False]}, r"^input_law\[0\]: expected a number, got True$"),
            ({"input_law": [None, 1.0]}, r"^input_law\[0\]: expected a number, got None$"),
            ({"input_law": [0.5, 10**400]}, r"^input_law\[1\]: expected a finite number"),
            ({"input_law": [0.5, [0.5]]}, r"^input_law: expected a rectangular array"),
            ({"input_law": {}}, r"^input_law: expected a nonempty list of probabilities$"),
            (
                {"channel": {"kind": "gilbert_elliott", "p_g": 0.1, "p_b": 0.4,
                             "transition": [["0.9", "0.1"], ["0.2", "0.8"]]},
                 "sweep": {"parameter": "p_b", "values": [0.4]}},
                r"^channel\.transition\[0\]\[0\]: expected a number, got '0\.9'$",
            ),
            (
                {"estimators": ["ir", "aux_lower"],
                 "auxiliaries": [dict(GE_PARAMS, kind="gilbert_elliott", label="g",
                                      transition=[[0.9, 0.1], [10**400, 0.8]])]},
                r"^auxiliaries\[g\]\.transition\[1\]\[0\]: expected a finite number",
            ),
            (
                {"channel": dict(QUANTUM_GE, hamiltonian=[[[1, 0], [0, 0]], [[0, 0]]]),
                 "sweep": {"parameter": "p_b", "values": [0.95]}},
                r"^channel\.hamiltonian: expected a rectangular array",
            ),
            (
                {"channel": dict(QUANTUM_GE, hamiltonian=[[[1, 0, 0], [0, 0, 0]]] * 2),
                 "sweep": {"parameter": "p_b", "values": [0.95]}},
                r"^channel\.hamiltonian: expected 2 rows of 2 \[re, im\] pairs, got shape "
                r"\(2, 2, 3\)$",
            ),
            # refused before a default state of that size is allocated
            *(
                ({"channel": {"kind": "custom_kraus", "state_dim": dim, "encodings": [],
                              "kraus": [], "measurements": []},
                  "sweep": {"parameter": "n", "values": [100]}},
                 rf"^channel\.state_dim: must lie in \[1, 64\], got {dim}$")
                for dim in (0, 65, 10**6)
            ),
            ({"seeds": []}, r"^seeds: expected a nonempty list of integers$"),
            ({"sweep": {"parameter": "p", "values": [0.1], "exclude": 0.1}},
             r"^sweep\.exclude: expected a list of values$"),
            # an integer beyond floats is named by its size, not printed
            (
                {"channel": dict(QUANTUM_GE, p_g=10**4000),
                 "sweep": {"parameter": "p_b", "values": [0.95]}},
                r"^channel\.p_g: expected a finite number, got an integer of 4001 digits$",
            ),
            # output names are plain file names in --out-dir that overwrite no other output
            *(
                ({"output": {key: name}}, rf"^output\.{key}: expected a plain file name, got ")
                for key, name in [
                    ("csv", "../escape.csv"), ("svg", "sub/plot.svg"), ("csv", "a\\b.csv"),
                    ("csv", ""), ("csv", "."), ("svg", ".."), ("csv", "a\x00b.csv"), ("svg", 5),
                ]
            ),
            ({"output": {"csv": "same.csv", "svg": "same.csv"}},
             r"^output\.svg: 'same\.csv' would overwrite the CSV or its errors file$"),
            ({"output": {"csv": "r.csv", "svg": "r.errors.csv"}},
             r"^output\.svg: 'r\.errors\.csv' would overwrite the CSV or its errors file$"),
            # a label goes unescaped into the CSV and the SVG legend
            *(
                ({"estimators": ["aux_lower"],
                  "auxiliaries": [{"kind": "bsc", "label": "ok", "p": 0.2},
                                  {"kind": "bsc", "label": label, "p": 0.2}]},
                 r"^auxiliaries\[1\]\.label: expected a nonempty printable label")
                for label in ["", "a,b", 'a"b', "a<b", "a>b", "a&b", "a\nb", 'a,b<c&"d\n']
            ),
            # an excluded value that is not swept would exclude nothing
            ({"sweep": {"parameter": "p", "values": [0.3, 0.6], "exclude": [0.7]}},
             r"^sweep\.exclude\[0\]: 0\.7 is not one of sweep\.values$"),
            ({"sweep": {"parameter": "p", "values": [0.3, 0.6], "exclude": [0.3, 0.06]}},
             r"^sweep\.exclude\[1\]: 0\.06 is not one of sweep\.values$"),
            ({"seeds": [0], "sweep": {"parameter": "n", "values": [100, 200], "exclude": [150]}},
             r"^sweep\.exclude\[0\]: 150\.0 is not one of sweep\.values$"),
            # numpy refuses a stream of 2^60 or more with a ValueError
            ({"n": 2**60}, rf"^n: n must lie in \[1, 2\^60 - 1\], got {2**60}$"),
            ({"sweep": {"parameter": "n", "values": [100, 2**60]}},
             rf"^sweep\.values\[1\]: n must lie in \[1, 2\^60 - 1\], got {2**60}$"),
            # a repeated estimator would write each of its rows twice
            *(
                ({"estimators": ids, "auxiliaries": [{"kind": "bsc", "label": "a", "p": 0.2}]},
                 rf"^estimators\[{at}\]: duplicate estimator '{ids[at]}'$")
                for ids, at in [(["ir", "ir", "aux_lower", "aux_lower"], 1),
                                (["ir", "aux_lower", "aux_lower"], 2)]
            ),
        ],
    )
    def test_rejections(self, tmp_path, overrides, fragment):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=fragment):
            load_config(path)

    def test_longest_length_parses(self, tmp_path):
        assert load_config(write_config(tmp_path, n=2**60 - 1)).n == 2**60 - 1

    def test_json_beyond_the_reader_exits_2(self, tmp_path, capsys):
        """An integer of more digits than Python converts, or lists nested
        deeper than the JSON reader recurses, is invalid JSON; an array
        nested deeper than its entries can be read is refused at its
        path.  Neither ends in a traceback."""
        path = tmp_path / "big.json"
        deep_law = write_config(tmp_path).read_text().replace(
            "[\n  0.5,\n  0.5\n ]", "[" * 900 + "0.5" + "]" * 900
        )
        for text, prefix in [
            ("[" + "1" * 5000 + "]", f"{path}: invalid JSON: "),
            ("[" * 100000 + "]" * 100000, f"{path}: invalid JSON: "),
            (deep_law, "input_law: expected a rectangular array"),
        ]:
            path.write_text(text)
            assert main(["validate", str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"error[ConfigError]: {prefix}")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_auxiliaries_are_built_once(self, tmp_path, monkeypatch):
        """``load_config`` builds each auxiliary once and keeps it: a sweep
        of two points and two seeds with two auxiliaries builds two."""
        built = []
        make = config.make_auxiliary

        def counting(model, label):
            built.append(label)
            return make(model, label)

        monkeypatch.setattr(config, "make_auxiliary", counting)
        cfg = load_config(write_config(
            tmp_path,
            estimators=["ir", "aux_lower"],
            auxiliaries=[{"kind": "bsc", "label": "a", "p": 0.2},
                         dict(GE_PARAMS, kind="gilbert_elliott", label="b")],
        ))
        out = run_experiment(cfg, tmp_path / "out", write_svg=False)
        assert len(out.rows) == 2 * 2 * 3 and not out.errors
        assert built == ["a", "b"]


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

    def test_stacked_rows_match_per_point_estimates(self, tmp_path, monkeypatch):
        """The sweep runs its recursions stacked across points, yet every
        row equals the per-point ``entropy_rate_estimates`` or
        ``lower_bound`` result on the same trajectory: a quantum channel
        (state size 4) with classical auxiliaries of state sizes 2 and 1,
        swept over n so that lengths differ, with two seeds.
        Rows match bit for bit, except the ``ir`` rows' ``hxy`` and
        ``ir``: the sweep takes their joint logs from the quantum sampler,
        so those match within 1e-12.  The sweep compiles no channel: its
        tasks run the config's ``model``, and write the bytes that a
        channel built and compiled for each task writes.  Split into
        several chunks, the sweep writes the same bytes."""
        cfg = load_config(
            write_config(
                tmp_path,
                channel={"kind": "quantum_ge", "p_g": 0.05, "p_b": 0.4, "alpha": 0.9},
                seeds=[0, 1],
                sweep={"parameter": "n", "values": [150, 200, 233]},
                estimators=["ir", "aux_lower"],
                auxiliaries=[
                    {"kind": "gilbert_elliott", "label": "ge", "p_g": 0.05, "p_b": 0.4,
                     "transition": [[0.9, 0.1], [0.2, 0.8]]},
                    {"kind": "bsc", "label": "bsc", "p": 0.2},
                ],
            )
        )
        compiled = []
        compile_channels = qc.channels.compile_channels
        monkeypatch.setattr(
            qc.channels, "compile_channels",
            lambda chs: compiled.append(chs) or compile_channels(chs),
        )
        whole = run_experiment(cfg, tmp_path / "whole", write_svg=False)
        assert not whole.errors and not compiled
        got = {(r.sweep_value, r.estimator_id, r.seed): r for r in whole.rows}
        assert len(got) == len(whole.rows) == 3 * 2 * 3
        q = cfg.input_law
        samples = []
        for n in (150, 200, 233):
            for seed in (0, 1):
                model = instantiate_channel(cfg.channel)
                traj = sample_trajectory(model, q, n, seed)
                samples.append((n, model, traj))
                r = entropy_rate_estimates(model, q, traj)
                row = got[(n, "ir", seed)]
                assert (row.n, row.hx_bits, row.hy_bits) == (n, r.hx, r.hy)
                assert abs(row.hxy_bits - r.hxy) <= 1e-12
                assert abs(row.ir_bits - r.ir) <= 1e-12
                for spec in cfg.auxiliaries:
                    b = lower_bound(traj, spec, q)
                    row = got[(n, f"aux_lower:{spec.label}", seed)]
                    assert (row.ir_bits, row.hx_bits, row.hy_bits, row.hxy_bits) == (
                        b.ir_lower, b.hx, b.aux_hy, b.aux_hxy
                    )
        rows, errors = runner.evaluate_samples(cfg, samples)
        tasks_csv = tmp_path / "tasks.csv"
        runner.write_results(tasks_csv, tmp_path / "tasks.errors.csv", "n", rows, errors)
        assert tasks_csv.read_bytes() == whole.csv_path.read_bytes()
        assert len(compiled) == len(samples)

        monkeypatch.setattr(runner, "STACK_BUDGET", 2500)
        tasks = [(v, s) for v in (150, 200, 233) for s in (0, 1)]
        assert [len(c) for c in runner._chunks(cfg, tasks)] == [3, 2, 1]
        split = run_experiment(cfg, tmp_path / "split", write_svg=False)
        assert split.csv_path.read_bytes() == whole.csv_path.read_bytes()

    def test_chunk_compiles_its_channels_together(self, tmp_path, monkeypatch):
        """A chunk builds the channel of each of its sweep values on its
        own, then compiles them all in one ``compile_channels`` call.  A
        value whose channel fails there (an evolution too large for a
        float leaves the unitary non-finite) records, on each of its rows,
        the error that building it alone raises, and the other values'
        rows are those of a sweep without it."""
        channel = dict(QUANTUM_GE, hamiltonian=[[[0.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]])

        def sweep(values):
            return load_config(write_config(
                tmp_path, channel=channel, seeds=[0, 1], n=300,
                sweep={"parameter": "alpha", "values": values},
            ))

        clean = run_experiment(sweep([0.5, 0.7]), tmp_path / "clean", write_svg=False)
        cfg = sweep([0.5, 1e308, 0.7])
        compiled = []
        compile_channels = qc.channels.compile_channels
        monkeypatch.setattr(
            qc.channels, "compile_channels",
            lambda chs: compiled.append(len(chs)) or compile_channels(chs),
        )
        out = run_experiment(cfg, tmp_path / "out", write_svg=False)
        with pytest.raises(ConfigError) as alone:
            instantiate_channel(cfg.channel, {"alpha": 1e308})
        # one stack of the three values, then, for its non-finite unitary,
        # each channel alone; then the one channel built alone above
        assert compiled == [3, 1, 1, 1, 1]
        assert out.rows == clean.rows
        assert str(alone.value) == "channel: unitary contains non-finite entries"
        assert [(e.sweep_value, e.seed, e.category, e.message) for e in out.errors] == [
            (1e308, seed, "ConfigError", str(alone.value)) for seed in (0, 1)
        ]

    def test_chunk_holds_little_per_budget_step(self, tmp_path):
        """A chunk holds its per-step data once.  On six two-qubit tasks of
        3000 steps with a Gilbert-Elliott auxiliary (three recursions per
        task, one of them joint), the traced peak of ``evaluate_chunk``
        is 33.6 bytes per budget step; it was 44.3 while each task held
        its per-step input and sampler log losses, each joint recursion
        its own step index, and the engine a padded copy of its stack's
        index and a code array per word level."""
        n, values = 3000, [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
        cfg = load_config(write_config(
            tmp_path, n=n, seeds=[0],
            channel={"kind": "quantum_ge_2qubit", "p_g": 0.05, "p_b": 0.95, "alpha": 1.2},
            sweep={"parameter": "p_b", "values": values},
            estimators=["ir", "aux_lower"],
            auxiliaries=[dict(GE_PARAMS, kind="gilbert_elliott", label="ge")],
        ))
        tasks = [(v, 0) for v in values]
        runner.evaluate_chunk(replace(cfg, n=100), tasks)  # first-call caches
        tracemalloc.start()
        try:
            rows, errors = runner.evaluate_chunk(cfg, tasks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 12 and not errors
        assert peak / (3 * n * len(tasks)) < 38.0

    @pytest.mark.parametrize(
        "channel, per_task, split",
        [(QUANTUM_GE, 5, [3, 3]), (dict(GE_PARAMS, kind="gilbert_elliott"), 6, [2, 2, 2])],
        ids=["quantum", "classical"],
    )
    def test_chunks_charge_the_recursions_rows_run(
        self, tmp_path, monkeypatch, channel, per_task, split
    ):
        """``_chunks`` charges each row the recursions it runs: one for a
        quantum ``ir`` row, two for a classical one and for each
        auxiliary (here of state sizes 2 and 1).  Each chunk's engine
        calls run exactly the steps of its tasks run alone, within
        ``STACK_BUDGET``, and the next chunk's first task would not fit.
        Charging two recursions per row, the quantum sweep would split
        as [2, 2, 2]."""
        cfg = load_config(
            write_config(
                tmp_path,
                channel=channel,
                n=300,
                sweep={"parameter": "p_b", "values": [0.3, 0.6, 0.9]},
                estimators=["ir", "aux_lower"],
                auxiliaries=[dict(GE_PARAMS, kind="gilbert_elliott", label="ge"),
                             {"kind": "bsc", "label": "bsc", "p": 0.2}],
            )
        )
        monkeypatch.setattr(runner, "STACK_BUDGET", 4500)
        steps = []
        engine = rates.stacked_forward_logs

        def spy(recs):
            steps[-1] += sum(rec.index.size for rec in recs)
            return engine(recs)

        monkeypatch.setattr(rates, "stacked_forward_logs", spy)

        def run(tasks):
            steps.append(0)
            rows, errors = runner.evaluate_chunk(cfg, tasks)
            assert len(rows) == 3 * len(tasks) and not errors
            return steps[-1]

        tasks = [(v, s) for v in (0.3, 0.6, 0.9) for s in (0, 1)]
        alone = {task: run([task]) for task in tasks}
        assert set(alone.values()) == {per_task * 300}
        chunks = runner._chunks(cfg, tasks)
        assert [len(c) for c in chunks] == split
        for chunk, after in zip(chunks, chunks[1:] + [None]):
            ran = run(chunk)
            assert ran == sum(alone[t] for t in chunk) <= runner.STACK_BUDGET
            if after:
                assert ran + alone[after[0]] > runner.STACK_BUDGET

    def test_quantum_ir_row_matches_estimates(self, tmp_path):
        """A quantum ``ir`` row takes its joint sum from the sampler's logs:
        ``hx`` and ``hy`` equal the per-point estimates bit for bit,
        ``hxy`` and ``ir`` within 1e-12.  Checked on the two-qubit
        channel, sampled in pair words, and on a random three-output
        ``custom_kraus`` one, sampled in one-step words."""

        def matrices(ms):
            return [[[[v.real, v.imag] for v in row] for row in m] for m in ms]

        ch = models.random_quantum_memory_channel(np.random.default_rng(5), state_dim=2, y_size=3)
        three_outputs = {
            "kind": "custom_kraus", "state_dim": 2,
            "encodings": matrices(ch.encodings), "kraus": matrices(ch.kraus),
            "measurements": matrices(ch.measurements),
            "unitary": matrices([ch.inter_use_unitary])[0],
            "initial_state": matrices([ch.initial_state])[0],
        }
        two_qubit = {"kind": "quantum_ge_2qubit", "p_g": 0.05, "p_b": 0.4, "alpha": 1.2}
        for channel, y_size in ((two_qubit, 2), (three_outputs, 3)):
            cfg = load_config(
                write_config(
                    tmp_path,
                    channel=channel,
                    n=1500,
                    seeds=[7],
                    sweep={"parameter": "n", "values": [1500]},
                )
            )
            (row,), errors = runner.evaluate_chunk(cfg, [(1500, 7)])
            assert not errors
            model = instantiate_channel(cfg.channel)
            assert model.y_size == y_size
            traj = sample_trajectory(model, cfg.input_law, 1500, 7)
            r = entropy_rate_estimates(model, cfg.input_law, traj)
            assert (row.hx_bits, row.hy_bits) == (r.hx, r.hy)
            assert abs(row.hxy_bits - r.hxy) <= 1e-12
            assert abs(row.ir_bits - r.ir) <= 1e-12

    def test_quantum_stacks_hold_only_output_recursions(self, tmp_path, monkeypatch):
        """A two-qubit ``ir`` sweep runs no joint recursion: every
        recursion in its engine stacks has one step matrix per output."""
        stacked = []
        engine = rates.stacked_forward_logs

        def spy(recs):
            stacked.extend(recs)
            return engine(recs)

        monkeypatch.setattr(rates, "stacked_forward_logs", spy)
        cfg = load_config(
            write_config(
                tmp_path,
                channel={"kind": "quantum_ge_2qubit", "p_g": 0.05, "p_b": 0.95, "alpha": 1.2},
                n=300,
                sweep={"parameter": "p_b", "values": [0.3, 0.9]},
            )
        )
        out = run_experiment(cfg, tmp_path / "out", write_svg=False)
        assert len(out.rows) == 4 and not out.errors
        assert len(stacked) == 4
        assert {(rec.closure.size, len(rec.form.mats)) for rec in stacked} == {(16, 2)}

    def test_zero_weight_pick_on_last_step(self, tmp_path, monkeypatch):
        """Kahan roundoff draws, on the last step, an output that has zero
        weight under the drawn input but not under the input marginal.  No
        later guard sees it, so the sampler returns; only the joint
        probability is zero.  The ``ir`` row fails with the joint
        recursion's category, message and step, and the auxiliary row is
        the per-point bound on that trajectory."""

        def matrix(m):
            return [[[float(v), 0.0] for v in row] for row in m]

        cfg = load_config(
            write_config(
                tmp_path,
                channel={
                    "kind": "custom_kraus",
                    "state_dim": 1,
                    "encodings": [matrix(np.diag([0.5, 0.0, 0.5])),
                                  matrix(np.diag([0.25, 0.5, 0.25]))],
                    "kraus": [matrix(np.eye(3))],
                    "measurements": [matrix(np.diag(np.eye(3)[y])) for y in range(3)],
                },
                n=60,
                seeds=[1],
                sweep={"parameter": "n", "values": [60]},
                estimators=["ir", "aux_lower"],
                auxiliaries=[{"kind": "custom_fsmc", "label": "flat",
                              "kernel": [[[[1 / 3] * 3], [[1 / 3] * 3]]], "initial": [1.0]}],
            )
        )
        assert qc.sample_input(cfg.input_law, 60, qc.make_rng(1))[-1] == 0
        draws = iter(range(60))
        bisect_right = qc.sampling.bisect_right
        monkeypatch.setattr(
            qc.sampling, "bisect_right",
            lambda cum, u: 1 if next(draws) == 59 else bisect_right(cum, u),
        )
        sample = runner.sample_trajectory
        sampled = []

        def keep(*args):
            sampled.append(sample(*args))
            return sampled[-1]

        monkeypatch.setattr(runner, "sample_trajectory", keep)
        out = run_experiment(cfg, tmp_path / "out", write_svg=False)
        (traj,) = sampled
        assert traj.y[-1] == 1
        zero = "observation at step 59 has zero probability under the model"
        assert [(e.estimator_id, e.category, e.message) for e in out.errors] == [
            ("ir", "ImpossibleObservationError", zero)
        ]
        with pytest.raises(QchanrateError, match=f"^{zero}$"):
            entropy_rate_estimates(instantiate_channel(cfg.channel), cfg.input_law, traj)
        b = lower_bound(traj, cfg.auxiliaries[0], cfg.input_law)
        (row,) = out.rows
        assert (row.estimator_id, row.ir_bits, row.hx_bits, row.hy_bits, row.hxy_bits) == (
            "aux_lower:flat", b.ir_lower, b.hx, b.aux_hy, b.aux_hxy
        )

    def test_planted_failures_stay_in_their_point(self, tmp_path, monkeypatch):
        """A noiseless channel with a third output it never produces.  At
        one point the trajectory is altered: step 5 flips its output (the
        joint recursion fails there) and step 30 shows the third output
        (the output-only recursion fails there).  That point's rows
        become errors with the per-point estimators' category and message,
        the output-only error first; the other points' rows do not
        change."""

        def matrix(m):
            return [[[float(v), 0.0] for v in row] for row in m]

        def unit(i):
            return np.diag(np.eye(3)[i])

        noiseless = {
            "kind": "custom_kraus",
            "state_dim": 1,
            "encodings": [matrix(unit(0)), matrix(unit(1))],
            "kraus": [matrix(np.eye(3))],
            "measurements": [matrix(unit(y)) for y in range(3)],
        }
        cfg = load_config(
            write_config(
                tmp_path,
                channel=noiseless,
                seeds=[0, 1],
                sweep={"parameter": "n", "values": [60, 80, 100]},
                estimators=["ir", "aux_lower"],
                auxiliaries=[dict(noiseless, label="noiseless")],
            )
        )
        clean = run_experiment(cfg, tmp_path / "clean", write_svg=False)
        assert not clean.errors

        sample = runner.sample_trajectory
        altered = []

        def planted(model, q, n, seed):
            traj = sample(model, q, n, seed)
            if (n, seed) == (80, 1):
                y = traj.y.copy()
                y[5] = 1 - traj.x[5]
                y[30] = 2
                traj = Trajectory(traj.x, y, seed)
                altered.append(traj)
            return traj

        monkeypatch.setattr(runner, "sample_trajectory", planted)
        out = run_experiment(cfg, tmp_path / "planted", write_svg=False)
        assert out.rows == tuple(
            r for r in clean.rows if (r.sweep_value, r.seed) != (80.0, 1)
        )
        zero = "observation at step 30 has zero probability under the model"
        assert {e.estimator_id: (e.category, e.message) for e in out.errors} == {
            "ir": ("ImpossibleObservationError", zero),
            "aux_lower:noiseless": (
                "AuxiliaryLikelihoodError",
                f"auxiliary model 'noiseless' assigned zero likelihood to the observed "
                f"data ({zero}); smooth it first, e.g. via make_auxiliary, which floors "
                f"classical kernels at 1e-12",
            ),
        }
        assert {(e.sweep_value, e.seed) for e in out.errors} == {(80.0, 1)}

        # The per-point estimators raise the same errors on that trajectory.
        (traj,) = altered
        model = instantiate_channel(cfg.channel)
        raised = {}
        for est_id, call in [
            ("ir", lambda: entropy_rate_estimates(model, cfg.input_law, traj)),
            *(
                (f"aux_lower:{spec.label}",
                 lambda spec=spec: lower_bound(traj, spec, cfg.input_law))
                for spec in cfg.auxiliaries
            ),
        ]:
            with pytest.raises(QchanrateError) as info:
                call()
            raised[est_id] = (type(info.value).__name__, str(info.value))
        assert raised == {e.estimator_id: (e.category, e.message) for e in out.errors}

    def test_svg_is_wellformed(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        out = run_experiment(cfg, tmp_path / "out")
        tree = ET.parse(out.svg_path)
        tags = {el.tag.split("}")[-1] for el in tree.iter()}
        assert "polyline" in tags and "text" in tags

    def test_worker_pool_matches_serial(self, tmp_path):
        """Two workers write the serial run's bytes; the config's built
        auxiliary travels to them with it."""
        path = write_config(
            tmp_path,
            n=MULTI_CHUNK_N,
            estimators=["ir", "aux_lower"],
            auxiliaries=[dict(GE_PARAMS, kind="gilbert_elliott", label="ge")],
        )
        cfg = load_config(path)
        assert len(runner._chunks(cfg, [(v, s) for v in (0.1, 0.3) for s in (0, 1)])) == 4
        serial = run_experiment(cfg, tmp_path / "s", write_svg=False)
        pooled = run_experiment(cfg, tmp_path / "p", write_svg=False, workers=2)
        assert len(serial.rows) == 8 and not serial.errors
        assert serial.csv_path.read_bytes() == pooled.csv_path.read_bytes()

    @pytest.mark.parametrize("kind", ["quantum", "classical"])
    def test_budgets_leave_output_bytes_alone(self, tmp_path, monkeypatch, kind):
        """The budgets that only bound memory, a chunk's recursion steps and
        the entries of the engine's block products, do not move a CSV byte,
        nor does the worker count.  (A monkeypatch does not reach spawned
        workers, so the budgets are varied in one process.)"""
        sweep = {"parameter": "p_b", "values": [0.1, 0.5, 0.9]}
        if kind == "quantum":
            overrides = dict(
                channel=QUANTUM_GE, sweep=sweep, estimators=["ir", "aux_lower"],
                auxiliaries=[{"kind": "bsc", "label": "bsc", "p": 0.25},
                             dict(GE_PARAMS, kind="gilbert_elliott", label="ge")],
            )
        else:
            overrides = dict(channel=dict(GE_PARAMS, kind="gilbert_elliott"), sweep=sweep)
        # a task runs five recursions on the quantum channel, two on the
        # classical one: a chunk holds four of the six tasks
        per_task = 5 if kind == "quantum" else 2
        cfg = load_config(write_config(
            tmp_path, n=runner.STACK_BUDGET // (4 * per_task), **overrides
        ))
        tasks = [(v, s) for v in sweep["values"] for s in (0, 1)]
        assert [len(chunk) for chunk in runner._chunks(cfg, tasks)] == [4, 2]

        def csv_bytes(label, workers=1):
            out = run_experiment(cfg, tmp_path / label, write_svg=False, workers=workers)
            assert not out.errors
            return out.csv_path.read_bytes()

        default = csv_bytes("default")
        runs = {"two-workers": csv_bytes("two-workers", workers=2)}
        for module, name, values in ((runner, "STACK_BUDGET", (1, 2**24)),
                                     (rates, "PRODUCT_BUDGET", (1, 2**6))):
            for value in values:
                monkeypatch.setattr(module, name, value)
                runs[f"{name}-{value}"] = csv_bytes(f"{name}-{value}")
            monkeypatch.undo()
        assert [label for label, got in runs.items() if got != default] == []

    def test_one_chunk_runs_without_a_pool(self, tmp_path, monkeypatch):
        """A sweep of one chunk runs in this process whatever the worker
        count: no process pool is started."""
        pools = []
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", lambda **kw: pools.append(kw)
        )
        cfg = load_config(write_config(tmp_path))
        assert len(runner._chunks(cfg, [(v, s) for v in (0.1, 0.3) for s in (0, 1)])) == 1
        out = run_experiment(cfg, tmp_path / "out", write_svg=False, workers=4)
        assert len(out.rows) == 4 and not pools

    def test_serial_run_loads_no_process_pool(self, tmp_path):
        """A serial sweep, run in a fresh interpreter, leaves
        ``multiprocessing`` unloaded: only a run with a pool imports it."""
        cfg_path, out_dir = write_config(tmp_path), tmp_path / "out"
        code = (
            "import sys\n"
            "from qchanrate.config import load_config\n"
            "from qchanrate.runner import run_experiment\n"
            f"out = run_experiment(load_config({str(cfg_path)!r}), {str(out_dir)!r})\n"
            "print(len(out.rows), 'multiprocessing' in sys.modules)\n"
        )
        src = Path(qc.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        got = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert got.stdout == "4 False\n"

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

    def test_validate_rejects_non_finite_sweep_value(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            channel=QUANTUM_GE,
            sweep={"parameter": "alpha", "values": [float("nan"), 1.0]},
        )
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error[ConfigError]: sweep.values[0]: expected a finite number, got nan\n"
        )
        assert "configuration is valid" not in captured.out

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=[p.stem for p in SHIPPED_CONFIGS])
    def test_shipped_config_validates_and_passes_oracle(self, path, capsys):
        assert main(["validate", str(path)]) == 0
        assert main(["oracle", str(path), "--oracle-n", "3"]) == 0
        assert capsys.readouterr().out.endswith("oracle cross-check passed\n")

    def test_validate_rejects_a_non_unitary_inter_use_map(self, tmp_path, capsys):
        """The quantum Gilbert-Elliott channel as ``custom_kraus`` with the
        inter-use map [[1, 1e-6], [0, 1]] fails that check by name (were
        the check gone, trace consistency would fail instead)."""
        def cmat(a):
            return [[[z.real, z.imag] for z in row] for row in np.asarray(a, dtype=complex)]

        raw = qc.build_quantum_gilbert_elliott(0.05, 0.95, alpha=1.0)
        path = write_config(
            tmp_path,
            channel={
                "kind": "custom_kraus",
                "state_dim": 2,
                "encodings": [cmat(e) for e in raw.encodings],
                "kraus": [cmat(k) for k in raw.kraus],
                "measurements": [cmat(m) for m in raw.measurements],
                "unitary": cmat([[1.0, 1e-6], [0.0, 1.0]]),
            },
            sweep={"parameter": "n", "values": [100]},
        )
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error[ConfigError]: channel: inter-use unitary violated (witness 1.000e-06)"
        )

    def test_validate_rejects_invalid_initial_pmf(self, tmp_path, capsys):
        """A Gilbert-Elliott initial pmf that does not sum to one fails
        validation instead of passing with a failed check printed."""
        path = write_config(
            tmp_path,
            channel=dict(GE_PARAMS, kind="gilbert_elliott", initial=[0.2, 0.2]),
            sweep={"parameter": "p_b", "values": [0.4]},
        )
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error[ConfigError]: channel: initial state pmf sums to one violated"
        )
        assert "configuration is valid" not in captured.out

    def test_dead_worker_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "evaluate_chunk", dying_chunk)
        path = write_config(tmp_path, n=MULTI_CHUNK_N)
        out_dir = tmp_path / "o"
        assert main(["estimate", str(path), "--threads", "2", "--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert "error[QchanrateError]: a worker process died before returning chunk 1 of 4" in err
        assert "Traceback" not in err
        assert not (out_dir / "results.csv").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_unexpected_chunk_error_exits_3(self, tmp_path, capsys, monkeypatch, threads):
        """An exception outside the package's error types, raised in this
        process or in a worker, ends the run with exit 3 naming the chunk
        and its sweep values, and no traceback."""
        monkeypatch.setattr(runner, "evaluate_chunk", failing_chunk)
        path = write_config(tmp_path, n=MULTI_CHUNK_N)
        out_dir = tmp_path / "o"
        assert main(["estimate", str(path), "--threads", threads, "--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err == (
            "error[QchanrateError]: chunk 1 of 4 (p 0.1 to 0.1) failed with RuntimeError: "
            "planted fault; no results were written\n"
        )
        assert not (out_dir / "results.csv").exists()

    def test_evolution_beyond_float_range_fails_its_point_only(self, tmp_path, capsys):
        """An ``alpha`` whose phases overflow a float leaves the unitary
        non-finite, and the compile check fails that point alone, with no
        ``RuntimeWarning`` (an error under this suite's filter), so the
        other point's row is written."""
        channel = dict(QUANTUM_GE, hamiltonian=[[[0.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]])
        path = write_config(
            tmp_path, channel=channel, seeds=[0], n=300,
            sweep={"parameter": "alpha", "values": [0.5, 1e308]},
        )
        out_dir = tmp_path / "o"
        assert main(["estimate", str(path), "--no-svg", "--out-dir", str(out_dir)]) == 0
        assert "Warning" not in capsys.readouterr().err
        _, rows = read_rows(out_dir / "results.csv")
        assert [(row["sweep_value"], row["estimator_id"]) for row in rows] == [("0.5", "ir")]
        _, errors = read_rows(out_dir / "results.errors.csv")
        assert [(e["sweep_value"], e["category"], e["message"]) for e in errors] == [
            ("1e+308", "ConfigError", "channel: unitary contains non-finite entries")
        ]

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

    def test_empty_seeds_override_exits_2(self, tmp_path, capsys):
        """An empty ``--seeds`` is refused, not read as no override."""
        path = write_config(tmp_path)
        out_dir = tmp_path / "o"
        assert main(["estimate", str(path), "--seeds", "", "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("error[ConfigError]: --seeds: ")
        assert not out_dir.exists()

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

    def test_bound_trajectory_rows_equal_lower_bound(self, tmp_path, monkeypatch):
        """``bound --trajectory`` runs the sweep's stacked row evaluator,
        yet each auxiliary's row equals ``lower_bound`` on the loaded
        trajectory bit for bit: two Gilbert-Elliott auxiliaries whose four
        recursions run as one engine stack, and a quantum auxiliary."""
        cfg_path = write_config(
            tmp_path,
            channel={"kind": "quantum_ge", "p_g": 0.05, "p_b": 0.95, "alpha": 1.0},
            n=300,
            sweep={"parameter": "p_b", "values": [0.95]},
            estimators=["aux_lower"],
            auxiliaries=[
                dict(GE_PARAMS, kind="gilbert_elliott", label="ge-a"),
                {"kind": "gilbert_elliott", "label": "ge-b", "p_g": 0.02, "p_b": 0.9,
                 "transition": [[0.95, 0.05], [0.1, 0.9]]},
                {"kind": "quantum_ge", "label": "q", "p_g": 0.05, "p_b": 0.8, "alpha": 0.7},
            ],
        )
        traj_path = tmp_path / "traj.txt"
        assert main(["sample", str(cfg_path), "-o", str(traj_path), "--seed", "4"]) == 0
        stacked = rates._stack_logs
        stack_sizes = []

        def spy(recs, m):
            stack_sizes.append(len(recs))
            return stacked(recs, m)

        monkeypatch.setattr(rates, "_stack_logs", spy)
        out_dir = tmp_path / "b"
        assert main(
            ["bound", str(cfg_path), "--trajectory", str(traj_path), "--out-dir", str(out_dir)]
        ) == 0
        assert sorted(stack_sizes) == [2, 4]
        monkeypatch.undo()
        _, rows = read_rows(out_dir / "results.csv")
        got = {row["estimator_id"]: row for row in rows}
        cfg = load_config(cfg_path)
        traj = load_trajectory(traj_path)
        assert len(got) == len(rows) == 3
        for spec in cfg.auxiliaries:
            b = lower_bound(traj, spec, cfg.input_law)
            row = got[f"aux_lower:{spec.label}"]
            assert (row["sweep_param"], row["sweep_value"], row["seed"], row["n"]) == (
                "external", "0.0", "4", "300"
            )
            assert [float(row[k]) for k in ("ir_bits", "hx_bits", "hy_bits", "hxy_bits")] == [
                b.ir_lower, b.hx, b.aux_hy, b.aux_hxy
            ]

    def test_timings_flag_is_a_usage_error(self, tmp_path, capsys):
        """Result files hold no measured times, so neither ``estimate`` nor
        ``bound`` takes ``--timings``; argparse refuses it before any output
        is written."""
        path = write_config(
            tmp_path, estimators=["aux_lower"],
            auxiliaries=[{"kind": "bsc", "label": "a", "p": 0.2}],
        )
        out_dir = tmp_path / "o"
        for verb in ("estimate", "bound"):
            with pytest.raises(SystemExit) as exc:
                main([verb, str(path), "--out-dir", str(out_dir), "--timings"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --timings" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--n", "7"), ("--seeds", "3"), ("--threads", "4"), ("--seeds", "")]
    )
    def test_bound_trajectory_rejects_run_flags(self, tmp_path, capsys, flag, value):
        """The trajectory file fixes n and the seed and runs in this
        process, so ``--n``, ``--seeds`` (an empty one too) and
        ``--threads`` are refused before the file is read or any output is
        written."""
        cfg_path = write_config(
            tmp_path,
            estimators=["aux_lower"],
            auxiliaries=[{"kind": "bsc", "label": "a", "p": 0.2}],
        )
        out_dir = tmp_path / "o"
        argv = ["bound", str(cfg_path), "--trajectory", str(tmp_path / "absent.txt"),
                "--out-dir", str(out_dir), flag, value]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error[ConfigError]: {flag}: does not apply with --trajectory"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("extra, flag", [(["--n", "50"], "--n"), ([], "--trajectory")])
    def test_bound_empty_trajectory_is_not_ignored(self, tmp_path, capsys, extra, flag):
        """``--trajectory ""`` names a file like any other value: it is not
        read as no trajectory, so no simulated sweep runs."""
        cfg_path = write_config(
            tmp_path,
            estimators=["aux_lower"],
            auxiliaries=[{"kind": "bsc", "label": "a", "p": 0.2}],
        )
        out_dir = tmp_path / "o"
        argv = ["bound", str(cfg_path), "--trajectory", "", "--out-dir", str(out_dir)]
        assert main(argv + extra) == 2
        assert capsys.readouterr().err.startswith(f"error[ConfigError]: {flag}: ")
        assert not (out_dir / "results.csv").exists()

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
        for text, prefix in [
            ("n=0 seed=1 gen=x\n", "line 1: n must be positive"),
            ("n=2 seed=1 gen=x\n0 1\n-1 0\n", "line 3: negative symbol"),
            (f"n=1 seed={2**64} gen=x\n0 1\n", "line 1: seed must lie in [0, 2^64 - 1]"),
            ("n=1 seed=1 gen=x\n1000000000000000000000000000000 0\n",
             "line 2: symbol beyond 2^63 - 1"),
        ]:
            bad.write_text(text)
            assert main(["bound", str(cfg_path), "--trajectory", str(bad)]) == 3
            assert f"error[TrajectoryFormatError]: {prefix}" in capsys.readouterr().err

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
        # the failure is also recorded next to the header-only results file
        with open(tmp_path / "results.errors.csv", encoding="utf-8") as fh:
            header, *rows = fh.read().splitlines()
        assert header == ",".join(runner.ERROR_COLUMNS)
        assert len(rows) == 1
        assert rows[0].startswith("external,0.0,aux_lower:a,1,SequenceError,")

    @pytest.mark.parametrize(
        "case",
        ["missing-trajectory", "non-ascii-trajectory", "config-is-directory",
         "non-utf8-config", "out-dir-is-file", "output-dir-missing"],
    )
    def test_unusable_paths_exit_without_traceback(self, tmp_path, capsys, case):
        """An unreadable input path or unusable output path is a
        configuration error naming it, a bad trajectory byte a format error
        at its line: one ``error[...]`` line, no traceback."""
        cfg_path = write_config(
            tmp_path,
            estimators=["aux_lower"],
            auxiliaries=[{"kind": "bsc", "label": "a", "p": 0.2}],
        )
        traj = tmp_path / "traj.txt"
        traj.write_bytes(b"n=2 seed=1 gen=x\n0 1\n0 \xb91\n")
        bad_cfg = tmp_path / "latin1.json"
        bad_cfg.write_bytes(cfg_path.read_bytes().replace(b'"a"', b'"\xe9"'))
        argv, code, prefix = {
            "missing-trajectory": (
                ["bound", str(cfg_path), "--trajectory", str(tmp_path / "no.txt")],
                2, "error[ConfigError]: --trajectory: cannot read",
            ),
            "non-ascii-trajectory": (
                ["bound", str(cfg_path), "--trajectory", str(traj)],
                3, "error[TrajectoryFormatError]: line 3: non-ASCII byte",
            ),
            "config-is-directory": (
                ["validate", str(tmp_path)],
                2, f"error[ConfigError]: {tmp_path}: cannot read file",
            ),
            "non-utf8-config": (
                ["validate", str(bad_cfg)],
                2, f"error[ConfigError]: {bad_cfg}: not UTF-8 text",
            ),
            "out-dir-is-file": (
                ["estimate", str(cfg_path), "--out-dir", str(cfg_path)],
                2, "error[ConfigError]: --out-dir: cannot create",
            ),
            "output-dir-missing": (
                ["sample", str(cfg_path), "-o", str(tmp_path / "no" / "t.txt")],
                2, "error[ConfigError]: --output: cannot write",
            ),
        }[case]
        assert main(argv) == code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(prefix)

    @pytest.mark.parametrize(
        "verb, blocked",
        [("estimate", "results.csv"), ("estimate", "results.svg"),
         ("estimate", "results.errors.csv"), ("bound", "results.csv"),
         ("bound", "results.errors.csv")],
        ids=["estimate-csv", "estimate-svg", "estimate-errors-csv", "bound-trajectory-csv",
             "bound-trajectory-errors-csv"],
    )
    def test_unwritable_result_file_exits_2(self, tmp_path, capsys, monkeypatch, verb, blocked):
        """A result file that cannot be written (here a directory of that
        name) is a configuration error naming it, found before any
        trajectory is sampled."""
        cfg_path = write_config(
            tmp_path, n=100, auxiliaries=[{"kind": "bsc", "label": "a", "p": 0.2}]
        )
        out_dir = tmp_path / "out"
        (out_dir / blocked).mkdir(parents=True)
        argv = [verb, str(cfg_path), "--out-dir", str(out_dir)]
        if verb == "bound":
            traj = tmp_path / "traj.txt"
            assert main(["sample", str(cfg_path), "-o", str(traj)]) == 0
            capsys.readouterr()
            argv += ["--trajectory", str(traj)]
        sampled = []
        monkeypatch.setattr(runner, "sample_trajectory", lambda *args: sampled.append(args))
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error[ConfigError]: {out_dir / blocked}: cannot write file: ")
        assert not sampled

    @pytest.mark.parametrize("verb", ["estimate", "sample", "bound-trajectory"])
    def test_overlong_output_name_exits_2(self, tmp_path, capsys, verb):
        """An output name longer than the file system allows cannot even be
        probed; it is a configuration error naming it, not a traceback."""
        long_name = "r" * 300
        cfg_path = write_config(
            tmp_path, n=100, output={"csv": long_name + ".csv"},
            auxiliaries=[{"kind": "bsc", "label": "a", "p": 0.2}],
        )
        traj = tmp_path / "traj.txt"
        assert main(["sample", str(cfg_path), "-o", str(traj)]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "out"
        csv_path = out_dir / (long_name + ".csv")
        long_traj = tmp_path / (long_name + ".txt")
        argv, prefix = {
            "estimate": (["estimate", str(cfg_path), "--out-dir", str(out_dir)],
                         f"{csv_path}: cannot write file"),
            "sample": (["sample", str(cfg_path), "-o", str(long_traj)],
                       f"--output: cannot write {long_traj}"),
            "bound-trajectory": (
                ["bound", str(cfg_path), "--out-dir", str(out_dir), "--trajectory", str(traj)],
                f"{csv_path}: cannot write file",
            ),
        }[verb]
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error[ConfigError]: {prefix}: File name too long"]

    def test_sample_checks_output_before_sampling(self, tmp_path, capsys, monkeypatch):
        """An output path in a missing directory exits 2 before the sampler
        is called."""
        cfg_path = write_config(tmp_path)
        sampled = []
        monkeypatch.setattr(cli, "sample_trajectory", lambda *args: sampled.append(args))
        out = tmp_path / "no" / "t.txt"
        assert main(["sample", str(cfg_path), "-o", str(out), "--n", "1000000"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error[ConfigError]: --output: cannot write {out}: No such file or directory"]
        assert not sampled

    def test_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch):
        """Running out of memory is one error line with exit 3, not a
        traceback (the sampler's failure is planted, nothing is allocated)."""
        cfg_path = write_config(tmp_path)

        def exhausted(*args):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli, "sample_trajectory", exhausted)
        assert main(["sample", str(cfg_path), "-o", str(tmp_path / "t.txt")]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error[MemoryError]: out of memory: Unable to allocate 745. GiB for an array"]
        assert not (tmp_path / "t.txt").exists()

    @pytest.mark.parametrize("verb", ["estimate", "bound"])
    def test_n_override_on_n_sweep_exits_2(self, tmp_path, capsys, verb):
        """On a sweep over n, whose values set each point's length, ``--n``
        is refused before anything is written."""
        path = write_config(
            tmp_path,
            sweep={"parameter": "n", "values": [200, 300]},
            estimators=["ir", "aux_lower"],
            auxiliaries=[{"kind": "bsc", "label": "a", "p": 0.2}],
        )
        out_dir = tmp_path / "o"
        assert main([verb, str(path), "--n", "1000", "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            "error[ConfigError]: --n: does not apply to a sweep over n, "
            "whose values set each point's length\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu_count"])
    def test_threads_default_to_usable_cpus(self, tmp_path, monkeypatch, affinity):
        """Without ``--threads`` a sweep may use one worker per CPU this
        process may use (``os.cpu_count()`` where CPU affinity is not
        available); an explicit ``--threads`` wins."""
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        expected = 2 if affinity else 3
        workers = []
        chunk_results = runner._chunk_results

        def spy(cfg, chunks, count):
            workers.append(count)
            return chunk_results(cfg, chunks, count)

        monkeypatch.setattr(runner, "_chunk_results", spy)
        path = write_config(tmp_path)
        assert main(["estimate", str(path), "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["estimate", str(path), "--threads", "1", "--out-dir", str(tmp_path / "b")]) == 0
        assert workers == [expected, 1]
        assert (tmp_path / "a" / "results.csv").read_bytes() == (
            tmp_path / "b" / "results.csv"
        ).read_bytes()

    @pytest.mark.parametrize("verb, dest", [("estimate", "--out-dir"), ("sample", "-o")])
    def test_n_override_from_2_60_exits_2(self, tmp_path, capsys, verb, dest):
        """numpy refuses a stream of 2^60 or more with a ValueError, not a
        MemoryError; config lengths are checked in ``test_rejections``."""
        out = tmp_path / "o"
        assert main([verb, str(write_config(tmp_path)), dest, str(out), "--n", str(2**60)]) == 2
        assert capsys.readouterr().err == (
            f"error[ConfigError]: --n: n must lie in [1, 2^60 - 1], got {2**60}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, threads):
        path = write_config(tmp_path)
        out_dir = tmp_path / "o"
        assert main(["estimate", str(path), "--threads", threads, "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error[ConfigError]: --threads: must be >= 1, got {threads}\n"
        assert not out_dir.exists()

    def test_oracle_verb(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            channel={"kind": "quantum_ge", "p_g": 0.1, "p_b": 0.8, "alpha": 0.9},
            sweep={"parameter": "p_b", "values": [0.8]},
        )
        assert main(["oracle", str(path), "--oracle-n", "3"]) == 0
        assert "oracle cross-check passed" in capsys.readouterr().out

    def test_oracle_fails_on_a_perturbed_recursion(self, tmp_path, capsys, monkeypatch):
        """Logs 1e-6 off per step put log p(y) beyond ORACLE_CHECK_TOL."""
        stacked = rates.stacked_forward_logs
        monkeypatch.setattr(
            rates, "stacked_forward_logs", lambda recs: [logs + 1e-6 for logs in stacked(recs)]
        )
        assert main(["oracle", str(write_config(tmp_path))]) == 3
        assert "oracle cross-check failed" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, MAX_ORACLE_N + 1])
    def test_oracle_n_out_of_range_exits_2(self, tmp_path, capsys, n):
        """An ``--oracle-n`` outside [1, MAX_ORACLE_N] is a flag error, like
        every other out-of-range flag; only a joint table beyond the term
        budget at an allowed length is a runtime failure."""
        path = write_config(tmp_path)
        assert main(["oracle", str(path), "--oracle-n", str(n)]) == 2
        assert capsys.readouterr().err == (
            f"error[ConfigError]: --oracle-n: must lie in [1, {MAX_ORACLE_N}], got {n}\n"
        )
