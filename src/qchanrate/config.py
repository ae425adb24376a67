"""Experiment configuration: a single JSON file describing channel,
input law, sweep, estimators and outputs.

Matrices are written as row-major lists of rows whose entries are
``[re, im]`` pairs, so custom interaction operators can be entered
exactly.  Every validation failure reports the offending field path
(e.g. ``channel.kraus[1]``); model-level failures carry the violated
condition name and its numeric witness.  ``NaN`` and ``Infinity``, which
the JSON reader accepts, are rejected wherever a number is expected.

Example::

    {
      "channel": {"kind": "quantum_ge", "p_g": 0.05, "p_b": 0.95, "alpha": 1.0},
      "input_law": [0.5, 0.5],
      "n": 100000,
      "seeds": [1],
      "sweep": {"parameter": "p_b", "values": [0.0, 0.25, 0.5, 0.75, 1.0]},
      "estimators": ["ir"],
      "output": {"csv": "rates.csv", "svg": "rates.svg"}
    }
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import PurePath

import numpy as np

from . import channels
from .bounds import AuxiliaryModel, make_auxiliary
from .channels import InputLaw
from .errors import ConfigError, QchanrateError
from .linalg import MAX_DIM
from .sampling import MAX_SEED

# Channel parameters a sweep may vary, per kind; "n" is sweepable always.
SWEEPABLE = {
    "bsc": {"p"},
    "gilbert_elliott": {"p_g", "p_b"},
    "quantum_ge": {"p_g", "p_b", "alpha"},
    "quantum_ge_2qubit": {"p_g", "p_b", "alpha"},
    "custom_kraus": set(),
    "custom_fsmc": set(),
}
CHANNEL_KINDS = tuple(SWEEPABLE)

ESTIMATOR_IDS = ("ir", "aux_lower")

MAX_LENGTH = 2**60 - 1


@dataclass(frozen=True)
class ChannelSpec:
    kind: str
    params: dict


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple
    exclude: tuple = ()

    def active_values(self) -> tuple:
        return tuple(v for v in self.values if v not in self.exclude)


@dataclass(frozen=True)
class ExperimentConfig:
    channel: ChannelSpec
    model: object  # the channel built from ``channel``, sweep overrides not applied
    input_law: InputLaw
    n: int
    seeds: tuple[int, ...]
    sweep: SweepSpec
    estimators: tuple[str, ...]
    auxiliaries: tuple[AuxiliaryModel, ...] = ()
    csv_name: str = "results.csv"
    svg_name: str = "results.svg"


def _fail(path: str, msg: str):
    raise ConfigError(path, msg)


def _expect_dict(node, path: str, allowed: set[str]) -> dict:
    if not isinstance(node, dict):
        _fail(path, f"expected an object, got {type(node).__name__}")
    unknown = set(node) - allowed
    if unknown:
        _fail(path, f"unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")
    return node


def _number(node, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        _fail(path, f"expected a number, got {node!r}")
    if not abs(node) <= sys.float_info.max:  # NaN, an infinity, or an int beyond floats
        got = f"an integer of {len(str(abs(node)))} digits" if isinstance(node, int) else repr(node)
        _fail(path, f"expected a finite number, got {got}")
    return float(node)


def _integer(node, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        _fail(path, f"expected an integer, got {node!r}")
    return node


def _list(node, path: str, what: str, nonempty: bool = True) -> list:
    if not isinstance(node, list) or (nonempty and not node):
        _fail(path, f"expected a {'nonempty ' if nonempty else ''}list of {what}")
    return node


def _real_array(node, path: str) -> np.ndarray:
    """Real array from nested lists, each entry read by ``_number`` at its
    own path (e.g. ``channel.transition[1][0]``)."""

    def read(node, path):
        if isinstance(node, list):
            return [read(v, f"{path}[{i}]") for i, v in enumerate(node)]
        return _number(node, path)

    try:
        return np.array(read(node, path), dtype=float)
    except (ValueError, RecursionError):
        _fail(path, "expected a rectangular array, got ragged or too deeply nested lists")


def parse_complex_matrix(node, path: str) -> np.ndarray:
    """Square matrix from row-major rows of [re, im] entry pairs."""
    dim = len(_list(node, path, "rows"))
    pairs = _real_array(node, path)
    if pairs.shape != (dim, dim, 2):
        _fail(path, f"expected {dim} rows of {dim} [re, im] pairs, got shape {pairs.shape}")
    return pairs.view(complex)[..., 0]


def parse_length(node, path: str) -> int:
    """A sequence length in [1, 2^60 - 1]: from 2^60 on numpy refuses
    the stream's array outright (``ValueError``), not by running out of
    memory."""
    n = _integer(node, path)
    if not 1 <= n <= MAX_LENGTH:
        _fail(path, f"n must lie in [1, 2^60 - 1], got {n}")
    return n


def parse_seeds(node, path: str) -> tuple[int, ...]:
    """Distinct seeds in [0, 2^64 - 1] from a nonempty list of integers."""
    seeds = tuple(_integer(s, f"{path}[{i}]") for i, s in enumerate(_list(node, path, "integers")))
    for i, s in enumerate(seeds):
        if not 0 <= s <= MAX_SEED:
            _fail(f"{path}[{i}]", f"seeds must lie in [0, 2^64 - 1], got {s}")
    if len(set(seeds)) != len(seeds):
        _fail(path, "seeds must be distinct")
    return seeds


def _parse_channel(node, path: str) -> ChannelSpec:
    if not isinstance(node, dict):
        _fail(path, "expected an object with a 'kind' key")
    kind = node.get("kind")
    if kind not in CHANNEL_KINDS:
        _fail(f"{path}.kind", f"expected one of {CHANNEL_KINDS}, got {kind!r}")
    params = {k: v for k, v in node.items() if k != "kind"}
    return ChannelSpec(kind, params)


def _matrix_list(node, path: str) -> np.ndarray:
    """A stack of square complex matrices, each read at ``path[i]``."""
    node = _list(node, path, "matrices")
    return np.stack([parse_complex_matrix(m, f"{path}[{i}]") for i, m in enumerate(node)])


def _build_raw(kind: str, params: dict, path: str):
    """A channel model from spec params, validated, except that a quantum
    one is left to compile."""
    known = dict(params)

    def take(name, read, *default):
        """Pop parameter ``name`` and read it at ``<path>.<name>``; when
        it is absent, the default, if one is given."""
        if name in known:
            return read(known.pop(name), f"{path}.{name}")
        if not default:
            _fail(f"{path}.{name}", "required parameter missing")
        return default[0]

    try:
        if kind == "bsc":
            model = channels.build_bsc(take("p", _number))
        elif kind == "gilbert_elliott":
            p_g = take("p_g", _number)
            p_b = take("p_b", _number)
            transition = take("transition", _real_array)
            initial = take("initial", _real_array, None)
            model = channels.build_gilbert_elliott(p_g, p_b, transition, initial)
        elif kind in ("quantum_ge", "quantum_ge_2qubit"):
            p_g = take("p_g", _number)
            p_b = take("p_b", _number)
            alpha = take("alpha", _number, 0.0)
            two_qubit = kind == "quantum_ge_2qubit"
            h = take(
                "hamiltonian",
                parse_complex_matrix,
                channels.DEFAULT_TWO_QUBIT_H if two_qubit else channels.DEFAULT_SINGLE_QUBIT_H,
            )
            expected_dim = 4 if two_qubit else 2
            if h.shape[0] != expected_dim:
                _fail(
                    f"{path}.hamiltonian",
                    f"{kind} needs a {expected_dim}x{expected_dim} generator, got {h.shape[0]}x{h.shape[0]}",
                )
            rho0 = take("initial_state", parse_complex_matrix, None)
            model = channels.build_quantum_gilbert_elliott(p_g, p_b, h, alpha, rho0)
        elif kind == "custom_fsmc":
            kernel = take("kernel", _real_array)
            initial = take("initial", _real_array)
            model = channels.ClassicalFsmc(kernel, initial)
            channels.require_valid(model)
        else:  # custom_kraus
            state_dim = take("state_dim", _integer)
            if not 1 <= state_dim <= MAX_DIM:
                _fail(f"{path}.state_dim", f"must lie in [1, {MAX_DIM}], got {state_dim}")
            eye = np.eye(state_dim, dtype=complex)
            model = channels.QuantumMemoryChannel(
                state_dim=state_dim,
                encodings=take("encodings", _matrix_list),
                kraus=take("kraus", _matrix_list),
                measurements=take("measurements", _matrix_list),
                inter_use_unitary=take("unitary", parse_complex_matrix, eye),
                initial_state=take("initial_state", parse_complex_matrix, eye / state_dim),
            )
    except ConfigError:
        raise
    except (ValueError, QchanrateError) as exc:
        raise ConfigError(path, str(exc)) from exc
    if known:
        _fail(path, f"unknown parameters for kind {kind!r}: {sorted(known)}")
    return model


def _build_channels(kind: str, param_sets, path: str) -> list:
    """The channel model of each set of spec params, or the
    ``ConfigError`` that stopped it.

    Each is built on its own; then the quantum ones are compiled and
    checked together (``channels.compile_channels``).
    """
    built: list = []
    for params in param_sets:
        try:
            built.append(_build_raw(kind, params, path))
        except ConfigError as exc:
            built.append(exc)
    quantum = [i for i, m in enumerate(built) if isinstance(m, channels.QuantumMemoryChannel)]
    for i, got in zip(quantum, channels.compile_channels([built[i] for i in quantum])):
        built[i] = ConfigError(path, str(got)) if isinstance(got, QchanrateError) else got
    return built


def _build_channel(kind: str, params: dict, path: str):
    """Build (and validate) a channel model from spec params."""
    (model,) = _build_channels(kind, [params], path)
    if isinstance(model, ConfigError):
        raise model
    return model


def instantiate_channels(spec: ChannelSpec, overrides) -> list:
    """The channel with each sweep override applied ('n' excluded), or
    the ``ConfigError`` that stopped it; quantum channels are compiled
    together."""
    return _build_channels(spec.kind, [{**spec.params, **(o or {})} for o in overrides], "channel")


def instantiate_channel(spec: ChannelSpec, override: dict | None = None):
    """Build the channel with sweep overrides applied ('n' excluded)."""
    return _build_channel(spec.kind, {**spec.params, **(override or {})}, "channel")


_ROOT_KEYS = {
    "channel",
    "input_law",
    "n",
    "seeds",
    "sweep",
    "estimators",
    "auxiliaries",
    "output",
}


def errors_file(csv_path: PurePath) -> PurePath:
    """The path of the errors file of the CSV at ``csv_path``,
    ``<csv stem>.errors.csv`` beside it."""
    return csv_path.with_suffix(".errors.csv")


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate an experiment file.

    The base channel and every auxiliary are built once here, so any
    model-level violation (negative kernel entry, incomplete Kraus set,
    non-unitary evolution, ...) is rejected at parse time with the
    condition name and witness.  The base channel stays on the config as
    ``model``, for the verbs that run it unswept, and the auxiliaries as
    ``make_auxiliary`` built them, for every row of a sweep to run.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            root = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(str(path), "file not found") from None
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(str(path), f"not UTF-8 text: {exc}") from None
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise ConfigError(str(path), f"invalid JSON: {exc}") from None
    _expect_dict(root, "config", _ROOT_KEYS)
    for key in ("channel", "input_law", "sweep"):
        if key not in root:
            _fail(f"config.{key}", "required section missing")

    channel = _parse_channel(root["channel"], "channel")

    law = _real_array(_list(root["input_law"], "input_law", "probabilities"), "input_law")
    try:
        input_law = InputLaw(law)
    except ValueError as exc:
        raise ConfigError("input_law", str(exc)) from exc

    n = parse_length(root.get("n", 100000), "n")

    seeds = parse_seeds(root.get("seeds", [0]), "seeds")

    sweep_node = _expect_dict(root["sweep"], "sweep", {"parameter", "values", "exclude"})
    parameter = sweep_node.get("parameter")
    if not isinstance(parameter, str):
        _fail("sweep.parameter", f"expected a string, got {parameter!r}")
    allowed = SWEEPABLE[channel.kind] | {"n"}
    if parameter not in allowed:
        _fail(
            "sweep.parameter",
            f"{parameter!r} is not sweepable for kind {channel.kind!r}; "
            f"allowed: {sorted(allowed)}",
        )
    values_node = _list(sweep_node.get("values"), "sweep.values", "values")
    if parameter == "n":
        values = tuple(parse_length(v, f"sweep.values[{i}]") for i, v in enumerate(values_node))
    else:
        values = tuple(_number(v, f"sweep.values[{i}]") for i, v in enumerate(values_node))
    if len(set(values)) != len(values):
        _fail("sweep.values", "sweep values must be distinct")
    exclude_node = _list(sweep_node.get("exclude", []), "sweep.exclude", "values", nonempty=False)
    exclude = tuple(_number(v, f"sweep.exclude[{i}]") for i, v in enumerate(exclude_node))
    for i, v in enumerate(exclude):
        if v not in values:
            _fail(f"sweep.exclude[{i}]", f"{v!r} is not one of sweep.values")
    if parameter in ("p", "p_g", "p_b"):
        for i, v in enumerate(values):
            if not 0.0 <= v <= 1.0:
                _fail(f"sweep.values[{i}]", f"{parameter} must lie in [0, 1], got {v}")
    sweep = SweepSpec(parameter, values, exclude)
    if not sweep.active_values():
        _fail("sweep", "every sweep value is excluded")

    estimators = tuple(_list(root.get("estimators", ["ir"]), "estimators", "estimator ids"))
    for i, name in enumerate(estimators):
        if name not in ESTIMATOR_IDS:
            _fail(f"estimators[{i}]", f"expected one of {ESTIMATOR_IDS}, got {name!r}")
        if name in estimators[:i]:
            _fail(f"estimators[{i}]", f"duplicate estimator {name!r}")

    aux_node = _list(root.get("auxiliaries", []), "auxiliaries", "models", nonempty=False)
    aux_specs = []
    seen_labels = set()
    for i, node in enumerate(aux_node):
        spec = _parse_channel(node, f"auxiliaries[{i}]")
        label = spec.params.pop("label", f"{spec.kind}-{i}")
        if not isinstance(label, str):
            _fail(f"auxiliaries[{i}].label", "expected a string")
        # the label goes unescaped into the CSV's estimator ids and the SVG legend
        if not label or not label.isprintable() or set(label) & set(',"<>&'):
            _fail(f"auxiliaries[{i}].label",
                  f"expected a nonempty printable label without , \" < > or &, got {label!r}")
        if label in seen_labels:
            _fail(f"auxiliaries[{i}].label", f"duplicate label {label!r}")
        seen_labels.add(label)
        aux_specs.append((spec.kind, label, spec.params))
    if "aux_lower" in estimators and not aux_specs:
        _fail("estimators", "'aux_lower' requires at least one auxiliary model")

    out_node = _expect_dict(root.get("output", {}), "output", {"csv", "svg"})
    csv_name = out_node.get("csv", "results.csv")
    svg_name = out_node.get("svg", "results.svg")
    for key, value in (("csv", csv_name), ("svg", svg_name)):
        if (not isinstance(value, str) or value in ("", ".", "..") or not value.isprintable()
                or set(value) & set("/\\")):
            _fail(f"output.{key}", f"expected a plain file name, got {value!r}")
    if svg_name in (csv_name, errors_file(PurePath(csv_name)).name):
        _fail("output.svg", f"{svg_name!r} would overwrite the CSV or its errors file")

    # Building the base channel and the auxiliaries exercises every model
    # invariant; sweeps re-apply overrides to an already-valid spec.
    model = instantiate_channel(channel)
    if model.x_size != input_law.x_size:
        _fail(
            "input_law",
            f"has {input_law.x_size} symbols but the channel expects {model.x_size}",
        )
    auxiliaries = []
    for kind, label, params in aux_specs:
        where = f"auxiliaries[{label}]"
        aux = make_auxiliary(_build_channel(kind, params, where), label)
        if aux.model.x_size != model.x_size or aux.model.y_size != model.y_size:
            _fail(where, "auxiliary alphabets must match the true channel")
        auxiliaries.append(aux)
    return ExperimentConfig(
        channel=channel,
        model=model,
        input_law=input_law,
        n=n,
        seeds=seeds,
        sweep=sweep,
        estimators=estimators,
        auxiliaries=tuple(auxiliaries),
        csv_name=csv_name,
        svg_name=svg_name,
    )
