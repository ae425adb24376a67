"""Bad input never ends in a traceback.

Mutated shipped configs and byte-mutated trajectory files run through
``cli.main``: every case exits 0, 2 or 3, no exception escapes, and an
exit of 2 or 3 prints one ``error[<category>]`` line whose category is a
``QchanrateError`` subclass.  The mutations come from a fixed
``random.Random`` seed, so a failing case reproduces.
"""

import copy
import json
import random
import re
from pathlib import Path

from qchanrate import errors
from qchanrate.cli import main

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))

# Values a leaf edit writes: wrong types, edge numbers and numbers too
# large for a float or for a run at test length.
REPLACEMENTS = [
    {}, [], "", "0.5", "bsc", True, False, None, 10**400, 10**6, 2**64, -1, 0, 1, 2,
    0.0, 0.5, 1.0, -0.5, 1.5, 1e308, 5e-324, 0.1, [0.5, 0.5], [[0.5]],
    [[0.0, 0.0]], {"kind": "bsc"},
]

VERBS = ("validate", "estimate", "bound", "oracle")

ERROR_LINE = re.compile(r"^error\[(\w+)\]: ")


def leaf_paths(node, path=()):
    """Paths of every node below the root, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)) and value:
            yield from leaf_paths(value, path + (key,))


def mutate(cfg, rng):
    """One or two edits: a node replaced by a drawn value, or deleted."""
    cfg = copy.deepcopy(cfg)
    for _ in range(rng.randint(1, 2)):
        paths = list(leaf_paths(cfg))
        if not paths:
            break
        *parents, key = rng.choice(paths)
        parent = cfg
        for step in parents:
            parent = parent[step]
        if rng.random() < 0.2:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
    return cfg


def run_case(argv, capsys):
    """Exit code of ``main``, or the problem with how it ended."""
    try:
        code = main(argv)
    except BaseException as exc:  # noqa: BLE001 - any escape is the failure
        code = exc
    err = capsys.readouterr().err
    if isinstance(code, BaseException):
        return f"{type(code).__name__} escaped main: {code}"[:300]
    if code == 0:
        return None
    if code not in (2, 3):
        return f"exit {code}"
    lines = err.splitlines()
    match = ERROR_LINE.match(lines[-1]) if lines else None
    category = getattr(errors, match.group(1), None) if match else None
    if "Traceback" in err or not (
        isinstance(category, type) and issubclass(category, errors.QchanrateError)
    ):
        return f"exit {code} without an error[<category>] line: {err[-300:]!r}"
    return None


def test_mutated_configs_exit_cleanly(tmp_path, capsys):
    rng = random.Random(0)
    shipped = [(p.stem, json.loads(p.read_text())) for p in CONFIGS]
    out_dir = str(tmp_path / "out")
    failures = []
    for case in range(300):
        name, cfg = rng.choice(shipped)
        cfg = mutate(cfg, rng)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        verb = rng.choice(VERBS)
        argv = [verb, str(path)]
        if verb in ("estimate", "bound"):
            argv += ["--n", "40", "--threads", "1", "--no-svg", "--out-dir", out_dir]
        problem = run_case(argv, capsys)
        if problem:
            failures.append(f"case {case} ({name}, {verb}) {json.dumps(cfg)[:400]}: {problem}")
    assert not failures, "\n".join(failures)


def test_mutated_trajectory_files_exit_cleanly(tmp_path, capsys):
    config = next(p for p in CONFIGS if p.stem == "burst_noise_sweep")
    traj = tmp_path / "traj.txt"
    assert main(["sample", str(config), "-o", str(traj), "--n", "40", "--seed", "3"]) == 0
    capsys.readouterr()
    clean = traj.read_bytes()
    rng = random.Random(0)
    alphabet = b"0123456789 -=\n\t\r+xen.\x00\xff"
    out_dir = str(tmp_path / "out")
    failures = []
    for case in range(200):
        data = bytearray(clean)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(data) + 1)
            edit = rng.choice(("replace", "insert", "delete"))
            byte = rng.choice(alphabet)
            if edit == "insert" or at == len(data):
                data.insert(at, byte)
            elif edit == "replace":
                data[at] = byte
            else:
                del data[at]
        traj.write_bytes(bytes(data))
        problem = run_case(
            ["bound", str(config), "--trajectory", str(traj), "--no-svg", "--out-dir", out_dir],
            capsys,
        )
        if problem:
            failures.append(f"case {case} {bytes(data)[:120]!r}: {problem}")
    assert not failures, "\n".join(failures)
