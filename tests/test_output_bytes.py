"""The bytes every CLI verb writes, pinned.

Each case runs ``qchanrate`` in this process, at n = 3000, on copies of
the shipped configs and of the benchmark's classical sweep, each under
its own input law and under [0.3, 0.7].  A case's record is its exit
code, its stdout and stderr (with the temporary directory written as
``<tmp>``) and the SHA-256 of every file it writes.  The records live in
``output_digests.json`` beside this file.  A change that means to change
output bytes rewrites that file with

    PYTHONPATH=src python tests/test_output_bytes.py

and says why; any other change must leave every record as it is.
"""

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

from qchanrate.cli import main

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("output_digests.json")
SHIPPED = sorted((ROOT / "configs").glob("*.json"))
CONFIGS = [*SHIPPED, ROOT / "perfbench" / "configs" / "classical_ge_sweep.json"]
N = "3000"
SKEWED_LAW = [0.3, 0.7]
IMPOSSIBLE = {"kind": "quantum_ge", "label": "impossible", "p_g": 0.0, "p_b": 0.0}


def _configs(root: Path) -> dict[str, Path]:
    """Copies of every config under ``root``: ``<stem>`` as shipped,
    ``<stem>-q37`` under the skewed law, and ``errors``, the burst sweep
    at three points with an auxiliary that fails wherever a flip occurs."""
    root.mkdir()
    paths = {}
    for src in CONFIGS:
        paths[src.stem] = root / src.name
        shutil.copyfile(src, paths[src.stem])
        skewed = dict(json.loads(src.read_text()), input_law=SKEWED_LAW)
        paths[f"{src.stem}-q37"] = root / f"{src.stem}-q37.json"
        paths[f"{src.stem}-q37"].write_text(json.dumps(skewed, indent=1))
    burst = json.loads(paths["burst_noise_sweep"].read_text())
    burst["sweep"]["values"] = [0.0, 0.5, 1.0]
    burst["auxiliaries"].append(IMPOSSIBLE)
    paths["errors"] = root / "errors.json"
    paths["errors"].write_text(json.dumps(burst, indent=1))
    return paths


def _cases(root: Path) -> list[tuple[str, list[str]]]:
    """Each case's name and argv; a case writes only under ``root/<name>``,
    made before it runs.
    ``bound-trajectory`` reads the file that ``sample`` wrote."""
    cfg = _configs(root / "configs")
    cases = []
    for stem in [path.stem for path in CONFIGS]:
        for law in ("", "-q37"):
            for threads in ("1", "2"):
                name = f"estimate-{stem}{law}-t{threads}"
                cases.append((name, ["estimate", str(cfg[stem + law]), "--n", N,
                                     "--threads", threads, "--out-dir", str(root / name)]))
    for stem in [path.stem for path in SHIPPED]:
        for law in ("", "-q37"):
            cases.append((f"validate-{stem}{law}", ["validate", str(cfg[stem + law])]))
            cases.append((f"oracle-{stem}{law}",
                          ["oracle", str(cfg[stem + law]), "--oracle-n", "3"]))
    burst = str(cfg["burst_noise_sweep"])
    traj = root / "sample" / "traj.txt"
    cases += [
        ("sample", ["sample", burst, "-o", str(traj), "--n", N]),
        ("bound", ["bound", burst, "--n", N, "--threads", "1",
                   "--out-dir", str(root / "bound")]),
        ("bound-trajectory", ["bound", burst, "--trajectory", str(traj),
                              "--out-dir", str(root / "bound-trajectory")]),
        ("errors", ["estimate", str(cfg["errors"]), "--n", N, "--threads", "1",
                    "--out-dir", str(root / "errors")]),
    ]
    return cases


def record(root: Path) -> dict:
    """Run every case under the empty directory ``root`` and return the
    records, keyed by case name."""
    records = {}
    for name, argv in _cases(root):
        here = root / name
        here.mkdir()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        files = sorted(p for p in here.rglob("*") if p.is_file())
        records[name] = {
            "argv": [arg.replace(str(root), "<tmp>") for arg in argv],
            "exit": code,
            "stdout": out.getvalue().replace(str(root), "<tmp>"),
            "stderr": err.getvalue().replace(str(root), "<tmp>"),
            "files": {p.relative_to(here).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in files},
        }
    return records


def test_every_case_matches_its_record(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = record(tmp_path)
    assert list(got) == list(expected)
    changed = [name for name in got if got[name] != expected[name]]
    assert {name: got[name] for name in changed} == {name: expected[name] for name in changed}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = record(Path(tmp))
    DIGESTS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS} ({len(records)} cases)")
