"""The README's library example runs as written against the public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_verbatim(capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Library example\n\n```python\n(.*?)^```$", text, re.M | re.S)
    exec(compile(block, f"{README}:Library example", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and printed[0].startswith("ir = ")
