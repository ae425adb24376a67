"""The README's library example runs as written against the public API,
and that API holds only names the package itself or the README uses."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = README.parent / "src" / "qchanrate"


def test_library_example_runs_verbatim(capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Library example\n\n```python\n(.*?)^```$", text, re.M | re.S)
    exec(compile(block, f"{README}:Library example", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and printed[0].startswith("ir = ")


def test_every_export_is_read_by_the_package_or_named_in_the_readme():
    """Names read in code count, not a definition or a mention in a
    docstring; helpers only the tests need belong under ``tests/``."""
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = [a.asname or a.name for node in init.body
                if isinstance(node, ast.ImportFrom) for a in node.names]
    read = set()
    for path in set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    text = README.read_text(encoding="utf-8")
    assert [n for n in exported if n not in read and not re.search(rf"\b{n}\b", text)] == []
