"""The README's library example runs as written against the public API,
that API holds only names the package itself or the README uses, and
every module attribute the README names exists."""

import ast
import importlib
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


def test_every_module_attribute_named_in_the_readme_exists():
    """A backticked ``module.NAME`` whose module is one of the package's
    (``rates.RESYNC_TOL``, say) names an attribute of that module, so a
    renamed or deleted constant cannot leave the README stale.  The
    pattern starts at the backtick, so ``<name>.errors.csv`` is no
    name."""
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    named = [(module, name)
             for module, name in re.findall(r"`(\w+)\.(\w+)`", README.read_text(encoding="utf-8"))
             if module in modules]
    assert ("runner", "STACK_BUDGET") in named
    missing = [f"{module}.{name}" for module, name in named
               if not hasattr(importlib.import_module(f"qchanrate.{module}"), name)]
    assert missing == []
