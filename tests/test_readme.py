"""The README's Python quick tour runs as written, and imports only names
the package root exports."""

import ast
import re
from pathlib import Path

import spanforge

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_python_blocks_run():
    assert len(BLOCKS) == 2
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), {})


def test_readme_imports_are_exported():
    imported = {
        alias.name
        for block in BLOCKS
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "spanforge"
        for alias in node.names
    }
    assert imported == {"HighLevelProgram", "compile_dense", "measure_overhead", "LowLevelProgram"}
    assert imported <= set(spanforge.__all__)
