"""Layout rules that every source and test file keeps."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MAX_LINE = 100


def test_no_line_is_longer_than_100_characters():
    long = [f"{path.relative_to(ROOT)}:{i} ({len(line)})"
            for folder in ("src", "tests") for path in sorted((ROOT / folder).rglob("*.py"))
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if len(line) > MAX_LINE]
    assert not long, long


def test_package_imports_no_scipy():
    imports = [f"{path.relative_to(ROOT)}:{node.lineno}"
               for path in sorted((ROOT / "src" / "orderest").rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Import)
               and any(alias.name.split(".")[0] == "scipy" for alias in node.names)
               or isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "scipy"]
    assert not imports, imports


def test_scipy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]

    def names(requirements):
        return {req.split(">")[0].split("=")[0].split("<")[0].strip() for req in requirements}

    assert "scipy" not in names(project["dependencies"])
    extras = {extra for extra, reqs in project["optional-dependencies"].items()
              if "scipy" in names(reqs)}
    assert extras == {"test"}
