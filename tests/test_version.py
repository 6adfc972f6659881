"""The package version has one source: ``repro.__version__``.

``pyproject.toml`` declares the version dynamic and points setuptools at that
attribute, so the distribution metadata cannot drift from the runtime value.
"""

import ast
import pathlib

import pytest

import repro

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _pyproject() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)


def test_pyproject_reads_the_version_from_the_package():
    config = _pyproject()
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    attr = config["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    module, _, name = attr.rpartition(".")
    assert module == "repro" and getattr(repro, name) == repro.__version__


def test_version_is_a_static_literal():
    # setuptools resolves `attr:` without importing the package only when the
    # assignment is a plain literal; keep it one.
    tree = ast.parse((ROOT / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"))
    literals = [
        node.value.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__version__" for t in node.targets)
        and isinstance(node.value, ast.Constant)
    ]
    assert literals == [repro.__version__]
    assert tuple(int(part) for part in repro.__version__.split(".")) >= (1, 10, 0)
