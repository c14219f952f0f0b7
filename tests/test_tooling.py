import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import homdual

SRC = Path(homdual.__file__).parent


def test_no_assert_in_src():
    """``python -O`` strips asserts, so no check in the library may be one."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.glob("*.py")) and not found, found


def test_src_imports_only_the_standard_library():
    """README promises no runtime dependencies, and CI installs the test
    extras, so an import of one of them in the library would go unnoticed:
    every import, function-local ones too, is relative or of a standard
    library module."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert list(SRC.glob("*.py")) and not found, found


def test_src_imports_are_used():
    """Every name a library module imports is read in it. The package
    ``__init__`` is left out, since it imports to re-export, and so is
    ``from __future__ import annotations``, which switches a feature on."""
    found = []
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in read]
    assert modules and not found, found


def test_readme_size_limits_match_constants():
    """Every cap in README "Size limits" is named as `module.NAME` = value,
    and the value is the constant's; every module-level *_LIMIT or *_CAP
    constant is listed there."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Size limits", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for module, name, value in re.findall(r"`(\w+)\.(\w+)` = ([\d,]+)", section):
        constant = getattr(importlib.import_module(f"homdual.{module}"), name)
        assert constant == int(value.replace(",", "")), (module, name, value)
        listed[name] = module
    caps = {}
    for path in SRC.glob("*.py"):
        for name in re.findall(r"^([A-Z_]+_(?:LIMIT|CAP)) = ", path.read_text(), re.M):
            caps[name] = path.stem
    assert caps and listed == caps


def test_traced_names_resolve():
    """Every function the benchmark tracer wraps is a callable of
    ``homdual``, and the memo it clears and reads keeps its interface."""
    path = Path(__file__).parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{name}" for module, names in spans.TRACED.items() for name in names
               if not callable(getattr(importlib.import_module(f"homdual.{module}"), name, None))]
    assert spans.FUNCTIONS and not missing, missing
    memo = importlib.import_module("homdual.sparsity").tree_depth_value
    assert callable(memo.cache_clear) and callable(memo.cache_info)
