import ast
import importlib
import re
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
