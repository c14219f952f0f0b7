import ast
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
