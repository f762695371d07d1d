import ast
from pathlib import Path

import orderone


def test_library_has_no_assert_statements():
    """Result checks must raise; `python -O` strips assert statements."""
    found = []
    for path in sorted(Path(orderone.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
