import ast
import pathlib

import cisgraphs

PACKAGE_DIR = pathlib.Path(cisgraphs.__file__).parent


def test_no_runtime_check_uses_assert():
    # python -O strips assert statements, so no check in the package
    # may depend on one
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
