import ast
import os
import pathlib
import subprocess
import sys

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


def test_cli_import_leaves_networkx_out():
    # importing networkx takes about 0.17 s; only the blossom matching
    # solver needs it, so it is imported there, on first use
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, cisgraphs.cli; print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout == "False\n"
