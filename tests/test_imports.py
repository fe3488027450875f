"""No module in src/, tests/ or perfbench/ imports a name it never uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source):
    """Names bound by an import statement that no Name node reads.

    `import a.b` binds `a`; an attribute chain such as `np.zeros` starts at
    the Name `np`, so it counts as a use.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - used)


def test_finder_reports_only_unused_names():
    src = ("import os\nimport os.path as osp\nimport numpy as np\n"
           "from math import inf, pi\nnp.zeros(1)\nprint(pi)\n")
    assert unused_imports(src) == ["inf", "os", "osp"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
