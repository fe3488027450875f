"""Every function and class defined in src/patchmar is read in src/ or
perfbench/. Tests do not count as callers: code that only a test reaches is
deleted, not kept for the test."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINING = sorted((ROOT / "src" / "patchmar").rglob("*.py"))
READING = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py"))

# kept although nothing in src/ or perfbench/ reads them yet
ALLOWED = {
    "load_checkpoint",  # ROADMAP item 4: a run resumes from its checkpoint
    "moment_arrays",    # ROADMAP item 4: checkpoints save the Adam moments
}


def unread_definitions(defining, reading):
    """Names of the functions and classes defined in the `defining` sources
    that no Name or attribute load in the `reading` sources reads.

    Methods count as functions; dunders are called by the language and are
    exempt. A store to a name is not a read of it.
    """
    defined = set()
    for source in defining:
        defined |= {n.name for n in ast.walk(ast.parse(source))
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (n.name.startswith("__") and n.name.endswith("__"))}
    read = set()
    for source in reading:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    return sorted(defined - read)


def test_finder_reports_only_unread_definitions():
    defining = ("def called():\n    pass\n"
                "def orphan():\n    pass\n"
                "class Box:\n"
                "    def __init__(self):\n        pass\n"
                "    def read(self):\n        pass\n"
                "    def unread(self):\n        pass\n")
    reading = "called()\nBox().read()\nunread = None\nx = Box()\nx.orphan = 1\n"
    assert unread_definitions([defining], [defining, reading]) == ["orphan", "unread"]


def test_every_definition_has_a_caller_outside_tests():
    defining = [p.read_text() for p in DEFINING]
    reading = [p.read_text() for p in READING]
    assert unread_definitions(defining, reading) == sorted(ALLOWED)
