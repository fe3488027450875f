"""Everything src/patchmar defines has a caller in src/ or perfbench/. Tests
do not count as callers: code that only a test reaches is deleted, not kept
for the test. Three rules, each matching by bare name as a Name or an
attribute, not by the object it belongs to:

- every function and class is read;
- every field of a @dataclass class is read by some attribute load;
- every parameter with a default is passed by some call of its function's
  name, by keyword, by position or through a `*` or `**` argument.

They leave unchecked the defaults of a dataclass's generated constructor
(no program caller passes `TrainConfig(lr=...)`, but `cfg.lr` is read) and
branches inside a function."""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINING = sorted((ROOT / "src" / "patchmar").rglob("*.py"))
READING = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py"))

# kept although nothing in src/ or perfbench/ reads or passes them yet,
# each with its reason
RUN_DIRECTORY = "ROADMAP item 1: the driver is the run directory's first caller"
ALLOWED = {
    "load_checkpoint": "ROADMAP item 4: a run resumes from its checkpoint",
    "moment_arrays": "ROADMAP item 4: checkpoints save the Adam moments",
}
ALLOWED_FIELDS = {f"TrainResult.{name}": RUN_DIRECTORY
                  for name in ("net", "state", "reports", "metrics_path", "checkpoint_dir")}
ALLOWED_PARAMETERS = {"train(out_dir=)": RUN_DIRECTORY}


def _nodes(sources):
    for source in sources:
        yield from ast.walk(ast.parse(source))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _name(node):
    """The bare name a Name or attribute refers to, or None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _decorated(node, name):
    return any(_name(d.func if isinstance(d, ast.Call) else d) == name
               for d in node.decorator_list)


def unread_definitions(defining, reading):
    """Names of the functions and classes defined in the `defining` sources
    that no Name or attribute load in the `reading` sources reads.

    Methods count as functions; dunders are called by the language and are
    exempt. A store to a name is not a read of it.
    """
    defined = {n.name for n in _nodes(defining)
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not _is_dunder(n.name)}
    read = set()
    for n in _nodes(reading):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            read.add(n.attr)
    return sorted(defined - read)


def unread_fields(defining, reading):
    """`Class.field` for each field of a @dataclass class in the `defining`
    sources whose name no attribute load in the `reading` sources reads.
    Passing a field to the constructor stores it; it does not read it."""
    fields = [(cls.name, s.target.id) for cls in _nodes(defining)
              if isinstance(cls, ast.ClassDef) and _decorated(cls, "dataclass")
              for s in cls.body
              if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    read = {n.attr for n in _nodes(reading)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{cls}.{name}" for cls, name in fields if name not in read)


def unpassed_parameters(defining, reading):
    """`function(parameter=)` for each parameter with a default, of a
    function in the `defining` sources, that no call in the `reading`
    sources passes: by keyword, by position, or through a `*` or `**`
    argument.

    A call matches by the called name. A method's first parameter is bound
    by the receiver of an attribute call, so positions count from the second
    (static methods from the first). Dunders are exempt.
    """
    params = []  # (function, parameter, positional index or None)
    for source in defining:
        tree = ast.parse(source)
        methods = {id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and not _decorated(f, "staticmethod")}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or _is_dunder(fn.name):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            bound = 1 if id(fn) in methods else 0
            first = len(positional) - len(a.defaults)
            params += [(fn.name, p.arg, i - bound)
                       for i, p in enumerate(positional) if i >= first]
            params += [(fn.name, p.arg, None)
                       for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]

    calls = {}  # called name -> [(positional count, keyword names; None for **)]
    for n in _nodes(reading):
        if isinstance(n, ast.Call):
            starred = any(isinstance(arg, ast.Starred) for arg in n.args)
            calls.setdefault(_name(n.func), []).append(
                (math.inf if starred else len(n.args), {k.arg for k in n.keywords}))

    def passed(fn, param, index):
        return any(param in keywords or None in keywords
                   or (index is not None and count > index)
                   for count, keywords in calls.get(fn, ()))

    return sorted({f"{fn}({param}=)" for fn, param, index in params
                   if not passed(fn, param, index)})


def test_finder_reports_only_unread_definitions():
    defining = ("def called():\n    pass\n"
                "def orphan():\n    pass\n"
                "class Box:\n"
                "    def __init__(self):\n        pass\n"
                "    def read(self):\n        pass\n"
                "    def unread(self):\n        pass\n")
    reading = "called()\nBox().read()\nunread = None\nx = Box()\nx.orphan = 1\n"
    assert unread_definitions([defining], [defining, reading]) == ["orphan", "unread"]


def test_field_finder_reports_a_field_only_tests_read():
    defining = ("from dataclasses import dataclass\n"
                "import dataclasses\n"
                "@dataclass\n"
                "class Rec:\n"
                "    used: int\n"
                "    orphan: int = 0\n"
                "    stored: int = 0\n"
                "@dataclasses.dataclass(frozen=True)\n"
                "class Frozen:\n"
                "    flag: bool = False\n"
                "class Plain:\n"
                "    hint: int = 0\n")
    reading = "r = Rec(1, stored=2)\nprint(r.used)\nr.stored = 3\nFrozen()\n"
    test_only = "assert r.orphan == 0 and Frozen().flag is False\n"
    assert unread_fields([defining], [defining, reading]) == \
        ["Frozen.flag", "Rec.orphan", "Rec.stored"]
    assert unread_fields([defining], [defining, reading, test_only]) == ["Rec.stored"]


def test_parameter_finder_reports_a_default_no_call_passes():
    defining = ("def f(a, by_position=1, by_keyword=2, unpassed=3, *, only_kw=4, kw_unpassed=5):\n"
                "    pass\n"
                "def g(x=None):\n    pass\n"
                "def h(y=None):\n    pass\n"
                "class Box:\n"
                "    def __init__(self, size=0):\n        pass\n"
                "    def __call__(self, skips=None):\n        pass\n"
                "    def put(self, item, at=None, tail=None):\n        pass\n"
                "    @staticmethod\n"
                "    def make(kind=None):\n        pass\n")
    reading = ("f(0, 1, by_keyword=2, only_kw=4)\n"
               "g(**{'x': 1})\n"
               "h(*[1])\n"
               "b = Box()\nb(1)\n"
               "b.put(1, 2)\n"
               "Box.make(1)\n")
    test_only = "f(0, unpassed=3, kw_unpassed=5)\nb.put(1, tail=2)\n"
    assert unpassed_parameters([defining], [defining, reading]) == \
        ["f(kw_unpassed=)", "f(unpassed=)", "put(tail=)"]
    assert unpassed_parameters([defining], [defining, reading, test_only]) == []


def test_every_definition_has_a_caller_outside_tests():
    defining = [p.read_text() for p in DEFINING]
    reading = [p.read_text() for p in READING]
    assert unread_definitions(defining, reading) == sorted(ALLOWED)


def test_every_dataclass_field_is_read_outside_tests():
    defining = [p.read_text() for p in DEFINING]
    reading = [p.read_text() for p in READING]
    assert unread_fields(defining, reading) == sorted(ALLOWED_FIELDS)


def test_every_default_parameter_is_passed_outside_tests():
    defining = [p.read_text() for p in DEFINING]
    reading = [p.read_text() for p in READING]
    assert unpassed_parameters(defining, reading) == sorted(ALLOWED_PARAMETERS)
