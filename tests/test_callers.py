"""Everything src/patchmar defines has a caller in src/ or perfbench/. Tests
do not count as callers: code that only a test reaches is deleted, not kept
for the test, and an option with one value in use is a constant. Four
rules, each matching by bare name as a Name or an attribute, not by the
object it belongs to:

- every function and class is read;
- every field of a @dataclass class is read by some attribute load;
- every parameter with a default is passed by some call of its function's
  name, by keyword, by position or through a `*` or `**` argument;
- every field of a @dataclass class with a plain default (a
  `field(default_factory=...)` container is exempt) is set: passed by some
  call of the class's name, by keyword, by position in field order or
  through a `*` or `**` argument, or assigned by an attribute store on an
  object other than `self`.

They leave unchecked branches inside a function and required fields. The
first rule also runs over tests/ alone: every helper a test module defines
is read by some test module."""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINING = sorted((ROOT / "src" / "patchmar").rglob("*.py"))
READING = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# kept although nothing in src/ or perfbench/ reads or passes them yet,
# each with its reason
ALLOWED = {
    "load_checkpoint": "ROADMAP item 4: a run resumes from its checkpoint",
    "moment_arrays": "ROADMAP item 4: checkpoints save the Adam moments",
}
SHIFTED_BUNDLE = "ROADMAP item 7: the shifted bundle sets another severity and noise"
BENCH_READS = ("ROADMAP item 5: perfbench reads it as a field, so it becomes a "
               "constant in the benchmark PR")
ALLOWED_DEFAULTS = {
    "SynthConfig.severity": SHIFTED_BUNDLE,
    "SynthConfig.noise_scale": SHIFTED_BUNDLE,
    "SynthConfig.image_size": BENCH_READS,
    "SynthConfig.amax": BENCH_READS,
}


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


def _dataclasses(defining):
    """(class name, [(field name, its default or None)]) for each @dataclass
    class in the `defining` sources, fields in declaration order."""
    for cls in _nodes(defining):
        if isinstance(cls, ast.ClassDef) and _decorated(cls, "dataclass"):
            yield cls.name, [(s.target.id, s.value) for s in cls.body
                             if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]


def _calls(reading):
    """Called name -> [(positional count, keyword names)] over every call in
    the `reading` sources; a `*` argument counts as every position, and a
    `**` argument as the keyword None."""
    calls = {}
    for n in _nodes(reading):
        if isinstance(n, ast.Call):
            starred = any(isinstance(arg, ast.Starred) for arg in n.args)
            calls.setdefault(_name(n.func), []).append(
                (math.inf if starred else len(n.args), {k.arg for k in n.keywords}))
    return calls


def _passed(calls, fn, param, index):
    """Whether some call of `fn` passes `param`, by keyword, through `**`,
    or by position `index` (None: keyword only)."""
    return any(param in keywords or None in keywords
               or (index is not None and count > index)
               for count, keywords in calls.get(fn, ()))


def unread_fields(defining, reading):
    """`Class.field` for each field of a @dataclass class in the `defining`
    sources whose name no attribute load in the `reading` sources reads.
    Passing a field to the constructor stores it; it does not read it."""
    fields = [(cls, name) for cls, declared in _dataclasses(defining) for name, _ in declared]
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

    calls = _calls(reading)
    return sorted({f"{fn}({param}=)" for fn, param, index in params
                   if not _passed(calls, fn, param, index)})


def _is_factory(default):
    return isinstance(default, ast.Call) and _name(default.func) == "field" \
        and any(k.arg == "default_factory" for k in default.keywords)


def unset_defaults(defining, reading):
    """`Class.field` for each field with a plain default, of a @dataclass
    class in the `defining` sources, that the `reading` sources never set.

    A field is set when a call of the class's name passes it (by keyword,
    by its position in field order, or through a `*` or `**` argument), or
    when an attribute store assigns its name on an object other than
    `self`: `rep.k = 1` sets `k`, `self.k = k` does not. A
    `field(default_factory=...)` default is a container the program fills,
    not an option, and is exempt.
    """
    calls = _calls(reading)
    stored = {n.attr for n in _nodes(reading)
              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
              and not (isinstance(n.value, ast.Name) and n.value.id == "self")}
    return sorted(f"{cls}.{name}" for cls, declared in _dataclasses(defining)
                  for index, (name, default) in enumerate(declared)
                  if default is not None and not _is_factory(default)
                  and name not in stored and not _passed(calls, cls, name, index))


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


def test_default_finder_reports_a_default_only_tests_set():
    defining = ("from dataclasses import dataclass, field\n"
                "@dataclass\n"
                "class Cfg:\n"
                "    required: int\n"
                "    by_position: int = 1\n"
                "    by_keyword: int = 2\n"
                "    stored: int = 3\n"
                "    self_stored: int = 4\n"
                "    test_only: float = 0.5\n"
                "    items: list = field(default_factory=list)\n"
                "    def __post_init__(self):\n"
                "        self.self_stored = 5\n"
                "@dataclass(frozen=True)\n"
                "class Opts:\n"
                "    a: int = 0\n"
                "    b: int = 0\n"
                "class Plain:\n"
                "    hint: int = 0\n")
    reading = ("c = Cfg(0, 1, by_keyword=2)\n"
               "c.stored = 3\n"
               "Opts(**{'a': 1})\n")
    test_only = "Cfg(0, test_only=1.0)\nc.self_stored = 6\n"
    assert unset_defaults([defining], [defining, reading]) == \
        ["Cfg.self_stored", "Cfg.test_only"]
    assert unset_defaults([defining], [defining, reading, test_only]) == []
    assert unset_defaults([defining], [defining, "Cfg(*[0, 1, 2, 3, 4, 5])\n"]) == \
        ["Opts.a", "Opts.b"]


def test_every_definition_has_a_caller_outside_tests():
    defining = [p.read_text() for p in DEFINING]
    reading = [p.read_text() for p in READING]
    assert unread_definitions(defining, reading) == sorted(ALLOWED)


def test_every_dataclass_field_is_read_outside_tests():
    defining = [p.read_text() for p in DEFINING]
    reading = [p.read_text() for p in READING]
    assert unread_fields(defining, reading) == []


def test_every_default_parameter_is_passed_outside_tests():
    defining = [p.read_text() for p in DEFINING]
    reading = [p.read_text() for p in READING]
    assert unpassed_parameters(defining, reading) == []


def test_every_dataclass_default_is_set_outside_tests():
    defining = [p.read_text() for p in DEFINING]
    reading = [p.read_text() for p in READING]
    assert unset_defaults(defining, reading) == sorted(ALLOWED_DEFAULTS)


def test_every_test_helper_is_read():
    # a helper that no test reads any more is deleted with the tests that
    # used it; pytest itself collects the test_ functions
    tests = [p.read_text() for p in TESTS]
    assert [name for name in unread_definitions(tests, tests) if not name.startswith("test_")] == []
