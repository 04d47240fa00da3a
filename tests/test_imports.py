"""Every name a package module imports is used in that module, every
module-level private function or class is referenced in the package, every
public one in a package module other than __init__.py, every defaulted
parameter is passed by some call in the package, no class writes its
own JSON: jsonfmt.dumps maps every report, only schauder scales by
powers of two: its range rule decides when a pair is rescaled, and every
text-mode open names its encoding, so that no read depends on the locale."""

import ast
import math
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schaudermat"
# __init__.py only re-exports what it imports.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_checker_flags_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd(b)\n") == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def definitions(source, private):
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private}


def references(source):
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def unreferenced(sources, private=True):
    """Module-level functions and classes, _private or public, that no source references."""
    used = set().union(*map(references, sources))
    return sorted(name for source in sources for name in definitions(source, private)
                  if name not in used)


def test_checker_flags_dead_helper():
    sources = ["def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\n"
               "def public(): return _used()\n",
               "def _remote(): pass\n",
               "import m\nm._remote()\n"]
    assert unreferenced(sources) == ["_Gone", "_dead"]


def test_no_dead_helpers():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced(sources) == []


def json_writers(source):
    """Classes in *source* that define a to_json method."""
    return sorted(node.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ClassDef)
                  and any(isinstance(f, ast.FunctionDef) and f.name == "to_json"
                          for f in node.body))


def test_checker_flags_json_writer():
    source = ("class Report:\n    def to_json(self): pass\n"
              "class Plan:\n    @classmethod\n    def from_json(cls, obj): pass\n"
              "def to_json(x): pass\n"
              "def f():\n    class Local:\n        def to_json(self): pass\n")
    assert json_writers(source) == ["Local", "Report"]


def test_no_class_writes_its_own_json():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert [name for source in sources for name in json_writers(source)] == []


def power_of_two_names(source):
    """The frexp and ldexp calls or references in *source*, by name."""
    names = (getattr(node, "attr", getattr(node, "id", None))
             for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.Name, ast.Attribute)))
    return sorted(name for name in names if name in ("frexp", "ldexp"))


def test_checker_flags_power_of_two_scaling():
    source = ("import math\nimport numpy as np\nfrom numpy import ldexp\n"
              "np.frexp(x)\nldexp(x, -2)\nmath.frexp(1.0)\nnp.exp(x)\nscale = np.ldexp\n")
    assert power_of_two_names(source) == ["frexp", "frexp", "ldexp", "ldexp"]


def test_only_schauder_scales_by_powers_of_two():
    paths = sorted(PACKAGE.glob("*.py"))
    assert [p.name for p in paths if power_of_two_names(p.read_text(encoding="utf-8"))] == [
        "schauder.py"]


def unnamed_encodings(source):
    """Line numbers of the open calls in *source* that pass no encoding= keyword and are
    not binary: no mode string with "b" is passed, neither as mode= nor as the first or
    second positional argument (Path.open takes its mode first)."""
    lines = []
    for call in (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)):
        if getattr(call.func, "id", getattr(call.func, "attr", None)) != "open":
            continue
        modes = call.args[:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
        binary = any(isinstance(m, ast.Constant) and isinstance(m.value, str) and "b" in m.value
                     and set(m.value) <= set("rwxabt+") for m in modes)
        if not binary and "encoding" not in {kw.arg for kw in call.keywords}:
            lines.append(call.lineno)
    return lines


def test_checker_flags_unnamed_encoding():
    source = ('open(p)\nopen(p, "r", encoding="utf-8")\nopen(p, "wb")\n'
              'path.open(mode="w")\nopen(p, mode="rb")\nopen(p, m)\nio.open(p, "rt")\n'
              'path.open("rb")\nopen("lab.txt")\n')
    assert unnamed_encodings(source) == [1, 4, 6, 7, 9]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_text_open_names_its_encoding(path):
    assert unnamed_encodings(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unreached_public_name():
    sources = ["def used(): pass\ndef unreached(): pass\nclass Orphan: pass\n"
               "def _helper(): return used()\n",
               "def remote(): pass\n",
               "import m\nm.remote()\n"]
    assert unreferenced(sources, private=False) == ["Orphan", "unreached"]


def test_every_public_name_is_reached():
    # A re-export from __init__.py is not a use: some package module must
    # call or name each public function and class.
    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    assert unreferenced(sources, private=False) == []


def unpassed_defaults(sources):
    """name(parameter) for each defaulted parameter that no call in *sources* passes.

    Calls are matched to definitions by name alone. A call passes a parameter
    by its keyword, by a positional argument at its place (methods skip self),
    or through *args / **kwargs.
    """
    trees = [ast.parse(source) for source in sources]
    keywords, positional = defaultdict(set), defaultdict(int)
    for call in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        keywords[name] |= {kw.arg for kw in call.keywords}  # None stands for **kwargs
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        positional[name] = max(positional[name], math.inf if starred else len(call.args))
    unpassed = []
    for tree in trees:
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            params = fn.args.posonlyargs + fn.args.args
            skip = 1 if id(fn) in methods else 0
            defaulted = [(i - skip, p.arg) for i, p in enumerate(params)
                         if i >= len(params) - len(fn.args.defaults)]
            kwonly = zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            defaulted += [(math.inf, p.arg) for p, d in kwonly if d is not None]
            unpassed += [f"{fn.name}({arg})" for place, arg in defaulted
                         if not ({arg, None} & keywords[fn.name]) and positional[fn.name] <= place]
    return sorted(unpassed)


def test_checker_flags_unpassed_default():
    sources = ["def f(a, b=1, c=2, *, d=3, e=4): pass\n"
               "def g(x=0): pass\n"
               "def h(x=0): pass\n"
               "class K:\n    def m(self, x=0): pass\n    def n(self, y=0): pass\n",
               "f(1, 2, e=5)\nK().m(1)\ng(*[1])\nh(**{'x': 1})\n"]
    assert unpassed_defaults(sources) == ["f(c)", "f(d)", "n(y)"]


def test_every_default_is_passed():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    # main's argv defaults to sys.argv for the console-script entry point.
    assert unpassed_defaults(sources) == ["main(argv)"]
