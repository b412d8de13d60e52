"""Every name a kronscale module imports is used by that module and comes
from the standard library or kronscale itself, no function writes into a
module-level container (a hidden global cache), no code but
CircuitBuilder._push writes a builder's gate list, no code but
SieveRunner.detect runs a sieve, only the text parsers and their line
helpers raise ParseError, no module states an invariant by assert,
every field class defines what circuit evaluation reads off a field,
and every definition, in a kronscale module or a shared test helper, is
named somewhere outside itself."""

import ast
import re
import sys
from pathlib import Path

import pytest

import kronscale

MODULES = sorted(p for p in Path(kronscale.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        [(1, "os"), (2, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def absolute_imports(source: str):
    """(line, module) for each absolute import."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            yield node.lineno, name


def non_stdlib_imports(source: str) -> list:
    """(line, module) for each absolute import of a module outside the
    standard library."""
    return [(line, name) for line, name in absolute_imports(source)
            if name.split(".")[0] not in sys.stdlib_module_names]


def test_scan_finds_a_non_stdlib_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from scipy.linalg import det\nfrom .fields import gf2\n")
    assert non_stdlib_imports(source) == [(3, "numpy"), (4, "scipy.linalg")]


# importing numpy alone costs about 0.16 s and 14 MB of resident memory,
# about as much as kronscale's whole start-up, so kronscale stays on the
# standard library
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_relative(path):
    assert non_stdlib_imports(path.read_text()) == []


RATIONAL_MODULES = {"fractions", "decimal"}


def rational_imports(source: str) -> list:
    """(line, module) for each import of fractions or decimal."""
    return [(line, name) for line, name in absolute_imports(source)
            if name.split(".")[0] in RATIONAL_MODULES]


def test_scan_finds_a_rational_import():
    source = ("from fractions import Fraction\nimport math\nimport decimal as dec\n"
              "from .fractions import x\n")
    assert rational_imports(source) == [(1, "fractions"), (3, "decimal")]


# every exact quantity is held as a scaled integer, one representation
# for the whole package; importing fractions also imports decimal and
# numbers, about 4 ms of start-up (Python 3.11, x86-64) in every process
# that imports kronscale
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_rational_imports(path):
    assert rational_imports(path.read_text()) == []


MUTATORS = {"setdefault", "update", "append", "pop", "clear"}


def global_container_writes(source: str) -> list:
    """(line, name) for each write, inside a function, into a container
    bound at module level: NAME[...] = ... or a NAME.<mutator>(...) call."""
    tree = ast.parse(source)
    module_names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        module_names |= {t.id for t in targets if isinstance(t, ast.Name)}
    hits = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)}
        local |= {n.id for n in ast.walk(func)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATORS:
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in module_names - local:
                hits.add((node.lineno, target.id))
    return sorted(hits)


def test_scan_finds_a_global_container_write():
    source = ("MEMO = {}\nSEEN = []\nNAMES = {1: 'a'}\n"
              "def f(k):\n    MEMO[k] = 1\n    SEEN.append(k)\n    return NAMES[k]\n"
              "def g(MEMO):\n    MEMO[0] = 1\n"
              "def h():\n    SEEN = []\n    SEEN.append(1)\n")
    assert global_container_writes(source) == [(5, "MEMO"), (6, "SEEN")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_global_container_writes(path):
    assert global_container_writes(path.read_text()) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
GATE_WRITERS = {"append", "extend", "insert"}


def module_functions(source: str) -> list:
    """(class name or None, node) for each module-level function and method."""
    tree = ast.parse(source)
    funcs = [(None, node) for node in tree.body if isinstance(node, FUNCTIONS)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            funcs += [(cls.name, item) for item in cls.body if isinstance(item, FUNCTIONS)]
    return funcs


def gate_writes_outside_push(source: str) -> list:
    """(line, function) for each write into a builder's gate list by any
    function but CircuitBuilder._push: append, extend or insert, `+=` or
    an item assignment on X.gates, or on a local name bound to X.gates.
    A list that a function makes itself, even one called `gates`, is not
    a builder's."""
    def is_gate_list(expr):
        return isinstance(expr, ast.Attribute) and expr.attr == "gates"

    hits = []
    for owner, func in module_functions(source):
        if (owner, func.name) == ("CircuitBuilder", "_push"):
            continue
        aliases = {target.id for node in ast.walk(func)
                   if isinstance(node, ast.Assign) and is_gate_list(node.value)
                   for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in GATE_WRITERS:
                target = node.func.value
            elif isinstance(node, ast.AugAssign):
                target = node.target
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            else:
                continue
            if is_gate_list(target) or isinstance(target, ast.Name) and target.id in aliases:
                hits.append((node.lineno, func.name))
    return sorted(hits)


def test_scan_finds_a_gate_write_outside_push():
    source = ("class CircuitBuilder:\n"
              "    def _push(self, op, payload):\n        self.gates.append((op, payload))\n"
              "    def mul(self, a, b):\n        gates = self.gates\n"
              "        gates.append((3, (a, b)))\n        return gates[a]\n"
              "def copy(bld, circ):\n    bld.gates.extend(circ.gates)\n"
              "    bld.gates += [(0, 'x')]\n    bld.gates[0] = (1, 0)\n"
              "def parse(text):\n    gates = []\n    gates.append((0, text))\n")
    assert gate_writes_outside_push(source) == \
        [(6, "mul"), (9, "copy"), (10, "copy"), (11, "copy")]


# every gate goes through the intern table in CircuitBuilder._push
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_gates_are_written_only_by_push(path):
    assert gate_writes_outside_push(path.read_text()) == []


def sieve_runs_outside_detect(source: str) -> list:
    """(line, function) for each reference to an attribute `run`, called
    or not, in any function but SieveRunner.detect."""
    return sorted((node.lineno, func.name) for owner, func in module_functions(source)
                  if (owner, func.name) != ("SieveRunner", "detect")
                  for node in ast.walk(func)
                  if isinstance(node, ast.Attribute) and node.attr == "run")


def test_scan_finds_a_sieve_run_outside_detect():
    source = ("class SieveRunner:\n"
              "    def run(self, rng, extra=None):\n        return 0\n"
              "    def detect(self, rng, trials, runs):\n"
              "        return any(self.run(r, e) for r, e in runs(rng))\n"
              "def det_sieve(runner, rng):\n    return runner.run(rng.split())\n"
              "def kpath_detect(runner, rng):\n    run = runner.run\n    return run(rng)\n")
    assert sieve_runs_outside_detect(source) == [(7, "det_sieve"), (9, "kpath_detect")]


# every sieve decides through the one trial loop, SieveRunner.detect
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_sieve_runs_are_made_only_by_detect(path):
    assert sieve_runs_outside_detect(path.read_text()) == []


PARSE_ERROR_RAISERS = re.compile(r"_?parse|int_fields$|records$")


def parse_errors_outside_parsers(source: str) -> list:
    """(line, function) for each `raise ParseError` that no function named
    parse*, _parse*, int_fields or records encloses, function being the
    innermost enclosing one (None at module level)."""
    hits = []

    def visit(node, func, allowed):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                visit(child, child.name,
                      allowed or PARSE_ERROR_RAISERS.match(child.name) is not None)
                continue
            if isinstance(child, ast.Raise) and not allowed:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "ParseError":
                    hits.append((child.lineno, func))
            visit(child, func, allowed)

    visit(ast.parse(source), None, False)
    return hits


def test_scan_finds_a_parse_error_outside_a_parser():
    source = ("def parse_x(text):\n    def field(t):\n        raise ParseError('f')\n"
              "    raise ParseError('x', 1)\n"
              "def _parse_y(text):\n    raise ParseError('y') from None\n"
              "def records(lines):\n    raise ParseError('r')\n"
              "class M:\n    def __post_init__(self):\n        raise ParseError('m')\n"
              "def check(v):\n    try:\n        parse_x(v)\n    except ParseError:\n"
              "        raise\n    raise ParseError\n"
              "raise ParseError('top')\n")
    assert parse_errors_outside_parsers(source) == \
        [(11, "__post_init__"), (17, "check"), (18, None)]


# ParseError names a line of parsed text; a value built in code has none,
# so a fault in it is some other error
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_parse_errors_are_raised_only_by_parsers(path):
    assert parse_errors_outside_parsers(path.read_text()) == []


def assert_statements(source: str) -> list:
    """The line of each assert statement."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_scan_finds_an_assert_statement():
    source = ("def f(x):\n    assert x > 0, 'x'\n    if x:\n        assert x\n"
              "    return 'assert x'\n# assert x\n")
    assert assert_statements(source) == [2, 4]


# python -O strips an assert, so an invariant it states would go
# unchecked; a broken one raises a typed error instead
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_statements(path.read_text()) == []


def evaluation_path(circuit_source: str) -> list:
    """The functions that `evaluate` in circuit_source may run: itself,
    then each module-level function and each method of a module-level
    class whose name a function on the path reads, as a name or as an
    attribute, until no new name is read."""
    defs = {}
    for node in ast.parse(circuit_source).body:
        for item in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(item, FUNCTIONS):
                defs.setdefault(item.name, []).append(item)
    path, names = [], ["evaluate"]
    seen = set()
    while names:
        name = names.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for fn in defs[name]:
            path.append(fn)
            for node in ast.walk(fn):
                if isinstance(node, ast.Name):
                    names.append(node.id)
                elif isinstance(node, ast.Attribute):
                    names.append(node.attr)
    return path


def missing_field_methods(circuit_source: str, fields_source: str) -> list:
    """(class, name) for each attribute that a function on the evaluation
    path of circuit_source (`evaluation_path`) reads off a field, a name
    `field` or an attribute `.field`, and that a class in fields_source
    whose bases name Field neither defines in its body nor assigns to
    `self.<name>`."""
    used = {node.attr for fn in evaluation_path(circuit_source) for node in ast.walk(fn)
            if isinstance(node, ast.Attribute)
            and (isinstance(node.value, ast.Name) and node.value.id == "field"
                 or isinstance(node.value, ast.Attribute) and node.value.attr == "field")}
    missing = []
    for cls in ast.parse(fields_source).body:
        if not isinstance(cls, ast.ClassDef) or \
                not any(isinstance(b, ast.Name) and b.id == "Field" for b in cls.bases):
            continue
        defined = {item.name for item in cls.body if isinstance(item, FUNCTIONS)}
        defined |= {t.id for item in cls.body if isinstance(item, ast.Assign)
                    for t in item.targets if isinstance(t, ast.Name)}
        defined |= {node.attr for node in ast.walk(cls)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"}
        missing += [(cls.name, name) for name in sorted(used - defined)]
    return missing


def test_scan_finds_a_field_missing_a_method_evaluate_reads():
    # evaluate reads the order off circ.field, and the plan it reads
    # prepares the kernels in _level_plan, so both are on the path;
    # `other` is not, so no field needs mul_many
    circuit = ("class Circuit:\n    @property\n    def plan(self):\n"
               "        return _level_plan(self.field)\n"
               "def _level_plan(field):\n    return [field.dot_kernel(())]\n"
               "def evaluate(circ, asg):\n    n = circ.field.order\n"
               "    return [k(asg, n) for k in circ.plan]\n"
               "def other(field):\n    return field.mul_many()\n")
    fields = ("class Field:\n    pass\n"
              "class A(Field):\n    def __init__(self):\n        self.order = 2\n"
              "    def dot_kernel(self, groups):\n        return len\n"
              "class B(Field):\n    order = 3\n    dot_many = None\n"
              "class C(Field):\n    def __init__(self, f):\n        f.order = 1\n"
              "class D:\n    pass\n")
    assert [fn.name for fn in evaluation_path(circuit)] == ["evaluate", "plan", "_level_plan"]
    assert missing_field_methods(circuit, fields) == \
        [("B", "dot_kernel"), ("C", "dot_kernel"), ("C", "order")]


# each field prepares a batch kernel per evaluation level, so a field
# class without it would fail only when a circuit over it is evaluated
def test_every_field_defines_what_evaluate_reads():
    package = Path(kronscale.__file__).parent
    circuit = (package / "circuit.py").read_text()
    # the plan, where the kernels are prepared, is on the path
    assert {"evaluate", "plan", "_level_plan"} <= {fn.name for fn in evaluation_path(circuit)}
    assert missing_field_methods(circuit, (package / "fields.py").read_text()) == []


ROOT = Path(__file__).resolve().parents[1]
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
DEFINITION = re.compile(r"\s*(?:async\s+)?(?:def|class)\s+([A-Za-z_][A-Za-z0-9_]*)")


def definitions(source: str) -> list:
    """(first line, last line, name) of each module-level function or
    class, and of each public method of a module-level class."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.end_lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out.extend((item.lineno, item.end_lineno, item.name) for item in node.body
                       if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not item.name.startswith("_"))
    return out


def unreferenced_definitions(module, sources: dict) -> list:
    """(line, name) of each definition in sources[module] whose name no
    source text (code, string or comment) mentions outside the
    definition's own lines.  A def or class line does not mention the
    name it defines, so two same-named definitions do not hide each
    other."""
    mentions: dict = {}
    for path, text in sources.items():
        for lineno, line in enumerate(text.splitlines(), start=1):
            words = IDENTIFIER.findall(line)
            defined = DEFINITION.match(line)
            if defined:
                words.remove(defined.group(1))
            for word in words:
                mentions.setdefault(word, []).append((path, lineno))
    return [(first, name) for first, last, name in definitions(sources[module])
            if all(path == module and first <= lineno <= last
                   for path, lineno in mentions.get(name, ()))]


def test_scan_finds_an_unreferenced_definition():
    # unused() only names itself, K._hidden is not public, and A.value and
    # B.value only name each other on their def lines
    module = ("def used():\n    return 1\n\n\ndef unused():\n    return unused()\n\n\n"
              "class K:\n    def run(self):\n        pass\n\n    def _hidden(self):\n"
              "        pass\n\n\nclass A:\n    def value(self):\n        return 1\n\n\n"
              "class B:\n    def value(self):\n        return 2\n")
    sources = {"m.py": module, "t.py": "from m import A, B, K, used\nK().run()\n"}
    assert unreferenced_definitions("m.py", sources) == \
        [(5, "unused"), (18, "value"), (23, "value")]


@pytest.fixture(scope="module")
def project_sources():
    return {path: path.read_text() for top in ("src", "tests", "perfbench")
            for path in sorted((ROOT / top).rglob("*.py"))}


TEST_HELPERS = [ROOT / "tests" / name
                for name in ("_symbolic.py", "_tensor_oracle.py", "conftest.py")]


@pytest.mark.parametrize("path", MODULES + TEST_HELPERS, ids=lambda p: p.name)
def test_every_definition_is_named_elsewhere(path, project_sources):
    assert unreferenced_definitions(path.resolve(), project_sources) == []
