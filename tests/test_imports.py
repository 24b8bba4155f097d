"""Stand-ins for a linter's unused-import, dead-code and stale-export rules over the
package's modules, checks that every public constant is read, every public
function or class has a caller beyond the tests and every defaulted parameter
is passed by some caller but not by every one, and a check that perfbench's
tracer still finds every function it wraps."""

import argparse
import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "graphkd"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py"))
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module neither uses nor
    lists in ``__all__``."""
    tree = ast.parse(source)
    imported = []
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used and name not in exported]


def test_check_flags_an_unused_import():
    source = "import os\nfrom dataclasses import asdict, dataclass as dc\n__all__ = ['dc']\n"
    assert unused_imports(source) == ["os", "asdict"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def read_names(tree: ast.AST) -> set[str]:
    """Every name that ``tree`` reads, imports or reaches as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def dead_private_definitions(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each module-level private function, class or constant
    (a ``_name``, not a ``__dunder__``) that no module of ``sources`` reads,
    imports or reaches as an attribute."""
    defined, referenced = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        referenced |= read_names(tree)
    return [f"{module}:{name}" for module, name in defined if name not in referenced]


def test_check_flags_a_dead_private_definition():
    sources = {
        "a.py": "_USED = 1\n_DEAD = 2\ndef _helper():\n    return _USED\n"
                "class _Gone:\n    pass\n__all__ = []\n",
        "b.py": "from .a import _helper\n",
    }
    assert dead_private_definitions(sources) == ["a.py:_DEAD", "a.py:_Gone"]


def test_no_dead_private_definitions():
    assert dead_private_definitions({p.name: p.read_text() for p in SOURCES}) == []


def dead_public_constants(sources: dict[str, str]) -> list[str]:
    """``module:NAME`` for each public module-level UPPER_CASE constant of
    ``sources`` that no module but ``__init__.py`` reads, imports or reaches as
    an attribute: a re-export or an ``__all__`` entry is no use."""
    modules = {name: ast.parse(source) for name, source in sources.items() if name != "__init__.py"}
    defined, referenced = [], set()
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)
                        and t.id.isupper() and not t.id.startswith("_")]
        referenced |= read_names(tree)
    return [f"{module}:{name}" for module, name in defined if name not in referenced]


def test_check_flags_a_dead_public_constant():
    sources = {
        "__init__.py": "from .a import EXPORTED\n",
        "a.py": "LIMIT = 3\nDEAD = 4\nEXPORTED = 5\nTYPED: int = 6\nATTR = 7\n"
                "_PRIVATE = 8\nMixed = 9\n__all__ = ['DEAD']\n"
                "def f():\n    return LIMIT\n",
        "b.py": "from . import a\nx = a.ATTR\n",
    }
    assert dead_public_constants(sources) == ["a.py:DEAD", "a.py:EXPORTED", "a.py:TYPED"]


def test_no_dead_public_constants():
    assert dead_public_constants({p.name: p.read_text() for p in SOURCES}) == []


def stale_exports(source: str) -> list[str]:
    """Names in a module's ``__all__`` that the module does not bind at top level."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


def test_check_flags_a_stale_export():
    source = (
        "from os import path as p\nimport json\nA, B = 1, 2\nC: int = 3\n"
        "def f():\n    pass\nclass K:\n    pass\n"
        "__all__ = ['p', 'json', 'A', 'B', 'C', 'f', 'K', 'gone', 'path']\n"
    )
    assert stale_exports(source) == ["gone", "path"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_stale_exports(path):
    assert stale_exports(path.read_text()) == []


def unlisted_reexports(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each name that ``__init__.py`` imports from a
    package module whose ``__all__`` does not list it."""
    listed = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                listed[module] = set(ast.literal_eval(node.value))
    return [f"{node.module}.py:{a.name}" for node in ast.parse(sources["__init__.py"]).body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for a in node.names if a.name not in listed.get(f"{node.module}.py", ())]


def test_check_flags_an_unlisted_reexport():
    sources = {
        "__init__.py": "import numpy\nfrom .a import listed, unlisted\nfrom .b import thing\n",
        "a.py": "__all__ = ['listed']\ndef listed():\n    pass\ndef unlisted():\n    pass\n",
        "b.py": "def thing():\n    pass\n",
    }
    assert unlisted_reexports(sources) == ["a.py:unlisted", "b.py:thing"]


def test_package_exports_only_what_modules_list():
    assert unlisted_reexports({p.name: p.read_text() for p in SOURCES}) == []


def public_definitions_only_tests_call(
    sources: dict[str, str], readers: dict[str, str]
) -> list[str]:
    """``module:name`` for each public module-level function or class of
    ``sources`` that no module but ``__init__.py`` reads, and no module of
    ``readers`` (the acceptance tests) reads either: code that only unit tests
    call."""
    modules = {name: ast.parse(source) for name, source in sources.items() if name != "__init__.py"}
    referenced = set()
    for tree in [*modules.values(), *(ast.parse(source) for source in readers.values())]:
        referenced |= read_names(tree)
    return [f"{module}:{node.name}" for module, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in referenced]


def test_check_flags_a_public_definition_only_tests_call():
    sources = {
        "__init__.py": "from .a import Spare, helper, stage, used\n",
        "a.py": "def stage():\n    return 1\ndef helper():\n    return stage()\n"
                "def used():\n    pass\nclass Spare:\n    pass\ndef _private():\n    pass\n",
        "b.py": "from .a import helper\n",
    }
    readers = {"test_acceptance.py": "from graphkd.a import used\n"}
    assert public_definitions_only_tests_call(sources, readers) == ["a.py:Spare"]


def test_no_public_definition_that_only_tests_call():
    sources = {p.name: p.read_text() for p in SOURCES}
    readers = {ACCEPTANCE.name: ACCEPTANCE.read_text()}
    assert public_definitions_only_tests_call(sources, readers) == []


def public_callees(modules: dict[str, ast.Module]) -> dict[str, tuple]:
    """``name -> (module, positional parameters, defaulted parameters)`` for each
    public module-level function, and each public class's ``__init__``, of
    ``modules``."""
    callees = {}
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                inits = [n for n in node.body
                         if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
                fn, skip = (inits[0], 1) if inits else (None, 0)  # skip self
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn, skip = node, 0
            else:
                continue
            if fn is None or node.name.startswith("_"):
                continue
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args][skip:]
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            callees[node.name] = (module, positional, defaulted)
    return callees


def calls_by_name(tree: ast.AST, callees: dict[str, tuple]):
    """``(name, parameters passed)`` for each call in ``tree`` of a name in
    ``callees``, by keyword or by position up to the first ``*`` argument."""
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in callees:
            continue
        count = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)),
                     len(call.args))
        yield name, {*callees[name][1][:count],
                     *(kw.arg for kw in call.keywords if kw.arg is not None)}


def unpassed_defaults(
    sources: dict[str, str], readers: dict[str, str], options: set, exempt: set
) -> list[str]:
    """``module:name(param)`` for each defaulted parameter of a public
    module-level function, or of a public class's ``__init__``, in ``sources``
    that no call in ``sources`` (``__init__.py`` aside) or ``readers`` passes,
    by keyword or by position, and that is not in ``options`` (the
    ``(runner, dest)`` pairs of the command line) or ``exempt`` (``(name,
    param)`` pairs): a setting that nothing sets."""
    modules = {name: ast.parse(source) for name, source in sources.items() if name != "__init__.py"}
    callees = public_callees(modules)
    passed = set(options) | set(exempt)
    for tree in [*modules.values(), *(ast.parse(source) for source in readers.values())]:
        passed |= {(name, param) for name, params in calls_by_name(tree, callees)
                   for param in params}
    return [f"{module}:{name}({param})" for name, (module, _, defaulted) in callees.items()
            for param in defaulted if (name, param) not in passed]


def test_check_flags_a_default_nothing_passes():
    sources = {
        "__init__.py": "from .a import f\n",
        "a.py": "def f(x, by_position=1, by_keyword=2, *, unset=3, option=4):\n    pass\n"
                "class K:\n    def __init__(self, size=1, spare=2):\n        pass\n"
                "class Plain:\n    pass\n"
                "def run(seed=0, exempt=None, splat=5):\n    pass\n"
                "def _private(unset=1):\n    pass\n",
        "b.py": "from .a import K, f\nf(0, 1, by_keyword=2)\nK(4)\nrun(*[1, 2])\n",
    }
    readers = {"test_acceptance.py": "from graphkd.a import f\nf(0, unset=3)\n"}
    options = {("f", "option"), ("run", "seed")}
    exempt = {("run", "exempt")}
    assert unpassed_defaults(sources, readers, options, exempt) == [
        "a.py:K(spare)", "a.py:run(splat)"]


def command_line_options() -> set:
    """``(runner, dest)`` for each option of each subcommand of ``cli.build_parser()``."""
    cli = importlib.import_module("graphkd.cli")
    [action] = [a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
    return {(parser.get_default("run").__name__, option.dest)
            for parser in action.choices.values() for option in parser._actions}


def test_every_default_is_passed_somewhere():
    sources = {p.name: p.read_text() for p in SOURCES}
    readers = {ACCEPTANCE.name: ACCEPTANCE.read_text()}
    # main's argv is for callers outside the package: the console script passes none
    exempt = {("main", "argv")}
    assert unpassed_defaults(sources, readers, command_line_options(), exempt) == []


def restated_defaults(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``module:name(param)`` for each defaulted parameter of a public
    module-level function, or of a public class's ``__init__``, in ``sources``
    that the package calls by name (``__init__.py`` aside) and that every such
    call and every call in ``readers`` passes: a default no caller uses."""
    modules = {name: ast.parse(source) for name, source in sources.items() if name != "__init__.py"}
    callees = public_callees(modules)
    package_calls = {name for tree in modules.values() for name, _ in calls_by_name(tree, callees)}
    always = {}  # name -> parameters that every call so far passes
    for tree in [*modules.values(), *(ast.parse(source) for source in readers.values())]:
        for name, params in calls_by_name(tree, callees):
            always[name] = always.get(name, params) & params
    return [f"{module}:{name}({param})" for name, (module, _, defaulted) in callees.items()
            if name in package_calls for param in defaulted if param in always[name]]


def test_check_flags_a_restated_default():
    sources = {
        "__init__.py": "from .a import f\nf(0, 1, 2)\n",
        "a.py": "def f(x, always=1, sometimes=2, *, kw=3):\n    pass\n"
                "class K:\n    def __init__(self, size=1):\n        pass\n"
                "def only_tests(seed=0):\n    pass\n"
                "def splat(a=1, b=2):\n    pass\n",
        "b.py": "from .a import K, f, splat\nf(0, 1, kw=3)\nf(0, always=2, sometimes=3, kw=4)\n"
                "K(4)\nsplat(1, *[2])\n",
    }
    readers = {"test_acceptance.py": "from graphkd.a import f, only_tests\nf(0, 5, kw=1)\n"
                                     "only_tests(seed=1)\n"}
    assert restated_defaults(sources, readers) == [
        "a.py:f(always)", "a.py:f(kw)", "a.py:K(size)", "a.py:splat(a)"]


def test_no_restated_default():
    sources = {p.name: p.read_text() for p in SOURCES}
    readers = {ACCEPTANCE.name: ACCEPTANCE.read_text()}
    assert restated_defaults(sources, readers) == []


# file I/O lives in models (atomic_open, checkpoints), harness (artefacts),
# config and datasets (inputs) and cli; these modules only compute
COMPUTE_MODULES = ("autodiff.py", "graphs.py", "losses.py", "training.py", "analysis.py")
FILE_IO_MODULES = {"csv", "io", "json", "os"}
ATOMIC_OPEN_USERS = ("models.py", "harness.py")


def file_io_breaches(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each import of a FILE_IO_MODULES module by a
    COMPUTE_MODULES module, and for each module outside ATOMIC_OPEN_USERS that
    names ``atomic_open``."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        if module in COMPUTE_MODULES:
            imported = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update(a.name.split(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
            found += [f"{module}:{name}" for name in sorted(imported & FILE_IO_MODULES)]
        if module not in ATOMIC_OPEN_USERS and "atomic_open" in read_names(tree):
            found.append(f"{module}:atomic_open")
    return found


def test_check_flags_file_io_outside_its_modules():
    sources = {
        "graphs.py": "import csv, numpy\nfrom os import path\nfrom .models import atomic_open\n",
        "losses.py": "def f():\n    import io.text\n    return io\n",
        "training.py": "from .graphs import build\nimport jsonschema\n",
        "config.py": "import json\nfrom . import models\nw = models.atomic_open\n",
        "harness.py": "import json\nfrom .models import atomic_open\n",
        "models.py": "import os\ndef atomic_open():\n    pass\n",
    }
    assert file_io_breaches(sources) == [
        "graphs.py:csv", "graphs.py:os", "graphs.py:atomic_open", "losses.py:io",
        "config.py:atomic_open",
    ]


def test_compute_modules_do_no_file_io():
    assert file_io_breaches({p.name: p.read_text() for p in SOURCES}) == []


# perfbench's tracer wraps the functions its TARGETS name and reads some of
# their arguments by name; a name it cannot resolve is silently reported as
# 0 calls, and training.steps, which step_ms divides by, counts the calls of
# training.sgd_momentum_step
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# graph stages that build_similarity_graph runs inline; the tracer may still name them
STALE_TRACER_TARGETS = {"cosine_similarity_matrix", "knn_sparsify", "degree_normalize",
                        "adjacency_power"}


def tracer_reads(source: str) -> tuple[list, dict[str, list[str]]]:
    """A tracer source's TARGETS, and for each attribute that its wrapper
    branches on (``if attr == "name":``) the arguments it reads with ``_getter``."""
    tree = ast.parse(source)
    targets = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)]
    reads = {}
    for node in ast.walk(tree):
        test = getattr(node, "test", None)
        if (isinstance(node, ast.If) and isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Name) and test.left.id == "attr"
                and isinstance(test.comparators[0], ast.Constant)):
            reads[test.comparators[0].value] = [
                call.args[1].value for call in ast.walk(ast.Module(node.body, []))
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_getter"]
    return (targets[0] if targets else []), reads


def tracer_breaches(targets, reads: dict[str, list[str]], resolve) -> list[str]:
    """``module.attr`` for each target that ``resolve(module)`` lacks, but for
    STALE_TRACER_TARGETS, and ``module.attr(name)`` for each argument read by
    name that is not a parameter of its function."""
    found = []
    for module, attr, _ in targets:
        fn = resolve(module)
        for part in attr.split("."):
            fn = getattr(fn, part, None)
        if fn is None:
            if attr not in STALE_TRACER_TARGETS:
                found.append(f"{module}.{attr}")
            continue
        params = inspect.signature(fn).parameters
        found += [f"{module}.{attr}({name})" for name in reads.get(attr, ()) if name not in params]
    return found


def test_check_flags_what_the_tracer_cannot_find():
    source = (
        "TARGETS = (('m', 'f', None), ('m', 'g', None), ('m', 'gone', 'm.gone'),\n"
        "           ('m', 'knn_sparsify', 'm.knn'), ('m', 'K.fit', 'm.K.fit'))\n"
        "class Tracer:\n"
        "    def _wrapper(self, attr, name, fn):\n"
        "        if attr == 'f':\n"
        "            net = _getter(fn, 'net')\n"
        "        elif attr == 'g':\n"
        "            reps, other = _getter(fn, 'reps'), _getter(fn, 'other')\n"
    )
    targets, reads = tracer_reads(source)
    assert reads == {"f": ["net"], "g": ["reps", "other"]}

    class K:
        def fit(self, x):
            pass

    def f(net, batch):
        pass

    def g(batch, other):
        pass

    module = types.SimpleNamespace(f=f, g=g, K=K)
    assert tracer_breaches(targets, reads, {"m": module}.get) == ["m.g(reps)", "m.gone"]


def test_perfbench_tracer_finds_every_target():
    targets, reads = tracer_reads(TRACING.read_text())
    assert targets and reads
    assert tracer_breaches(
        targets, reads, lambda module: importlib.import_module(f"graphkd.{module}")) == []
