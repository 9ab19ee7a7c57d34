import argparse
import ast
import importlib
import runpy
import sys
from pathlib import Path

import slowent
from slowent import cli, expcli

PACKAGE = Path(slowent.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_detects_unread_names():
    source = "from __future__ import annotations\nimport os.path\nfrom typing import Callable, Sequence\nx: Sequence[int]\n"
    assert unused_imports(source) == ["os", "Callable"]


def test_every_module_import_is_used():
    # __init__.py imports its submodules to re-export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: names for p in modules if (names := unused_imports(p.read_text()))}
    assert unused == {}


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute modules a source imports, at any depth."""
    tree = ast.parse(source)
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module and not node.level}
    return {name.split(".")[0] for name in names}


def test_imported_modules_reads_nested_and_relative_imports():
    source = "import os.path\nfrom . import rng\nfrom .lattice import Box\ndef f():\n    from numpy import zeros\n"
    assert imported_modules(source) == {"os", "numpy"}


def test_no_module_imports_numpy():
    # every layer, the Bowen checks of toys included, runs on Python ints,
    # Fractions and bitmasks; numpy is a test and benchmark dependency only
    users = {p.stem for p in PACKAGE.glob("*.py") if "numpy" in imported_modules(p.read_text())}
    assert users == set()


def test_no_module_imports_hashlib():
    # rng takes BLAKE2b from _blake2: hashlib would also load OpenSSL
    # (about 3.4 MiB resident), which no hash here uses
    users = {p.stem for p in PACKAGE.glob("*.py") if "hashlib" in imported_modules(p.read_text())}
    assert users == set()


def test_only_rng_imports_blake2():
    # the seeded streams are the package's only hash; patterns are keyed
    # exactly by their axes (recurrence.recurrence_key), not by a digest
    users = {p.stem for p in PACKAGE.glob("*.py") if "_blake2" in imported_modules(p.read_text())}
    assert users == {"rng"}


# ---------------------------------------------------------------------------
# Reachability: every module-level definition in the package is reached from
# the CLI entry point, an experiment runner, or a benchmark workload.

ROOT = Path(__file__).resolve().parents[1]


def _imported(tree: ast.Module) -> dict[str, str]:
    """Local name -> "module" or "module.name" for imports of the package's modules.

    Imports inside functions count too; `from . import x` and `from slowent
    import x` bind modules, `from .m import x` binds definitions.
    """
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or node.module == "slowent"):
            prefix = node.module + "." if node.level == 1 and node.module else ""
            out.update({alias.asname or alias.name: prefix + alias.name for alias in node.names})
    return out


def _defined(tree: ast.Module) -> dict[str, ast.AST]:
    """Module-level functions, classes and assigned names."""
    out: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    out[target.id] = node
    return out


def _is_function(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _own_nodes(node: ast.AST) -> list[ast.AST]:
    """The parts of a definition that run with it: a class without its methods."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    return [*node.decorator_list, *node.bases, *node.keywords, *(stmt for stmt in node.body if not _is_function(stmt))]


def attributes_read(tree: ast.AST) -> set[str]:
    return {sub.attr for sub in ast.walk(tree) if isinstance(sub, ast.Attribute)}


class NameGraph:
    """Module-level definitions and class members of a package, joined by the names they read."""

    def __init__(self, sources: dict[str, str]):
        trees = {module: ast.parse(src) for module, src in sources.items()}
        self.defs = {module: _defined(tree) for module, tree in trees.items()}
        self.imports = {module: _imported(tree) for module, tree in trees.items()}
        self.nodes = {f"{m}.{name}": node for m, names in self.defs.items() for name, node in names.items()}
        # "module.Class.member" -> ("module.Class", member) for the methods and properties of each class
        self.members: dict[str, tuple[str, str]] = {}
        for cls, node in list(self.nodes.items()):
            for stmt in node.body if isinstance(node, ast.ClassDef) else []:
                if _is_function(stmt):
                    self.members[f"{cls}.{stmt.name}"] = (cls, stmt.name)
                    self.nodes[f"{cls}.{stmt.name}"] = stmt

    def resolve(self, parts: list[str], module: str | None, imports: dict[str, str]) -> str | None:
        """The definition "module.name" that a dotted name reaches, if any."""
        head, rest = parts[0], parts[1:]
        if module is not None and head in self.defs[module]:
            return f"{module}.{head}"
        target = imports.get(head)
        if target in self.defs:
            return self.resolve(rest, target, self.imports[target]) if rest else None
        owner, _, name = (target or "").partition(".")
        if owner in self.defs:
            return self.resolve([name, *rest], owner, self.imports[owner])
        return None

    def reads(self, node: ast.AST, module: str | None, imports: dict[str, str]) -> set[str]:
        """Definitions named anywhere inside `node`, read as code of `module`
        (with module None, as code of a file outside the package)."""
        out = set()
        for sub in ast.walk(node):
            parts: list[str] = []
            while isinstance(sub, ast.Attribute):
                parts.insert(0, sub.attr)
                sub = sub.value
            if isinstance(sub, ast.Name) and (hit := self.resolve([sub.id, *parts], module, imports)):
                out.add(hit)
        return out

    def unreached(self, roots: set[str], attributes: set[str] = frozenset()) -> list[str]:
        """Definitions and class members that the roots do not reach.

        A module-level definition is reached when reached code names it. A
        method or property of a reached class is reached when reached code,
        or `attributes` (read by code outside the package), reads an
        attribute of its name; dunders are reached with their class.
        """
        seen, read, todo = set(), set(attributes), list(roots)
        while todo:
            while todo:
                key = todo.pop()
                if key in seen:
                    continue
                seen.add(key)
                module = key.split(".")[0]
                for node in _own_nodes(self.nodes[key]):
                    todo.extend(self.reads(node, module, self.imports[module]))
                    read |= attributes_read(node)
            todo = [
                key
                for key, (cls, name) in self.members.items()
                if key not in seen and cls in seen and (name in read or name.startswith("__"))
            ]
        return sorted(key for key in self.nodes if key not in seen)


def package_graph() -> NameGraph:
    # __init__.py only re-exports the submodules
    return NameGraph({p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"})


def entry_points(graph: NameGraph) -> set[str]:
    """cli.main, the experiment runners (looked up by name at run time), every
    function the benchmark traces, and every package name its query workload reads."""
    roots = {"cli.main"} | {f"expcli.{command.runner}" for command in expcli.COMMANDS.values()}
    layers = runpy.run_path(str(ROOT / "bench" / "layers.py"))
    for module, qualname, _ in [*layers["traced_functions"](), *layers["CLOSURES"]]:
        module = module.removeprefix("slowent.")
        roots |= {f"{module}.{qualname.split('.')[0]}", f"{module}.{qualname}"}
    queries = ast.parse((ROOT / "bench" / "queries.py").read_text())
    return roots | graph.reads(queries, None, _imported(queries))


def bench_attributes() -> set[str]:
    """Attribute names that the benchmark's query workload and worker read."""
    return set().union(*(attributes_read(ast.parse((ROOT / "bench" / f).read_text())) for f in ("queries.py", "worker.py")))


def overrides_outside_package(key: str) -> bool:
    """Whether the member "module.Class.name" overrides a base class from outside the package."""
    module, cls_name, name = key.split(".")
    cls = getattr(importlib.import_module(f"slowent.{module}"), cls_name)
    return any(name in vars(base) for base in cls.__mro__[1:] if not base.__module__.startswith("slowent"))


A_SOURCE = """
from . import b
from .b import g as h
K = 1
def main():
    return b.f() + h() + b.C().m()
def spare():
    return K
"""

B_SOURCE = """
from . import a
def f():
    return a.b.g()
def g():
    return 0
class C:
    def __init__(self):
        self.k = a.K
    def m(self):
        return f()
    def unread(self):
        return a.spare()
"""


def test_name_graph_follows_imports_and_attributes():
    graph = NameGraph({"a": A_SOURCE, "b": B_SOURCE})
    # main reads .m, so C.m is reached; nothing reads .unread
    assert graph.unreached({"a.main"}) == ["a.spare", "b.C.unread"]
    # C's __init__ comes with the class; its methods need a read of their name
    assert graph.unreached({"b.C"}) == ["a.main", "a.spare", "b.C.m", "b.C.unread", "b.f", "b.g"]
    assert graph.unreached({"b.C"}, {"m"}) == ["a.main", "a.spare", "b.C.unread"]


def _traced_binding(module: str, qualname: str) -> object:
    """What a traced (module, qualname) is bound to now: a function, or a class's own attribute."""
    owner_path, _, attr = qualname.rpartition(".")
    owner = getattr(sys.modules[module], owner_path) if owner_path else sys.modules[module]
    return vars(owner)[attr]


def test_benchmark_span_wrappers_install_and_restore():
    # the traced benchmark run wraps each function by module path and name,
    # so a rename in the package must show here, not only in a traced run
    importlib.import_module("slowent.cli")  # the tracer patches only loaded modules

    layers = runpy.run_path(str(ROOT / "bench" / "layers.py"))
    spans = runpy.run_path(str(ROOT / "bench" / "spans.py"))
    traced = layers["traced_functions"]()
    keys = [(module, qualname) for module, qualname, _ in [*traced, *layers["CLOSURES"]]]
    before = {key: _traced_binding(*key) for key in keys}
    with spans["patched"](spans["Recorder"](), traced, layers["CLOSURES"]):
        replaced = [key for key in keys if _traced_binding(*key) is not before[key]]
    assert replaced == keys
    assert {key: _traced_binding(*key) for key in keys} == before


def test_every_definition_is_reachable():
    graph = package_graph()
    unreached = graph.unreached(entry_points(graph), bench_attributes())
    unreached = [key for key in unreached if key.count(".") == 1 or not overrides_outside_package(key)]
    assert not unreached, f"{len(unreached)} definitions reached from no entry point: {', '.join(unreached)}"


# ---------------------------------------------------------------------------
# One definition per claim: each verdict name and invariant text is a string
# literal in the claim table and nowhere else in the package.


def claim_table_strings() -> list[str]:
    """The verdict names and texts of `expcli.Claim`, read from its source."""
    tree = ast.parse((PACKAGE / "expcli.py").read_text())
    (table,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Claim"]
    out = []
    for stmt in table.body:
        if isinstance(stmt, ast.Assign):
            assert isinstance(stmt.value, ast.Tuple), ast.dump(stmt)
            fields = [elt.value for elt in stmt.value.elts if isinstance(elt, ast.Constant)]
            assert len(fields) == len(stmt.value.elts) == 3, ast.dump(stmt)
            out += [text for text in fields if text is not None]
    return out


def test_each_claim_is_written_once_in_the_package():
    strings = claim_table_strings()
    assert sorted(strings) == sorted(
        text for claim in expcli.Claim for text in (claim.key, claim.invariant, claim.note) if text is not None
    )
    literals = [
        node.value
        for p in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    assert {text: literals.count(text) for text in strings} == dict.fromkeys(strings, 1)
    # and every verdict takes its invariant from the table, never from a literal
    calls = [
        node
        for p in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Verdict"
    ]
    assert calls
    assert not [ast.unparse(call) for call in calls if any(isinstance(arg, (ast.Constant, ast.JoinedStr)) for arg in call.args[1:2])]


# ---------------------------------------------------------------------------
# No new knobs: the settable defaults of the package, counted by the rule in
# CHANGES.md, must equal the cap, so adding one or removing one has to show
# up in a diff of the cap.

SETTABLE_DEFAULTS_CAP = 5


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether the class is decorated with `@dataclass` or `@dataclass(...)`."""
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass" for d in node.decorator_list)


def _init_false(value: ast.expr) -> bool:
    """Whether a field's value is `field(..., init=False, ...)`."""
    return (
        isinstance(value, ast.Call)
        and getattr(value.func, "id", None) == "field"
        and any(kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False for kw in value.keywords)
    )


def settable_defaults(source: str) -> list[str]:
    """Every parameter default of a `def` or `lambda`, and every field of a
    `@dataclass` body that has a default and is settable at construction."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            out += [f"{name}:{ast.unparse(d)}" for d in (*node.args.defaults, *node.args.kw_defaults) if d is not None]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            out += [
                f"{node.name}.{stmt.target.id}"
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and stmt.value is not None and not _init_false(stmt.value)
            ]
    return out


def test_settable_defaults_counts_by_the_rule():
    source = """
from dataclasses import dataclass, field
def f(a, b=1, *, c=2, d):
    return lambda x=3: x
@dataclass(frozen=True)
class D:
    a: int
    b: int = 0
    c: list = field(default_factory=list)
    d: int = field(init=False, repr=False)
class Plain:
    e: int = 5
"""
    assert sorted(settable_defaults(source)) == ["<lambda>:3", "D.b", "D.c", "f:1", "f:2"]


def test_settable_defaults_do_not_grow():
    found = [f"{p.name}:{d}" for p in sorted(PACKAGE.glob("*.py")) for d in settable_defaults(p.read_text())]
    assert len(found) == SETTABLE_DEFAULTS_CAP, found


# The CLI's optional flags, counted on the built parser: every `--option` of
# each subcommand, `--help` excluded. Pinned like the settable defaults.

CLI_OPTIONAL_FLAGS = 80


def optional_flags(parser: argparse.ArgumentParser, prefix: str = "") -> list[str]:
    """"<subcommand path> --option" for each optional flag of a parser and of its subparsers."""
    out = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            out += [flag for name, sub in action.choices.items() for flag in optional_flags(sub, f"{prefix}{name} ")]
        out += [prefix + option for option in action.option_strings if option.startswith("--") and option != "--help"]
    return out


def test_optional_flags_counts_each_subcommand():
    parser = argparse.ArgumentParser()
    parser.add_argument("--top")
    sub = parser.add_subparsers()
    a = sub.add_parser("a")
    a.add_argument("-x", "--xs")
    a.add_subparsers().add_parser("b").add_argument("--ys", "--zs")
    assert optional_flags(parser) == ["--top", "a --xs", "a b --ys", "a b --zs"]


def test_experiment_flags_derive_from_reads():
    # --seed, --out and --sample-size always, --config when the command reads
    # a config field, and the five schedule flags when it reads the schedule
    found = optional_flags(cli.build_parser())
    schedule = ["--stages", "--theta", "--c", "--r1", "--schedule-file"]
    for name, command in expcli.COMMANDS.items():
        want = ["--seed", "--out", "--sample-size", *(["--config"] if command.reads else []), *(schedule if "schedule" in command.reads else [])]
        assert sorted(flag.split(" ")[1] for flag in found if flag.split(" ")[0] == name) == sorted(want), name


def test_cli_optional_flags_do_not_grow():
    found = optional_flags(cli.build_parser())
    assert len(found) == len(set(found)) == CLI_OPTIONAL_FLAGS, found


# ---------------------------------------------------------------------------
# One config builder: only `expcli.config_from_json` constructs an
# `ExperimentConfig`, so every run's defaults and checks come from one place.


def config_builders(source: str) -> set[str]:
    """The functions whose own bodies call `ExperimentConfig(...)`, directly or
    as a module attribute; "<module>" for a call outside any function."""
    out = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and ast.unparse(child.func).rpartition(".")[2] == "ExperimentConfig":
                out.add(owner)
            visit(child, child.name if _is_function(child) else owner)

    visit(ast.parse(source), "<module>")
    return out


def test_config_builders_finds_each_calling_function():
    source = """
from . import expcli
from .expcli import ExperimentConfig
DEFAULT = ExperimentConfig(kind="a")
def build(doc):
    return ExperimentConfig(**doc)
def run():
    def inner():
        return expcli.ExperimentConfig(kind="b")
    return inner()
def reads(config: ExperimentConfig):
    return config.kind
"""
    assert config_builders(source) == {"<module>", "build", "inner"}


def test_only_config_from_json_builds_a_config():
    builders = {p.stem: found for p in sorted(PACKAGE.glob("*.py")) if (found := config_builders(p.read_text()))}
    assert builders == {"expcli": {"config_from_json"}}
