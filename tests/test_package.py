"""Static checks of the package source, with the standard library's ``ast``."""

import ast
import importlib
import pathlib

import pytest

import privamp
from privamp.fields import GaloisField

PACKAGE_DIR = pathlib.Path(privamp.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")

# the second field interface and the aliases deleted with it; integer
# encodings with GF(q).add_i/mul_i/inv_i/pow_i/eval_poly_i replace them.
# The worker count's environment variable: the workers= argument replaces it
REMOVED = {
    "privamp": ["FieldElement", "field_add", "field_mul", "field_eval_poly", "Gf2Vector", "Gf2Matrix"],
    "privamp.fields": ["FieldElement", "field_add", "field_mul", "field_eval_poly", "FieldMismatch"],
    "privamp.bits": ["Gf2Vector", "Gf2Matrix"],
    "privamp.exceptions": ["FieldMismatch"],
    "privamp.validator": ["WORKERS_ENV"],
}


def module_level_imports(tree):
    """(bound name, line) of each import statement at the top level of a module."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in module_level_imports(tree) if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_every_public_name_resolves():
    missing = [name for name in privamp.__all__ if not hasattr(privamp, name)]
    assert not missing


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_are_gone(module):
    mod = importlib.import_module(module)
    assert [name for name in REMOVED[module] if hasattr(mod, name)] == []
    assert not set(REMOVED[module]) & set(getattr(mod, "__all__", ()))


def test_galois_field_has_one_interface():
    # integer-encoded methods only: no element wrapper, no subtraction, identity equality
    for name in ("__call__", "sub_i", "_add_signed", "__eq__", "__hash__"):
        assert name not in vars(GaloisField), name


def test_the_package_reads_no_environment_variable():
    # every setting is an argument: a value read from the environment is a second source
    reads = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                reads.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.name}:{node.lineno} os.{a.name}" for a in node.names
                          if a.name in ("environ", "getenv")]
    assert not reads, ", ".join(reads)


def test_every_process_starts_with_an_empty_stdin_in_a_session_of_its_own():
    # an empty stdin keeps a case from reading the caller's input, a session from
    # outliving its process group; one wait loop reads the pipes, never communicate
    popens, communicates = [], []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name, where = ast.unparse(node.func).split(".")[-1], f"{path.name}:{node.lineno}"
            if name == "communicate":
                communicates.append(where)
            elif name == "Popen":
                popens.append(where)
                keywords = {k.arg: ast.unparse(k.value) for k in node.keywords}
                assert keywords.get("stdin") == "subprocess.DEVNULL", where
                assert keywords.get("start_new_session") == "True", where
    assert popens and not communicates, communicates


def test_every_module_level_definition_is_named_elsewhere():
    # a function or class that nothing names, in the package, its tests or its
    # benchmark, is dead code
    roots = [PACKAGE_DIR, PACKAGE_DIR.parents[1] / "tests", PACKAGE_DIR.parents[1] / "perfbench"]
    named = set()
    for path in (p for root in roots for p in root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
    unnamed = [
        f"{path.name}: {node.name}"
        for path in MODULES if path.name != "__main__.py"
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named
    ]
    assert not unnamed, ", ".join(unnamed)


def test_seed_length_rules_build_nothing():
    # the command line and test vector headers read widths from these rules before
    # building anything, so a rule may not build a field, design or extractor itself
    builders = {"GF", "GaloisField", "min_irreducible", "FiniteFieldPolynomialDesign", "generate_design",
                "PolynomialOneBitExtractor", "WeakDesign", "create", "cls"}
    rules, calls = [], []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "_seed_length_for":
                rules.append(path.name)
                calls += [f"{path.name}:{call.lineno} {ast.unparse(call.func)}" for call in ast.walk(node)
                          if isinstance(call, ast.Call) and ast.unparse(call.func).split(".")[-1] in builders]
    assert sorted(rules) == ["toeplitz.py", "trevisan.py"]
    assert not calls, ", ".join(calls)
