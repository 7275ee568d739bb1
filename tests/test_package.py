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
# encodings with GF(q).add_i/mul_i/inv_i/pow_i/eval_poly_i replace them
REMOVED = {
    "privamp": ["FieldElement", "field_add", "field_mul", "field_eval_poly", "Gf2Vector", "Gf2Matrix"],
    "privamp.fields": ["FieldElement", "field_add", "field_mul", "field_eval_poly", "FieldMismatch"],
    "privamp.bits": ["Gf2Vector", "Gf2Matrix"],
    "privamp.exceptions": ["FieldMismatch"],
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
