import ast
import functools
import importlib
import inspect
from pathlib import Path

import pytest

LAYER_MODULES = ("dyadic", "wavelets", "operators", "size_energy", "stopping",
                 "models", "multiplier", "harness")


@pytest.mark.parametrize("name", LAYER_MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    """Every __all__ name exists, and every public function or class the
    module defines is listed."""
    module = importlib.import_module(f"dyadlab.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    unlisted = [n for n, v in vars(module).items()
                if not n.startswith("_")
                and (inspect.isfunction(v) or inspect.isclass(v))
                and v.__module__ == module.__name__
                and n not in module.__all__]
    assert missing == [] and unlisted == []


ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src/dyadlab", "scripts", "perfbench")

# Public names that only the tests call.  ROADMAP item 13 gives each a caller
# in the package or deletes it, and so empties this list.
TEST_ONLY = {
    "dyadic": {"tensor"},
    "wavelets": {"haar_eval", "band_energy_fraction"},
    "size_energy": {"bmo_norm", "size_energy_bound_check", "weak_l1_norm"},
    "stopping": {"tensor_decomposition_II", "level_set_decomposition_2d",
                 "check_index_observation_II"},
}


@functools.lru_cache(maxsize=None)
def _used_names() -> frozenset:
    """(module, name) pairs that package, script and benchmark code uses, read
    from the syntax tree: a bare name imported from the module or defined in
    it (outside the name's own definition), or an attribute of the module."""
    used = set()
    for path in sorted(p for d in CALLER_DIRS for p in (ROOT / d).glob("*.py")):
        tree = ast.parse(path.read_text())
        own = path.stem if path.parent.name == "dyadlab" else None
        imported = {a.asname or a.name: (node.module.rsplit(".", 1)[-1], a.name)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module
                    for a in node.names}
        for top in tree.body:
            skip = (top.name if own and isinstance(
                top, (ast.FunctionDef, ast.ClassDef)) else None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != skip:
                    used.add(imported.get(node.id, (own, node.id)))
                elif isinstance(node, ast.Attribute) and node.attr != skip:
                    base = node.value
                    used.add((getattr(base, "attr", getattr(base, "id", None)),
                              node.attr))
    return frozenset(used)


@pytest.mark.parametrize("name", LAYER_MODULES)
def test_every_public_definition_has_a_caller(name):
    """Every function or class in __all__ is used by the package, a script or
    the benchmark, apart from the listed test-only names; a listed name that
    gains a caller must leave the list."""
    module = importlib.import_module(f"dyadlab.{name}")
    uncalled = {n for n in module.__all__
                if (inspect.isfunction(getattr(module, n))
                    or inspect.isclass(getattr(module, n)))
                and (name, n) not in _used_names()}
    assert uncalled == TEST_ONLY.get(name, set())


@pytest.mark.parametrize("path", sorted((ROOT / "src/dyadlab").glob("*.py")),
                         ids=lambda p: p.stem)
def test_every_import_is_used(path):
    """Every name a package module imports is used in the module, as a bare
    name or as the base of an attribute, or is listed in its __all__."""
    tree = ast.parse(path.read_text())
    imported = {(a.asname or a.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for elt in node.value.elts}
    assert imported - used - exported == set()
