"""Import hygiene of the package sources, checked with ``ast``: no module
keeps a top-level import it never uses, every ``__all__`` name exists on
its module, and every module-level private function is used somewhere in
the package.  Deleting code tends to leave all three behind.  A fresh
interpreter checks what ``import shiftguard.cli`` loads, which every CLI
process pays for."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "shiftguard").rglob("*.py"))


def module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def top_level_imports(tree: ast.Module) -> dict:
    """Bound name -> line of every module-level import."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def exported_names(tree: ast.Module) -> list:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


@pytest.mark.parametrize("path", MODULES, ids=module_name)
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(exported_names(tree))
    unused = {name: line for name, line in top_level_imports(tree).items()
              if name not in used}
    assert not unused, f"{module_name(path)}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=module_name)
def test_all_names_resolve(path):
    names = exported_names(ast.parse(path.read_text(encoding="utf-8")))
    module = importlib.import_module(module_name(path))
    missing = [n for n in names if not hasattr(module, n)]
    assert not missing, f"{module_name(path)}: __all__ names {missing}"


def test_private_functions_are_referenced():
    """A ``_private`` helper that no package code names is reached only by
    tests, if at all; the deletion that stranded it should take it too."""
    defined, used = [], set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(module_name(path), node.name) for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.startswith("__")]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
    stranded = [f"{mod}.{name}" for mod, name in defined if name not in used]
    assert not stranded, f"private functions no package code uses: {stranded}"


def test_cli_import_leaves_out_process_pools():
    """Only ``calibrate(jobs > 1)`` uses ``concurrent.futures`` (which
    imports ``logging``), so it is imported there, not with the CLI."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    code = ("import sys, shiftguard.cli; "
            "print('concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    assert out.stdout.strip() == "False"
