"""The package's export list, what importing it loads, and the names the
benchmark reads."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import matdecide


def test_every_exported_name_resolves():
    missing = [name for name in matdecide.__all__ if not hasattr(matdecide, name)]
    assert missing == []
    assert len(set(matdecide.__all__)) == len(matdecide.__all__)


def test_star_import_gives_exactly_the_export_list():
    namespace: dict = {}
    exec("from matdecide import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(matdecide.__all__)


SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every CLI call pays its imports, and these two bring ast, dis and
    # tokenize with them, which no query uses
    code = ("import sys, matdecide.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# What perfbench/run.py calls as attributes, beside its imports.
RUN_ATTRIBUTES = [
    ("matdecide", "kernel_backend"),
    ("matdecide", "default_coset_table"),
    ("matdecide.cli", "main"),
    ("matdecide.formats", "parse_automaton"),
    ("matdecide.pda", "free_automaton_emptiness"),
]


def _resolves(module: str, name: str) -> bool:
    """Is name an attribute of the module, or a submodule of it?"""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def _imported_names(path: Path) -> list[tuple[str, str]]:
    """(module, name) of every `from matdecide... import name` in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "matdecide" for alias in node.names]


def test_every_name_the_benchmark_reads_resolves():
    # the benchmark patches and calls these names from outside the package,
    # so renaming or deleting one breaks it without failing any test here
    spec = importlib.util.spec_from_file_location("stagetrace", PERFBENCH / "stagetrace.py")
    stagetrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stagetrace)
    patched = [(f"matdecide.{module}", name)
               for pairs in stagetrace.SPANS.values() for module, name in pairs]
    patched += [(f"matdecide.{module}", name) for module, name in stagetrace.COUNTED.values()]
    imported = _imported_names(PERFBENCH / "test_perfbench.py")
    imported += _imported_names(PERFBENCH / "run.py")
    assert len(patched) > 10 and len(imported) > 10
    names = patched + imported + RUN_ATTRIBUTES
    assert [pair for pair in names if not _resolves(*pair)] == []
