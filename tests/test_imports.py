"""Every name a ``priorlearn`` module imports is used in that module or exported by it.

A name counts as used when the module's code reads it anywhere, in a
function body or an annotation too, and as exported when the module's
``__all__`` lists it. ``from __future__`` imports bind no name. A leftover
import after its last caller goes, such as a constant only a deleted
wrapper read, fails here. So does an import inside a function that
``DEFERRED`` does not list with its reason, and a module other than
``stats`` that names scipy.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "priorlearn"

#: (module, name) imports kept without a use, each with its reason.
ALLOWED = {
    ("experiment", "cross_seed_mean_scores"): (
        "perfbench/tracer.py patches the name where experiment looks it up; "
        "it goes with that patch, in the next benchmark change (ROADMAP item 6)"
    ),
}


def unused_imports(source: str) -> list[str]:
    """Names ``source`` imports that it neither reads nor lists in ``__all__``, in import order."""
    tree = ast.parse(source)
    imported, used, exported = [], set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used | exported]


MODULES = sorted(SRC.glob("*.py"))


def test_every_module_found():
    assert {"cli", "corpus", "experiment", "metrics", "search", "stats"} <= {path.stem for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_unused_imports(path):
    unused = [name for name in unused_imports(path.read_text(encoding="utf-8")) if (path.stem, name) not in ALLOWED]
    assert unused == [], f"{path.name} imports {unused} without using or exporting them"


@pytest.mark.parametrize("module, name", sorted(ALLOWED))
def test_each_allowed_import_is_still_unused(module, name):
    assert name in unused_imports((SRC / f"{module}.py").read_text(encoding="utf-8"))


#: (module, function, imported module) of each import inside a function, each with its reason.
DEFERRED = {
    ("corpus", "ingest_wiki_dump", "multiprocessing"): "~25 ms to import: only a process that ingests a dump loads it",
    ("stats", "significance_test", "scipy.special"): "scipy: only a caller who asks for a p-value loads it",
}


def test_every_function_level_import_is_listed():
    found = {
        (path.stem, function.name, node.module if isinstance(node, ast.ImportFrom) else node.names[0].name)
        for path in MODULES
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert found == set(DEFERRED)


def test_no_module_but_stats_names_scipy():
    assert [path.stem for path in MODULES if "scipy" in path.read_text(encoding="utf-8")] == ["stats"]


class TestChecker:
    def test_leftover_import_is_found(self):
        source = "from .model import BAYES_LAPLACE, build_counts\n\n\ndef f(c):\n    return build_counts(c)\n"
        assert unused_imports(source) == ["BAYES_LAPLACE"]

    def test_use_in_a_function_or_an_annotation_counts(self):
        source = "import numpy as np\nfrom typing import Sequence\n\n\ndef f(x: Sequence[int]):\n    return np.asarray(x)\n"
        assert unused_imports(source) == []

    def test_reexport_through_all_counts(self):
        source = 'from .metrics import outcome_vector\n\n__all__ = ["outcome_vector"]\n'
        assert unused_imports(source) == []

    def test_import_inside_a_function_is_checked(self):
        assert unused_imports("def f():\n    import html\n    return 1\n") == ["html"]

    def test_future_import_binds_no_name(self):
        assert unused_imports("from __future__ import annotations\n") == []
