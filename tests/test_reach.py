"""Every module-level function and class of ``diffhom`` is reached.

A module-level ``def`` or ``class`` in ``src/diffhom`` must be named by code
outside its own definition, in ``src/``, ``bench/*.py`` or ``scripts/*.py``
(an import alone does not count), or be traced by name in
``bench/layertrace.py``.  What only the tests call belongs in the tests
(``formal``), not in the library.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "diffhom"

# Public names kept with no caller, each for the reason given.
ALLOWED = {
    ("hwv", "column_det"): "the paper's column determinant, the factor of every D_T, as public API",
    ("hwv", "e_iso"): "the paper's comparison map of one polynomial; verify maps whole families",
}


def _traced() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "bench" / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(mod, attr) for mod, attr, _ in module.TARGETS}


def _definitions_and_references() -> tuple[list[tuple[str, str]], set[str]]:
    """The (module, name) of each module-level def and class of the library,
    and every name that code in src/, bench/ and scripts/ reads (a Name or
    an attribute), outside the top-level definition of that same name."""
    files = sorted(SRC.glob("*.py"))
    defined = []
    referenced: set[str] = set()
    for path in files + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            if own is not None and path.parent == SRC:
                defined.append((path.stem, own))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    referenced.add(name)
    return defined, referenced


def test_every_library_definition_is_reached():
    defined, referenced = _definitions_and_references()
    traced = _traced()
    unreached = [(module, name) for module, name in defined
                 if name not in referenced and (module, name) not in traced]
    assert sorted(unreached) == sorted(ALLOWED)
