"""The package's public names: every ``__all__`` entry exists, and
``modops`` re-exports only names that their module lists in its
``__all__``, so a deletion cannot leave a stale export behind."""
import ast
import importlib
from pathlib import Path

import modops

SRC = Path(modops.__file__).parent


def test_every_name_in_a_modules_all_exists():
    missing = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"modops.{path.stem}" if path.stem != "__init__"
                                         else "modops")
        missing += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing


def test_package_exports_only_names_in_some_all():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    unlisted = []
    for node in imports:
        listed = getattr(importlib.import_module(f"modops.{node.module}"), "__all__", ())
        unlisted += [f"{node.module}.{alias.name}" for alias in node.names
                     if alias.name not in listed]
    assert not unlisted
