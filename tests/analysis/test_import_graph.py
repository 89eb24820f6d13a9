"""Every module under ``src/repro`` is on the production import graph: the
closure of ``repro.cli``, ``repro.__main__``, the examples and ``bench/``,
imports inside functions included.  A module outside it is run only by tests
or benches, and lives beside them (``tests/<pkg>/``, ``benchmarks/``)."""

import ast
from pathlib import Path
from typing import Dict, Iterable, Set, Tuple

REPO = Path(__file__).resolve().parents[2]
ROOTS = ("repro.cli", "repro.__main__")
Modules = Dict[str, Tuple[str, str]]  # dotted name -> (source, its package)


def imports(source: str, package: str) -> Set[str]:
    """Every dotted name an import statement anywhere in ``source`` names."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")[: len(package.split(".")) + 1 - node.level]
            base = ".".join([*(parts if node.level else []), *filter(None, [node.module])])
            out.update([base, *(f"{base}.{a.name}" for a in node.names)])
    return out


def closure(modules: Modules, roots: Iterable[str], extra: Iterable[str] = ()) -> Set[str]:
    """The modules that ``roots`` and the outside sources ``extra`` import,
    with every package that holds one."""
    todo = [*roots, *(name for source in extra for name in imports(source, ""))]
    seen: Set[str] = set()
    while todo:
        parts = todo.pop().split(".")
        for name in (".".join(parts[:i]) for i in range(1, len(parts) + 1)):
            if name in modules and name not in seen:
                seen.add(name)
                todo.extend(imports(*modules[name]))
    return seen


def test_every_src_module_is_reached_from_an_entry_point():
    modules: Modules = {}
    for path in (REPO / "src/repro").rglob("*.py"):
        parts = path.relative_to(REPO / "src").with_suffix("").parts
        package = ".".join(parts[:-1])
        name = package if parts[-1] == "__init__" else ".".join(parts)
        modules[name] = (path.read_text(encoding="utf-8"), package)
    entries = [*(REPO / "examples").glob("*.py"), *(REPO / "bench").glob("*.py")]
    reached = closure(modules, ROOTS, (p.read_text(encoding="utf-8") for p in entries))
    assert sorted(set(modules) - reached) == []


def test_a_module_imported_only_by_a_test_is_unreached():
    modules = {"repro": ("", "repro"), "repro.oracle": ("", "repro"),
               "repro.cli": ("def main():\n    from repro import a\n", "repro"),
               "repro.a": ("from . import b\n", "repro"), "repro.b": ("", "repro")}
    assert closure(modules, ROOTS) == {"repro", "repro.cli", "repro.a", "repro.b"}
