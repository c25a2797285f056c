"""Rules on the source of the package and the tests, read with ast.

Each file is parsed once, and each rule fails with every place that breaks it.

The public-name rule reads each module's __all__.  A name that only its own tests would
reach is left out of the package, and the tests spell it with what there is: a random
quadrangle is the generators' private _quadrangle, a side axis is axes["s"], a point is
ideal when p.coords[2] == 0, a lifted vertex is w.quad.labeled()[lab].  Four methods that
no module under src/ reaches are conveniences for the tests and bench/: Point2.affine,
Point3.affine, Point2.affine_coords and WitnessReport.passed.  Each name in ORACLES but
__version__ is itself in a module's __all__, so no entry outlives the name it excuses.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "quadshadow" / "__init__.py"
PACKAGE = sorted(INIT.parent.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
#: Public names that a test uses as an independent oracle (see the README), and the version.
ORACLES = {"triangles_perspective_point", "witness_side_traces", "parse_witness", "emit_scene",
           "__version__"}


@functools.cache
def tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def nodes(path: Path, kind) -> list:
    return [node for node in ast.walk(tree(path)) if isinstance(node, kind)]


@functools.cache
def read(path: Path) -> frozenset:
    """Every name the file reads: loaded names, attributes and imported names."""
    return frozenset(
        [n.id for n in nodes(path, ast.Name) if isinstance(n.ctx, ast.Load)]
        + [n.attr for n in nodes(path, ast.Attribute)] + [n.name for n in nodes(path, ast.alias)])


def exported(path: Path) -> list[str]:
    return [item.value for node in tree(path).body if isinstance(node, ast.Assign)
            and "__all__" in [getattr(target, "id", None) for target in node.targets]
            for item in node.value.elts if isinstance(item, ast.Constant)]


def test_no_assert_in_the_package():
    # python -O strips them
    found = [f"{path}:{node.lineno}" for path in PACKAGE for node in nodes(path, ast.Assert)]
    assert not found, "\n".join(found)


def test_no_unused_import():
    found = []
    for path in PACKAGE + TESTS:
        # star imports bind no name of their own
        used = {n.id for n in nodes(path, ast.Name)} | set(exported(path)) | {"*"}
        for node in nodes(path, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            # "import a.b" binds a
            names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            found += [f"{path}:{node.lineno}: {name}" for name in names if name not in used]
    assert not found, "\n".join(found)


def test_every_private_module_level_name_in_the_package_is_read():
    everywhere = frozenset().union(*map(read, PACKAGE + TESTS))
    found = []
    for path in PACKAGE:
        for node in tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            # dunders such as __all__ are read by Python itself
            found += [f"{path}:{node.lineno}: {name}" for name in names
                      if name.startswith("_") and name not in everywhere
                      and not (name.startswith("__") and name.endswith("__"))]
    assert not found, "\n".join(found)


def test_no_test_module_imports_another():
    # what more than one test module uses lives in a helper module
    found = [
        f"{path}:{node.lineno}: {module}" for path in TESTS
        for node in nodes(path, (ast.Import, ast.ImportFrom))
        for module in ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""]) if module.split(".")[0].startswith("test_")]
    assert not found, "\n".join(found)


def test_no_line_over_99_characters():
    found = [f"{path}:{number}" for path in PACKAGE + TESTS
             for number, line in enumerate(path.read_text(encoding="utf-8").split("\n"), 1)
             if len(line) > 99]
    assert not found, "\n".join(found)


def test_every_public_name_is_read_by_the_package_or_the_benchmark():
    # a command, a package function (of its own module too) or the benchmark reaches each
    # public name, or it is a named oracle; __init__ only lists names, so it reaches none
    readers = [read(path) for path in PACKAGE + BENCH if path != INIT]
    found = [f"{path}: {name}" for path in PACKAGE for name in exported(path)
             if name not in ORACLES and not any(name in names for names in readers)]
    public = {name for path in PACKAGE if path != INIT for name in exported(path)}
    found += [f"ORACLES: {name}" for name in sorted(ORACLES - public - {"__version__"})]
    assert not found, "\n".join(found)
