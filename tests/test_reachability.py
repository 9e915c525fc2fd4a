"""Every ``src/repro`` module must have a caller that is not its own test.

A module is *reached* when a name it defines is imported, or read as
``package.attr``, by a ``src/repro`` module other than a package
``__init__`` or by a script in ``examples/``, or when one of its public
functions is a driver in ``repro.cli.EXPERIMENTS`` (the CLI looks those
up by name).  Re-exports through package ``__init__`` files are followed
to the module that defines the name, but an ``__init__`` importing a
module does not by itself reach it.  ``__init__``, ``__main__`` and
``cli`` are the entry points and are exempt.

The analysis is static (AST only), so a module reached only through a
string the code builds at run time would be reported; none is.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXEMPT = {"__init__", "__main__", "cli"}


def module_name(path):
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class Package:
    """Module names, top-level definitions and re-exports of ``repro``."""

    def __init__(self):
        self.paths = {
            module_name(path): path
            for path in sorted((SRC / "repro").rglob("*.py"))
        }
        self.defined, self.reexports = {}, {}
        for name, path in self.paths.items():
            tree = ast.parse(path.read_text())
            self.defined[name] = _top_level_names(tree)
            self.reexports[name] = {
                bound: (source, original)
                for source, original, bound in _from_imports(tree, name, path)
            }

    def resolve(self, module, attr, depth=0):
        """The module (or package) that ``module.attr`` is defined in."""
        if f"{module}.{attr}" in self.paths:
            return f"{module}.{attr}"
        if module not in self.paths or depth > 10:
            return None
        if attr in self.reexports[module]:
            source, original = self.reexports[module][attr]
            return self.resolve(source, original, depth + 1)
        if attr in self.defined[module]:
            return module
        return None

    def reached_by(self, path):
        """Every ``repro`` module a file imports a name from or reads an
        attribute of."""
        tree = ast.parse(path.read_text())
        this = module_name(path) if SRC in path.parents else ""
        reached, bound = set(), {}
        for source, original, alias in _from_imports(tree, this, path):
            target = self.resolve(source, original)
            if target is not None:
                reached.add(target)
                if target in self.paths:
                    bound[alias] = target
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.name.split(".")[0] != "repro":
                        continue
                    if item.asname:
                        bound[item.asname] = item.name
                        reached.add(item.name)
                    else:
                        bound[item.name.split(".")[0]] = "repro"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                owner = self._module_of(node.value, bound)
                if owner is not None:
                    target = self.resolve(owner, node.attr)
                    if target is not None:
                        reached.add(target)
        return reached

    def _module_of(self, node, bound):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = self._module_of(node.value, bound)
            if owner is not None and f"{owner}.{node.attr}" in self.paths:
                return f"{owner}.{node.attr}"
        return None


def _top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _from_imports(tree, this, path):
    """``(absolute source module, imported name, bound alias)`` per
    ``from ... import`` anywhere in the file, relative ones resolved."""
    package = this if path.name == "__init__.py" else this.rpartition(".")[0]
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            base = package.split(".")
            base = base[: len(base) - (node.level - 1)]
            source = ".".join(base + ([node.module] if node.module else []))
        else:
            source = node.module or ""
        if not source.startswith("repro"):
            continue
        for item in node.names:
            yield source, item.name, item.asname or item.name


def unreached_modules():
    """``{module: [files that reach it anyway]}`` for every module no
    ``src/repro`` module, example or CLI driver reaches."""
    from repro import harness
    from repro.cli import EXPERIMENTS

    package = Package()
    callers = [
        path for path in package.paths.values() if path.name != "__init__.py"
    ] + sorted((ROOT / "examples").glob("*.py"))
    reached = set()
    for path in callers:
        reached |= package.reached_by(path)
    for driver, _ in EXPERIMENTS.values():
        reached.add(getattr(harness, driver).__module__)

    candidates = {
        name for name, path in package.paths.items()
        if path.stem not in EXEMPT
    }
    others = sorted(
        path for top in ("src", "tests", "examples", "benchmarks", "tools")
        for path in (ROOT / top).rglob("*.py")
    )
    report = {}
    for name in sorted(candidates - reached):
        report[name] = [
            str(path.relative_to(ROOT)) for path in others
            if path != package.paths[name] and name in package.reached_by(path)
        ]
    return report


def test_every_module_is_reached():
    report = unreached_modules()
    lines = [
        f"{name.removeprefix('repro.')}: only mentioned by "
        + (", ".join(files) or "nothing")
        for name, files in report.items()
    ]
    assert not report, "modules with no caller outside their own tests:\n" + (
        "\n".join(lines)
    )


def test_the_analysis_follows_imports_and_re_exports():
    """A vacuous analysis would pass the test above: pin a direct import,
    a chain of ``__init__`` re-exports and a re-exported CLI driver."""
    package = Package()
    service = package.reached_by(package.paths["repro.service"])
    assert "repro.baselines.autoregressive" in service
    assert package.resolve("repro", "PredictionService") == "repro.service"
    assert package.resolve("repro.harness", "run_fig7") == (
        "repro.harness.search_experiments"
    )
