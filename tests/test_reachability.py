"""Every ``src/repro`` module, and every public name in it, must have a
reader that is not its own test.

A module is *reached* when a name it defines is imported, or read as
``package.attr``, by a ``src/repro`` module other than a package
``__init__`` or by a script in ``examples/``, or when one of its public
functions is a driver in ``repro.cli.EXPERIMENTS`` (the CLI looks those
up by name).  Re-exports through package ``__init__`` files are followed
to the module that defines the name, but an ``__init__`` importing a
module does not by itself reach it.  ``__init__``, ``__main__`` and
``cli`` are the entry points and are exempt.

A public name is an ``__all__`` entry defined in its module, or a public
method (property included) of a public class.  It is *read* when a
reader other than its own definition uses it: an ``__all__`` name is
imported (not merely re-exported by an ``__init__``), read as
``module.name`` or, in its own module, used by another definition; a
method is read as ``.name`` on anything, or by ``getattr`` with that
string.  Readers are the ``src/repro`` modules, ``examples/``,
``tools/``, ``benchmarks/`` outside its self-tests and the
``cli.EXPERIMENTS`` drivers.  :data:`KEPT_UNREAD` lists the names kept
without a reader, each with why, and :data:`NOT_YET_SWEPT` the unread
ones left for a later sweep.  :data:`BENCH_ONLY` lists the names whose
only readers are in the frozen ``benchmarks/roundbench/``, which no
change may edit, so they stay while it reads them.

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


#: Public names with no non-test reader that stay, and why.  Reference
#: oracles are what tests compare the optimised code against; test seams
#: expose state a test must observe.
KEPT_UNREAD = {
    "repro.index.reference.algorithm1_reference":
        "reference oracle: Algorithm 1 transcribed, GroupLevelIndex's oracle",
    "repro.dtw.distance.dtw_distance_compressed":
        "reference oracle: Appendix C's compressed-band DTW, the kernels' oracle",
    "repro.dtw.distance.dtw_distance":
        "reference oracle: cell-by-cell banded DTW every kernel is checked against",
    "repro.dtw.knn.knn_bruteforce":
        "reference oracle: the exhaustive kNN scan the search is checked against",
    "repro.dtw.measures.euclidean_distance":
        "reference: the upper bound banded DTW is checked against",
    "repro.gp.loo.loo_log_likelihood":
        "reference oracle: the brute-force LOO likelihood LooProblem matches",
    "repro.gp.optimize.conjugate_gradient_minimize":
        "reference: the CG coroutine driven for one objective, as the kept "
        "per-cell trainer drives it",
    "repro.core.predictor.GaussianPrediction.density":
        "reference: the likelihoods ensemble weight updates are checked against",
    "repro.exec.process.ProcessShardEngine.worker_pids":
        "test seam: crash tests kill a shard worker by pid",
    "repro.gpu.device.MemoryLedger.live_allocations":
        "test seam: ledger tests inspect what is still allocated",
    "repro.index.window_index.WindowLevelIndex.series_envelope":
        "test seam: the lane battery compares it with the per-sensor oracle",
    "repro.obs.hooks.get_tracer":
        "test seam: tracing tests read the process-wide tracer",
    "repro.obs.hooks.configure_slo":
        "test seam: SLO tests set objectives the defaults do not",
    "repro.obs.tracing.Tracer.current":
        "test seam: tracer tests read the active span per thread",
    "repro.obs.tracing.Span.find_all":
        "test seam: trace tests locate the spans they assert on",
    "repro.dtw.lower_bounds.lb_eq":
        "reference: scalar LB_EQ, checked <= DTW and <= LB_Improved",
    "repro.dtw.lower_bounds.lb_ec":
        "reference: scalar LB_EC; with lb_eq, LB_en = their max (Thm 4.1)",
    "repro.timeseries.windows.disjoint_window_count":
        "reference: the DW range the Theorem 4.2 / Lemma 4.1 properties span",
}

#: Unread names found beyond the ones the name-level sweep deleted: each
#: has unit tests of its own that would go with it, so they are listed
#: for the next sweep rather than deleted here.
NOT_YET_SWEPT: dict[str, str] = {}

READER_TOPS = ("examples", "tools", "benchmarks")


def _all_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return [element.value for element in node.value.elts]
    return []


def public_names(package):
    """``{qualified name: module}``: ``module.name`` per ``__all__`` entry
    the module defines, ``module.Class.method`` per public method of a
    public class."""
    names = {}
    for module, path in package.paths.items():
        if path.stem in EXEMPT - {"__init__"}:
            continue
        tree = ast.parse(path.read_text())
        for name in _all_names(tree):
            if name in package.defined[module]:
                names[f"{module}.{name}"] = module
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not item.name.startswith("_"):
                        names[f"{module}.{node.name}.{item.name}"] = module
    return names


def _defined_in(package, module, attr, depth=0):
    """``module.attr`` followed through re-exports to its definition."""
    if module not in package.paths or depth > 10:
        return None
    if attr in package.reexports[module]:
        source, original = package.reexports[module][attr]
        return _defined_in(package, source, original, depth + 1)
    if attr in package.defined[module]:
        return f"{module}.{attr}"
    return None


def names_read_by(package, path):
    """``(qualified module-level names, attribute names)`` a file reads."""
    tree = ast.parse(path.read_text())
    this = module_name(path) if SRC in path.parents else ""
    names, attrs, bound, modules = set(), set(), {}, {}
    for source, original, alias in _from_imports(tree, this, path):
        target = package.resolve(source, original)
        if target in package.paths:
            modules[alias] = target
        defined = _defined_in(package, source, original)
        if defined is not None:
            bound[alias] = defined
            if path.name != "__init__.py":  # a re-export is not a read
                names.add(defined)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name.split(".")[0] == "repro":
                    alias = item.asname or item.name.split(".")[0]
                    modules[alias] = item.name if item.asname else "repro"
    own_names = package.defined.get(this, set())
    for statement in tree.body:
        own = getattr(statement, "name", None)
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in bound:
                    names.add(bound[node.id])
                elif node.id in own_names and node.id != own:
                    names.add(f"{this}.{node.id}")
            elif isinstance(node, ast.Attribute):
                owner = package._module_of(node.value, modules)
                if owner is not None:
                    defined = _defined_in(package, owner, node.attr)
                    if defined is not None:
                        names.add(defined)
    _attribute_reads(tree, None, attrs)
    return names, attrs


def _attribute_reads(node, own, attrs):
    """Every ``.attr`` and ``getattr(x, "attr")`` under ``node``, except a
    method reading itself."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        own = node.name
    if isinstance(node, ast.Attribute) and node.attr != own:
        attrs.add(node.attr)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("getattr", "hasattr")
        and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant)
    ):
        attrs.add(node.args[1].value)
    for child in ast.iter_child_nodes(node):
        _attribute_reads(child, own, attrs)


def readers(package):
    return list(package.paths.values()) + [
        path
        for top in READER_TOPS
        for path in sorted((ROOT / top).rglob("*.py"))
        if "tests" not in path.relative_to(ROOT).parts
    ]


def read_by():
    """``{public name: the reader files that read it}``; a CLI experiment
    driver is read by ``repro.cli``, which looks it up by name."""
    from repro import harness
    from repro.cli import EXPERIMENTS

    package = Package()
    reads = {path: names_read_by(package, path) for path in readers(package)}
    drivers = {
        f"{getattr(harness, driver).__module__}.{driver}"
        for driver, _ in EXPERIMENTS.values()
    }
    found = {}
    for qualified, module in public_names(package).items():
        tail = qualified[len(module) + 1 :]
        found[qualified] = {
            path for path, (names, attrs) in reads.items()
            if (tail.split(".")[1] in attrs if "." in tail else qualified in names)
        }
        if qualified in drivers:
            found[qualified].add(package.paths["repro.cli"])
    return found


def read_status():
    """``{public name: whether a reader reads it}``."""
    return {name: bool(paths) for name, paths in read_by().items()}


def test_every_public_name_is_read():
    unread = sorted(
        name for name, read in read_status().items()
        if not read and name not in KEPT_UNREAD | NOT_YET_SWEPT
    )
    assert not unread, (
        "public names no non-test reader reads (delete them, or add them "
        "to KEPT_UNREAD with why):\n" + "\n".join(unread)
    )


def test_allowances_are_for_existing_unread_names():
    """An allowance for a name that is gone, or that has since gained a
    reader, is stale."""
    status = read_status()
    for name in KEPT_UNREAD | NOT_YET_SWEPT:
        assert status.get(name) is False, name


def test_the_name_analysis_sees_every_kind_of_read():
    """Pin one read of each kind, so a vacuous analysis cannot pass."""
    package = Package()
    bench = ROOT / "benchmarks/roundbench/probes.py"
    names, _ = names_read_by(package, bench)
    assert "repro.dtw.distance.dtw_batch_pruned" in names  # from-import
    _, attrs = names_read_by(package, package.paths["repro.ablation.study"])
    assert "cost" in attrs  # getattr(backend, "cost", None)
    names, _ = names_read_by(package, package.paths["repro.timeseries.windows"])
    assert "repro.timeseries.windows.csg_size" in names  # own module
    names, _ = names_read_by(package, package.paths["repro.core"])
    assert "repro.core.smiler.SMiLer" not in names  # a re-export only
    assert "repro.core.smiler.predict_many" in public_names(package)


#: Public names whose only non-test readers are in the frozen
#: ``benchmarks/roundbench/``: each with the bench file that reads it and
#: what the read measures or checks.  A change that gives one a reader
#: elsewhere, or takes the last other reader from a name, edits this.
#: (``ItemLowerBounds.bound`` is read in ``probes.py``; ``compare.py``
#: only reads a field of the same name on its own records.)
BENCH_ONLY = {
    "repro.dtw.distance.dtw_batch_pruned": (
        "probes.py", "dtw.dtw_batch_pruned: the cutoff filter over dtw_batch",
    ),
    "repro.dtw.lower_bounds.lb_improved_profile": (
        "probes.py", "dtw.lb_improved: the LB_Improved tier replayed",
    ),
    "repro.dtw.lower_bounds.lb_kim_profile": (
        "probes.py", "dtw.lb_kim: LB_Kim over every candidate",
    ),
    "repro.gp.loo.loo_objective": (
        "probes.py", "gp.loo_objective: one LOO objective per probed cell",
    ),
    "repro.gp.regression.GaussianProcessRegressor": (
        "probes.py", "gp.fit: one stand-alone GP fit per probed cell",
    ),
    "repro.index.group_index.GroupLevelIndex.compute": (
        "probes.py", "index.group_lb: one sensor's shift-sum replayed alone",
    ),
    "repro.index.group_index.ItemLowerBounds.bound": (
        "compare.py, probes.py",
        "dtw.lb_improved: the window bounds of the replayed candidates",
    ),
    "repro.service.PredictionService.deregister": (
        "loop.py", "churn rounds deregister the oldest sensor",
    ),
    "repro.service.PredictionService.placement_of": (
        "checks.py", "check_placement: every live sensor on one valid shard",
    ),
}


def test_bench_only_names_are_the_committed_list():
    bench = ROOT / "benchmarks" / "roundbench"
    found = {
        name: ", ".join(sorted(path.name for path in paths))
        for name, paths in read_by().items()
        if paths and all(bench in path.parents for path in paths)
    }
    assert found == {name: files for name, (files, _) in BENCH_ONLY.items()}
