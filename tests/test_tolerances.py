"""The numerical contract has one home, :mod:`repro.tolerances`.

Every constant there is read by a ``src/repro`` module and named by the
test its comment cites, and the serving modules write none of those
values as a bare literal: a copy of a slack or a floor would drift from
the one the exactness argument and the tie battery are about.
"""

import ast
import pathlib
import re

from repro import tolerances

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
MODULE = SRC / "tolerances.py"

#: The contract, value for value: changing one is a decision about
#: exactness or serving, never a side effect.
VALUES = {
    "FILTER_REL_SLACK": 1e-12,
    "ABANDON_SLACK": 1e-9,
    "STD_FLOOR": 1e-12,
    "NAIVE_VARIANCE": 1e-8,
    "AR_VARIANCE_FLOOR": 1e-8,
    "GP_VARIANCE_FLOOR": 1e-10,
    "GP_FALLBACK_VARIANCE": 1e-6,
    "MIX_SPREAD_FLOOR": 1e-10,
    "RECOVERY_FLOOR": 1e-9,
    "LOO_DIAGONAL_FLOOR": 1e-300,
    "CHOLESKY_JITTERS": (1e-10, 1e-8, 1e-6, 1e-4, 1e-2),
}

#: The modules that held a slack or a floor of the contract, relative to
#: ``src/repro``, plus the process engine, which de-normalises nothing.
SERVING = (
    "service.py",
    "exec/process.py",
    "index/suffix_search.py",
    "dtw/distance.py",
    "harness/search_experiments.py",
    "timeseries/series.py",
    "core/ar.py",
    "core/gp_predictor.py",
    "core/ensemble.py",
    "gp/loo.py",
    "gp/optimize.py",
    "gp/regression.py",
)

#: ``(module, enclosing definition, value)`` literals in SERVING that
#: equal a contract value but are not the contract, and why they stay.
KEPT = {
    ("gp/regression.py", "GaussianProcessRegressor.predict", 1e-12):
        "the bench-only regressor's own variance clip",
    ("core/gp_predictor.py", "_seed_kernel", 1e-6):
        "initial-value guards of the hyperparameter seed",
    ("gp/optimize.py", "_line_search", 1e-4):
        "optimiser tolerance parameter (Armijo constant)",
    ("gp/optimize.py", "conjugate_gradient", 1e-6):
        "optimiser tolerance parameter (grad_tol)",
    ("gp/optimize.py", "conjugate_gradient", 1e-10):
        "optimiser tolerance parameter (value_tol)",
    ("gp/optimize.py", "conjugate_gradient_minimize", 1e-6):
        "optimiser tolerance parameter (grad_tol)",
    ("gp/optimize.py", "conjugate_gradient_minimize", 1e-10):
        "optimiser tolerance parameter (value_tol)",
    ("gp/optimize.py", "nelder_mead_minimize", 1e-8):
        "optimiser tolerance parameter (tol)",
}


#: Every constant the module defines (all of its names are public).
NAMES = sorted(name for name in vars(tolerances) if name.isupper())


def contract_values():
    values = set()
    for name in NAMES:
        value = getattr(tolerances, name)
        values.update(value if isinstance(value, tuple) else (value,))
    return values


def float_literals(path):
    """``(enclosing definition, value)`` per float literal in ``path``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                visit(child, scope + [child.name])
            elif isinstance(child, ast.Constant) and type(child.value) is float:
                found.append((".".join(scope), child.value))
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return found


def names_read_from_tolerances(path):
    """Names ``path`` imports from, or reads as attributes of,
    :mod:`repro.tolerances`."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(
            "tolerances"
        ):
            read.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "tolerances"
        ):
            read.add(node.attr)
    return read


def cited_tests():
    """``{constant: test file}`` from the ``[name]`` that ends each
    constant's ``#:`` comment, on its line or the line above."""
    cited, above = {}, ""
    for line in MODULE.read_text().splitlines():
        match = re.match(r"([A-Z_]+) = ", line)
        if match:
            names = re.findall(r"\[(\w+)\]$", line) or re.findall(
                r"^#:.*\[(\w+)\]$", above
            )
            cited[match.group(1)] = f"tests/{names[0]}.py" if names else None
        above = line
    return cited


def test_the_values_are_the_contract():
    assert NAMES == sorted(VALUES)
    for name, value in VALUES.items():
        assert getattr(tolerances, name) == value, name


def test_the_module_depends_on_nothing():
    tree = ast.parse(MODULE.read_text())
    assert not [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_every_constant_is_read_by_src():
    read = set()
    for path in SRC.rglob("*.py"):
        if path != MODULE:
            read |= names_read_from_tolerances(path)
    assert set(NAMES) <= read, sorted(set(NAMES) - read)


def test_every_constant_cites_a_test_that_names_it():
    cited = cited_tests()
    assert sorted(cited) == NAMES
    for name, test in cited.items():
        assert test is not None, f"{name}'s comment cites no test"
        path = ROOT / test
        assert path.name != pathlib.Path(__file__).name, name
        assert re.search(rf"\b{name}\b", path.read_text()), (
            f"{test} does not name {name}"
        )


def test_serving_modules_hold_no_copy_of_a_value():
    values = contract_values()
    copies = [
        (module, scope, value)
        for module in SERVING
        for scope, value in float_literals(SRC / module)
        if value in values and (module, scope, value) not in KEPT
    ]
    assert not copies, (
        "read these from repro.tolerances instead of writing the value: "
        f"{copies}"
    )


def test_every_kept_literal_still_exists():
    """A KEPT entry whose literal is gone is stale: remove it."""
    for module, scope, value in KEPT:
        assert (scope, value) in float_literals(SRC / module), (module, scope)
