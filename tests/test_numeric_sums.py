"""No builtin ``sum()`` on the numeric path.

From CPython 3.12 the builtin ``sum()`` of floats is compensated
(Neumaier); up to 3.11 it folds left to right.  A float ``sum()`` in the
forecast or search path therefore moves last bits between interpreter
versions.  Floats there are folded explicitly (``reduce(add, terms, 0)``,
``np.add.accumulate``); a builtin ``sum()`` stays only where every term
is an integer, each call listed in :data:`INTEGER_SUMS` with why.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
PACKAGES = ("core", "index", "dtw", "gp")

#: ``(module, the call's arguments as ast.unparse prints them): why its
#: terms are integers``.
INTEGER_SUMS = {
    (
        "index/group_index.py",
        "(csg_size(master, b, omega) >= m for b in range(omega))",
    ): "counts the CSGs that hold an m-th window: a sum of bools",
    (
        "index/group_index.py",
        "(n_b for n_b, _ in self._levels)",
    ): "shift-sum pairs per pass: a sum of int CSG counts",
    (
        "index/group_index.py",
        "(n_b * shift for shift, (n_b, _) in enumerate(self._levels))",
    ): "shift-sum shifts per pass: int counts times int shifts",
    (
        "index/window_index.py",
        "recomputed",
    ): "LB_EC columns recomputed per window step: a list of ints",
}


def builtin_sums(source):
    """``(line, its arguments unparsed)`` of every call to the name
    ``sum``."""
    return [
        (node.lineno, ", ".join(ast.unparse(arg) for arg in node.args))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ]


def found_sums():
    """``{(module, unparsed arguments): line}`` over the numeric packages."""
    found = {}
    for package in PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            module = path.relative_to(SRC).as_posix()
            for line, args in builtin_sums(path.read_text()):
                found[module, args] = line
    return found


def test_no_builtin_sum_folds_floats_on_the_numeric_path():
    unlisted = sorted(
        f"{module}:{line}: sum({args})"
        for (module, args), line in found_sums().items()
        if (module, args) not in INTEGER_SUMS
    )
    assert not unlisted, (
        "builtin sum() on the numeric path (fold floats with "
        "reduce(add, terms, 0), or list an integer sum in INTEGER_SUMS):\n"
        + "\n".join(unlisted)
    )


def test_every_listed_integer_sum_still_exists():
    """An allowance for a call that is gone is stale."""
    assert set(INTEGER_SUMS) <= set(found_sums())


def test_the_walk_sees_a_sum_and_only_the_builtin():
    """Pin the detector so a vacuous walk cannot pass."""
    source = "x = sum(parts)\ny = np.sum(parts)\nz = terms.sum()\n"
    assert builtin_sums(source) == [(1, "parts")]
