"""Trip-wire for what roundbench imports from ``repro``.

roundbench's traced pass reads names that tier-1 never touches, and the
bench itself is not run here.  Its sources are parsed with ``ast`` (not
imported), so a name the bench needs cannot leave ``src/`` unnoticed.
"""

import ast
import dataclasses
import importlib
import pathlib

import pytest

from repro.index import SuffixKnnAnswer

_BENCH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks/roundbench"
_MODULES = ("probes", "checks", "loop")


def _parse(module):
    return ast.parse((_BENCH / f"{module}.py").read_text())


@pytest.mark.parametrize("module", _MODULES)
def test_every_repro_import_resolves(module):
    imports = [
        node for node in ast.walk(_parse(module))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == "repro"
    ]
    assert imports, f"{module}.py imports nothing from repro"
    for node in imports:
        source = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(source, alias.name), (
                f"{module}.py:{node.lineno}: "
                f"from {node.module} import {alias.name}"
            )


def test_answer_counts_are_answer_fields():
    (assign,) = [
        node for node in _parse("probes").body
        if isinstance(node, ast.Assign)
        and any(
            isinstance(target, ast.Name) and target.id == "_ANSWER_COUNTS"
            for target in node.targets
        )
    ]
    counts = ast.literal_eval(assign.value)
    fields = {f.name for f in dataclasses.fields(SuffixKnnAnswer)}
    assert counts and set(counts) <= fields
