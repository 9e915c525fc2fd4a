"""Trip-wire for what roundbench imports from ``repro`` and calls.

roundbench's traced pass reads names that tier-1 never touches, and the
bench itself is not run here.  Its sources are parsed with ``ast`` (not
imported), so a name the bench needs cannot leave ``src/`` unnoticed;
and the probe's prediction calls are replayed on tiny sensors, so a
call whose shape changes cannot either.
"""

import ast
import dataclasses
import importlib
import pathlib

import numpy as np
import pytest

from repro.backend import make_backend
from repro.core import SMiLer, SMiLerConfig
from repro.core.ar import AggregationPredictor
from repro.core.ensemble import AdaptiveEnsemble
from repro.core.gp_predictor import GaussianProcessPredictor
from repro.index import SuffixKnnAnswer, SuffixKnnEngine

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


# ------------------------------------------------ the probe's call shapes
def _cell_inputs(engine, answers, cells, horizon):
    """``(query, X_{k,d}, Y_h)`` per cell, as ``Shadow._cell_inputs``
    gathers them from a stand-alone engine's answers."""
    series = engine.series
    inputs = {}
    for k, d in cells:
        starts, _ = answers[d].top(k)
        inputs[(k, d)] = (
            engine.item_query(d),
            np.lib.stride_tricks.sliding_window_view(series, d)[starts],
            series[starts + d - 1 + horizon],
        )
    return inputs


@pytest.mark.parametrize("predictor", ["ar", "gp"])
def test_the_probe_calls_still_fit(predictor):
    """``Shadow._probe_prediction``'s call sequence on a tiny sensor: a
    change to the shape of these calls fails here, not only in the
    bench's own self-tests."""
    config = SMiLerConfig(
        elv=(8, 16), ekv=(4, 8), rho=2, omega=4, horizons=(1,),
        predictor=predictor, initial_train_iters=4, online_train_iters=2,
    )
    t = np.arange(260)
    noise = np.random.default_rng(1).standard_normal(t.size)
    values = np.sin(t / 5.0) + 0.1 * noise
    history, future = values[:240], values[240:]
    smiler = SMiLer(history, config, backend=make_backend("native"))
    engine = SuffixKnnEngine(history, smiler.engine.config, make_backend("native"))
    answers = engine.search()
    make = (
        AggregationPredictor if predictor == "ar"
        else lambda: GaussianProcessPredictor(
            initial_train_iters=config.initial_train_iters,
            online_train_iters=config.online_train_iters,
        )
    )
    ensemble = AdaptiveEnsemble(
        cells=config.grid, predictor_factory=lambda cell: make(),
        self_adaptive=config.self_adaptive, sleep_enabled=config.sleep_enabled,
    )
    gp_cells = {k: make() for k in (8, 16, 32) if k in config.ekv}
    for z in future[:3].tolist():
        inputs = _cell_inputs(engine, answers, ensemble.awake_cells(), 1)
        output = ensemble.predict(inputs)
        assert np.isfinite(output.mean) and output.variance > 0
        ensemble.update(z, output.components)
        if predictor == "gp":
            d = config.elv[len(config.elv) // 2]
            cells = _cell_inputs(engine, answers, [(k, d) for k in gp_cells], 1)
            for k, cell in gp_cells.items():
                prediction = cell.predict(*cells[(k, d)])
                assert np.isfinite(prediction.mean) and prediction.variance > 0
            k, cell = max(gp_cells.items())
            assert cell.kernel.log_params.shape == (3,)
            assert cell.cg_iterations > 0 and cell.train_calls > 0
        outputs = smiler.predict(horizon=1)
        assert np.isfinite(outputs[1].mean)
        smiler.observe(z)
        assert len(smiler.ensemble(1).awake_cells()) >= 1
        engine.advance(z)
        answers = engine.search()
    assert ensemble.updates == 3
