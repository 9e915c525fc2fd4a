"""Ablation benches for the design decisions DESIGN.md calls out.

Not figures from the paper — these quantify the mechanisms the paper
asserts qualitatively: warm-started online GP training, the ring-buffer
window index, the Table 2 parameter choices and the Section 6.4.1
history/space trade-off.  (Continuous threshold reuse is the
``threshold-reuse`` component of ``repro.ablation``, oracle-checked.)
"""

from repro.harness import (
    AccuracyScale,
    SearchScale,
    run_history_tradeoff,
    run_parameter_sensitivity,
    run_warmstart_ablation,
    run_window_reuse_ablation,
)

ACC = AccuracyScale(
    n_sensors=2, n_points=3000, test_points=60, steps=40,
    horizons=(1,), datasets=("ROAD",),
)
SEARCH = SearchScale(n_sensors=1, n_points=12_000, continuous_steps=8)


def test_ablation_warmstart(benchmark, save_report):
    result = benchmark.pedantic(
        lambda: run_warmstart_ablation(ACC), rounds=1, iterations=1
    )
    save_report("ablation_warmstart", result.render())
    print("\n" + result.render())
    # The paper's fixed-step warm start: ~same accuracy, much cheaper.
    assert result.warm_seconds_per_query < result.cold_seconds_per_query / 1.5
    assert result.warm_mae < result.cold_mae * 1.2


def test_ablation_window_reuse(benchmark, save_report):
    result = benchmark.pedantic(
        lambda: run_window_reuse_ablation(SEARCH), rounds=1, iterations=1
    )
    save_report("ablation_window_reuse", result.render())
    print("\n" + result.render())
    assert result.rebuild_sim_s / result.step_sim_s > 5.0


def test_ablation_parameter_sensitivity(benchmark, save_report):
    result = benchmark.pedantic(
        lambda: run_parameter_sensitivity(SEARCH), rounds=1, iterations=1
    )
    save_report("ablation_parameters", result.render())
    print("\n" + result.render())
    unfiltered = {(o, r): u for o, r, u, _ in result.rows}
    # Wider bands weaken the bound at fixed omega.
    assert unfiltered[(16, 16)] >= unfiltered[(16, 4)]


def test_ablation_history_tradeoff(benchmark, save_report):
    result = benchmark.pedantic(
        lambda: run_history_tradeoff(ACC), rounds=1, iterations=1
    )
    save_report("ablation_history", result.render())
    print("\n" + result.render())
    rows = {f: (m, b, c) for f, m, b, c in result.rows}
    # Keeping 10% of history multiplies capacity ~10x (Section 6.4.1)...
    assert rows[0.1][2] > 5 * rows[1.0][2]
    # ...at a real accuracy cost.
    assert rows[0.1][0] >= rows[1.0][0] * 0.95
