"""roundbench: time the whole serving round, five workloads, layer by layer.

    python3 benchmarks/roundbench/run.py --seed 2015            # every workload
    python3 benchmarks/roundbench/run.py --seed 2015 --trace    # + per-layer pass
    python3 benchmarks/roundbench/run.py --workload deep-search --seed 7 \\
        --seconds 10 --trace 0                                  # one workload
    python3 benchmarks/roundbench/run.py --repeat 5 --seed 2015 --out A.json
    python3 benchmarks/roundbench/run.py compare A.json B.json

Every workload runs in a fresh subprocess (``worker.py``), driven by a
closed loop with one caller.  End-to-end metrics come from the untraced
pass (``--trace 0``); per-layer metrics from the traced pass
(``--trace 1``).  The last line of standard output of a single-workload
run is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: A worker that has not finished by then is killed (the contract gives
#: a run 180 s).
WORKER_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))

from compare import bounds_table, compare_sets, format_rows, load_set  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def worker_env() -> dict[str, str]:
    """Repeatability hygiene: single-threaded BLAS, fixed hash seed, and
    the program importable from its source tree."""
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    paths = [str(SRC), str(HERE)] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    )
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # The benchmark picks backend, engine and workers itself.
    for name in ("REPRO_BACKEND", "REPRO_EXEC", "REPRO_MAX_WORKERS",
                 "REPRO_FAULT_PROFILE"):
        env.pop(name, None)
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               smoke: bool) -> dict:
    """One pass of one workload in a fresh process; returns its result."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"result-{workload}-{seed}-t{trace}-{os.getpid()}.json"
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--out", str(out),
    ] + (["--smoke"] if smoke else [])
    try:
        # subprocess.run kills and reaps the worker on timeout.
        done = subprocess.run(
            command, env=worker_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S,
            stdout=sys.stderr, stderr=sys.stderr,
        )
        if done.returncode != 0:
            raise SystemExit(
                f"roundbench: worker for {workload} exited {done.returncode}"
            )
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def host_header() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # an exported checkout is not a repository
    return {
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


# ---------------------------------------------------------------- printing
def _format_value(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def print_result(result: dict, file=sys.stdout) -> None:
    kind = "per-layer (traced)" if result["trace"] else "end-to-end (untraced)"
    print(f"== {result['workload']} seed={result['seed']} {kind}: "
          f"{result['rounds']} rounds", file=file)
    notes: dict[str, list[str]] = {}
    if not result["trace"]:
        n = result["rounds"]
        for name in ("round_p50_ms", "forecast_p50_ms", "ingest_p50_ms"):
            notes[name] = [f"n={n}"]
        tail = result["supported_percentile"]
        supports = f"p{tail} at most" if tail else "no percentile"
        notes["round_p90_ms"] = [f"n={n}, {n // 10} beyond" + (
            "" if tail and tail >= 90 else
            f": fewer than ten, the sample supports {supports}"
        )]
        notes["setup_s"] = [f"median of {result['setup_repeats']} set-ups"]
        notes["restore_p50_ms"] = [f"n={result['restore_cycles']}"]
        for name, raw in result["raw_wall"].items():
            if raw is not None:
                notes.setdefault(name, []).append(
                    f"raw wall {_format_value(raw)}"
                )
        print(f"  timings in reference ms; host speed "
              f"{result['host_speed']:.3f} of reference", file=file)
    for name, metric in result["metrics"].items():
        note = f"  ({'; '.join(notes[name])})" if name in notes else ""
        print(f"  {name:<30} {_format_value(metric['value']):>12} "
              f"{metric['unit']}{note}", file=file)
    for name, check in result["checks"].items():
        verdict = "ok  " if check["ok"] else "FAIL"
        print(f"  check {name:<32} {verdict} {check['detail']}", file=file)
    if "digest" in result:
        print(f"  forecast digest ({result['digest_rounds']} rounds) "
              f"{result['digest']}", file=file)
    if "trace_file" in result:
        print(f"  trace written to {OUT / result['trace_file']}", file=file)


def checks_ok(result: dict) -> bool:
    return result["failed"] == 0 and all(
        check["ok"] for check in result["checks"].values()
    )


# ------------------------------------------------------------------- modes
def contract_names(trace: int) -> list[str]:
    """The metric names ``BENCHMARK.json`` promises for this pass."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(args) -> int:
    """Single workload, single pass: the form the benchmark driver calls."""
    result = run_worker(
        args.workload, args.seed, args.seconds, args.trace, args.smoke
    )
    print_result(result)
    metrics = {
        name: result["metrics"][name] for name in contract_names(args.trace)
    }
    missing = [name for name, m in metrics.items() if m["value"] is None]
    if missing:
        raise SystemExit(f"roundbench: no value for {missing}")
    correct = checks_ok(result)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then (with ``--trace``) traced; with
    ``--repeat N`` the whole thing N times, written as one set."""
    header = dict(host_header(), seed=args.seed, seconds=args.seconds,
                  smoke=args.smoke)
    print("roundbench " + " ".join(f"{k}={v}" for k, v in header.items()))
    ok = True
    runs, layers = [], []
    for repeat in range(args.repeat):
        run, layer = {}, {}
        for name in WORKLOADS:
            run[name] = run_worker(name, args.seed, args.seconds, 0, args.smoke)
            print_result(run[name])
            ok &= checks_ok(run[name])
            if args.trace:
                layer[name] = run_worker(name, args.seed, 0, 1, args.smoke)
                print_result(layer[name])
                ok &= checks_ok(layer[name])
        same = run["fleet-stream"]["digest"] == run["fleet-stream-proc"]["digest"]
        print("  check fleet-stream-proc digest equals fleet-stream's: "
              + ("ok" if same else "FAIL"))
        ok &= same
        runs.append(run)
        layers.append(layer)
    OUT.mkdir(exist_ok=True)
    label = f"{'smoke-' if args.smoke else ''}{args.seed}"
    path = args.out or OUT / (
        f"set-{label}.json" if args.repeat > 1 else f"results-{label}.json"
    )
    path.write_text(json.dumps(
        {"header": header, "runs": runs, "per_layer": layers}, indent=1
    ) + "\n")
    print(f"wrote {path}")
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def run_compare(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a", type=pathlib.Path)
    parser.add_argument("b", type=pathlib.Path)
    args = parser.parse_args(argv)
    rows = compare_sets(
        load_set(args.a), load_set(args.b), bounds_table(BENCHMARK_JSON)
    )
    print(format_rows(rows))
    return 1 if any(row.verdict == "fail" for row in rows) else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A terminated run must not leave its worker behind: turn SIGTERM
    # into an exit, which subprocess.run answers by killing the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro").is_dir() or not BENCHMARK_JSON.is_file():
        print(f"roundbench: {SRC / 'repro'} or {BENCHMARK_JSON.name} is "
              "missing; run from a full checkout", file=sys.stderr)
        return 2
    if argv and argv[0] == "compare":
        return run_compare(argv[1:])
    run_seconds = json.loads(BENCHMARK_JSON.read_text())["run_seconds"]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="least time the measured phase lasts (it also "
                        "lasts at least 100 rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: the traced pass and the per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workload mode: runs in the set written")
    parser.add_argument("--out", type=pathlib.Path,
                        help="all-workload mode: where the results are "
                        "written (default: out/results-<seed>.json, or "
                        "out/set-<seed>.json with --repeat)")
    parser.add_argument("--smoke", action="store_true",
                        help="8 sensors, 10 rounds, no minimum time")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
