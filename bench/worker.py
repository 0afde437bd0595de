"""One benchmark process: import, prepare inputs, warm up, then time passes.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --spawn-time T --result FILE

`run.py` starts this script in a fresh interpreter and reads FILE.  Set-up
time runs from T, the parent's `time.monotonic()` just before it started this
process, to the end of the first (untimed) pass: interpreter start, importing
`dwigner.cli`, generating the inputs and the warm-up pass.  Timed passes then
run for about S seconds: a pass starts only if it will likely end less than
half a pass after the deadline, and there is at least one.  With --trace 1,
untraced and traced passes alternate, so the difference of their medians is
the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def call_cli(cli, argv: list) -> int:
    """`dwigner.cli.main(argv)` as an exit code; a crash is a failed operation."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return -1


def run_pass(cli, plan) -> tuple[float, list]:
    """Wall time of every command of the plan, one after another, and their exit codes."""
    for command in plan.commands:
        command.out.unlink(missing_ok=True)
    codes = []
    start = time.perf_counter()
    for command in plan.commands:
        codes.append(call_cli(cli, command.argv))
    return time.perf_counter() - start, codes


def check_pass(plan, codes: list, tally) -> None:
    for command, code in zip(plan.commands, codes):
        tally.add(command.check(code, command.out))


def layer_metrics(tracer, wall: float, plan) -> dict:
    """Per-layer numbers of one traced pass."""
    out = tracing.summarize(tracer.spans, wall)
    out.update(tracer.counters)
    hull_calls = out["geometry.hull_calls"]
    feasible_calls = out["exactlp.feasible_calls"]
    out["geometry.lp_point_share"] = hull_calls / plan.grid_points if plan.grid_points else 0.0
    out["exactlp.useful_ratio"] = (
        out["geometry.hull_disputed"] / feasible_calls if feasible_calls else 0.0
    )
    heavy = workloads.HEAVY_LAYERS[plan.workload]
    out["trace.heavy_share"] = tracing.inclusive_time(tracer.spans, heavy) / wall
    return out


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import dwigner.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"dwigner was imported from {cli.__file__}, not from {ROOT / 'src'}")
    plan = workloads.prepare(args.workload, ROOT, ROOT / ".bench_work" / args.workload, args.seed)
    tally = workloads.Tally()
    _, codes = run_pass(cli, plan)
    setup_s = time.monotonic() - args.spawn_time
    check_pass(plan, codes, tally)

    tracer = tracing.Tracer() if args.trace else None
    untraced, traced, layers = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        if tracer is not None and len(traced) < len(untraced):
            tracer.reset()
            tracer.install()
            try:
                wall, codes = run_pass(cli, plan)
            finally:
                tracer.uninstall()
            traced.append(wall)
            layers.append(layer_metrics(tracer, wall, plan))
        else:
            wall, codes = run_pass(cli, plan)
            untraced.append(wall)
        check_pass(plan, codes, tally)
        # stop when another pass would end nearer past the deadline than this one ends before it
        if time.perf_counter() + wall / 2 > deadline and (tracer is None or traced):
            break

    result = {
        "setup_s": setup_s,
        "passes": untraced,
        "traced_passes": traced,
        "layers": {
            name: statistics.median(row[name] for row in layers) for name in layers[0]
        } if layers else {},
        "missing_targets": tracer.missing if tracer else [],
        "spans": tracer.spans if tracer else [],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "skipped": tally.skipped,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_per_pass": plan.work_per_pass,
        "work_unit": plan.work_unit,
        "operation": plan.operation,
        "params": plan.params,
        "env": environment(),
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
