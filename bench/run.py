"""Benchmark of the `dwigner` command line, one workload per run.

    python3 bench/run.py --workload slice-hull --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/`.  With --trace 0 the run starts three fresh worker processes
(`bench/worker.py`) one after another.  Each one sets up, does an untimed
warm-up pass and then times passes for a third of --seconds, checking every
output.  The run reports set-up time, pass wall time, throughput and peak
memory, as medians over the workers' numbers.  With --trace 1 a single worker
alternates untraced passes with passes that record spans around the calls
into each module, and the run reports per-layer self times, call counts,
counters and the tracing overhead.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it repeat the numbers
with their sample counts.  A full record, environment included, goes to
`.bench_work/results/`.  The run exits with code 1 if a worker fails and
with code 2 if the checkout holds no `dwigner` sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0  # every worker of a run must end within this
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "geometry.lp_point_share": "ratio",
    "exactlp.useful_ratio": "ratio",
    "trace.heavy_share": "ratio",
    "simulate.uniform_bytes": "bytes",
}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def per_layer_names() -> list:
    names = ["cli.self_s"]
    for group in tracing.LAYER_GROUPS:
        names += [f"{group}_s", f"{group}_calls"]
    names += list(tracing.COUNTERS)
    names += ["geometry.lp_point_share", "exactlp.useful_ratio", "trace.heavy_share",
              "trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s"]
    return names


def commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_worker(args, seconds: float, result: Path, deadline: float, env: dict) -> dict:
    argv = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds), "--trace", str(args.trace), "--result", str(result)]
    result.unlink(missing_ok=True)
    spawn = time.monotonic()
    proc = subprocess.run(
        argv + ["--spawn-time", repr(spawn)], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=max(1.0, deadline - spawn),
    )
    if proc.returncode != 0 or not result.is_file():
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(result.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dwigner" / "cli.py").is_file() or not (ROOT / "sample_inputs").is_dir():
        print(f"error: no dwigner sources under {ROOT}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    started = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.update({var: str(nproc) for var in THREAD_VARS})
    results_dir = ROOT / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    workers = 1 if args.trace else SETUP_REPEATS
    runs = []
    try:
        for k in range(workers):
            runs.append(run_worker(args, args.seconds / workers, results_dir / f"{stem}_worker{k}.json",
                                   started + RUN_BUDGET_S, env))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    first = runs[0]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    skipped = sum(r["skipped"] for r in runs)
    if args.trace:
        layers = dict(first["layers"])
        untraced = statistics.median(first["passes"])
        traced = statistics.median(first["traced_passes"])
        layers.update({"trace.untraced_wall_s": untraced, "trace.traced_wall_s": traced,
                       "trace.overhead_s": traced - untraced})
        metrics = {name: layers[name] for name in per_layer_names()}
        units = {name: layer_unit(name) for name in metrics}
        samples = dict.fromkeys(metrics, f"median of {len(first['traced_passes'])} traced passes")
        samples["trace.untraced_wall_s"] = f"median of {len(first['passes'])} untraced passes"
    else:
        passes = [w for r in runs for w in r["passes"]]
        wall = statistics.median(passes)
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "wall_s": wall,
            "work_per_s": first["work_per_pass"] / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        units = END_TO_END_UNITS
        samples = {
            "setup_s": f"median of {workers} fresh processes",
            "wall_s": f"median of {len(passes)} passes",
            "work_per_s": f"{first['work_unit']}/s, {first['work_per_pass']} per pass, "
                          f"median of {len(passes)} passes",
            "peak_rss_mb": f"median of {workers} processes",
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {name: {"value": value, "unit": units[name], "samples": samples[name]}
                    for name, value in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "skipped": skipped,
        "operation": first["operation"],
        "params": first["params"],
        "setups_s": [r["setup_s"] for r in runs],
        "passes_s": [r["passes"] for r in runs],
        "traced_passes_s": [r["traced_passes"] for r in runs],
        "missing_targets": first["missing_targets"],
        "env": {
            "commit": commit(),
            "src_sha256": source_digest(),
            "nproc": nproc,
            "blas_threads": nproc,
            "platform": platform.platform(),
            "jobs": "default",
            **first["env"],
        },
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = [{"name": g, "start": s, "end": e, "parent": p} for g, s, e, p in first["spans"]]
        (results_dir / f"{args.workload}_seed{args.seed}_spans.json").write_text(json.dumps(spans))

    env_rec = record["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"env: commit {env_rec['commit']}  src sha256 {env_rec['src_sha256'][:12]}  "
          f"nproc {nproc}  python {env_rec['python']}  "
          f"numpy {env_rec['numpy']}  scipy {env_rec['scipy']}  blas {env_rec['blas']} "
          f"x{nproc} threads  params {json.dumps(first['params'])}")
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {shown} {units[name]}  ({samples[name]})")
    print(f"failures: {failed} of {attempted} {first['operation']}s"
          f" (failed_frac {failed / attempted:.6g}); skipped {skipped}")
    if first["missing_targets"]:
        print("not traced (missing): " + ", ".join(first["missing_targets"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
