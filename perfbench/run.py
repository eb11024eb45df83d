"""Benchmark of the samlm pipeline on one workload and one seed.

    python3 perfbench/run.py --workload paper-vocab --seed 1 --seconds 60 --trace 0

Run it from the root of a source tree: it imports the package from ./src and
reads the metric names and units from ./BENCHMARK.json. A run makes a fixed
number of rounds per workload, so it does the same work however fast the
machine is; `--seconds` is recorded in the result file, and `run_seconds` in
BENCHMARK.json is about how long a run takes.
The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` the run records spans around the package's
calls and reports the per-layer metrics instead. Full results, and the spans
of a traced run, are written under ./.perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

# One BLAS thread (OpenBLAS would otherwise run gemv on every core), no
# evaluation thread pool, and a fixed string-hash seed.
PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Metric names and units come from BENCHMARK.json. A per-layer metric is a
# span's `<span name>.<calls|s|self_s>` unless it is one of these, which the
# run computes itself: metric name -> key in Bench.extra.
COUNTED_METRICS = {
    "trainer.batch_tokens": "batch_tokens",
    "generation.style_variation.steps_per_token": "steps_per_token",
    "ngram.prob_lookups_per_token": "prob_lookups_per_token",
    "lda.tokens_sampled": "lda_tokens_sampled",
    "env.outer_ref_ms": "outer_ref_ms",
}


def _pin_environment() -> None:
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()) and "SAMLM_THREADS" not in os.environ:
        return
    env = {k: v for k, v in os.environ.items() if k != "SAMLM_THREADS"}
    env.update(PINNED_ENV)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _span_metric(summary: dict, metric: str) -> float:
    span, field = metric.rsplit(".", 1)
    return summary.get(span, {}).get(field, 0)


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="recorded; the rounds per workload are fixed")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "samlm" / "__init__.py").is_file():
        print("perfbench: run from the root of a samlm source tree (no src/samlm here)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    _pin_environment()
    sys.path.insert(0, str(root / "src"))

    from pipeline import WORKLOADS, Bench
    from tracing import Tracer, instrument

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer)
    bench = Bench(WORKLOADS[args.workload], args.seed, tracer, workdir)
    try:
        bench.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        summary = tracer.summary()
        metrics = {
            m["name"]: {
                "value": bench.extra.get(COUNTED_METRICS[m["name"]], 0)
                if m["name"] in COUNTED_METRICS else _span_metric(summary, m["name"]),
                "unit": m["unit"],
            }
            for m in spec["per_layer"]
        }
    else:
        metrics = {m["name"]: {"value": bench.metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in spec["end_to_end"]}

    attempted = sum(stage.attempted for stage in bench.stages)
    failed = sum(stage.failed for stage in bench.stages)
    for stage in bench.stages:
        print(f"stage {stage.name:8s} attempted {stage.attempted:4d} failed {stage.failed} passes {len(stage.pass_s)}")
    for name, ok, detail in bench.checks.results:
        print(f"check {name:22s} {'ok  ' if ok else 'FAIL'} {detail}")
    if args.trace:
        x = bench.extra
        print(f"vary: L {x['vary_L']}, L' {x['vary_L_varied']}, steps/token {x['steps_per_token']:.4f}, "
              f"(3L+L')/(L+L') {x['steps_per_token_if_3L']:.4f}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": _environment(),
        "stages": {
            st.name: {"attempted": st.attempted, "failed": st.failed, "pass_s": st.pass_s} for st in bench.stages
        },
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in bench.checks.results],
        "end_to_end": bench.metrics,
        "extra": bench.extra,
        "metrics": metrics,
    }
    if args.trace:
        full["spans"] = summary
        tracer.write(out_dir / f"{stem}-spans.npz")
    (out_dir / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": bench.checks.all_passed, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
