"""Paired benchmark runs of a base tree against a change tree, with an
optional control tree (a second copy of the base).

    python3 tools/bench_pairs.py --base ../parent --change . --control ../parent-copy \
        --workload long-title --workload paper-vocab --seeds 1-10 --parent-label 9ebece8 \
        --out BENCH_15.json

Each tree is a samlm source checkout. For every workload and seed the
script runs `python3 perfbench/run.py --workload W --seed S --seconds 60
--trace 0` once in each tree, one run at a time, and rotates which tree goes
first from one seed to the next, so that a drift of the machine's speed falls
on every side alike. The control shows how far two copies of the same code
read apart on this machine at this time. Before each run, a subprocess times
the machine yardstick, `outer_reference_ms` of perfbench/pipeline.py, in that
tree; a pair whose sides' yardsticks differ ran in spells of different speed.
The figures are reported as measured, not divided by the yardstick.

The output keeps the layout of BENCH_7.json: per workload and end-to-end
metric, q1, median and q3 of each side's runs, the change's median over the
base's, and the pairs (same workload and seed) in which the change read
better than the base; `per_seed_runs` lists every run's figure,
`yardstick_ms` every run's yardstick with each pair's ratio to the parent's,
and `command` the invocation that wrote the file. A pair is steady when its
yardstick ratio lies within 1 +- the parent's yardstick spread, (q3 - q1) /
median of the parent's yardsticks; `<side>_over_parent_median_steady` is the
median ratio over the steady pairs alone, with both sides' figures as
measured, and `steady_pairs` counts them. The file is rewritten after every pair,
so an interrupted invocation keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change", "control")


def seed_range(text: str) -> list[int]:
    """'1-10' or '1,3,5' -> a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


# perfbench's pinned environment, set before numpy loads
YARDSTICK = ("import os, sys; sys.path[:0] = ['perfbench', 'src']; from run import PINNED_ENV; "
             "os.environ.update(PINNED_ENV); from pipeline import outer_reference_ms; print(outer_reference_ms())")


def yardstick_ms(tree: Path) -> float:
    proc = subprocess.run([sys.executable, "-c", YARDSTICK], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: yardstick exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return round(float(proc.stdout.strip().splitlines()[-1]), 4)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    outer_ms = yardstick_ms(tree)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "60",
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((tree / ".perfbench" / f"{workload}-seed{seed}-trace0.json").read_text(encoding="utf-8"))
    return {
        "outer_ref_ms": outer_ms,
        "ok": bool(result["correct"]) and result["failed"] == 0,
        "metrics": {name: round(m["value"], 4) for name, m in result["metrics"].items()},
        "environment": full["environment"],
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [round(values[0], 4)] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q2, 4), round(q3, 4)]


def summarize(args, spec: dict, pairs: dict, environment: dict) -> dict:
    """pairs: workload -> list of {"seed": s, side: {"ok": bool, "metrics": {name: value}}}."""
    sides = [s for s in SIDES if s != "control" or args.control is not None]
    workloads = {}
    steady_pairs = {}
    for workload, done in pairs.items():
        steady, spread = steady_indices(done, sides)
        steady_pairs[workload] = {"parent_yardstick_spread": spread, "pairs": len(done),
                                  **{f"{side}_kept": len(kept) for side, kept in steady.items()}}
        table = {}
        for metric in spec["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            values = {side: [pair[side]["metrics"][name] for pair in done] for side in sides}
            wins = sum(1 for p, c in zip(values["parent"], values["change"]) if (c > p if higher else c < p))
            row = {"unit": metric["unit"], "better": metric["better"]}
            for side in sides:
                row[f"{side}_q1_median_q3"] = quartiles(values[side])
            base_median = statistics.median(values["parent"])
            row["change_over_parent_median"] = round(statistics.median(values["change"]) / base_median, 3)
            if "control" in sides:
                row["control_over_parent_median"] = round(statistics.median(values["control"]) / base_median, 3)
            for side, kept in steady.items():
                row[f"{side}_over_parent_median_steady"] = (round(
                    statistics.median(values[side][i] for i in kept)
                    / statistics.median(values["parent"][i] for i in kept), 3) if kept else None)
            row["change_wins"] = f"{wins}/{len(done)}"
            q1, _, q3 = row["parent_q1_median_q3"]
            gain = statistics.median(values["change"]) - base_median
            row["median_gain_exceeds_parent_iqr"] = (gain if higher else -gain) > q3 - q1
            table[name] = row
        workloads[workload] = table
    per_seed: dict = {}
    yardsticks: dict = {}
    for workload, done in pairs.items():
        for pair in done:
            entry = per_seed.setdefault(workload, {}).setdefault(f"seed{pair['seed']}", {})
            for side in sides:
                for name, value in pair[side]["metrics"].items():
                    entry.setdefault(side, {}).setdefault(name, []).append(value)
            yardsticks.setdefault(workload, {})[f"seed{pair['seed']}"] = yardstick_row(pair, sides)
    return {
        "description": (
            f"perfbench end-to-end figures, {args.parent_label} against this change"
            + (" with a control (a second copy of the parent)" if args.control is not None else "")
            + f", untraced (--trace 0), seeds {args.seeds}, one run per side per seed. "
            "The trees run one at a time, the side that runs first rotating from pair to pair. Each run's "
            "figure is already a median over its rounds; q1/median/q3 are over a side's runs. change_wins "
            "counts the pairs (same seed) in which the change read better than the parent."
        ),
        "command": shlex.join(["python3", *sys.argv]),
        "each_run": "python3 perfbench/run.py --workload <workload> --seed <seed> --seconds 60 --trace 0",
        "parent": args.parent_label,
        "environment": environment,
        "all_runs_correct_zero_failed": {
            w: all(pair[side]["ok"] for pair in done for side in sides) for w, done in pairs.items()
        },
        "runs_per_side": {w: len(done) for w, done in pairs.items()},
        "workloads": workloads,
        "yardstick_ms": yardsticks,
        "steady_pairs": steady_pairs,
        "per_seed_runs": per_seed,
    }


def steady_indices(done: list[dict], sides: list[str]) -> tuple[dict, float]:
    """The parent's yardstick spread, (q3 - q1) / median over its runs, and for
    each other side the indices of the pairs whose yardstick ratio to the
    parent's lies within 1 +- that spread."""
    q1, median, q3 = quartiles([pair["parent"]["outer_ref_ms"] for pair in done])
    spread = (q3 - q1) / median
    steady = {
        side: [i for i, pair in enumerate(done)
               if abs(pair[side]["outer_ref_ms"] / pair["parent"]["outer_ref_ms"] - 1) <= spread]
        for side in sides[1:]
    }
    return steady, round(spread, 4)


def yardstick_row(pair: dict, sides: list[str]) -> dict:
    """Each side's yardstick in one pair, and each other side's over the parent's."""
    row = {side: pair[side]["outer_ref_ms"] for side in sides}
    for side in sides[1:]:
        row[f"{side}_over_parent"] = round(row[side] / row["parent"], 3)
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", type=Path, required=True, help="tree of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="tree of the change")
    parser.add_argument("--control", type=Path, help="a second tree of the parent commit")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--parent-label", default="the parent", help="how the output names the parent commit")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    trees = {"parent": args.base, "change": args.change}
    if args.control is not None:
        trees["control"] = args.control
    pairs: dict = {}
    environment: dict = {}
    turn = 0
    for workload in args.workload:
        for seed in seed_range(args.seeds):
            order = list(trees)
            order = order[turn % len(order):] + order[: turn % len(order)]
            turn += 1
            pair: dict = {"seed": seed}
            for side in order:
                started = time.perf_counter()
                pair[side] = run_once(trees[side].resolve(), workload, seed)
                print(f"{workload} seed {seed} {side:7s} {time.perf_counter() - started:5.1f} s "
                      f"ok={pair[side]['ok']} outer_ref_ms={pair[side]['outer_ref_ms']:.4g} "
                      + " ".join(f"{k}={v:.4g}" for k, v in pair[side]["metrics"].items()), flush=True)
            environment = environment or {**pair["change"]["environment"], "note": (
                "perfbench/run.py pins OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 "
                "and PYTHONHASHSEED to 0; one run at a time")}
            pairs.setdefault(workload, []).append(pair)
            args.out.write_text(json.dumps(summarize(args, spec, pairs, environment), indent=1) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
