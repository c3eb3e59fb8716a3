"""facelab benchmark: the train, evaluate and dispatch workloads.

    python3 benchmarks/run.py --workload evaluate --seed 0 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload all   # every workload, one process each

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run. The full result (environment, every metric, digests, per-phase
layer tables) is written under .bench_results/, and traced runs also write
their spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(".bench_results")
WORK = Path(".bench_work")
WORKLOADS = ("train", "evaluate", "dispatch")
MAX_PROBLEMS_SHOWN = 10


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="dataset and split seed")
    parser.add_argument("--mix-seed", type=int, default=None,
                        help="dispatch probe-mix seed (default: --seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed budget, shared equally by the workload's phases")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("orl", "smoke"), default="orl")
    return parser.parse_args(argv)


def _stem(workload: str, args) -> str:
    return f"{workload}-{args.scale}-seed{args.seed}-mix{args.mix_seed}-trace{args.trace}"


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {_fmt(value):>14} {unit}")


def _print_layers(per_phase: dict, per_layer: dict) -> None:
    """Non-zero per-layer metrics, one column per traced phase plus the total."""
    phases = list(per_phase)
    print(f"per-layer (traced){'':<27}" + "".join(f"{p:>16}" for p in phases) + f"{'total':>14}")
    for name, (total, unit) in per_layer.items():
        if not total:
            continue
        layer, _, field_name = name.rpartition(".")
        cells = [per_phase[p].get(layer, {}).get(field_name) for p in phases]
        print(f"  {name:<44}" + "".join(f"{'' if c is None else _fmt(c):>16}" for c in cells)
              + f"{_fmt(total):>14} {unit}")


def _report(args, result: dict, env: dict) -> dict:
    """Print one workload's result; returns the JSON object for the last line."""
    detail = result["detail"]
    print(f"facelab benchmark: workload={args.workload} seed={args.seed} "
          f"mix_seed={args.mix_seed} scale={args.scale} trace={args.trace}")
    blas = env["blas"]
    print(f"environment: nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"blas={blas['name']} {blas['version']} threads={blas['threads']} "
          f"commit={env['git_commit']}")
    print(f"set-up ({len(result['setup_repeats'])} times, median reported): "
          f"{result['setup_covers']}")
    _print_metrics("end-to-end" + (" (untraced unit of the traced run)" if args.trace else ""),
                   detail)
    for name, digest in result["digests"].items():
        print(f"  sha256 {name:<12} {digest}")
    if args.trace:
        _print_layers(result["per_phase"], result["per_layer"])
        for what, value in result["expect_zero"].items():
            print(f"  expect 0: {what} = {value}{'' if value == 0 else '  (NOT MET)'}")
    problems = result["problems"]
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"  problem: {problem}")
    if len(problems) > MAX_PROBLEMS_SHOWN:
        print(f"  ... {len(problems) - MAX_PROBLEMS_SHOWN} more problems in the result file")
    chosen = result["per_layer"] if args.trace else result["end_to_end"]
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }


def _run_one(args) -> int:
    # imported here: facebench imports facelab, which main() has just put on the path
    from facebench import data, env as envinfo, workloads

    scale = data.SCALES[args.scale]
    run = workloads.Run(args.workload, args.seed, args.mix_seed, args.seconds, args.scale,
                        bool(args.trace), WORK / args.workload)
    dataset = {"subjects": scale.subjects, "images": scale.images, "height": scale.height,
               "width": scale.width, "dataset_seed": data.dataset_seed(args.seed),
               "split": data.split_arg(args.seed), "mix_seed": args.mix_seed,
               "dispatch_probes": data.PROBES}
    env = envinfo.environment(ROOT, dataset)
    try:
        result = workloads.execute(run)
    except workloads.BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    result.update(attempted=run.attempted, failed=run.failed, problems=run.problems)
    RESULTS.mkdir(exist_ok=True)
    stem = _stem(args.workload, args)
    recorder = result.pop("spans", None)
    if recorder is not None:
        recorder.dump(RESULTS / f"{stem}.spans.jsonl")
    line = _report(args, result, env)
    (RESULTS / f"{stem}.json").write_text(
        json.dumps({"args": vars(args), "environment": env, **result}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(line))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, so no peak RSS carries over between them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--mix-seed", str(args.mix_seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"benchmark failed: workload {workload} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads((RESULTS / f"{_stem(workload, args)}.json").read_text(encoding="utf-8"))
        print(proc.stdout.rsplit("\n", 2)[0])
        merged["correct"] = merged["correct"] and not result["problems"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        section = "per_layer" if args.trace else "detail"
        for name, (value, unit) in result[section].items():
            merged["metrics"][f"{workload}.{name}"] = {"value": value, "unit": unit}
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.mix_seed is None:
        args.mix_seed = args.seed
    if not (ROOT / "src" / "facelab" / "__init__.py").is_file():
        print(f"benchmark failed: no facelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # relative paths keep reports and policy files byte-identical across checkouts
    sys.path.insert(0, str(ROOT / "src"))
    return _run_all(args) if args.workload == "all" else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
