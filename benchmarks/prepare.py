"""Set-up step of one benchmark run: generate the dataset tree, optionally train.

run.py starts this in a child process so that the run's peak RSS belongs to
its timed part, not to set-up. It also runs the reference kernel of
facebench.speed from its hooks and writes the runs' (start, end) times to
the --kernel-runs file, so that the parent can correct the set-up time for
host speed. Usage:

    python3 benchmarks/prepare.py --out DIR --seed N --scale orl [--train] --kernel-runs FILE
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from facebench import speed, trace  # noqa: E402
from facebench.data import SCALES, prepare  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), required=True)
    parser.add_argument("--train", action="store_true")
    parser.add_argument("--kernel-runs", type=Path, required=True)
    args = parser.parse_args()
    gauge = speed.Gauge(warmup=1)
    gauge.tick()  # a generate-only set-up calls no hooked function
    with trace.installed(gauge, speed.HOOKS):
        rc = prepare(args.out, args.seed, SCALES[args.scale], args.train)
    gauge.tick()
    args.kernel_runs.write_text(json.dumps(gauge.runs), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
