"""Seeded inputs: the generated dataset tree and the dispatch probe mix."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from facelab import cli, synth
from facelab.dataset import GrayImage

K_TRAIN = 5  # per-class train images; the rest are the test half
PROBES = 1000  # warm dispatch probes per stream, so that p99 has ten samples beyond


@dataclass(frozen=True)
class Scale:
    subjects: int
    images: int
    height: int
    width: int


SCALES = {
    "orl": Scale(40, 10, 112, 92),  # the ROADMAP's ORL-scale workload
    "smoke": Scale(16, 10, 64, 64),
}

# Dispatch probe kinds per 1000 probes. Clean probes mostly take the eigen
# route, ramps and bottom occlusions the fisher route, and rolled probes (a
# pose stand-in) the HMM route, so more than 1% of probes go to the HMM and
# it sets p99 while eigen and fisher set p50.
MIX = (("clean", 800), ("ramp", 80), ("occlude", 80), ("roll", 40))


def dataset_seed(seed: int) -> int:
    """Workload seed 0 gives synth's default banded set."""
    return synth.BANDED_SEED + seed


def split_arg(seed: int, part: str | None = None) -> str:
    spec = f"k:{K_TRAIN},seed:{seed}"
    return spec if part is None else f"{spec},part:{part}"


def prepare(out: Path, seed: int, scale: Scale, train: bool) -> int:
    """Write `<out>/data`, and with train also `<out>/models`; returns the CLI exit code."""
    entries = synth.make_banded_dataset(scale.subjects, scale.images, scale.height,
                                        scale.width, seed=dataset_seed(seed))
    synth.write_dataset(entries, out / "data")
    if not train:
        return 0
    return cli.main(["train", "--method", "all", "--dataset", str(out / "data"),
                     "--out", str(out / "models"), "--split", split_arg(seed)])


def _probe(kind: str, image: GrayImage, rng: np.random.Generator) -> GrayImage:
    if kind == "clean":
        return image
    if kind == "ramp":
        sign = rng.choice([-1.0, 1.0])
        lit = synth.add_ramp(image, gx=sign * rng.uniform(100.0, 150.0),
                             gy=rng.uniform(-40.0, 40.0))
        # rounded, so that every probe can also be written as a PGM for the CLI
        return GrayImage(lit.h, lit.w, np.rint(lit.pixels))
    if kind == "occlude":
        return synth.occlude_bottom(image, 0.3)
    return GrayImage(image.h, image.w, np.roll(image.pixels, 1, axis=0))


def probe_mix(test: list[tuple[str, GrayImage]], n: int, mix_seed: int
              ) -> list[tuple[str, str, GrayImage]]:
    """n (kind, truth, image) probes from held-out images, in seeded order."""
    rng = np.random.default_rng(np.random.SeedSequence([mix_seed, 2]))
    total = sum(count for _, count in MIX)
    kinds = [kind for kind, count in MIX for _ in range(count * n // total)]
    kinds += ["clean"] * (n - len(kinds))
    rng.shuffle(kinds)
    picks = rng.integers(0, len(test), size=n)
    return [(kind, test[i][0], _probe(kind, test[i][1], rng)) for kind, i in zip(kinds, picks)]
