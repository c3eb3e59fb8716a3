"""Deterministic synthetic face benchmarks.

Real face databases cannot be redistributed, so the evaluation harness ships
two generated stand-ins:

* a banded-identity set: subjects differ by the top-to-bottom sequence of
  horizontal band intensities (suits the HMM's facial-band assumption), with
  per-image band jitter and pixel noise;
* an illumination-gradient set: subjects differ by a low-amplitude smooth
  pattern while every image carries a strong random additive lighting ramp,
  so lighting variation dominates identity variation.

Both are pure functions of their seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dataset import GrayImage, write_pgm

BANDED_SEED = 7041
LIGHTING_SEED = 9203
N_BANDS = 8  # horizontal bands of a banded face
BASE_LEVEL = 130.0  # the grey level every banded block averages back to


def _finalize(raw: np.ndarray) -> GrayImage:
    h, w = raw.shape
    return GrayImage(h, w, np.clip(np.rint(raw), 0.0, 255.0))


def make_banded_dataset(
    n_subjects: int = 4,
    n_images: int = 10,
    height: int = 64,
    width: int = 64,
    seed: int = BANDED_SEED,
) -> list[tuple[str, GrayImage]]:
    """Subjects with distinct top-to-bottom stripe-contrast profiles.

    Identity lives in the per-band amplitude of a one-row alternating stripe
    around a common base level; amplitudes are distinct permutations of a
    fixed ladder, so any two subjects differ by at least one ladder step in
    most bands, well above the per-image jitter and noise. Because every
    block averages back to the base level, overall brightness carries no
    variance, which keeps flat occluders far from the block subspace.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    ladder = np.linspace(20.0, 90.0, N_BANDS)
    profiles: list[np.ndarray] = []
    seen = set()
    while len(profiles) < n_subjects:
        perm = tuple(rng.permutation(N_BANDS))
        if perm in seen:
            continue
        seen.add(perm)
        profiles.append(ladder[list(perm)])

    # fixed structure shared by all subjects, like the parts of a face that
    # do not vary between individuals
    texture = _smooth_pattern(rng, height, width, 18.0)
    stripe = np.where(np.arange(height) % 2 == 0, 1.0, -1.0)

    base_edges = np.round(np.linspace(0, height, N_BANDS + 1)).astype(int)
    entries = []
    for s in range(n_subjects):
        for _ in range(n_images):
            inner = base_edges[1:-1] + rng.integers(-1, 2, size=N_BANDS - 1)
            edges = np.concatenate(([0], np.clip(inner, 1, height - 1), [height]))
            edges = np.maximum.accumulate(edges)
            amplitudes = profiles[s] + rng.uniform(-4.0, 4.0, size=N_BANDS)
            row_amp = np.zeros(height)
            for b in range(N_BANDS):
                row_amp[edges[b]: edges[b + 1]] = amplitudes[b]
            raw = BASE_LEVEL + (row_amp * stripe)[:, None] * np.ones((1, width))
            raw += texture + rng.normal(0.0, 2.0, size=(height, width))
            entries.append((f"s{s + 1:02d}", _finalize(raw)))
    return entries


def _smooth_pattern(rng: np.random.Generator, height: int, width: int,
                    amplitude: float) -> np.ndarray:
    """Random low-frequency cosine mixture, scaled to +/- amplitude."""
    y = np.linspace(0.0, np.pi, height)[:, None]
    x = np.linspace(0.0, np.pi, width)[None, :]
    pattern = np.zeros((height, width))
    for fy in (1, 2):
        for fx in (1, 2):
            pattern += rng.normal() * np.cos(fy * y) * np.cos(fx * x)
    peak = np.abs(pattern).max()
    return pattern * (amplitude / peak)


def make_lighting_dataset() -> list[tuple[str, GrayImage]]:
    """3 subjects x 20 images at 32x32: identity patterns of amplitude 12
    buried under random additive lighting ramps of up to +/-60, with pixel
    noise of sigma 2."""
    n_subjects, n_images, height, width = 3, 20, 32, 32
    rng = np.random.default_rng(np.random.SeedSequence([LIGHTING_SEED, 1]))
    ramp_x = np.tile(np.linspace(-0.5, 0.5, width), (height, 1))
    ramp_y = np.tile(np.linspace(-0.5, 0.5, height)[:, None], (1, width))
    patterns = [_smooth_pattern(rng, height, width, 12.0) for _ in range(n_subjects)]
    entries = []
    for s in range(n_subjects):
        for _ in range(n_images):
            gx, gy = rng.uniform(-60.0, 60.0, size=2)
            raw = (128.0 + patterns[s] + gx * ramp_x + gy * ramp_y
                   + rng.normal(0.0, 2.0, size=(height, width)))
            entries.append((f"p{s + 1}", _finalize(raw)))
    return entries


def add_ramp(image: GrayImage, gx: float = 0.0, gy: float = 0.0,
             offset: float = 0.0) -> GrayImage:
    """Additive lighting gradient probe (clipped back into [0, 255])."""
    ramp_x = np.tile(np.linspace(-0.5, 0.5, image.w), (image.h, 1))
    ramp_y = np.tile(np.linspace(-0.5, 0.5, image.h)[:, None], (1, image.w))
    raw = image.pixels + gx * ramp_x + gy * ramp_y + offset
    return GrayImage(image.h, image.w, np.clip(raw, 0.0, 255.0))


def occlude_bottom(image: GrayImage, fraction: float) -> GrayImage:
    """Zero out the bottom `fraction` of pixel rows."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rows = int(round(image.h * fraction))
    pixels = image.pixels.copy()
    if rows:
        pixels[image.h - rows:, :] = 0.0
    return GrayImage(image.h, image.w, pixels)


def write_dataset(entries: list[tuple[str, GrayImage]], root: Path) -> None:
    """Materialize labeled images as a `<root>/<label>/<nn>.pgm` tree."""
    root = Path(root)
    counters: dict[str, int] = {}
    for label, image in entries:
        idx = counters.get(label, 0)
        counters[label] = idx + 1
        target = root / label
        target.mkdir(parents=True, exist_ok=True)
        (target / f"{idx:02d}.pgm").write_bytes(write_pgm(image))
