"""Grayscale face dataset handling: PGM I/O, flattening, directory scans, splits.

Pixels are kept as float64 values in [0, 255] exactly as stored on disk; no
rescaling is applied anywhere (the recognizers are affine-covariant, so a
global rescale would not change any decision).
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DataError

_WHITESPACE = b" \t\r\n\x0b\x0c"
HEADER_BYTES = 256  # first read of a PGM header when only the dimensions are needed


@dataclass(frozen=True)
class GrayImage:
    """Raster grayscale image with float64 pixels in [0, 255], shape (h, w)."""

    h: int
    w: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.h < 1 or self.w < 1:
            raise DataError(f"image dimensions must be positive, got {self.h}x{self.w}")
        px = np.ascontiguousarray(np.asarray(self.pixels, dtype=np.float64))
        if px.shape != (self.h, self.w):
            raise DataError(f"pixel array shape {px.shape} does not match {self.h}x{self.w}")
        if not np.all(np.isfinite(px)):
            raise DataError("non-finite pixel value")
        if px.min() < 0.0 or px.max() > 255.0:
            raise DataError("pixel value outside [0, 255]")
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)


def _next_token(data: bytes, pos: int) -> tuple[bytes | None, int]:
    """Next whitespace-delimited token after skipping blanks and # comments."""
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == ord("#"):
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        return None, pos
    start = pos
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != ord("#"):
        pos += 1
    return data[start:pos], pos


def _raster_tokens(data: bytes) -> list[bytes]:
    """The tokens that repeated _next_token calls give, in one pass: each line
    split on whitespace up to its first #, as a comment runs to a CR or an LF."""
    return [tok for line in data.splitlines() for tok in line.partition(b"#")[0].split()]


def _parse_header(data: bytes) -> tuple[bytes, int, int, int, int]:
    """Parse 'magic width height maxval'; returns fields plus end position."""
    magic, pos = _next_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise DataError(f"not a PGM file (magic {magic!r})")
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _next_token(data, pos)
        if tok is None:
            raise DataError(f"truncated PGM header: missing {name}")
        try:
            fields.append(int(tok))
        except ValueError:
            raise DataError(f"malformed PGM header: bad {name} {tok!r}") from None
    w, h, maxval = fields
    if w <= 0 or h <= 0:
        raise DataError(f"PGM dimensions must be positive, got {w}x{h}")
    if not 1 <= maxval <= 255:
        raise DataError(f"unsupported PGM maxval {maxval} (must be in [1, 255])")
    return magic, w, h, maxval, pos


def load_pgm(data: bytes) -> GrayImage:
    """Decode a binary (P5) or ASCII (P2) PGM byte stream, maxval <= 255."""
    magic, w, h, maxval, pos = _parse_header(data)
    if magic == b"P5":
        # exactly one whitespace byte separates maxval from the raster
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise DataError("malformed P5: missing whitespace before pixel data")
        raw = data[pos + 1 :]
        if len(raw) < h * w:
            raise DataError(f"truncated P5 pixel data: expected {h * w} bytes, got {len(raw)}")
        if len(raw) > h * w:
            raise DataError(f"trailing bytes after P5 pixel data ({len(raw) - h * w} extra)")
        px = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
    else:
        values = []
        for tok in _raster_tokens(data[pos:]):
            try:
                values.append(int(tok))
            except ValueError:
                raise DataError(f"malformed P2 pixel token {tok!r}") from None
        if len(values) < h * w:
            raise DataError(f"truncated P2 pixel data: expected {h * w} values, got {len(values)}")
        if len(values) > h * w:
            raise DataError("trailing tokens after P2 pixel data")
        px = np.array(values, dtype=np.float64)
    if px.max(initial=0.0) > maxval or px.min(initial=0.0) < 0:
        raise DataError(f"pixel value outside [0, {maxval}]")
    return GrayImage(h, w, px.reshape(h, w))


def write_pgm(image: GrayImage) -> bytes:
    """Encode as binary P5 with maxval 255; pixels must be integral."""
    rounded = np.rint(image.pixels)
    if not np.all(np.abs(image.pixels - rounded) < 1e-9):
        raise DataError("cannot write PGM: non-integral pixel values")
    header = f"P5\n{image.w} {image.h}\n255\n".encode("ascii")
    return header + rounded.astype(np.uint8).tobytes()


def read_pgm_dims(path: Path) -> tuple[int, int]:
    """(h, w) from a PGM file's header, read without its raster.

    A first read of HEADER_BYTES holds any header without long comments;
    while the header runs to the end of what was read (a comment or a
    number may be cut there) and the file goes on, the read is doubled.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read(HEADER_BYTES)
            at_end = len(data) < HEADER_BYTES
            while True:
                try:
                    _, w, h, _, end = _parse_header(data)
                    if end < len(data) or at_end:
                        return h, w
                except DataError:
                    if at_end:
                        raise
                more = fh.read(len(data))
                at_end = len(more) < len(data)
                data += more
    except OSError as exc:
        raise DataError(f"unreadable file {path}: {exc}") from exc
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_pgm_file(path: Path) -> GrayImage:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"unreadable file {path}: {exc}") from exc
    try:
        return load_pgm(data)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def check_dims(image: GrayImage, dims: tuple[int, int], what: str = "image") -> GrayImage:
    """The image, or DataError unless it is dims = (h, w): a transposed image has
    the right pixel count but not the right rows."""
    if (image.h, image.w) != tuple(dims):
        raise DataError(f"{what} dims {(image.h, image.w)} != model dims {tuple(dims)}")
    return image


def flatten(image: GrayImage) -> np.ndarray:
    """The pixel rows end to end, length h*w: a read-only view, never a copy."""
    return image.pixels.reshape(-1)


@dataclass(frozen=True)
class DatasetManifest:
    """Labeled image references with common dimensions.

    Labels and per-class file lists are lexicographically sorted so every
    downstream computation is independent of filesystem enumeration order.
    """

    classes: dict[str, tuple[Path, ...]]
    dims: tuple[int, int]

    def __post_init__(self):
        ordered = {label: tuple(sorted(paths, key=lambda p: p.name))
                   for label, paths in sorted(self.classes.items())}
        for label, paths in ordered.items():
            if not paths:
                raise DataError(f"class {label!r} has no images")
        object.__setattr__(self, "classes", ordered)

    @property
    def labels(self) -> list[str]:
        return list(self.classes)


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/test split: k training images per class, the rest test."""

    k: int = 1
    seed: int = 0


def check_label(label: str, where: Path) -> None:
    """DataError unless the label is non-empty ASCII without whitespace or
    commas: the one label rule of dataset directories and model archives,
    which are ASCII text."""
    if not label or not label.isascii() or any(ch.isspace() for ch in label) or "," in label:
        raise DataError(f"{where}: label {label!r} must be non-empty ASCII "
                        f"without whitespace or commas")


def check_path(path: str | Path) -> None:
    """DataError unless the path is UTF-8 text, as reports, policy files and printed
    lines are: a name of other bytes decodes to lone surrogates, which UTF-8 refuses."""
    try:
        str(path).encode("utf-8")
    except UnicodeEncodeError:
        raise DataError(f"path {str(path)!r} is not UTF-8 text") from None


@contextlib.contextmanager
def replacing(paths: list[Path]) -> Iterator[list[Path]]:
    """Yield a new temporary path beside each of paths for the block to write, then
    rename each onto its path, so no path is replaced before every file is written
    and every path is checked. On failure the temporaries go, and an OSError names a
    path, not its temporary."""
    temps = [Path(f"{p}.{os.urandom(4).hex()}.tmp") for p in paths]  # beside, even for "."
    try:
        yield temps
        for path in paths:  # a file cannot be renamed onto a directory (a link to one is fine)
            if path.is_dir() and not path.is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in temps:
            with contextlib.suppress(OSError):  # it may never have been made
                tmp.unlink()
        if not isinstance(exc, OSError):
            raise
        target = {str(tmp): str(path) for tmp, path in zip(temps, paths)}
        name = target.get(exc.filename, str(paths[0]) if len(paths) == 1 else exc.filename)
        raise OSError(exc.errno, exc.strerror, name) from exc


def write_atomic(path: Path, text: str) -> None:
    """Write text to path as UTF-8 through a temporary file (see replacing)."""
    with replacing([path]) as [tmp], open(tmp, "x", encoding="utf-8") as fh:
        fh.write(text)  # mode 0o666 less the umask, as for any new file


def scan_dataset(root: Path) -> DatasetManifest:
    """Build a manifest from a `<root>/<label>/<name>.pgm` directory tree."""
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"dataset root {root} is not a directory")
    classes: dict[str, tuple[Path, ...]] = {}
    dims: tuple[int, int] | None = None
    for sub in sorted(root.iterdir(), key=lambda p: p.name):
        if not sub.is_dir():
            continue
        check_label(sub.name, root)
        files = sorted((p for p in sub.iterdir() if p.is_file() and p.suffix == ".pgm"),
                       key=lambda p: p.name)
        if not files:
            raise DataError(f"class directory {sub} contains no .pgm files")
        for f in files:
            check_path(f)
            hw = read_pgm_dims(f)
            if dims is None:
                dims = hw
            elif hw != dims:
                raise DataError(f"mixed image dimensions: {f} is {hw}, expected {dims}")
        classes[sub.name] = tuple(files)
    if not classes:
        raise DataError(f"dataset root {root} contains no class directories")
    assert dims is not None
    return DatasetManifest(classes, dims)


def _label_rng(seed: int, label: str) -> np.random.Generator:
    # PCG64 seeded from (seed, sha256(label)) -- stable across platforms/runs
    digest = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([seed, digest]))


def split(manifest: DatasetManifest, spec: SplitSpec) -> tuple[DatasetManifest, DatasetManifest]:
    """Partition each class into train/test by a seeded per-label shuffle."""
    train: dict[str, tuple[Path, ...]] = {}
    test: dict[str, tuple[Path, ...]] = {}
    for label, files in manifest.classes.items():
        n = len(files)
        if not 1 <= spec.k < n:
            raise DataError(
                f"k={spec.k} out of range for class {label!r} with {n} images "
                f"(need 1 <= k < class size)")
        perm = _label_rng(spec.seed, label).permutation(n)
        train[label] = tuple(files[i] for i in perm[:spec.k])
        test[label] = tuple(files[i] for i in perm[spec.k:])
    return DatasetManifest(train, manifest.dims), DatasetManifest(test, manifest.dims)


def load_labeled_images(manifest: DatasetManifest) -> list[tuple[str, Path, GrayImage]]:
    """Load every referenced image, in manifest order."""
    out = []
    for label, files in manifest.classes.items():
        for f in files:
            img = load_pgm_file(f)
            if (img.h, img.w) != manifest.dims:
                raise DataError(f"{f}: dimensions changed since scan")
            out.append((label, f, img))
    return out
