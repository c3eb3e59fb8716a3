"""Text-based model persistence.

Container layout: magic line "FFM1", a "method" line, then named records
until "end". Arrays are written as `array <name> <rows> <cols>` followed by
one line per row of decimal floats with 17 significant digits, which
round-trips every finite 64-bit value bit-exactly. Files are written
atomically (temp file + rename) and are diffable by design.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import suppress
from pathlib import Path

import numpy as np

from .eigenfaces import EigenModel
from .errors import DataError
from .fisherfaces import FisherModel
from .hmm1d import BlockParams, HmmModel, KltBasis, SubjectBank, FEATURE_KLT, FEATURE_RAW

MAGIC = "FFM1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit_array(lines: list[str], name: str, array: np.ndarray) -> None:
    array = np.atleast_2d(np.asarray(array, dtype=np.float64))
    lines.append(f"array {name} {array.shape[0]} {array.shape[1]}")
    row_format = " ".join(["%.17g"] * array.shape[1])  # the same digits as _fmt
    lines.extend(row_format % tuple(row) for row in array.tolist())


def _emit_labels(lines: list[str], labels: list[str]) -> None:
    for label in labels:
        if not label or any(ch.isspace() for ch in label):
            raise DataError(f"label {label!r} cannot be archived (whitespace or empty)")
    lines.append("labels " + " ".join([str(len(labels))] + labels))


def _write_eigen(lines: list[str], model: EigenModel) -> None:
    lines.append(f"scalar theta_face {_fmt(model.theta_face)}")
    lines.append(f"scalar theta_known {_fmt(model.theta_known)}")
    _emit_array(lines, "mean", model.mean)
    _emit_array(lines, "eigenvalues", model.eigenvalues)
    _emit_array(lines, "basis", model.basis)
    _emit_labels(lines, list(model.row_labels))
    _emit_array(lines, "gallery", model.gallery)


def _write_fisher(lines: list[str], model: FisherModel) -> None:
    _emit_array(lines, "mean", model.mean)
    _emit_array(lines, "eigenvalues", model.eigenvalues)
    _emit_array(lines, "projection", model.projection)
    _emit_labels(lines, list(model.row_labels))
    _emit_array(lines, "centroids", model.centroids)


def _emit_hmm(lines: list[str], prefix: str, model: HmmModel) -> None:
    _emit_array(lines, f"{prefix}:trans", model.trans)
    _emit_array(lines, f"{prefix}:means", model.means)
    _emit_array(lines, f"{prefix}:vars", model.variances)


def _write_bank(lines: list[str], bank: SubjectBank) -> None:
    lines.append(f"int block_height {bank.params.height}")
    lines.append(f"int overlap {bank.params.overlap}")
    lines.append(f"mode {bank.feature_mode}")
    if bank.klt is not None:
        _emit_array(lines, "klt_mean", bank.klt.mean)
        _emit_array(lines, "klt_basis", bank.klt.basis)
    labels = list(bank.models)
    _emit_labels(lines, labels)
    for label in labels:
        _emit_hmm(lines, f"model:{label}", bank.models[label])


def save_model(model, path: Path) -> None:
    """Serialize a trained model; the write is atomic."""
    method = method_of(model)
    lines = [MAGIC, f"method {method}", f"dims {model.dims[0]} {model.dims[1]}"]
    _FORMATS[method][1](lines, model)
    lines.append("end")
    path = Path(path)
    payload = "\n".join(lines) + "\n"
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    """Sequential record reader over the archive lines."""

    def __init__(self, path: Path):
        self.path = path
        try:
            text = Path(path).read_text(encoding="ascii")
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read model archive {path}: {exc}") from exc
        self.lines = text.splitlines()
        self.pos = 0

    def next_line(self) -> str:
        if self.pos >= len(self.lines):
            raise DataError(f"{self.path}: truncated archive")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, keyword: str) -> list[str]:
        line = self.next_line()
        parts = line.split()
        if not parts or parts[0] != keyword:
            raise DataError(f"{self.path}: expected {keyword!r} record, got {line!r}")
        return parts[1:]

    def read_array(self, name: str) -> np.ndarray:
        args = self.expect("array")
        if len(args) != 3 or args[0] != name:
            raise DataError(f"{self.path}: expected array {name!r}, got {args!r}")
        try:
            rows, cols = int(args[1]), int(args[2])
        except ValueError:
            raise DataError(f"{self.path}: malformed array header for {name!r}") from None
        if rows < 0 or cols < 0:
            raise DataError(f"{self.path}: negative array shape for {name!r}")
        if self.pos + rows > len(self.lines):  # so a header's shape claim allocates nothing
            raise DataError(f"{self.path}: truncated archive")
        block = self.lines[self.pos:self.pos + rows]
        self.pos += rows
        out = None  # loadtxt skips blank lines, and warns on a block with no fields
        if rows and cols and len(block[0].split()) == cols:
            with suppress(ValueError):
                out = np.loadtxt(block, dtype=np.float64, comments=None, ndmin=2)
        if out is None or out.shape != (rows, cols):
            for r, line in enumerate(block):
                if len(line.split()) != cols:
                    raise DataError(f"{self.path}: truncated section: array {name!r} row {r}")
            if rows and cols:
                raise DataError(f"{self.path}: malformed float in array {name!r}")
            out = np.empty((rows, cols))
        if not np.all(np.isfinite(out)):
            raise DataError(f"{self.path}: non-finite value in array {name!r}")
        return out

    def read_value(self, keyword: str, name: str, parse):
        """The value of a one-field record `<keyword> <name> <value>`, read by `parse`."""
        args = self.expect(keyword)
        if len(args) != 2 or args[0] != name:
            raise DataError(f"{self.path}: expected {keyword} {name!r}, got {args!r}")
        try:
            return parse(args[1])
        except ValueError:
            raise DataError(f"{self.path}: malformed {keyword} {name!r}") from None

    def read_scalar(self, name: str) -> float:
        value = self.read_value("scalar", name, float)
        if not np.isfinite(value):
            raise DataError(f"{self.path}: non-finite scalar {name!r}")
        return value

    def read_labels(self) -> list[str]:
        args = self.expect("labels")
        if not args:
            raise DataError(f"{self.path}: empty labels record")
        try:
            count = int(args[0])
        except ValueError:
            raise DataError(f"{self.path}: malformed labels record") from None
        labels = args[1:]
        if len(labels) != count:
            raise DataError(f"{self.path}: labels record claims {count}, has {len(labels)}")
        if not labels:
            raise DataError(f"{self.path}: model has no labels")
        return labels


def _load_eigen(r: _Reader, dims: tuple[int, int]) -> EigenModel:
    theta_face = r.read_scalar("theta_face")
    theta_known = r.read_scalar("theta_known")
    mean = r.read_array("mean").reshape(-1)
    eigenvalues = r.read_array("eigenvalues").reshape(-1)
    basis = r.read_array("basis")
    row_labels = tuple(r.read_labels())
    gallery = r.read_array("gallery")
    return EigenModel(dims, mean, basis, eigenvalues, gallery, row_labels,
                      theta_face, theta_known)


def _load_fisher(r: _Reader, dims: tuple[int, int]) -> FisherModel:
    mean = r.read_array("mean").reshape(-1)
    eigenvalues = r.read_array("eigenvalues").reshape(-1)
    projection = r.read_array("projection")
    row_labels = tuple(r.read_labels())
    centroids = r.read_array("centroids")
    return FisherModel(dims, mean, projection, centroids, row_labels, eigenvalues)


def _load_hmm(r: _Reader, prefix: str) -> HmmModel:
    trans = r.read_array(f"{prefix}:trans")
    means = r.read_array(f"{prefix}:means")
    variances = r.read_array(f"{prefix}:vars")
    return HmmModel(trans, means, variances)


def _load_bank(r: _Reader, dims: tuple[int, int]) -> SubjectBank:
    height = r.read_value("int", "block_height", int)
    overlap = r.read_value("int", "overlap", int)
    mode_args = r.expect("mode")
    if len(mode_args) != 1 or mode_args[0] not in (FEATURE_KLT, FEATURE_RAW):
        raise DataError(f"{r.path}: bad feature mode record {mode_args!r}")
    mode = mode_args[0]
    params = BlockParams(height, overlap, dims)
    klt = None
    if mode == FEATURE_KLT:
        klt_mean = r.read_array("klt_mean").reshape(-1)
        klt_basis = r.read_array("klt_basis")
        klt = KltBasis(klt_mean, klt_basis)
    labels = r.read_labels()
    if len(set(labels)) != len(labels):
        raise DataError(f"{r.path}: labels record names a subject twice")
    models = {label: _load_hmm(r, f"model:{label}") for label in labels}
    return SubjectBank(params, klt, models)


# method record -> (model type, body writer, body reader); the header and end are shared
_FORMATS = {
    "eigen": (EigenModel, _write_eigen, _load_eigen),
    "fisher": (FisherModel, _write_fisher, _load_fisher),
    "hmm": (SubjectBank, _write_bank, _load_bank),
}


def load_model(path: Path):
    """Load any archived model; the concrete type follows the method record."""
    r = _Reader(path)
    magic = r.next_line().strip()
    if magic != MAGIC:
        raise DataError(f"{path}: bad magic {magic!r} (expected {MAGIC!r}): "
                        f"not a model archive or unsupported version")
    method_args = r.expect("method")
    if len(method_args) != 1:
        raise DataError(f"{path}: malformed method record")
    dims_args = r.expect("dims")
    try:
        height, width = map(int, dims_args)  # exactly two tokens
    except ValueError:
        raise DataError(f"{path}: malformed dims record") from None
    if height < 1 or width < 1:
        raise DataError(f"{path}: dims {height} {width} must be positive")
    dims = (height, width)
    method = method_args[0]
    if method not in _FORMATS:
        raise DataError(f"{path}: unknown method {method!r}")
    model = _FORMATS[method][2](r, dims)
    if r.next_line().strip() != "end":
        raise DataError(f"{path}: missing end record")
    return model


def method_of(model) -> str:
    """The method record of a model: the one place that maps types to methods."""
    for method, (kind, _, _) in _FORMATS.items():
        if isinstance(model, kind):
            return method
    raise DataError(f"unknown model type {type(model).__name__}")
