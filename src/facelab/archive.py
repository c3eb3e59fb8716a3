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
    for row in array:
        lines.append(" ".join(_fmt(v) for v in row))


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
    labels = list(model.gallery)
    _emit_labels(lines, labels)
    for label in labels:
        _emit_array(lines, f"gallery:{label}", np.vstack(model.gallery[label]))


def _write_fisher(lines: list[str], model: FisherModel) -> None:
    _emit_array(lines, "mean", model.mean)
    _emit_array(lines, "eigenvalues", model.eigenvalues)
    _emit_array(lines, "pca", model.pca)
    _emit_array(lines, "fld", model.fld)
    labels = list(model.centroids)
    _emit_labels(lines, labels)
    for label in labels:
        _emit_array(lines, f"centroid:{label}", model.centroids[label])


def _emit_hmm(lines: list[str], prefix: str, model: HmmModel) -> None:
    _emit_array(lines, f"{prefix}:start", model.start)
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
    _FORMATS[method][0](lines, model)
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

    def peek(self) -> str | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

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
        out = np.empty((rows, cols))
        for r in range(rows):
            fields = self.next_line().split()
            if len(fields) != cols:
                raise DataError(f"{self.path}: truncated section: array {name!r} row {r}")
            try:
                out[r] = [float(f) for f in fields]
            except ValueError:
                raise DataError(f"{self.path}: malformed float in array {name!r}") from None
        if not np.all(np.isfinite(out)):
            raise DataError(f"{self.path}: non-finite value in array {name!r}")
        return out

    def read_scalar(self, name: str) -> float:
        args = self.expect("scalar")
        if len(args) != 2 or args[0] != name:
            raise DataError(f"{self.path}: expected scalar {name!r}, got {args!r}")
        try:
            value = float(args[1])
        except ValueError:
            raise DataError(f"{self.path}: malformed scalar {name!r}") from None
        if not np.isfinite(value):
            raise DataError(f"{self.path}: non-finite scalar {name!r}")
        return value

    def read_int(self, name: str) -> int:
        args = self.expect("int")
        if len(args) != 2 or args[0] != name:
            raise DataError(f"{self.path}: expected int {name!r}, got {args!r}")
        try:
            return int(args[1])
        except ValueError:
            raise DataError(f"{self.path}: malformed int {name!r}") from None

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
    gallery = {}
    for label in r.read_labels():
        rows = r.read_array(f"gallery:{label}")
        gallery[label] = tuple(rows[i].copy() for i in range(rows.shape[0]))
    return EigenModel(dims, mean, basis, eigenvalues, gallery, theta_face, theta_known)


def _load_fisher(r: _Reader, dims: tuple[int, int]) -> FisherModel:
    mean = r.read_array("mean").reshape(-1)
    eigenvalues = r.read_array("eigenvalues").reshape(-1)
    pca = r.read_array("pca")
    fld = r.read_array("fld")
    centroids = {}
    for label in r.read_labels():
        centroids[label] = r.read_array(f"centroid:{label}").reshape(-1)
    return FisherModel(dims, mean, pca, fld, centroids, eigenvalues)


def _load_hmm(r: _Reader, prefix: str) -> HmmModel:
    start = r.read_array(f"{prefix}:start").reshape(-1)
    trans = r.read_array(f"{prefix}:trans")
    means = r.read_array(f"{prefix}:means")
    variances = r.read_array(f"{prefix}:vars")
    return HmmModel(start, trans, means, variances)


def _load_bank(r: _Reader, dims: tuple[int, int]) -> SubjectBank:
    height = r.read_int("block_height")
    overlap = r.read_int("overlap")
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
    models = {}
    for label in r.read_labels():
        models[label] = _load_hmm(r, f"model:{label}")
    return SubjectBank(params, klt, models, mode)


# method record -> (body writer, body reader); the header and end are shared
_FORMATS = {
    "eigen": (_write_eigen, _load_eigen),
    "fisher": (_write_fisher, _load_fisher),
    "hmm": (_write_bank, _load_bank),
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
        dims = (int(dims_args[0]), int(dims_args[1]))
    except (ValueError, IndexError):
        raise DataError(f"{path}: malformed dims record") from None
    method = method_args[0]
    if method not in _FORMATS:
        raise DataError(f"{path}: unknown method {method!r}")
    model = _FORMATS[method][1](r, dims)
    if r.next_line().strip() != "end":
        raise DataError(f"{path}: missing end record")
    return model


def method_of(model) -> str:
    """The method record of a model: the one place that maps types to methods."""
    if isinstance(model, EigenModel):
        return "eigen"
    if isinstance(model, FisherModel):
        return "fisher"
    if isinstance(model, SubjectBank):
        return "hmm"
    raise DataError(f"unknown model type {type(model).__name__}")
