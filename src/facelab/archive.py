"""Text-based model persistence.

Container layout: magic line "FFM2", a "method" line, then named records
until "end". Arrays are written as `array <name> <rows> <cols>` followed by
one line per row: the row's little-endian IEEE-754 float64 bytes in lowercase
hex, 16 digits per value, so every value round-trips bit-exactly. Scalars,
ints, labels and dims stay decimal text. Files are written atomically (temp
file + rename) and diff line by line, one array row per line; `facelab
inspect` is the human-readable view.

The reader takes the file's bytes once. Lines end in "\n", "\r\n" or "\r",
as in text mode, and the final line end may be missing. Record lines are
decoded one at a time; an array's rows are its next rows * (16 * cols + 1)
bytes, decoded in one pass once each row is seen to end in "\n".
"""

from __future__ import annotations

import binascii
from pathlib import Path

import numpy as np

from .dataset import check_label, write_atomic
from .eigenfaces import EigenModel
from .errors import DataError
from .fisherfaces import FisherModel
from .hmm1d import BlockParams, HmmModel, KltBasis, SubjectBank, FEATURE_KLT, FEATURE_RAW

MAGIC = "FFM2"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _quote(line: str) -> str:
    """repr of at most 60 characters of a line: a file with no line breaks is one line."""
    return repr(line[:60]) + ("..." if len(line) > 60 else "")


def _emit_array(lines: list[str], name: str, array: np.ndarray) -> None:
    array = np.atleast_2d(np.asarray(array, dtype="<f8"))
    lines.append(f"array {name} {array.shape[0]} {array.shape[1]}")
    lines.extend(row.tobytes().hex() for row in array)


def _emit_labels(lines: list[str], labels: list[str]) -> None:
    lines.append("labels " + " ".join([str(len(labels))] + labels))


def _face_space_format(kind, scalars: tuple[str, ...], basis: str, gallery: str):
    """(model type, body writer, body reader) of a FaceSpace archive: the named
    scalar records, then mean, eigenvalues, the basis and the gallery under the
    record names its method uses, with the labels record between them."""

    def write(lines: list[str], model) -> None:
        lines.extend(f"scalar {name} {_fmt(getattr(model, name))}" for name in scalars)
        _emit_array(lines, "mean", model.mean)
        _emit_array(lines, "eigenvalues", model.eigenvalues)
        _emit_array(lines, basis, model.basis)
        _emit_labels(lines, list(model.row_labels))
        _emit_array(lines, gallery, model.gallery)

    def read(r: _Reader, dims: tuple[int, int]):
        values = {name: r.read_scalar(name) for name in scalars}
        mean = r.read_array("mean").reshape(-1)
        eigenvalues = r.read_array("eigenvalues").reshape(-1)
        basis_array = r.read_array(basis)
        row_labels = tuple(r.read_labels())
        gallery_array = r.read_array(gallery)
        return kind(dims, mean, basis_array, eigenvalues, gallery_array, row_labels, **values)

    return kind, write, read


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
    for label in model.labels:
        check_label(label, path)
    lines = [MAGIC, f"method {method}", f"dims {model.dims[0]} {model.dims[1]}"]
    _FORMATS[method][1](lines, model)
    lines.append("end")
    write_atomic(path, "\n".join(lines) + "\n")


class _Reader:
    """Sequential record reader over the archive bytes."""

    def __init__(self, path: Path):
        self.path = path
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise DataError(f"cannot read model archive {path}: {exc}") from exc
        if not data.isascii():
            at = int(np.argmax(np.frombuffer(data, np.uint8) >= 0x80))
            raise DataError(f"cannot read model archive {path}: non-ASCII byte at offset {at}")
        if b"\r" in data:  # the line ends that text mode reads as "\n"
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if data and not data.endswith(b"\n"):
            data += b"\n"
        self.data = data
        self.pos = 0  # offset of the next line; every line ends in "\n"

    def next_line(self) -> str:
        if self.pos >= len(self.data):
            raise DataError(f"{self.path}: truncated archive")
        end = self.data.index(b"\n", self.pos)
        line = self.data[self.pos:end].decode("ascii")
        self.pos = end + 1
        return line

    def expect(self, keyword: str) -> list[str]:
        line = self.next_line()
        parts = line.split()
        if not parts or parts[0] != keyword:
            raise DataError(f"{self.path}: expected {keyword!r} record, got {_quote(line)}")
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
        width = 16 * cols + 1
        end = self.pos + rows * width
        # each row ends in "\n" at its width; a claim past the file allocates nothing
        if end > len(self.data) or self.data[self.pos + width - 1:end:width] != b"\n" * rows:
            raise self._block_error(name, rows, cols)
        grid = np.frombuffer(self.data, np.uint8, end - self.pos, self.pos)
        try:  # a2b_hex takes no whitespace, so a line break inside a row fails here too
            digits = binascii.a2b_hex(np.ascontiguousarray(grid.reshape(rows, width)[:, :-1]))
            out = np.frombuffer(digits, "<f8").reshape(rows, cols)
        except ValueError:  # a non-hex digit, or a shape past numpy's limits
            raise self._block_error(name, rows, cols) from None
        if not np.isfinite(out).all():
            raise DataError(f"{self.path}: non-finite value in array {name!r}")
        self.pos = end
        return out

    def _block_error(self, name: str, rows: int, cols: int) -> DataError:
        """The error of an array block that does not decode, from a walk over
        its lines: too few lines, else the first of a wrong width, else a
        character that is not a hex digit."""
        if self.data.count(b"\n", self.pos) < rows:
            return DataError(f"{self.path}: truncated archive")
        at = self.pos
        for r in range(rows):
            end = self.data.index(b"\n", at)
            if end - at != 16 * cols:
                return DataError(f"{self.path}: truncated section: array {name!r} row {r}")
            at = end + 1
        return DataError(f"{self.path}: malformed float in array {name!r}")

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
        for label in labels:
            check_label(label, self.path)
        return labels


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
    "eigen": _face_space_format(EigenModel, ("theta_face", "theta_known"), "basis", "gallery"),
    "fisher": _face_space_format(FisherModel, (), "projection", "centroids"),
    "hmm": (SubjectBank, _write_bank, _load_bank),
}


def load_model(path: Path):
    """Load any archived model; the concrete type follows the method record."""
    r = _Reader(path)
    magic = r.next_line().strip()
    if magic != MAGIC:
        raise DataError(f"{path}: bad magic {_quote(magic)} (expected {MAGIC!r}): "
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
