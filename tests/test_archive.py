import dataclasses
import os
import re
import stat
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from facelab import archive, bench
from facelab.archive import load_model, method_of, save_model
from facelab.cli import main
from facelab.dataset import GrayImage, flatten
from facelab.eigenfaces import EigenModel, classify, train_eigen
from facelab.errors import DataError
from facelab.fisherfaces import FisherModel, train_fisher
from facelab.hmm1d import BlockParams, KltBasis, SubjectBank, train_bank


def _arrays_equal(a, b):
    return a.shape == b.shape and np.array_equal(a, b)


class TestEigenRoundTrip:
    def test_bit_exact(self, tmp_path, banded_models):
        path = tmp_path / "eigen.ffm"
        save_model(banded_models.eigen, path)
        model = load_model(path)
        assert isinstance(model, EigenModel)
        src = banded_models.eigen
        assert model.dims == src.dims
        assert model.theta_face == src.theta_face
        assert model.theta_known == src.theta_known
        assert _arrays_equal(model.mean, src.mean)
        assert _arrays_equal(model.basis, src.basis)
        assert _arrays_equal(model.eigenvalues, src.eigenvalues)
        assert model.row_labels == src.row_labels
        assert _arrays_equal(model.gallery, src.gallery)

    def test_predictions_unchanged(self, tmp_path, banded, banded_models):
        path = tmp_path / "eigen.ffm"
        save_model(banded_models.eigen, path)
        loaded = load_model(path)
        from facelab.dataset import flatten
        for _, _, img in banded.test_entries:
            before = classify(banded_models.eigen, flatten(img))
            after = classify(loaded, flatten(img))
            assert (before.verdict, before.label) == (after.verdict, after.label)
            assert before.distance == after.distance


class TestFisherRoundTrip:
    def test_bit_exact(self, tmp_path, banded_models):
        path = tmp_path / "fisher.ffm"
        save_model(banded_models.fisher, path)
        model = load_model(path)
        assert isinstance(model, FisherModel)
        src = banded_models.fisher
        assert model.dims == src.dims
        assert _arrays_equal(model.mean, src.mean)
        assert _arrays_equal(model.basis, src.basis)
        assert _arrays_equal(model.eigenvalues, src.eigenvalues)
        assert model.row_labels == src.row_labels
        assert _arrays_equal(model.gallery, src.gallery)


class TestBankRoundTrip:
    def test_bit_exact(self, tmp_path, banded_models):
        path = tmp_path / "hmm.ffm"
        save_model(banded_models.bank, path)
        bank = load_model(path)
        assert isinstance(bank, SubjectBank)
        src = banded_models.bank
        assert bank.params == src.params
        assert bank.feature_mode == src.feature_mode
        assert _arrays_equal(bank.klt.mean, src.klt.mean)
        assert _arrays_equal(bank.klt.basis, src.klt.basis)
        assert list(bank.models) == list(src.models)
        for label, model in src.models.items():
            other = bank.models[label]
            assert _arrays_equal(other.trans, model.trans)
            assert _arrays_equal(other.means, model.means)
            assert _arrays_equal(other.variances, model.variances)

    def test_predictions_unchanged(self, tmp_path, banded, banded_models):
        path = tmp_path / "hmm.ffm"
        save_model(banded_models.bank, path)
        loaded = load_model(path)
        for truth, _, img in banded.test_entries[:8]:
            assert bench.predict(loaded, [img]) == bench.predict(banded_models.bank, [img])


class TestFormat:
    def test_seventeen_digits_round_trip(self):
        tricky = [0.1, 1.0 / 3.0, np.pi, 2.0 ** -1074, 1e300, -0.0, 123456789.123456789]
        for v in tricky:
            assert float(format(v, ".17g")) == v

    def test_corrupt_magic(self, tmp_path, banded_models):
        path = tmp_path / "m.ffm"
        save_model(banded_models.eigen, path)
        body = path.read_text().splitlines()
        body[0] = "XXXX"
        path.write_text("\n".join(body) + "\n")
        with pytest.raises(DataError, match="magic"):
            load_model(path)

    def test_version_mismatch(self, tmp_path, banded_models):
        path = tmp_path / "m.ffm"
        save_model(banded_models.eigen, path)
        body = path.read_text().splitlines()
        body[0] = "FFM1"  # the decimal-row format: such archives must be trained again
        path.write_text("\n".join(body) + "\n")
        with pytest.raises(DataError, match="magic"):
            load_model(path)

    def test_truncated_archive(self, tmp_path, banded_models):
        path = tmp_path / "m.ffm"
        save_model(banded_models.eigen, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        with pytest.raises(DataError):
            load_model(path)

    def test_non_finite_value_rejected(self, tmp_path, banded_models):
        path = tmp_path / "m.ffm"
        save_model(banded_models.eigen, path)
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("array mean"):
                lines[i + 1] = _NAN + lines[i + 1][16:]  # valid hex, not a finite value
                break
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="non-finite"):
            load_model(path)

    @pytest.mark.parametrize("which", ["eigen", "fisher"])
    @pytest.mark.parametrize("dims", ["-1 -4096", "0 4096", "4096 0"])
    def test_non_positive_dims_rejected(self, tmp_path, banded_models, which, dims):
        # the pixel count still matches the stored arrays: only the signs are wrong
        path = tmp_path / "m.ffm"
        save_model(getattr(banded_models, which), path)
        lines = path.read_text().splitlines()
        assert lines[2] == "dims 64 64"
        lines[2] = f"dims {dims}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="must be positive"):
            load_model(path)

    def test_unknown_method(self, tmp_path, banded_models):
        path = tmp_path / "m.ffm"
        save_model(banded_models.eigen, path)
        lines = path.read_text().splitlines()
        lines[1] = "method wavelet"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="unknown method"):
            load_model(path)

    def test_empty_label_set_rejected(self, tmp_path):
        bank = SubjectBank(BlockParams(2, 1, (4, 2)), KltBasis(np.zeros(4), np.eye(4)[:2]), {})
        path = tmp_path / "empty.ffm"
        save_model(bank, path)
        with pytest.raises(DataError, match="no labels"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_model(tmp_path / "missing.ffm")

    def test_method_of(self, banded_models):
        assert method_of(banded_models.eigen) == "eigen"
        assert method_of(banded_models.fisher) == "fisher"
        assert method_of(banded_models.bank) == "hmm"
        with pytest.raises(DataError):
            method_of(object())

    def test_atomic_write_leaves_no_temp_files(self, tmp_path, banded_models):
        save_model(banded_models.eigen, tmp_path / "m.ffm")
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
    def test_archive_mode_follows_the_umask(self, tmp_path, banded_models, umask):
        old = os.umask(umask)
        try:
            save_model(banded_models.fisher, tmp_path / "m.ffm")
            (tmp_path / "report.csv").write_text("x\n")
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "m.ffm").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "report.csv").stat().st_mode)
        assert mode == 0o666 & ~umask


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
                1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53, 1e16]
_EDGE_AND_INTEGRAL = (st.sampled_from(_EDGE_FLOATS), st.integers(-2 ** 60, 2 ** 60).map(float))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
              elements=st.one_of(st.floats(width=64), *_EDGE_AND_INTEGRAL)))
def test_row_text_equals_per_value_format(array):
    lines = []
    archive._emit_array(lines, "x", array)
    rows = np.atleast_2d(array)
    assert lines[0] == f"array x {rows.shape[0]} {rows.shape[1]}"
    assert lines[1:] == ["".join(_hex(v) for v in row) for row in rows]


def _hex(*values):
    """The row text of `values`: each one's little-endian IEEE-754 bytes in lowercase hex."""
    return b"".join(struct.pack("<d", v) for v in values).hex()


_NAN, _INF, _NEG_INF = _hex(np.nan), _hex(np.inf), _hex(-np.inf)


@pytest.fixture(scope="module")
def array_file(tmp_path_factory):
    return tmp_path_factory.mktemp("arrays") / "x.ffm"


def _read_back(path, lines):
    """Array `x` read from a file holding `lines`, with every warning raised."""
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return archive._Reader(path).read_array("x")


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
              elements=st.one_of(st.floats(width=64, allow_nan=False, allow_infinity=False),
                                 *_EDGE_AND_INTEGRAL)))
def test_read_array_returns_the_written_bits(array_file, array):
    lines = []
    archive._emit_array(lines, "x", array)
    out = _read_back(array_file, lines)
    assert out.shape == array.shape and out.dtype == np.float64
    assert out.tobytes() == array.tobytes()


# (kind, edit of one row's text at a position, message): each edit breaks the row
_ROW_EDITS = [
    ("odd", lambda row, at: row[:at] + row[at + 1:], "truncated section"),
    ("non-hex", lambda row, at: row[:at] + "g" + row[at + 1:], "malformed float"),
    ("byte short", lambda row, at: row[:at - at % 2] + row[at - at % 2 + 2:], "truncated section"),
    ("byte long", lambda row, at: row[:at - at % 2] + "00" + row[at - at % 2:],
     "truncated section"),
    ("space inside", lambda row, at: row[:at] + " " + row[at + 1:], "malformed float"),
    ("spaced pair", lambda row, at: row[:at - at % 2] + "  " + row[at - at % 2 + 2:],
     "malformed float"),
    ("nan", lambda row, at: row[:at - at % 16] + _NAN + row[at - at % 16 + 16:], "non-finite"),
    ("inf", lambda row, at: row[:at - at % 16] + _INF + row[at - at % 16 + 16:], "non-finite"),
    ("-inf", lambda row, at: row[:at - at % 16] + _NEG_INF + row[at - at % 16 + 16:],
     "non-finite"),
]


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
              elements=st.one_of(st.floats(width=64, allow_nan=False, allow_infinity=False),
                                 *_EDGE_AND_INTEGRAL)),
       st.integers(0, 10_000), st.integers(0, 10_000), st.sampled_from(_ROW_EDITS))
def test_broken_hex_row_is_data_error(array_file, array, row, at, edit):
    lines = []
    archive._emit_array(lines, "x", array)
    r = 1 + row % array.shape[0]
    kind, change, message = edit
    lines[r] = change(lines[r], at % len(lines[r]))
    if kind in ("odd", "byte short", "byte long"):
        message = f"truncated section: array 'x' row {r - 1}"
    with pytest.raises(DataError, match=message):
        _read_back(array_file, lines)


@pytest.mark.parametrize("value, text", [
    (-0.0, "0000000000000080"), (5e-324, "0100000000000000"), (-5e-324, "0100000000000080"),
    (2.2250738585072009e-308, "ffffffffffff0f00"), (1.7976931348623157e308, "ffffffffffffef7f"),
    (-1.7976931348623157e308, "ffffffffffffefff"), (0.1, "9a9999999999b93f"),
])
def test_edge_values_round_trip_bit_exactly(array_file, value, text):
    lines = []
    archive._emit_array(lines, "x", np.array([[value, 1.0]]))
    assert lines == ["array x 1 2", text + "000000000000f03f"]
    out = _read_back(array_file, lines)
    assert out.tobytes() == struct.pack("<2d", value, 1.0)


_ROW = _hex(1.0, 2.0)  # 32 digits: one row of a 2-column array


@pytest.mark.parametrize("lines, shape", [(["array x 0 3"], (0, 3)),
                                          (["array x 2 0", "", ""], (2, 0)),
                                          (["array x 0 0"], (0, 0))])
def test_empty_array_records(array_file, lines, shape):
    assert _read_back(array_file, lines).shape == shape


@pytest.mark.parametrize("lines, message", [
    (["array x 2 2", _ROW, _ROW + "#"], "truncated section: array 'x' row 1"),  # no comments
    (["array x 2 2", "#" + _ROW[1:], _ROW], "malformed float"),
    (["array x 3 2", _ROW, "", _ROW], "truncated section: array 'x' row 1"),
    (["array x 3 2", _ROW, "", ""], "truncated section: array 'x' row 1"),
    (["array x 2 2", " ", "\t"], "truncated section: array 'x' row 0"),
    (["array x 3 2", _hex(1, 2, 3), _hex(4, 5, 6), _hex(7, 8, 9)],
     "truncated section: array 'x' row 0"),
    (["array x 2 2", _ROW, _hex(3)], "truncated section: array 'x' row 1"),
    (["array x 2 2", _ROW, _ROW[:-1] + "g"], "malformed float"),  # not a hex digit
    (["array x 2 2", _ROW, "0x" + _ROW[2:]], "malformed float"),
    (["array x 2 2", _ROW, _ROW[:15] + "," + _ROW[16:]], "malformed float"),
    (["array x 2 2", _ROW, _hex(3) + _INF], "non-finite"),
    (["array x 2 2", _ROW], "truncated archive"),
    (["array x 2 -2", _ROW], "negative array shape"),
    (["array x 2 two", _ROW, _ROW], "malformed array header"),
    (["array x 1 1", _hex(1)[:-1]], "truncated section: array 'x' row 0"),  # odd length
    (["array x 2 1", _hex(1)[:-1], _hex(2) + "0"], "truncated section: array 'x' row 0"),
    (["array x 2 2", _ROW, _ROW[:-2]], "truncated section: array 'x' row 1"),  # a byte short
    (["array x 2 2", _ROW, _ROW + "00"], "truncated section: array 'x' row 1"),  # a byte long
    (["array x 2 2", _ROW, _ROW.upper()[:-1] + "G"], "malformed float"),
    # the width holds, but fromhex skips the whitespace: the decoded length is short
    (["array x 2 2", _ROW, _ROW[:2] + " " + _ROW[3:]], "malformed float"),
    (["array x 2 2", _ROW, _ROW[:2] + "  " + _ROW[4:]], "malformed float"),
    (["array x 2 2", _ROW, _ROW[:2] + "\t\t" + _ROW[4:]], "malformed float"),
    (["array x 2 2", _ROW, " " * 16 + _ROW[16:]], "malformed float"),
    (["array x 1 2", _hex(1) + " " * 16], "malformed float"),
    (["array x 2 2", _ROW, _hex(3) + _NAN], "non-finite"),
    (["array x 2 2", _ROW, _hex(3) + "010000000000f07f"], "non-finite"),  # signalling NaN
    (["array x 2 2", _NEG_INF + _hex(2), _ROW], "non-finite"),
])
def test_malformed_array_records(array_file, lines, message):
    with pytest.raises(DataError, match=message):
        _read_back(array_file, lines)


def test_row_claim_past_the_file_allocates_nothing(array_file):
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="truncated archive$"):
            _read_back(array_file, [f"array x {10 ** 12} {10 ** 6}", _ROW, _ROW])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _named_arrays(model):
    """The arrays of a model under their archive record names."""
    if isinstance(model, SubjectBank):
        named = {"klt_mean": model.klt.mean, "klt_basis": model.klt.basis}
        for label, hmm in model.models.items():
            named.update({f"model:{label}:trans": hmm.trans, f"model:{label}:means": hmm.means,
                          f"model:{label}:vars": hmm.variances})
        return named
    basis, gallery = (("basis", "gallery") if isinstance(model, EigenModel)
                      else ("projection", "centroids"))
    return {"mean": model.mean, "eigenvalues": model.eigenvalues, basis: model.basis,
            gallery: model.gallery}


@pytest.mark.parametrize("which", ["eigen", "fisher", "bank"])
def test_saved_arrays_equal_per_value_floats(tmp_path, banded_models, which):
    path = tmp_path / "m.ffm"
    save_model(getattr(banded_models, which), path)
    lines = path.read_text().splitlines()
    named = _named_arrays(load_model(path))
    headers = [at for at, line in enumerate(lines) if line.startswith("array ")]
    assert len(headers) >= 4 and len(headers) == len(named)
    for at in headers:
        _, name, rows, cols = lines[at].split()
        expected = [np.array([struct.unpack("<d", bytes.fromhex(line[i:i + 16]))[0]
                              for i in range(0, len(line), 16)])
                    for line in lines[at + 1:at + 1 + int(rows)]]
        out = np.atleast_2d(named[name])
        assert out.shape == (int(rows), int(cols))
        assert [row.tobytes() for row in out] == [row.tobytes() for row in expected]


def _array_headers(path):
    """(name, rows, cols) of every array record, in file order."""
    return [(name, int(rows), int(cols))
            for name, rows, cols in (line.split()[1:] for line in path.read_text().splitlines()
                                     if line.startswith("array "))]


class TestStoredArrays:
    def test_fisher_stores_only_the_composed_projection(self, tmp_path, banded_models):
        fisher = banded_models.fisher
        path = tmp_path / "fisher.ffm"
        save_model(fisher, path)
        d, m, c = fisher.mean.size, fisher.m, len(fisher.labels)
        assert m <= c - 1
        assert _array_headers(path) == [("mean", 1, d), ("eigenvalues", 1, m),
                                        ("projection", d, m), ("centroids", c, m)]

    def test_eigen_gallery_is_one_matrix(self, tmp_path, banded, banded_models):
        eigen = banded_models.eigen
        path = tmp_path / "eigen.ffm"
        save_model(eigen, path)
        galleries = [h for h in _array_headers(path) if h[0].startswith("gallery")]
        assert galleries == [("gallery", len(banded.train_entries), eigen.k)]


# The archive text of a hand-built model of each FaceSpace kind: the record
# names and their order are the format, whatever the fields are called.
_GOLDEN = {
    "eigen": (EigenModel, (0.25, 1.5), "scalar theta_face 0.25\nscalar theta_known 1.5\n",
              "basis", "gallery"),
    "fisher": (FisherModel, (), "", "projection", "centroids"),
}


@pytest.mark.parametrize("method", sorted(_GOLDEN))
def test_face_space_archive_text(tmp_path, method):
    kind, thresholds, scalars, basis, gallery = _GOLDEN[method]
    model = kind((1, 2), np.array([1.0, 2.5]), np.array([[0.6], [0.8]]), np.array([24.0]),
                 np.array([[0.1], [-2.0]]), ("b", "a"), *thresholds)
    path = tmp_path / f"{method}.ffm"
    save_model(model, path)
    assert path.read_text(encoding="ascii") == (  # mean [1, 2.5], basis [0.6, 0.8], ...
        f"FFM2\nmethod {method}\ndims 1 2\n{scalars}"
        f"array mean 1 2\n000000000000f03f0000000000000440\n"
        f"array eigenvalues 1 1\n0000000000003840\n"
        f"array {basis} 2 1\n333333333333e33f\n9a9999999999e93f\n"
        f"labels 2 a b\narray {gallery} 2 1\n00000000000000c0\n9a9999999999b93f\nend\n")


def _repeat_first_label(lines):
    at = next(i for i, line in enumerate(lines) if line.startswith("labels "))
    fields = lines[at].split()
    fields[3] = fields[2]
    lines[at] = " ".join(fields)


@pytest.mark.parametrize("which", ["fisher", "bank"])
def test_repeated_label_rejected(tmp_path, banded_models, which):
    path = tmp_path / "m.ffm"
    save_model(getattr(banded_models, which), path)
    lines = path.read_text().splitlines()
    _repeat_first_label(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="twice"):
        load_model(path)


@pytest.fixture(scope="module")
def tiny_archives(tmp_path_factory):
    """Text of a saved eigen, fisher and HMM model, each trained on 3 x 2 tiny faces."""
    rng = np.random.default_rng(5)
    images = [(f"s{i % 3}", GrayImage(4, 3, rng.uniform(0, 255, size=(4, 3))))
              for i in range(6)]
    vectors = [(label, flatten(img)) for label, img in images]
    models = [train_eigen(vectors, 3, (4, 3)), train_fisher(vectors, (4, 3)),
              train_bank(images, BlockParams(2, 1, (4, 3)), n_states=2, klt_dim=2)]
    path = tmp_path_factory.mktemp("tiny") / "m.ffm"
    texts = []
    for model in models:
        save_model(model, path)
        texts.append(path.read_text())
    return path, texts


_TOKENS = st.one_of(st.sampled_from(["0", "1", "-1", "2", "9999999999999", "nan", "inf",
                                     "1e400", "s0", "s9", "array", "labels", "end", "",
                                     "1_0", "infinity", "+1", "1e-400", "0x10", "#", "1,5",
                                     "FFM1", _NAN, _INF, _NEG_INF, _hex(-0.0), _hex(5e-324),
                                     _hex(1.7976931348623157e308), _hex(-1.0), "g", " ",
                                     "  ", "00", "0" * 15, "0" * 17]),
                    st.text(st.characters(min_codepoint=33, max_codepoint=126), max_size=4),
                    st.text("0123456789abcdef", min_size=16, max_size=16))


@settings(max_examples=150, deadline=None)
@given(which=st.integers(0, 2), line=st.integers(0, 10_000), token=st.integers(0, 10_000),
       kind=st.sampled_from(["delete", "duplicate", "replace", "overwrite"]), new=_TOKENS)
def test_mutated_archive_loads_consistently_or_is_data_error(tiny_archives, which, line,
                                                            token, kind, new):
    path, texts = tiny_archives
    lines = texts[which].splitlines()
    at = line % len(lines)
    if kind == "delete":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(at, lines[at])
    elif kind == "overwrite":  # in place; a 16-digit token lands on one whole value
        start = token % max(len(lines[at]), 1)
        start -= start % 16 if len(new) == 16 else 0
        lines[at] = lines[at][:start] + new + lines[at][start + len(new):]
    else:
        fields = lines[at].split() or [""]
        fields[token % len(fields)] = new
        lines[at] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = load_model(path)
    except DataError:
        return
    records = {line.split()[0]: line.split()[1:] for line in lines[1:] if line.split()}
    assert method_of(model) == records["method"][0]
    assert model.dims == (int(records["dims"][0]), int(records["dims"][1]))
    assert model.labels == sorted(set(records["labels"][1:]))


@st.composite
def array_rewrites(draw):
    """(archive, record, (rows, cols), fill, whole): an edit of one of tiny_archives
    that rewrites its array record `record` (modulo their count), header and rows
    together, to a rows x cols block of the fill values repeated. With whole, a
    record of an HMM subject takes the subject's other two with it, as a model of
    `rows` states: trans rows x rows, means and vars rows x cols. No one record
    alone makes an HMM of 0 states."""
    return (draw(st.integers(0, 2)), draw(st.integers(0, 1000)),
            (draw(st.integers(0, 3)), draw(st.integers(0, 3))),
            draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0, 5e-324, 1e300, np.nan]),
                          min_size=1, max_size=12)),
            draw(st.booleans()))


def _rewrite_array(lines, name, shape, fill):
    """Array record `name` of an archive's lines rewritten in place to shape."""
    at = next(i for i, line in enumerate(lines) if line.startswith(f"array {name} "))
    values = np.resize(np.array(fill), shape)
    lines[at:at + 1 + int(lines[at].split()[2])] = (
        [f"array {name} {shape[0]} {shape[1]}"] + [_hex(*row) for row in values])


_VECTORS = {"mean", "eigenvalues", "klt_mean"}  # one-row array records read as one vector


@settings(max_examples=150, deadline=None)
@given(array_rewrites())
@example((2, 2, (0, 2), [0.0], True))  # the first subject of the HMM bank with 0 states
def test_rewritten_array_loads_consistently_or_is_data_error(tiny_archives, rewrite):
    path, texts = tiny_archives
    which, record, (rows, cols), fill, whole = rewrite
    lines = texts[which].splitlines()
    names = [line.split()[1] for line in lines if line.startswith("array ")]
    name = names[record % len(names)]
    if whole and name.startswith("model:"):
        prefix = name.rsplit(":", 1)[0]
        for field, shape in (("trans", (rows, rows)), ("means", (rows, cols)),
                             ("vars", (rows, cols))):
            _rewrite_array(lines, f"{prefix}:{field}", shape, fill)
    else:
        _rewrite_array(lines, name, (rows, cols), fill)
    path.write_text("\n".join(lines) + "\n")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = load_model(path)
    except DataError:
        return
    assert method_of(model) == texts[which].splitlines()[1].split()[1]
    arrays = _named_arrays(model)
    for name, rows, cols in (line.split()[1:] for line in lines if line.startswith("array ")):
        shape = (int(rows), int(cols))
        assert arrays[name].shape == ((shape[1],) if name in _VECTORS and shape[0] == 1
                                      else shape)


def test_vector_record_of_two_rows_is_data_error(tiny_archives, capsys):
    # the writer puts a vector on one row; klt_mean's 6 values on 2 rows of 3 are refused
    path, texts = tiny_archives
    lines = texts[2].splitlines()
    assert any(line.startswith("array klt_mean 1 6") for line in lines)
    _rewrite_array(lines, "klt_mean", (2, 3), [0.0, 0.5, 1.0, 2.0, -1.0, 0.25])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="array 'klt_mean' has 2 rows, expected 1$"):
        load_model(path)
    capsys.readouterr()
    assert main(["inspect", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error:") and captured.err.count("\n") == 1
    assert "klt_mean" in captured.err


def _load_bytes(path, data):
    """load_model of a file holding `data`, with every warning raised."""
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return load_model(path)


def _same_model(a, b):
    named_a, named_b = _named_arrays(a), _named_arrays(b)
    return (type(a) is type(b) and a.dims == b.dims and a.labels == b.labels
            and named_a.keys() == named_b.keys()
            and all(named_a[k].shape == named_b[k].shape
                    and named_a[k].tobytes() == named_b[k].tobytes() for k in named_a))


@pytest.mark.parametrize("which", [0, 1, 2])
@pytest.mark.parametrize("edit", [lambda text: text.replace("\n", "\r\n"),
                                  lambda text: text.replace("\n", "\r"),
                                  lambda text: text[:-1],
                                  lambda text: text.replace("\n", "\r\n")[:-2],
                                  lambda text: text.replace("\n", "\r")[:-1]],
                         ids=["crlf", "cr", "no final lf", "crlf, no final crlf", "cr, no final cr"])
def test_text_mode_line_ends_load_bit_identically(tiny_archives, which, edit):
    path, texts = tiny_archives
    reference = _load_bytes(path, texts[which].encode("ascii"))
    assert _same_model(_load_bytes(path, edit(texts[which]).encode("ascii")), reference)


# str.splitlines also breaks lines at these; an archive breaks lines only at
# "\n", "\r\n" or "\r"
@pytest.mark.parametrize("separator", ["\v", "\f", "\x1c", "\x1d", "\x1e"])
def test_other_line_separators_are_data_errors(tiny_archives, separator):
    path, texts = tiny_archives
    with pytest.raises(DataError, match="bad magic 'FFM2") as error:
        _load_bytes(path, texts[0].replace("\n", separator).encode("ascii"))
    assert len(str(error.value)) < len(str(path)) + 150  # the file is one line: quoted in part


@pytest.mark.parametrize("byte", [0x80, 0xc3, 0xff])
def test_non_ascii_archive_names_the_offset(tiny_archives, byte):
    path, texts = tiny_archives
    data = texts[0].encode("ascii")
    at = data.index(b"\n", 40) + 3
    with pytest.raises(DataError, match=f"non-ASCII byte at offset {at}$"):
        _load_bytes(path, data[:at] + bytes([byte]) + data[at:] + bytes([byte]))


_BYTES = st.one_of(st.sampled_from(b"\r\n\t\x0c\x00"), st.integers(0x80, 0xff),
                   st.sampled_from(b"0123456789abcdefABCDEF"))


@settings(max_examples=300, deadline=None)
@given(which=st.integers(0, 2), at=st.integers(0, 100_000),
       kind=st.sampled_from(["insert", "replace", "delete"]), byte=_BYTES)
def test_byte_edit_loads_consistently_or_is_data_error(tiny_archives, which, at, kind, byte):
    path, texts = tiny_archives
    data = texts[which].encode("ascii")
    at %= len(data) + (kind == "insert")
    edited = {"insert": data[:at] + bytes([byte]) + data[at:],
              "replace": data[:at] + bytes([byte]) + data[at + 1:],
              "delete": data[:at] + data[at + 1:]}[kind]
    try:
        model = _load_bytes(path, edited)
    except DataError:
        return
    text = edited.decode("ascii").replace("\r\n", "\n").replace("\r", "\n")
    records = {line.split()[0]: line.split()[1:] for line in text.split("\n") if line.split()}
    assert method_of(model) == records["method"][0]
    assert model.dims == (int(records["dims"][0]), int(records["dims"][1]))
    assert model.labels == sorted(set(records["labels"][1:]))


@pytest.mark.parametrize("label", ["s,01", "s 01", ""])
def test_label_outside_the_dataset_rule_is_not_archived(tmp_path, banded_models, label):
    model = banded_models.fisher
    model = dataclasses.replace(model, row_labels=(label,) + model.row_labels[1:])
    path = tmp_path / "fisher.ffm"
    with pytest.raises(DataError, match=re.escape(f"{path}: label")):
        save_model(model, path)
    assert list(tmp_path.iterdir()) == []
