import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facelab.dataset import (HEADER_BYTES, GrayImage, SplitSpec, flatten, load_pgm,
                             load_pgm_file, read_pgm_dims, scan_dataset, split, write_pgm)
from facelab.errors import DataError


def p5(w, h, maxval, payload: bytes) -> bytes:
    return f"P5\n{w} {h}\n{maxval}\n".encode() + payload


class TestLoadPgm:
    def test_p5_direct_byte_mapping(self):
        img = load_pgm(p5(2, 2, 255, bytes([0, 255, 128, 64])))
        assert (img.h, img.w) == (2, 2)
        assert np.array_equal(img.pixels, [[0, 255], [128, 64]])

    def test_p2_token_mapping(self):
        img = load_pgm(b"P2\n1 1\n255\n7")
        assert np.array_equal(img.pixels, [[7]])

    def test_truncated_p5(self):
        with pytest.raises(DataError, match="truncated"):
            load_pgm(p5(2, 2, 255, bytes([0, 255, 128])))

    def test_trailing_p5_bytes(self):
        with pytest.raises(DataError, match="trailing"):
            load_pgm(p5(1, 1, 255, bytes([1, 2])))

    def test_truncated_p2(self):
        with pytest.raises(DataError, match="truncated"):
            load_pgm(b"P2\n2 2\n255\n1 2 3")

    def test_sixteen_bit_rejected(self):
        with pytest.raises(DataError, match="maxval"):
            load_pgm(p5(1, 1, 65535, bytes([0, 0])))

    def test_bad_magic(self):
        with pytest.raises(DataError, match="magic"):
            load_pgm(b"P6\n1 1\n255\n\x00\x00\x00")

    def test_nonpositive_dims(self):
        with pytest.raises(DataError, match="positive"):
            load_pgm(b"P2\n0 1\n255\n")

    def test_value_above_maxval(self):
        with pytest.raises(DataError, match="outside"):
            load_pgm(p5(1, 1, 100, bytes([200])))

    def test_header_comments_skipped(self):
        img = load_pgm(b"P2 # magic\n# a comment line\n1 1\n255\n9")
        assert img.pixels[0, 0] == 9

    def test_malformed_header_token(self):
        with pytest.raises(DataError, match="malformed"):
            load_pgm(b"P2\nxx 1\n255\n1")


class TestFlatten:
    def test_row_major(self):
        img = GrayImage(2, 2, np.array([[0.0, 255.0], [128.0, 64.0]]))
        assert np.array_equal(flatten(img), [0, 255, 128, 64])

    def test_single_pixel(self):
        vec = flatten(GrayImage(1, 1, np.array([[7.0]])))
        assert vec.shape == (1,) and vec[0] == 7

    def test_column_image(self):
        img = GrayImage(3, 1, np.array([[1.0], [2.0], [3.0]]))
        assert np.array_equal(flatten(img), [1, 2, 3])


class TestWritePgm:
    @given(h=st.integers(1, 5), w=st.integers(1, 5), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_bit_exact(self, h, w, seed):
        rng = np.random.default_rng(seed)
        img = GrayImage(h, w, rng.integers(0, 256, size=(h, w)).astype(float))
        again = load_pgm(write_pgm(img))
        assert (again.h, again.w) == (h, w)
        assert np.array_equal(again.pixels, img.pixels)

    def test_non_integral_rejected(self):
        with pytest.raises(DataError, match="integral"):
            write_pgm(GrayImage(1, 1, np.array([[0.5]])))


class TestGrayImage:
    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            GrayImage(1, 1, np.array([[256.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            GrayImage(1, 1, np.array([[np.inf]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DataError):
            GrayImage(2, 2, np.zeros((2, 3)))

    def test_pixels_read_only(self):
        img = GrayImage(1, 2, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1.0


def _write_tree(root, spec):
    """spec: {label: [GrayImage, ...]}"""
    for label, images in spec.items():
        d = root / label
        d.mkdir(parents=True)
        for i, img in enumerate(images):
            (d / f"{i}.pgm").write_bytes(write_pgm(img))


def _img(h, w, fill):
    return GrayImage(h, w, np.full((h, w), float(fill)))


class TestScanDataset:
    def test_enumerates_classes(self, tmp_path):
        _write_tree(tmp_path, {"a": [_img(4, 4, 1), _img(4, 4, 2)], "b": [_img(4, 4, 3)]})
        manifest = scan_dataset(tmp_path)
        assert manifest.labels == ["a", "b"]
        assert manifest.dims == (4, 4)
        assert [len(v) for v in manifest.classes.values()] == [2, 1]

    def test_mixed_dims_rejected(self, tmp_path):
        _write_tree(tmp_path, {"a": [_img(4, 4, 1)], "b": [_img(8, 8, 1)]})
        with pytest.raises(DataError, match="mixed"):
            scan_dataset(tmp_path)

    def test_empty_root_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no class"):
            scan_dataset(tmp_path)

    def test_class_without_images_rejected(self, tmp_path):
        (tmp_path / "a").mkdir()
        with pytest.raises(DataError, match="no .pgm"):
            scan_dataset(tmp_path)

    def test_order_independent_of_creation_order(self, tmp_path):
        # create files in reverse name order; scan must still sort them
        _write_tree(tmp_path, {"b": [_img(2, 2, 1)]})
        d = tmp_path / "a"
        d.mkdir()
        (d / "z.pgm").write_bytes(write_pgm(_img(2, 2, 5)))
        (d / "a.pgm").write_bytes(write_pgm(_img(2, 2, 6)))
        manifest = scan_dataset(tmp_path)
        assert manifest.labels == ["a", "b"]
        assert [p.name for p in manifest.classes["a"]] == ["a.pgm", "z.pgm"]

    def test_read_pgm_dims_header_only(self, tmp_path):
        _write_tree(tmp_path, {"a": [_img(3, 5, 9)]})
        assert read_pgm_dims(tmp_path / "a" / "0.pgm") == (3, 5)

    @pytest.mark.parametrize("length", [HEADER_BYTES - 12, HEADER_BYTES - 8, HEADER_BYTES,
                                        5 * HEADER_BYTES])
    def test_read_pgm_dims_past_a_long_comment(self, tmp_path, length):
        # the comment ends at, or runs past, the end of the first read
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5\n#" + b"c" * length + b"\n92 112\n255\n" + bytes(3))
        assert read_pgm_dims(path) == (112, 92)

    def test_read_pgm_dims_names_the_file(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n92 112\n")
        with pytest.raises(DataError, match="bad.pgm: truncated PGM header: missing maxval"):
            read_pgm_dims(path)

    def test_truncated_raster_passes_the_scan(self, tmp_path):
        _write_tree(tmp_path, {"a": [_img(3, 5, 9)]})
        path = tmp_path / "a" / "0.pgm"
        path.write_bytes(path.read_bytes()[:-4])
        assert scan_dataset(tmp_path).dims == (3, 5)
        with pytest.raises(DataError, match="0.pgm: truncated P5 pixel data"):
            load_pgm_file(path)


class TestSplit:
    def _manifest(self, tmp_path, per_class=4, classes=("a", "b")):
        _write_tree(tmp_path, {c: [_img(2, 2, i) for i in range(per_class)] for c in classes})
        return scan_dataset(tmp_path)

    def test_cardinality(self, tmp_path):
        manifest = self._manifest(tmp_path)
        train, test = split(manifest, SplitSpec(k=2, seed=0))
        for label in manifest.labels:
            assert len(train.classes[label]) == 2
            assert len(test.classes[label]) == 2

    def test_deterministic(self, tmp_path):
        manifest = self._manifest(tmp_path)
        first = split(manifest, SplitSpec(k=2, seed=0))
        second = split(manifest, SplitSpec(k=2, seed=0))
        assert first[0].classes == second[0].classes
        assert first[1].classes == second[1].classes

    def test_partition(self, tmp_path):
        manifest = self._manifest(tmp_path)
        for seed in range(5):
            train, test = split(manifest, SplitSpec(k=3, seed=seed))
            for label in manifest.labels:
                got = set(train.classes[label]) | set(test.classes[label])
                assert got == set(manifest.classes[label])
                assert not set(train.classes[label]) & set(test.classes[label])

    def test_seed_changes_split(self, tmp_path):
        manifest = self._manifest(tmp_path, per_class=8)
        picks = {tuple(split(manifest, SplitSpec(k=4, seed=s))[0].classes["a"])
                 for s in range(12)}
        assert len(picks) > 1

    def test_k_out_of_range(self, tmp_path):
        manifest = self._manifest(tmp_path)
        with pytest.raises(DataError, match="out of range"):
            split(manifest, SplitSpec(k=4, seed=0))
        with pytest.raises(DataError, match="out of range"):
            split(manifest, SplitSpec(k=0, seed=0))
