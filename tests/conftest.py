"""Shared fixtures: synthetic benchmark trees, splits, and trained models.

Everything here is deterministic; session scope keeps the expensive
training steps to one run for the whole suite.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from facelab import dispatcher, fisherfaces, synth
from facelab.dataset import (GrayImage, SplitSpec, flatten, load_labeled_images,
                             scan_dataset, split)
from facelab.eigenfaces import train_eigen
from facelab.fisherfaces import train_fisher
from facelab.hmm1d import BlockParams, train_bank

BANDED_DIMS = (64, 64)
LIGHTING_DIMS = (32, 32)


@pytest.fixture(scope="session")
def data_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthetic")
    synth.write_dataset(synth.make_banded_dataset(), root / "banded")
    synth.write_dataset(synth.make_lighting_dataset(), root / "lighting")
    return root


def _split_bundle(root, k, seed):
    manifest = scan_dataset(root)
    train_m, test_m = split(manifest, SplitSpec(k=k, seed=seed))
    return SimpleNamespace(
        manifest=manifest,
        train=train_m,
        test=test_m,
        train_entries=[(lb, str(p), im) for lb, p, im in load_labeled_images(train_m)],
        test_entries=[(lb, str(p), im) for lb, p, im in load_labeled_images(test_m)],
    )


@pytest.fixture(scope="session")
def banded(data_root):
    return _split_bundle(data_root / "banded", k=5, seed=0)


@pytest.fixture(scope="session")
def lighting(data_root):
    return _split_bundle(data_root / "lighting", k=10, seed=0)


@pytest.fixture(scope="session")
def banded_models(banded):
    vectors = [(lb, flatten(im)) for lb, _, im in banded.train_entries]
    images = [(lb, im) for lb, _, im in banded.train_entries]
    eigen = train_eigen(vectors, 12, BANDED_DIMS)
    fisher = train_fisher(vectors, BANDED_DIMS)
    bank = train_bank(images, BlockParams(10, 9, BANDED_DIMS), n_states=5, klt_dim=10)
    train_images = [im for _, im in images]
    policy, context, ref_idx = dispatcher.calibrate(train_images, eigen, bank)
    return SimpleNamespace(
        eigen=eigen, fisher=fisher, bank=bank, context=context, policy=policy,
        frontal=flatten(train_images[ref_idx]), frontal_idx=ref_idx, train_images=train_images,
    )


@pytest.fixture(scope="session")
def route_probe():
    """route_probe(kind, image, rng): a probe of one kind (clean, ramp, occlude or
    roll) from a held-out image, as in the benchmark's dispatch mix."""

    def make(kind, image, rng):
        if kind == "clean":
            return image
        if kind == "ramp":
            lit = synth.add_ramp(image, gx=rng.choice([-1.0, 1.0]) * rng.uniform(100.0, 150.0),
                                 gy=rng.uniform(-40.0, 40.0))
            return GrayImage(lit.h, lit.w, np.rint(lit.pixels))
        if kind == "occlude":
            return synth.occlude_bottom(image, 0.3)
        return GrayImage(image.h, image.w, np.roll(image.pixels, 1, axis=0))

    return make


@pytest.fixture
def train_fisher_keeping_pca(monkeypatch):
    """train_fisher that also returns the D x p PCA pre-projection it built;
    the model itself keeps only the composed projection."""
    real_face_pca, seen = fisherfaces.face_pca, []

    def spy(rows, labels, dims, k):
        seen.append(real_face_pca(rows, labels, dims, k))
        return seen[-1]

    monkeypatch.setattr(fisherfaces, "face_pca", spy)

    def train(samples, dims=None):
        model = train_fisher(samples, dims)
        return model, seen[-1].basis

    return train
