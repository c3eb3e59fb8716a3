"""Multi-model dispatch: measure test-image properties, pick a recognizer.

A probe is profiled on three axes before classification: pose deviation
(weight-space distance from a designated representative frontal face),
illumination deviation (standardized mean-intensity shift plus left/right
asymmetry), and occlusion degree (fraction of blocks whose KLT residual is
abnormal), all three taken by one kernel, _measures, for a probe or a batch.
A fixed-priority threshold rule routes the probe to the eigenface, fisherface,
or HMM recognizer. Its thresholds are percentiles of the kernel's measures of
clean training images, which also give the standardization; none is learned.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import eigenfaces, fisherfaces, hmm1d
from .dataset import GrayImage, check_path, flatten, write_atomic
from .errors import DataError
from .numerics import affine_coords, check_face

METHOD_EIGEN = "eigen"
METHOD_FISHER = "fisher"
METHOD_HMM = "hmm"
METHODS = (METHOD_EIGEN, METHOD_FISHER, METHOD_HMM)
FRONTAL_REF = "frontal_ref"  # the policy file key of the frontal reference image path

_SIGMA_FLOOR = 1e-9
POLICY_PERCENTILE = 95.0  # dispatch thresholds sit at this percentile of training profiles


@dataclass(frozen=True)
class ImageProfile:
    pose_deviation: float  # weight-space L2 distance from the frontal reference
    illumination_deviation: float  # standardized mean shift + asymmetry
    occlusion_degree: float  # fraction of blocks with abnormal KLT residual

    def __post_init__(self):
        values = (self.pose_deviation, self.illumination_deviation, self.occlusion_degree)
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            raise DataError(f"profile fields must be finite and non-negative: {values}")
        if self.occlusion_degree > 1.0:
            raise DataError(f"occlusion degree {self.occlusion_degree} exceeds 1")


@dataclass(frozen=True)
class ProfileContext:
    """Training-set statistics that standardize the profile measurements."""

    mean_mu: float  # mean of per-image mean intensities
    mean_sigma: float  # std of those means
    asym_sigma: float  # std of per-image left/right asymmetries
    resid_p99: float  # 99th percentile of training block KLT residuals

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.mean_mu, self.mean_sigma,
                                             self.asym_sigma, self.resid_p99)):
            raise DataError(f"profile context values must be finite: {self}")
        if not (self.mean_sigma > 0.0 and self.asym_sigma > 0.0):
            raise DataError("mean_sigma and asym_sigma must be positive")


@dataclass(frozen=True)
class DispatchPolicy:
    tau_illum: float
    tau_pose: float
    tau_occl: float

    def __post_init__(self):
        for name in ("tau_illum", "tau_pose", "tau_occl"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) >= 0.0):
                raise DataError(f"{name} must be finite and non-negative")


def _mean(pixels: np.ndarray) -> float:
    """pixels.mean(), the same sum divided by the same count, in fewer numpy calls."""
    return float(np.add.reduce(pixels, axis=None) / pixels.size)


def _half_asymmetry(image: GrayImage) -> float:
    half = image.w // 2
    if half == 0:
        return 0.0
    return abs(_mean(image.pixels[:, :half]) - _mean(image.pixels[:, image.w - half:]))


def _observe(bank: hmm1d.SubjectBank, image: GrayImage) -> tuple[np.ndarray, np.ndarray]:
    """hmm1d.observe of an image, a batch of one, under the bank's KLT basis:
    (coordinates, residuals)."""
    if bank.klt is None:
        raise DataError("occlusion profiling requires a KLT-based bank")
    coords, residuals = hmm1d.observe([image], bank.params, bank.klt)
    return coords[0], residuals[0]


def block_residuals(bank: hmm1d.SubjectBank, image: GrayImage) -> np.ndarray:
    """Per-block distance to the bank's KLT subspace: hmm1d.observe's residuals."""
    return _observe(bank, image)[1]


def _brightness(images: list[GrayImage]) -> np.ndarray:
    """2 x n: each image's mean intensity (row 0) and left/right asymmetry (row 1)."""
    return np.array([[_mean(img.pixels) for img in images],
                     [_half_asymmetry(img) for img in images]])


def calibrate_context(train_images: list[GrayImage], residuals: list[np.ndarray],
                      brightness: np.ndarray | None = None) -> ProfileContext:
    """Standardization statistics from clean training images and their
    block_residuals, one array per image; brightness, when the caller has it,
    is the images' _brightness."""
    if not train_images:
        raise DataError("no training images to calibrate on")
    means, asyms = _brightness(train_images) if brightness is None else brightness
    return ProfileContext(
        mean_mu=float(means.mean()),
        mean_sigma=max(float(means.std()), _SIGMA_FLOOR),
        asym_sigma=max(float(asyms.std()), _SIGMA_FLOOR),
        resid_p99=float(np.percentile(np.concatenate(residuals), 99)),
    )


def _illumination(brightness: np.ndarray, context: ProfileContext) -> np.ndarray:
    """Each image's illumination deviation from its _brightness: standardized
    mean-intensity shift plus standardized left/right asymmetry."""
    return (np.abs(brightness[0] - context.mean_mu) / context.mean_sigma
            + brightness[1] / context.asym_sigma)


def _pose_offsets(images: list[GrayImage], eigen: eigenfaces.EigenModel,
                  frontal_ref: np.ndarray) -> np.ndarray:
    """n x K: each image's eigen weights less the reference's, U^T (x - ref), by
    one affine_coords per eigen.probe_rows chunk. The pose is a row's norm."""
    frontal_ref = check_face(frontal_ref, eigen.mean)
    return np.concatenate([affine_coords(rows, frontal_ref, eigen.basis)
                           for rows in eigen.probe_rows(images)])


def _measures(images: list[GrayImage], eigen: eigenfaces.EigenModel, frontal_ref: np.ndarray,
              residuals: list[np.ndarray], context: ProfileContext,
              illumination: np.ndarray | None = None, offsets: np.ndarray | None = None
              ) -> np.ndarray:
    """Each image's ImageProfile fields as a row (pose, illumination, occlusion),
    given its block_residuals and, when the caller has them, the images'
    illumination deviations and _pose_offsets; DataError for a residual list of
    another length or an empty residual array, and, in ImageProfile's words, for
    the first row that is not finite. The pose is the norm of U^T (x - ref), the
    image's weights less the reference's."""
    if len(residuals) != len(images):
        raise DataError(f"{len(residuals)} residual arrays for {len(images)} images")
    for i, resids in enumerate(residuals):
        if np.size(resids) == 0:
            raise DataError(f"image {i} has no block residuals")
    if offsets is None:
        offsets = _pose_offsets(images, eigen, frontal_ref)
    poses = np.linalg.norm(offsets, axis=1)
    if illumination is None:
        illumination = _illumination(_brightness(images), context)
    occlusion = [np.count_nonzero(resids > context.resid_p99) / resids.size for resids in residuals]
    measures = np.column_stack([poses, illumination, occlusion])
    if not np.isfinite(measures).all():  # no field can be negative
        bad = measures[~np.isfinite(measures).all(axis=1)][0]
        raise DataError(f"profile fields must be finite and non-negative: {tuple(bad.tolist())}")
    return measures


def profile(image: GrayImage, eigen: eigenfaces.EigenModel, frontal_ref: np.ndarray,
            bank: hmm1d.SubjectBank, context: ProfileContext) -> ImageProfile:
    """A probe's pose, illumination and occlusion: _measures of a batch of one."""
    frontal_ref = check_face(frontal_ref, eigen.mean)  # checked before the bank and the image
    residuals = block_residuals(bank, image)  # checks the dims
    check_face(image.pixels, eigen.mean)
    return ImageProfile(*_measures([image], eigen, frontal_ref, [residuals], context)[0].tolist())


def select(prof: ImageProfile, policy: DispatchPolicy) -> str:
    """Fixed-priority routing; a total function of (profile, policy).

    Strong illumination or occlusion go to the fisherface model, large pose
    deviation to the HMM, anything else to the eigenface model.
    """
    if prof.illumination_deviation > policy.tau_illum:
        return METHOD_FISHER
    if prof.occlusion_degree > policy.tau_occl:
        return METHOD_FISHER
    if prof.pose_deviation > policy.tau_pose:
        return METHOD_HMM
    return METHOD_EIGEN


def calibrate_policy(train_images: list[GrayImage], eigen: eigenfaces.EigenModel,
                     frontal_ref: np.ndarray, residuals: list[np.ndarray],
                     context: ProfileContext, illumination: np.ndarray | None = None
                     ) -> DispatchPolicy:
    """Thresholds at the POLICY_PERCENTILE of each column of the training
    images' _measures; residuals holds each image's block_residuals, as given to
    calibrate_context, frontal_ref is the reference face vector, and
    illumination, when the caller has it, each image's illumination deviation."""
    if not train_images:
        raise DataError("no training images to calibrate on")
    measures = _measures(train_images, eigen, frontal_ref, residuals, context, illumination)
    pose, illum, occl = np.percentile(measures, POLICY_PERCENTILE, axis=0).tolist()
    return DispatchPolicy(tau_illum=illum, tau_pose=pose, tau_occl=occl)


def calibrate(train_images: list[GrayImage], eigen: eigenfaces.EigenModel,
              bank: hmm1d.SubjectBank, residuals: list[np.ndarray] | None = None
              ) -> tuple[DispatchPolicy, ProfileContext, int]:
    """(policy, context, index of the frontal reference) from clean training
    images. The reference is the most representative frontal face: the least
    illumination score, the first one on ties. residuals, when the caller has
    them (hmm1d.train_bank's), are each image's block_residuals; each image's
    brightness and illumination are taken once."""
    if residuals is None:
        residuals = [block_residuals(bank, img) for img in train_images]
    brightness = _brightness(train_images)
    context = calibrate_context(train_images, residuals, brightness)
    illumination = _illumination(brightness, context)
    ref = int(np.argmin(illumination))  # the first of equal minima
    policy = calibrate_policy(train_images, eigen, flatten(train_images[ref]), residuals,
                              context, illumination)
    return policy, context, ref


def recognize_multi(
    eigen: eigenfaces.EigenModel,
    fisher: fisherfaces.FisherModel,
    bank: hmm1d.SubjectBank,
    frontal_ref: np.ndarray,
    policy: DispatchPolicy,
    context: ProfileContext,
    image: GrayImage,
) -> tuple[str, str, ImageProfile]:
    """Profile, select a recognizer, and delegate; returns (method, label, profile).

    The image is observed once: the profile reads its block residuals, and the
    HMM route its block coordinates. It is projected onto the eigenfaces once:
    the pose is the norm of its offset U^T (x - ref), and the eigen route
    classifies on offset + EigenModel.reference_weights(ref), its weights
    U^T (x - mean) to rounding (about 1e-14 relative).
    """
    if not eigen.labels == fisher.labels == bank.labels:
        raise DataError("models were trained on different label sets")
    if not eigen.dims == fisher.dims == bank.dims:
        raise DataError("models were trained on different image dimensions")
    frontal_ref = check_face(frontal_ref, eigen.mean)  # before the bank and the image
    coords, residuals = _observe(bank, image)  # checks the dims
    offset = _pose_offsets([image], eigen, frontal_ref)
    prof = ImageProfile(*_measures([image], eigen, frontal_ref, [residuals], context,
                                   offsets=offset)[0].tolist())
    method = select(prof, policy)
    if method == METHOD_HMM:
        return method, hmm1d.recognize(bank, [image], [coords], scores=False)[0][0], prof
    if method == METHOD_FISHER:
        return method, fisher.predict([image])[0][0], prof
    weights = offset + eigen.reference_weights(frontal_ref)
    decision = eigenfaces.classify_rows(eigen, flatten(image)[None], weights)[0]
    return method, eigenfaces.predicted_label(decision), prof


def _parse_fields(cls, values: dict[str, str]):
    """cls from the policy file values of its float fields."""
    return cls(**{f.name: float(values[f.name]) for f in fields(cls)})


def write_policy_file(path: Path, policy: DispatchPolicy, context: ProfileContext,
                      frontal_ref: str) -> None:
    """key=value policy file: the policy fields, the frontal reference, then the
    calibration statistics; floats by repr, written atomically. DataError, before
    anything is written, for a reference path that one UTF-8 line cannot hold."""
    if frontal_ref.splitlines() != [frontal_ref]:
        raise DataError(f"frontal reference path {frontal_ref!r} has a line break")
    check_path(frontal_ref)
    values = {**asdict(policy), FRONTAL_REF: frontal_ref, **asdict(context)}
    lines = [f"{key}={value if isinstance(value, str) else repr(float(value))}"
             for key, value in values.items()]
    write_atomic(path, "\n".join(lines) + "\n")


def read_policy_file(path: Path) -> tuple[DispatchPolicy, ProfileContext, str]:
    """Parse a policy file; every key is required once, unknown keys are rejected."""
    known = {f.name for cls in (DispatchPolicy, ProfileContext) for f in fields(cls)}
    known.add(FRONTAL_REF)
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read policy file {path}: {exc}") from exc
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise DataError(f"{path}:{ln}: unknown policy key {key!r}")
        if key in values:
            raise DataError(f"{path}:{ln}: repeated policy key {key!r}")
        values[key] = value.strip()
    missing = sorted(known - set(values))
    if missing:
        raise DataError(f"{path}: missing policy keys: {', '.join(missing)}")
    try:
        policy = _parse_fields(DispatchPolicy, values)
        context = _parse_fields(ProfileContext, values)
    except ValueError as exc:
        raise DataError(f"{path}: malformed numeric value: {exc}") from exc
    except DataError as exc:  # a value the policy or the context rejects
        raise DataError(f"{path}: {exc}") from exc
    return policy, context, values[FRONTAL_REF]
