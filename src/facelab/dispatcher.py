"""Multi-model dispatch: measure test-image properties, pick a recognizer.

A probe is profiled on three axes before classification: pose deviation
(weight-space distance from a designated representative frontal face),
illumination deviation (standardized mean-intensity shift plus left/right
asymmetry), and occlusion degree (fraction of blocks whose KLT residual is
abnormal). A fixed-priority threshold rule then routes the probe to the
eigenface, fisherface, or HMM recognizer. All thresholds and the property
standardization are calibrated from clean training images; none of this is
learned.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import eigenfaces, fisherfaces, hmm1d
from .dataset import GrayImage, flatten
from .errors import DataError
from .numerics import affine_residual

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
        if not all(np.isfinite(v) and v >= 0.0 for v in values):
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
    default_method: str = METHOD_EIGEN

    def __post_init__(self):
        if self.default_method not in METHODS:
            raise DataError(f"unknown method {self.default_method!r}")
        for name in ("tau_illum", "tau_pose", "tau_occl"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) >= 0.0):
                raise DataError(f"{name} must be finite and non-negative")


def _half_asymmetry(image: GrayImage) -> float:
    half = image.w // 2
    if half == 0:
        return 0.0
    left = float(image.pixels[:, :half].mean())
    right = float(image.pixels[:, image.w - half:].mean())
    return abs(left - right)


def block_residuals(bank: hmm1d.SubjectBank, image: GrayImage) -> np.ndarray:
    """Per-block distance to the KLT subspace."""
    if bank.klt is None:
        raise DataError("occlusion profiling requires a KLT-based bank")
    blocks = hmm1d.extract_blocks(image, bank.params)
    return affine_residual(blocks, bank.klt.mean, bank.klt.basis.T)[1]


def calibrate_context(train_images: list[GrayImage],
                      residuals: list[np.ndarray]) -> ProfileContext:
    """Standardization statistics from clean training images and their
    block_residuals, one array per image."""
    if not train_images:
        raise DataError("no training images to calibrate on")
    means = np.array([img.pixels.mean() for img in train_images])
    asyms = np.array([_half_asymmetry(img) for img in train_images])
    return ProfileContext(
        mean_mu=float(means.mean()),
        mean_sigma=max(float(means.std()), _SIGMA_FLOOR),
        asym_sigma=max(float(asyms.std()), _SIGMA_FLOOR),
        resid_p99=float(np.percentile(np.concatenate(residuals), 99)),
    )


def _illumination(image: GrayImage, context: ProfileContext) -> float:
    """Standardized mean-intensity shift plus standardized left/right asymmetry."""
    return (abs(float(image.pixels.mean()) - context.mean_mu) / context.mean_sigma
            + _half_asymmetry(image) / context.asym_sigma)


def _profile(image: GrayImage, eigen: eigenfaces.EigenModel, ref_weights: np.ndarray,
             residuals: np.ndarray, context: ProfileContext) -> ImageProfile:
    """profile, given the frontal reference's eigen weights and the image's
    block residuals."""
    pose = float(np.linalg.norm(eigenfaces.project(eigen, flatten(image)) - ref_weights))
    occlusion = float(np.mean(residuals > context.resid_p99))
    return ImageProfile(pose, _illumination(image, context), occlusion)


def profile(image: GrayImage, eigen: eigenfaces.EigenModel, frontal_ref: np.ndarray,
            bank: hmm1d.SubjectBank, context: ProfileContext) -> ImageProfile:
    """Measure pose, illumination and occlusion properties of a probe."""
    return _profile(image, eigen, eigenfaces.project(eigen, frontal_ref),
                    block_residuals(bank, image), context)


def select(prof: ImageProfile, policy: DispatchPolicy) -> str:
    """Fixed-priority routing; a total function of (profile, policy).

    Strong illumination or occlusion go to the fisherface model, large pose
    deviation to the HMM, anything else to the policy default.
    """
    if prof.illumination_deviation > policy.tau_illum:
        return METHOD_FISHER
    if prof.occlusion_degree > policy.tau_occl:
        return METHOD_FISHER
    if prof.pose_deviation > policy.tau_pose:
        return METHOD_HMM
    return policy.default_method


def frontal_ref_index(train_images: list[GrayImage], context: ProfileContext) -> int:
    """Pick the most representative frontal face: minimal illumination score,
    the first one on ties (0 for no images)."""
    return min(range(len(train_images)), default=0,
               key=lambda i: _illumination(train_images[i], context))


def calibrate_policy(train_images: list[GrayImage], eigen: eigenfaces.EigenModel,
                     frontal_ref: np.ndarray, residuals: list[np.ndarray],
                     context: ProfileContext) -> DispatchPolicy:
    """Thresholds at the POLICY_PERCENTILE of clean-training profiles; residuals
    holds each training image's block_residuals, as given to calibrate_context."""
    ref_weights = eigenfaces.project(eigen, frontal_ref)
    profiles = [_profile(img, eigen, ref_weights, resids, context)
                for img, resids in zip(train_images, residuals, strict=True)]
    pose, illum, occl = (float(np.percentile(values, POLICY_PERCENTILE))
                         for values in zip(*map(astuple, profiles)))
    return DispatchPolicy(tau_illum=illum, tau_pose=pose, tau_occl=occl)


def recognize_multi(
    eigen: eigenfaces.EigenModel,
    fisher: fisherfaces.FisherModel,
    bank: hmm1d.SubjectBank,
    frontal_ref: np.ndarray,
    policy: DispatchPolicy,
    context: ProfileContext,
    image: GrayImage,
) -> tuple[str, str, ImageProfile]:
    """Profile, select a recognizer, and delegate; returns (method, label, profile)."""
    if not eigen.labels == fisher.labels == bank.labels:
        raise DataError("models were trained on different label sets")
    if not eigen.dims == fisher.dims == bank.dims:
        raise DataError("models were trained on different image dimensions")
    prof = profile(image, eigen, frontal_ref, bank, context)  # its block cut checks the dims
    method = select(prof, policy)
    model = {METHOD_EIGEN: eigen, METHOD_FISHER: fisher, METHOD_HMM: bank}[method]
    return method, model.predict([image])[0][0], prof


def _parse_fields(cls, values: dict[str, str]):
    """cls from the policy file values of its fields: str fields bare, the rest floats."""
    return cls(**{f.name: values[f.name] if f.type == "str" else float(values[f.name])
                  for f in fields(cls)})


def write_policy_file(path: Path, policy: DispatchPolicy, context: ProfileContext,
                      frontal_ref: str) -> None:
    """key=value policy file: the policy fields, the frontal reference, then the
    calibration statistics; floats by repr."""
    values = {**asdict(policy), FRONTAL_REF: frontal_ref, **asdict(context)}
    lines = [f"{key}={value if isinstance(value, str) else repr(float(value))}"
             for key, value in values.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_policy_file(path: Path) -> tuple[DispatchPolicy, ProfileContext, str]:
    """Parse a policy file; every key is required, unknown keys are rejected."""
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
