"""Evaluation harness: closed-set error reports and threshold sweeps.

Rejections (unknown-face / not-a-face verdicts from the eigenface model)
count as errors against labeled test images, matching a single error-rate
column. Reports are assembled in lexicographic path order so identical
inputs always produce byte-identical CSV.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import eigenfaces
from .archive import method_of
from .dataset import DatasetManifest, GrayImage, flatten, load_labeled_images
from .eigenfaces import EigenModel
from .errors import DataError


@dataclass(frozen=True)
class ReportRecord:
    path: str
    truth: str
    prediction: str
    score: float
    correct: bool


@dataclass(frozen=True)
class ErrorReport:
    method: str
    split_desc: str
    error_rate: float
    confusion: dict[tuple[str, str], int]
    records: list[ReportRecord]

    @property
    def total(self) -> int:
        return len(self.records)


def predict(model, image: GrayImage) -> tuple[str, float]:
    """(predicted label or marker, score) of any model; DataError for other objects."""
    method_of(model)
    return model.predict(image)


def evaluate_entries(model, entries: list[tuple[str, str, GrayImage]],
                     split_desc: str = "full") -> ErrorReport:
    """Classify labeled (truth, path, image) entries into an ErrorReport."""
    if not entries:
        raise DataError("empty test set")
    known = set(model.labels)
    missing = sorted({truth for truth, _, _ in entries} - known)
    if missing:
        raise DataError(f"test labels not covered by the model: {', '.join(missing)}")
    records = []
    confusion: dict[tuple[str, str], int] = {}
    for truth, path, image in sorted(entries, key=lambda e: e[1]):
        prediction, score = predict(model, image)
        correct = prediction == truth
        records.append(ReportRecord(path, truth, prediction, score, correct))
        confusion[(truth, prediction)] = confusion.get((truth, prediction), 0) + 1
    wrong = sum(1 for rec in records if not rec.correct)
    return ErrorReport(method_of(model), split_desc, wrong / len(records), confusion, records)


def evaluate(model, test: DatasetManifest, split_desc: str = "full") -> ErrorReport:
    """Evaluate against every image referenced by the manifest."""
    if test.dims != model.dims:
        raise DataError(f"dataset dims {test.dims} != model dims {model.dims}")
    entries = [(label, str(path), image)
               for label, path, image in load_labeled_images(test)]
    return evaluate_entries(model, entries, split_desc)


def report_to_csv(report: ErrorReport) -> str:
    """CSV with columns path,truth,prediction,score,correct, rows in path order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["path", "truth", "prediction", "score", "correct"])
    for rec in report.records:
        writer.writerow([rec.path, rec.truth, rec.prediction,
                         format(rec.score, ".17g"), int(rec.correct)])
    return buf.getvalue()


def threshold_sweep(model: EigenModel, known: list[GrayImage],
                    impostors: list[GrayImage], steps: int
                    ) -> list[tuple[float, float, float]]:
    """(theta_known, FAR, FRR) over theta in [0, max observed distance].

    FAR counts impostors accepted as some gallery identity; FRR counts known
    faces rejected, among those passing the face-space test (faces failing it
    are rejected at every theta and excluded from the FRR denominator).
    """
    if steps < 2:
        raise DataError(f"steps must be >= 2, got {steps}")
    if not known or not impostors:
        raise DataError("both known and impostor sets must be non-empty")

    def stats(images: list[GrayImage]) -> list[tuple[bool, float]]:
        out = []
        for image in images:
            face = flatten(image)
            residual = eigenfaces.dffs(model, face)
            weights = eigenfaces.project(model, face)
            mind = min(float(np.linalg.norm(weights - entry))
                       for entries in model.gallery.values() for entry in entries)
            out.append((residual <= model.theta_face, mind))
        return out

    known_stats = stats(known)
    imp_stats = stats(impostors)
    max_dist = max(d for _, d in known_stats + imp_stats)
    passing = [d for ok, d in known_stats if ok]
    curve = []
    for theta in np.linspace(0.0, max_dist, steps):
        far = sum(1 for ok, d in imp_stats if ok and d <= theta) / len(imp_stats)
        frr = (sum(1 for d in passing if d > theta) / len(passing)) if passing else 0.0
        curve.append((float(theta), far, frr))
    return curve
