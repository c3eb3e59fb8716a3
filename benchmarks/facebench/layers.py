"""The layers the traced run measures, named ``<module>.<function>``.

Every function here is public. Emissions and single Baum-Welch iterations
have no public entry point, so they are not layers of this benchmark.
"""

from __future__ import annotations

from facelab.dispatcher import METHODS as ROUTES

TRACED = [
    "cli.main",
    "bench.evaluate",
    "bench.predict",
    "archive.save_model",
    "archive.load_model",
    "dataset.load_pgm_file",
    "numerics.sym_eigen",
    "numerics.gen_sym_eigen",
    "eigenfaces.train_eigen",
    "eigenfaces.classify",
    "fisherfaces.train_fisher",
    "fisherfaces.classify",
    "hmm1d.train_bank",
    "hmm1d.fit_klt",
    "hmm1d.init_uniform",
    "hmm1d.viterbi_train",
    "hmm1d.baum_welch",
    "hmm1d.viterbi",
    "hmm1d.extract_blocks",
    "hmm1d.observe",
    "hmm1d.recognize",
    "hmm1d.loglik",
    "dispatcher.calibrate_context",
    "dispatcher.calibrate_policy",
    "dispatcher.read_policy_file",
    "dispatcher.recognize_multi",
    "dispatcher.profile",
    "dispatcher.block_residuals",
    "dispatcher.select",
]

LAYER_FIELDS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))

EXTRA = [
    ("archive.save_model.bytes", "bytes"),
    ("archive.load_model.bytes", "bytes"),
    *((f"dispatcher.route.{route}", "count") for route in ROUTES),
    ("trace_overhead_s", "s"),
]


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [(f"{layer}.{field}", unit) for layer in TRACED for field, unit in LAYER_FIELDS]
    return names + EXTRA
