"""The benchmark traces facelab functions by ``module.function`` name.

benchmarks/facebench wraps every name in its layer and hook lists wherever a
facelab module bound it, and calls archive.method_of directly; a rename or
a move of any of them would break the benchmark without failing a test. The
wrapping finds bindings by object identity, so two names bound to one
function (an alias) would merge their counts into one layer. The harness's
workload and data modules import facelab modules and names too, so they
are imported here as well, and the dispatch workload's calling conventions
are pinned: recognize_multi takes its six warm models and settings and the
image by position, and read_policy_file returns (policy, context, reference).
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from facelab import dispatcher

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from facebench.layers import TRACED  # noqa: E402
from facebench.speed import HOOKS  # noqa: E402


def _resolve(name):
    module, func = name.rsplit(".", 1)
    return getattr(importlib.import_module(f"facelab.{module}"), func, None)


@pytest.mark.parametrize("name", sorted(set(TRACED) | set(HOOKS) | {"archive.method_of"}))
def test_named_function_is_a_module_level_callable(name):
    assert callable(_resolve(name))


def test_named_functions_are_distinct_objects():
    by_object = {}
    for name in sorted(set(TRACED) | set(HOOKS)):
        by_object.setdefault(id(_resolve(name)), []).append(name)
    assert [names for names in by_object.values() if len(names) > 1] == []


@pytest.mark.parametrize("module", ["facebench.workloads", "facebench.data"])
def test_benchmark_module_imports(module):
    importlib.import_module(module)


def test_recognize_multi_takes_the_warm_arguments_then_the_image_by_position():
    parameters = list(inspect.signature(dispatcher.recognize_multi).parameters.values())
    assert [p.name for p in parameters] == ["eigen", "fisher", "bank", "frontal_ref", "policy",
                                            "context", "image"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in parameters)


def test_read_policy_file_returns_policy_context_and_reference(tmp_path):
    policy = dispatcher.DispatchPolicy(tau_illum=4.5, tau_pose=2200.0, tau_occl=0.04)
    context = dispatcher.ProfileContext(mean_mu=130.0, mean_sigma=2.5, asym_sigma=0.75,
                                        resid_p99=140.25)
    path = tmp_path / "policy.cfg"
    dispatcher.write_policy_file(path, policy, context, "ref.pgm")
    assert dispatcher.read_policy_file(path) == (policy, context, "ref.pgm")
