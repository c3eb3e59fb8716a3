"""The benchmark traces facelab functions by ``module.function`` name.

benchmarks/facebench wraps every name in its layer and hook lists wherever a
facelab module bound it, and calls archive.method_of directly; a rename or
a move of any of them would break the benchmark without failing a test.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from facebench.layers import TRACED  # noqa: E402
from facebench.speed import HOOKS  # noqa: E402


@pytest.mark.parametrize("name", sorted(set(TRACED) | set(HOOKS) | {"archive.method_of"}))
def test_named_function_is_a_module_level_callable(name):
    module, func = name.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"facelab.{module}"), func, None))
