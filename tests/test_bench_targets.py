"""Every moofair function the benchmark's traced run wraps must still exist.

The traced run (``perfbench/run.py --trace 1``) reports a wrapped name that
no longer resolves as absent instead of failing, so a rename in the package
would silently drop a layer from the per-layer metrics. This test fails
instead.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402

TARGETS = [target for target, _ in layers.SPANS + layers.LEAVES] + [
    "moofair.training:fairness_grad",  # wrapped by layers.install
]


@pytest.mark.parametrize("target", [t for t in TARGETS if t.startswith("moofair.")])
def test_traced_target_resolves(target):
    assert spans.resolve(target) is not None, f"{target} no longer exists"
