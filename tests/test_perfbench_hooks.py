"""The benchmark's tracing hooks resolve against the package and come off cleanly.

perfbench/tracing.py wraps dcaec functions and methods by name; a renamed
one breaks only traced benchmark runs, so this checks every name here.
"""

import os
import sys

import pytest

from dcaec.model import ModelConfig

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import tracing  # noqa: E402


@pytest.mark.parametrize("cfg", [ModelConfig.paper_mode(), ModelConfig.desk_mode()],
                         ids=["paper", "desk"])
def test_tracing_hooks_resolve_and_restore(cfg):
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer, cfg)       # getattr of a missing name raises
        tracing.instrument_counts(tracer)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, orig in patches:
            assert getattr(owner, attr) is not orig, (owner, attr)
    finally:
        tracer.restore()
    for owner, attr, orig in patches:
        assert getattr(owner, attr) is orig, (owner, attr)
