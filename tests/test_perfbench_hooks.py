"""The benchmark's tracing hooks resolve against the package, come off
cleanly and still give every inference stage its time.

perfbench/tracing.py wraps dcaec functions and methods by name; a renamed
one, or a stage moved out from under a wrapped name, breaks only traced
benchmark runs, so this checks them here.
"""

import os
import sys

import numpy as np
import pytest

from dcaec import model
from dcaec.dsp import RATE, AudioBuffer
from dcaec.model import ModelConfig, init_weights

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


def test_traced_inference_attributes_every_stage():
    """Offline forward and a streaming session each give every network and
    signal stage its own time."""
    cfg = ModelConfig.desk_mode()
    store = init_weights(cfg, seed=0)
    rng = np.random.default_rng(0)
    y, x = (AudioBuffer(0.1 * rng.normal(size=RATE // 4)) for _ in range(2))
    hop = cfg.stft.hop
    tracer = tracing.Tracer()
    tracing.instrument(tracer, cfg)
    try:
        model.forward(y, x, store, cfg)
        offline = tracer.self_times()
        first = len(tracer.spans)
        sess = model.StreamingSession(store, cfg)
        for i in range(0, 5 * hop, hop):
            sess.feed(y.samples[i:i + hop], x.samples[i:i + hop])
        sess.flush()
        streaming = tracer.self_times(first)
    finally:
        tracer.restore()
    for times in (offline, streaming):
        for stage in ("dsp.stft", "dsp.istft", "nn.enc", "nn.ft_lstm", "nn.dec",
                      "nn.deep_filter", "nn.clstm"):
            assert times.get(stage, 0.0) > 0.0, (stage, times)
