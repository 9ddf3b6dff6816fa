"""In-memory spans and counters recorded around calls into dcaec.

The program itself is not edited: `instrument` replaces the module attributes
and methods that the hot paths call with wrappers that open a span (name,
stage, start, end, parent) or bump a counter, and `Tracer.restore` puts the
originals back.  A stage's self time is the time its spans cover minus the
part their child spans cover, so self times over a whole tree add up to the
root spans' duration exactly.
"""

import json
from collections import Counter, defaultdict
from time import perf_counter

from dcaec import autodiff, model, nn, scene, training, wavio, weights_io

# Per-layer stage names.  GLUE is what no named stage covers: the Python of
# the entry points themselves (forward, feed, toy_train, build_mask_graph and
# _encode_frame run inside it) and the benchmark's own per-op loop.
GLUE = "glue"
PATH_STAGES = (
    "dsp.stft", "dsp.istft",
    "nn.enc", "nn.ft_lstm", "nn.dec", "nn.deep_filter", "nn.clstm",
    "model.df_tapsum", "model.validate_store", "model.params_as_vars",
    "wavio.io", "training.loss_graph", "training.adam", "autodiff.backward",
    GLUE,
)


class Tracer:
    """Spans and counters of one benchmark run."""

    def __init__(self):
        self.spans = []   # [name, stage, start, end, parent index or -1]
        self.counts = Counter()
        self._open = []
        self._patches = []
        self.last_conv_stage = "nn.enc"

    # ---- recording -------------------------------------------------------

    def current_stage(self):
        return self.spans[self._open[-1]][1] if self._open else None

    def begin(self, name, stage):
        """Open a span; it is the parent of spans opened until `end`."""
        self._open.append(len(self.spans))
        self.spans.append([name, stage, perf_counter(), 0.0,
                           self._open[-2] if len(self._open) > 1 else -1])

    def end(self):
        """Close the innermost open span."""
        self.spans[self._open.pop()][3] = perf_counter()

    def call(self, name, stage, fn, *args, **kwargs):
        """Run fn inside a span."""
        self.begin(name, stage)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    # ---- patching --------------------------------------------------------

    def wrap(self, owner, attr, stage):
        """Span every call of owner.attr; stage is a name or a function of
        (args, kwargs) returning a name, or None to record no span."""
        orig = getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        pick = stage if callable(stage) else (lambda a, k: stage)

        def wrapper(*args, **kwargs):
            st = pick(args, kwargs)
            if st is None:
                return orig(*args, **kwargs)
            return self.call(name, st, orig, *args, **kwargs)

        self._patch(owner, attr, orig, wrapper)

    def count(self, owner, attr, key):
        """Count calls of owner.attr."""
        orig = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        self._patch(owner, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # ---- analysis --------------------------------------------------------

    def self_times(self, first=0, last=None):
        """Stage -> self seconds over spans[first:last] (a set of whole trees)."""
        spans = self.spans[first:last]
        child = defaultdict(float)
        for _, _, t0, t1, parent in spans:
            if parent >= first:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (_, stage, t0, t1, _) in enumerate(spans, start=first):
            out[stage] += (t1 - t0) - child[i]
        return dict(out)

    def per_call_ms(self, name):
        """Mean inclusive milliseconds per call of the span name, and calls."""
        durs = [s[3] - s[2] for s in self.spans if s[0] == name]
        return (1000.0 * sum(durs) / len(durs) if durs else 0.0), len(durs)

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "stage", "start", "end", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, f)


def instrument_counts(tracer):
    """Count Var constructions and fused LSTM-cell calls (no spans)."""
    tracer.count(autodiff.Var, "__init__", "vars")
    tracer.count(nn, "lstm_cell", "lstm_cell")


def instrument(tracer, cfg):
    """Span the dcaec entry points that the benchmarked paths call.

    Callers import kernels by name (`from .nn import complex_conv2d`), so the
    wrappers go on the calling module's attribute, not only on nn's.
    """
    df = cfg.df_spec

    def conv_stage(args, kwargs):
        spec = args[2]
        is_df = (spec.out_ch, spec.kernel_t, spec.kernel_f) == (
            df.out_ch, df.kernel_t, df.kernel_f)
        tracer.last_conv_stage = "nn.deep_filter" if is_df else "nn.enc"
        return tracer.last_conv_stage

    def deconv_stage(args, kwargs):
        tracer.last_conv_stage = "nn.dec"
        return "nn.dec"

    def activation_stage(args, kwargs):
        # the PReLU right after a conv or deconv belongs to that layer
        return tracer.last_conv_stage

    def clstm_unless_nested(args, kwargs):
        # training calls lstm_seq directly for the cLSTM layers and, through
        # _batched_ft_part, for the F-T-LSTM, which already has its own span
        return None if tracer.current_stage() == "nn.ft_lstm" else "nn.clstm"

    sess = model.StreamingSession
    points = [
        (wavio, "read_wav", "wavio.io"), (wavio, "write_wav", "wavio.io"),
        (weights_io, "load_weights", "weights_io.load"),
        (scene, "synthetic_corpus", "scene.synth"),
        (scene, "make_training_examples", "scene.synth"),
        (model, "forward", GLUE),
        (model, "validate_store", "model.validate_store"),
        (model, "params_as_vars", "model.params_as_vars"),
        (model, "stft", "dsp.stft"), (model, "istft", "dsp.istft"),
        (model, "complex_conv2d", conv_stage),
        (model, "complex_deconv2d", deconv_stage),
        (model, "activation", activation_stage),
        (model, "ft_lstm_block", "nn.ft_lstm"),
        (model, "deep_filter_apply", "nn.deep_filter"),
        (model, "complex_lstm", "nn.clstm"),
        (sess, "feed", GLUE), (sess, "flush", GLUE),
        (sess, "_analysis", "dsp.stft"),
        # _mask_frame's self time is the inline deep-filter tap sum; _emit's
        # is the mask multiply, inverse DFT and overlap-add of one frame
        (sess, "_mask_frame", "model.df_tapsum"),
        (sess, "_emit", "dsp.istft"),
        (training, "toy_train", GLUE),
        (training, "batched_loss", "training.loss_graph"),
        (training, "example_loss", "training.loss_graph"),
        (training, "stft", "dsp.stft"),
        (training, "istft_graph", "dsp.istft"),
        (training, "complex_conv2d", conv_stage),
        (training, "complex_deconv2d", deconv_stage),
        (training, "activation", activation_stage),
        (training, "_batched_ft_part", "nn.ft_lstm"),
        (training, "deep_filter_apply", "nn.deep_filter"),
        (training, "lstm_seq", clstm_unless_nested),
        (training, "complex_linear", "nn.clstm"),
        (training, "backward", "autodiff.backward"),
        (training, "adam_step", "training.adam"),
    ]
    for owner, attr, stage in points:
        tracer.wrap(owner, attr, stage)
