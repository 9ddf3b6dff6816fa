"""The benchmark's three workloads, each a closed loop over dcaec's public API.

offline_paper  paper config, per file read_wav -> forward -> write_wav, files
               from a fixed short/long length mix (like `dcaec process`)
stream_paper   paper config, one 160-sample hop per StreamingSession.feed,
               across scene boundaries, one flush at the end
train_desk     desk config, toy_train steps (forward graph, backward, Adam)
               on a synthesized corpus (like `dcaec traintoy`)

Every input comes from dcaec.scene and the seed; the program sees only the
resulting arrays or WAV files.  Each workload has the same shape: `setup`
is one set-up (loading or initializing weights, building the session,
first-call warm-up) and returns the state the loop runs on; `run` is the
closed loop, driven by the harness's `loop` (see harness.Loop): before each
op `loop.next()` says whether to go on and hands a tracer for a traced op,
after it `loop.done(...)` records it.  `count_pass` does a fixed amount of
work for the exact counters, `checks` verifies outputs outside any timed part.
"""

import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from dcaec import model, scene, training, wavio, weights_io
from dcaec.dsp import RATE, AudioBuffer
from tracing import GLUE

HOP_S = 0.01          # one StreamingSession hop: 160 samples at 16 kHz
MAX_LATENCY = 640     # criterion 9's bound on algorithmic latency, samples
STREAM_TOL = 1e-5     # criterion 9's bound on stream-vs-offline max abs diff
TURNOVER_HOPS = 10

# Every scene has echo and noise on top of near-end speech (double talk),
# a random far-end delay and, half of the time, a gain dip.
SCENE_RANGES = scene.SceneRanges(p_farend_zero=0.0, p_noise_zero=0.0,
                                 p_gain_dip=0.5)


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is the benchmark, TINY the smoke test."""

    model_config: str        # overrides every workload's config when set
    files_s: tuple           # offline: one cycle of file lengths (odd count)
    segments_s: tuple        # stream: scene lengths, concatenated and looped
    check_s: float           # stream: audio compared against forward
    train_examples: int
    train_example_s: float
    setups: int              # set-ups per run; all but the first are spread
                             # over the timed loop
    warmup_hops: int
    warmup_steps: int
    min_steps: int           # a loss trend needs a few steps
    growth_hops: int         # stream: hops under tracemalloc


FULL = Scale(model_config=None, files_s=(0.25, 0.5, 1.0),
             segments_s=(1.5, 4.0, 1.0, 4.0, 2.5), check_s=3.0,
             train_examples=3, train_example_s=0.5, setups=8,
             warmup_hops=8, warmup_steps=2, min_steps=6, growth_hops=150)
TINY = Scale(model_config="desk", files_s=(0.25, 0.5, 0.25),
             segments_s=(0.5, 1.0), check_s=1.0, train_examples=2,
             train_example_s=0.25, setups=2, warmup_hops=4,
             warmup_steps=1, min_steps=3, growth_hops=10)


def model_config(name, seed):
    if name == "paper":
        return model.ModelConfig.paper_mode(seed=seed)
    return model.ModelConfig.desk_mode(seed=seed)


def make_scenes(seed, count, clip_s):
    """count scene examples of at least clip_s seconds, from the seed."""
    corpus = scene.synthetic_corpus(seed=seed, clip_seconds=clip_s)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(100 * count):
        if len(out) == count:
            return out
        recipe = scene.sample_recipe(rng, SCENE_RANGES, corpus)
        try:
            out.append(scene.synthesize(recipe, corpus))
        except ValueError:
            continue  # silent near clip or degenerate mix: redraw
    raise RuntimeError("could not draw enough usable scenes")


def load_model(path):
    store = weights_io.load_weights(path)
    return store, model.ModelConfig.from_dict(store.meta["config"])


class _Workload:
    name = ""
    unit = ""          # what one closed-loop op is
    config = "paper"   # model config at full scale
    min_ops = 1        # ops each `run` call does at least

    def __init__(self, seed, scale, workdir):
        self.seed = seed
        self.scale = scale
        self.workdir = Path(workdir)
        self.config_name = scale.model_config or self.config
        self.cfg = model_config(self.config_name, seed)
        self.info = {}

    def _write_weights(self):
        path = self.workdir / "weights.bin"
        weights_io.save_weights(path, model.init_weights(self.cfg, seed=self.seed))
        return path

    def _timed_scenes(self, count, clip_s):
        t0 = perf_counter()
        scenes = make_scenes(self.seed, count, clip_s)
        self.info["input_synth_ms_per_scene"] = 1000.0 * (perf_counter() - t0) / count
        return scenes

    def named_metrics(self, p):
        """The workload's own end-to-end figures: name -> (value, unit, n)."""
        return {}


class Offline(_Workload):
    name = "offline_paper"
    unit = "file"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.weights = self._write_weights()
        scenes = self._timed_scenes(len(scale.files_s) + 1, max(scale.files_s))
        self.files = []
        for i, (ex, secs) in enumerate(zip(scenes, scale.files_s)):
            n = int(round(secs * RATE))
            mic, far = self.workdir / f"mic{i}.wav", self.workdir / f"far{i}.wav"
            wavio.write_wav(mic, AudioBuffer(ex.y.samples[:n]))
            wavio.write_wav(far, AudioBuffer(ex.x.samples[:n]))
            self.files.append((mic, far, self.workdir / f"out{i}.wav", secs))
        n = int(round(min(scale.files_s) * RATE))
        self.warm = (AudioBuffer(scenes[-1].y.samples[:n]),
                     AudioBuffer(scenes[-1].x.samples[:n]))
        self.bad = []

    def setup(self):
        store, cfg = load_model(self.weights)
        model.forward(*self.warm, store, cfg)
        return store, cfg

    def _file(self, state, mic, far, out):
        """read -> forward -> write; returns the outputs and forward's time."""
        store, cfg = state
        y, x = wavio.read_wav(mic), wavio.read_wav(far)
        t0 = perf_counter()
        mask, s_hat = model.forward(y, x, store, cfg)
        forward_s = perf_counter() - t0
        wavio.write_wav(out, s_hat)
        return mask, s_hat, forward_s

    def _op(self, state, file, tracer):
        """One file: (wall s, audio s, failed 0/1, forward s)."""
        mic, far, out, secs = file
        t0 = perf_counter()
        try:
            if tracer is None:
                mask, s_hat, forward_s = self._file(state, mic, far, out)
            else:
                mask, s_hat, forward_s = tracer.call("op", GLUE, self._file,
                                                     state, mic, far, out)
        except Exception as e:  # a failed file counts, the loop goes on
            self.bad.append(f"{mic.name}: {type(e).__name__}: {e}")
            return perf_counter() - t0, secs, 1, 0.0
        op_s = perf_counter() - t0
        if not (np.all(np.isfinite(s_hat.samples))
                and np.all(np.isfinite(mask.re)) and np.all(np.isfinite(mask.im))):
            self.bad.append(f"{mic.name}: non-finite output")
            return op_s, secs, 1, forward_s
        return op_s, secs, 0, forward_s

    def run(self, state, loop):
        # The loop ends on a whole cycle, so every run has the same length
        # mix.  The cycle has an odd number of files, so a traced run, which
        # alternates untraced and traced files, traces each file every other
        # cycle.
        i = 0
        while True:
            go, tracer = loop.next(can_stop=i % len(self.files) == 0)
            if not go:
                return
            loop.done(*self._op(state, self.files[i % len(self.files)], tracer))
            i += 1

    def count_pass(self, state):
        for file in self.files:
            self._op(state, file, None)
        return sum(self.scale.files_s), 0

    def checks(self, state):
        return [("outputs_finite", not self.bad,
                 "; ".join(self.bad[:3]) or "every file's mask and output finite")]

    def named_metrics(self, p):
        # forward alone, without the WAV reads and writes around it
        return {"offline_rtf": (p.forward_s / p.audio_s, "s/s", len(p.op_s))}


class Stream(_Workload):
    name = "stream_paper"
    unit = "hop"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.weights = self._write_weights()
        scenes = self._timed_scenes(len(scale.segments_s), max(scale.segments_s))
        n = [int(round(s * RATE)) for s in scale.segments_s]
        self.y = np.concatenate([ex.y.samples[:k] for ex, k in zip(scenes, n)])
        self.x = np.concatenate([ex.x.samples[:k] for ex, k in zip(scenes, n)])
        self.hop = self.cfg.stft.hop
        self.check_n = int(round(scale.check_s * RATE))

    def setup(self):
        store, cfg = load_model(self.weights)
        st = {"store": store, "sess": model.StreamingSession(store, cfg),
              "hop": 0, "out": [], "bad": []}
        for _ in range(self.scale.warmup_hops):
            self._feed(st)
        return st

    def _chunk(self, i):
        off = (i * self.hop) % len(self.y)  # the stream loops over its scenes
        return self.y[off:off + self.hop], self.x[off:off + self.hop]

    def _feed(self, st, tracer=None):
        """One hop: (wall s, audio s, failed 0/1, 0)."""
        y, x = self._chunk(st["hop"])
        t0 = perf_counter()
        try:
            if tracer is None:
                out = st["sess"].feed(y, x)
            else:
                out = tracer.call("op", GLUE, st["sess"].feed, y, x)
        except Exception as e:  # a failed hop counts, the loop goes on
            out = None
            st["bad"].append(f"hop {st['hop']}: {type(e).__name__}: {e}")
        op_s = perf_counter() - t0
        st["hop"] += 1
        if out is None:
            return op_s, HOP_S, 1, 0.0
        if not np.all(np.isfinite(out)):
            st["bad"].append(f"hop {st['hop'] - 1}: non-finite output")
            return op_s, HOP_S, 1, 0.0
        # keep only what the stream-vs-forward check compares
        if st["hop"] * self.hop <= self._needed():
            st["out"].append(out)
        return op_s, HOP_S, 0, 0.0

    def _needed(self):
        return self.check_n + 2 * (self.cfg.stft.win_len + self.hop)

    def run(self, st, loop):
        while True:
            go, tracer = loop.next()
            if not go:
                return
            loop.done(*self._feed(st, tracer))

    def count_pass(self, st):
        """Counters plus current-memory growth over growth_hops hops."""
        hops = self.scale.growth_hops
        tracemalloc.start()
        try:
            # state replaced every hop (pending samples, overlap-add tail,
            # recurrent states) was allocated before tracing began; turn it
            # over once so that only retained growth is measured
            for _ in range(TURNOVER_HOPS):
                self._feed(st)
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(hops):
                self._feed(st)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        self.info["state_growth_kb_per_hop"] = (after - before) / 1024.0 / hops
        return (TURNOVER_HOPS + hops) * HOP_S, 0

    def checks(self, st):
        sess = st["sess"]
        while st["hop"] * self.hop < self._needed():
            self._feed(st)
        if not np.all(np.isfinite(sess.flush())):
            st["bad"].append("flush: non-finite output")
        streamed = np.concatenate(st["out"])
        _, offline = model.forward(AudioBuffer(self.y[:self.check_n]),
                                   AudioBuffer(self.x[:self.check_n]),
                                   st["store"], self.cfg)
        # forward zero-pads past check_n; the last window and lookahead differ
        keep = self.check_n - 2 * sess.algorithmic_latency
        diff = float(np.max(np.abs(streamed[:keep] - offline.samples[:keep])))
        lat = sess.algorithmic_latency
        self.info["stream_latency_ms"] = 1000.0 * lat / RATE
        return [
            ("outputs_finite", not st["bad"],
             "; ".join(st["bad"][:3]) or "every hop's output finite"),
            ("stream_matches_forward", diff < STREAM_TOL,
             f"max abs diff {diff:.2e} < {STREAM_TOL:g} over the first "
             f"{keep / RATE:.2f} s (crosses a scene boundary)"),
            ("latency_bound", lat <= MAX_LATENCY,
             f"algorithmic latency {lat} <= {MAX_LATENCY} samples"),
        ]

    def named_metrics(self, p):
        n = len(p.op_s)
        ms = 1000.0 * np.asarray(p.op_s)
        return {
            "stream_hop_ms_p50": (float(np.percentile(ms, 50)), "ms", n),
            "stream_hop_ms_p99": (float(np.percentile(ms, 99)), "ms", n),
            "stream_rtf": (sum(p.op_s) / p.audio_s, "s/s", n),
            "stream_deadline_miss_frac": (
                float(np.mean(ms > 1000.0 * HOP_S)), "ratio", n),
        }


class _TimeUp(Exception):
    """Raised from toy_train's log callback to end the timed loop."""


class Train(_Workload):
    name = "train_desk"
    unit = "step"
    config = "desk"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.min_ops = scale.min_steps
        self.audio_per_step = scale.train_examples * scale.train_example_s
        self.losses = []   # per toy_train call: the loss of each step
        self.bad = []

    def setup(self):
        sc = self.scale
        corpus = scene.synthetic_corpus(seed=self.seed, n_rirs=2,
                                        clip_seconds=sc.train_example_s + 0.5)
        rng = np.random.default_rng(self.seed)
        examples = scene.make_training_examples(rng, corpus, sc.train_examples,
                                                seconds=sc.train_example_s)
        store = model.init_weights(self.cfg, seed=self.seed)
        training.toy_train(store, self.cfg, examples, steps=sc.warmup_steps)
        return store, examples

    def run(self, state, loop):
        # One toy_train call until the loop ends or a set-up is due, so that
        # the timed steps are steady ones.  The loop's decisions are taken in
        # the log callback, between steps: toy_train looks batched_loss,
        # backward and adam_step up as module globals on every step, so
        # instrumenting or restoring there takes effect from the next step.
        store, examples = state
        cur = {"tracer": None, "t0": 0.0}
        self.losses.append([])

        def begin():
            go, tracer = loop.next()
            if not go:
                raise _TimeUp
            if tracer is not None:
                tracer.begin("op", GLUE)
            cur["tracer"] = tracer
            cur["t0"] = perf_counter()

        def end(failed):
            op_s = perf_counter() - cur["t0"]
            if cur["tracer"] is not None:
                cur["tracer"].end()
            loop.done(op_s, self.audio_per_step, failed, 0.0)

        def log_fn(rec):
            end(0)
            self.losses[-1].append(rec["loss"])
            begin()

        try:
            begin()
            training.toy_train(store, self.cfg, examples, steps=10 ** 9,
                               log_fn=log_fn)
        except _TimeUp:
            pass
        except Exception as e:  # a failed step counts and ends the call
            end(1)
            self.bad.append(f"step {len(self.losses[-1])}: {type(e).__name__}: {e}")

    def count_pass(self, state):
        store, examples = state
        training.toy_train(store, self.cfg, examples, steps=1)
        return self.audio_per_step, 1

    def checks(self, state):
        # each toy_train call starts from the initial weights, so the trend
        # is taken within the longest call
        ls = max(self.losses, key=len)
        finite = all(np.all(np.isfinite(call)) for call in self.losses)
        lower = finite and len(ls) > 1 and ls[-1] < ls[0]
        detail = (f"loss {ls[0]:.3f} -> {ls[-1]:.3f} over {len(ls)} steps of one "
                  f"toy_train call; every loss finite: {finite}"
                  if ls else "no step completed")
        return [("steps_ok", not self.bad, "; ".join(self.bad[:3]) or "no step failed"),
                ("loss_finite_and_lower", lower, detail)]

    def named_metrics(self, p):
        return {"train_step_s": (float(np.median(p.op_s)), "s", len(p.op_s))}


WORKLOADS = {w.name: w for w in (Offline, Stream, Train)}
