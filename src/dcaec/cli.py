"""Command-line interface.

Subcommands: process, simulate, metrics, gradcheck, traintoy, bench,
init-weights.  Exit codes: 0 ok, 2 input error, 3 numeric error.
"""

import argparse
import contextlib
import ctypes
import json
import resource
import sys
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .dsp import RATE, AudioBuffer
from .metrics import ChunkPlan, MetricReport, erle, seg_sisnr, si_snr
from .model import (ModelConfig, NumericError, StreamingSession, WeightError,
                    count_params, forward, init_weights, params_as_vars)
from .scene import (Corpus, SceneRanges, build_rir_bank,
                    make_training_examples, sample_recipe, synthesize,
                    synthetic_corpus)
from .training import backward, batched_loss, toy_train
from .wavio import WavFormatError, read_wav, write_wav
from .weights_io import WeightFormatError, load_weights, save_weights


# streaming per-hop times in `bench` cover at least this much audio
BENCH_STREAM_SECONDS = 3.0


class InputError(ValueError):
    pass


def _bundled_openblas():
    """The (get, set) thread-count calls of numpy's bundled OpenBLAS, through
    ctypes, or None when that library or its calls are absent."""
    root = Path(np.__file__).resolve().parent.parent
    for path in sorted(root.glob("numpy.libs/libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def _single_threaded():
    """Limit BLAS and OpenMP to one thread; yields whether the limit holds.

    With threadpoolctl: whether it reports every pool it found at one thread.
    Without it, numpy's bundled OpenBLAS is set to one thread in-process and
    read back, and restored on exit; False when there is no such library."""
    try:
        from threadpoolctl import threadpool_info, threadpool_limits
    except ImportError:
        blas = _bundled_openblas()
        if blas is None:
            yield False
            return
        get, set_ = blas
        before = get()
        set_(1)
        try:
            yield get() == 1
        finally:
            set_(before)
        return
    with threadpool_limits(limits=1):
        pools = threadpool_info()
        yield bool(pools) and all(p["num_threads"] == 1 for p in pools)


def _load_model(path):
    store = load_weights(path)
    if "config" not in store.meta:
        raise InputError(f"{path}: weight file carries no model config")
    cfg = ModelConfig.from_dict(store.meta["config"])
    return store, cfg


def _config_by_name(name, seed=0):
    if name == "paper":
        return ModelConfig.paper_mode(seed=seed)
    if name == "desk":
        return ModelConfig.desk_mode(seed=seed)
    raise InputError(f"unknown config {name!r}")


def _print_report(report):
    print(json.dumps(report, sort_keys=True))


# ---- subcommands ---------------------------------------------------------


def _peak_rss_mb():  # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cmd_process(args):
    mic = read_wav(args.mic)
    far = read_wav(args.farend)
    store, cfg = _load_model(args.weights)
    rep = {"tool_version": __version__, "config_hash": cfg.config_hash(),
           "mode": "streaming" if args.streaming else "offline"}
    t0 = time.perf_counter()
    with _single_threaded() as pinned:
        if args.streaming:
            n = max(len(mic), len(far))
            pad = (-n) % cfg.stft.hop
            y = np.pad(mic.samples, (0, n - len(mic) + pad))
            x = np.pad(far.samples, (0, n - len(far) + pad))
            sess = StreamingSession(store, cfg)
            chunks = []
            for i in range(0, len(y), cfg.stft.hop):
                chunks.append(sess.feed(y[i:i + cfg.stft.hop], x[i:i + cfg.stft.hop]))
            chunks.append(sess.flush())
            s_hat = np.concatenate(chunks)
            rep["latency_samples"] = sess.algorithmic_latency
            rep["mask_clamped_bins"] = sess.mask_clamped_bins
        else:
            s_hat = forward(mic, far, store, cfg, report=rep)[1].samples
    wall = time.perf_counter() - t0
    # the network's last frame reaches past the mic's end into zero padding
    clipped = write_wav(args.out, AudioBuffer(s_hat[:len(mic)], RATE))
    rep["rtf"] = wall / mic.duration if mic.duration else None  # undefined without audio
    rep["processing_seconds"] = wall
    rep["audio_seconds"] = mic.duration
    rep["clipped_samples"] = clipped
    rep["threads_pinned"] = pinned
    rep["peak_rss_mb"] = _peak_rss_mb()
    _print_report(rep)


def _parse_ranges_file(path):
    kw = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        parts = [p.strip() for p in val.split(",")]
        if len(parts) == 1:
            kw[key] = float(parts[0])
        else:
            kw[key] = tuple(float(p) for p in parts)
    unknown = sorted(set(kw) - {f.name for f in fields(SceneRanges)})
    if unknown:
        raise InputError(f"{path}: unknown range keys {unknown}")
    if "delay_samples" in kw:
        kw["delay_samples"] = tuple(int(v) for v in kw["delay_samples"])
    return SceneRanges(**kw)


def _load_corpus_dir(path, seed, n_rirs):
    root = Path(path)
    pools = {}
    for name in ("near", "far", "noise"):
        d = root / name
        if not d.is_dir():
            raise InputError(f"corpus missing directory {d}")
        clips = {p.stem: read_wav(p) for p in sorted(d.glob("*.wav"))}
        if not clips:
            raise InputError(f"corpus directory {d} holds no WAV files")
        pools[name] = clips
    echo = {}
    echo_dir = root / "echo"
    if echo_dir.is_dir():
        echo = {p.stem: read_wav(p) for p in sorted(echo_dir.glob("*.wav"))}
    rirs = build_rir_bank(n_rirs, seed=seed + 1)
    return Corpus(near=pools["near"], far=pools["far"], noise=pools["noise"],
                  rirs=rirs, echo=echo)


def cmd_simulate(args):
    if not args.clip_seconds > 0:
        raise InputError(f"--clip-seconds must be positive, got {args.clip_seconds}")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ranges = _parse_ranges_file(args.ranges) if args.ranges else SceneRanges()
    if args.corpus:
        corpus = _load_corpus_dir(args.corpus, args.seed, args.rirs)
    else:
        corpus = synthetic_corpus(seed=args.seed, n_rirs=args.rirs,
                                  clip_seconds=args.clip_seconds)
    rng = np.random.default_rng(args.seed)
    manifest = outdir / "manifest.jsonl"
    with open(manifest, "w") as mf:
        for i in range(args.recipes):
            # redraw when a sampled scene is degenerate (e.g. silent near clip)
            for _ in range(100):
                recipe = sample_recipe(rng, ranges, corpus)
                try:
                    ex = synthesize(recipe, corpus)
                    break
                except ValueError:
                    continue
            else:
                raise InputError("could not draw a usable scene")
            paths = {}
            for name, buf in (("s", ex.s), ("x", ex.x), ("y", ex.y),
                              ("d", ex.d), ("v", ex.v)):
                p = outdir / f"ex{i:05d}_{name}.wav"
                write_wav(p, buf)
                paths[name] = p.name
            rec = recipe.to_dict()
            rec.update({
                "files": paths,
                "measured_ser_db": ex.measured_ser_db,
                "measured_snr_db": ex.measured_snr_db,
                "y_scale": ex.y_scale,
                "x_scale": ex.x_scale,
            })
            mf.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"wrote {args.recipes} examples and {manifest}")


def cmd_metrics(args):
    est = read_wav(args.est)
    ref = read_wav(args.ref)
    mic = read_wav(args.mic)
    if not (len(est) == len(ref) == len(mic)):
        raise InputError("est/ref/mic lengths differ")
    per_c = {}
    rep = MetricReport(
        si_snr_db=si_snr(est, ref),
        seg_sisnr_db=seg_sisnr(est, ref, ChunkPlan(), per_c=per_c),
        seg_sisnr_per_c=per_c,
        erle_db=erle(mic, est),
    )
    _print_report(rep.to_dict())


def cmd_gradcheck(args):
    from .gradcheck import run_gradient_suite
    notes = {}
    results = run_gradient_suite(seed=args.seed, notes=notes)
    worst = 0.0
    failed = []
    for name, err in results.items():
        status = "ok" if err < args.tol else "FAIL"
        note = f"({notes[name]})  " if name in notes else ""
        print(f"{name:32s} max-rel-err {err:.3e}  {note}{status}")
        worst = max(worst, err)
        if err >= args.tol:
            failed.append(name)
    if failed:
        print(f"gradcheck failed for: {', '.join(failed)}")
        sys.exit(1)
    print(f"gradcheck passed (worst {worst:.3e} < {args.tol})")


def cmd_traintoy(args):
    for flag in ("steps", "examples"):
        if getattr(args, flag) < 1:
            raise InputError(f"--{flag} must be at least 1, got {getattr(args, flag)}")
    if not args.chunk_seconds > 0:
        raise InputError(f"--chunk-seconds must be positive, got {args.chunk_seconds}")
    cfg = _config_by_name(args.config, seed=args.seed)
    store = init_weights(cfg, seed=args.seed)
    corpus = synthetic_corpus(seed=args.seed,
                              clip_seconds=args.chunk_seconds + 0.5, n_rirs=2)
    rng = np.random.default_rng(args.seed)
    examples = make_training_examples(rng, corpus, args.examples,
                                      seconds=args.chunk_seconds)

    def log_fn(rec):
        print(json.dumps(rec, sort_keys=True))

    with _single_threaded() as pinned:
        trained, log = toy_train(store, cfg, examples, steps=args.steps,
                                 lr=args.lr, log_fn=log_fn)
    if args.out:
        save_weights(args.out, trained)
        print(f"saved trained weights to {args.out}")
    print(f"loss {log[0]['loss']:.3f} -> {log[-1]['loss']:.3f} "
          f"over {args.steps} steps (threads_pinned: {str(pinned).lower()}, "
          f"peak_rss_mb: {_peak_rss_mb():.1f})")


def cmd_bench(args):
    """Time offline inference and streaming hops on one BLAS thread."""
    if not args.seconds > 0:
        raise InputError(f"--seconds must be positive, got {args.seconds}")
    if args.weights:
        store, cfg = _load_model(args.weights)
    else:
        cfg = _config_by_name(args.config, seed=args.seed)
        store = init_weights(cfg, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    n = int(args.seconds * RATE)
    y = AudioBuffer(0.1 * rng.normal(size=n))
    x = AudioBuffer(0.1 * rng.normal(size=n))
    hop = cfg.stft.hop
    n_stream = int(max(args.seconds, BENCH_STREAM_SECONDS) * RATE) // hop * hop
    ys = 0.1 * rng.normal(size=n_stream)
    xs = 0.1 * rng.normal(size=n_stream)
    corpus = synthetic_corpus(seed=args.seed, clip_seconds=1.0, n_rirs=2)
    examples = make_training_examples(rng, corpus, 1, seconds=0.5)
    with _single_threaded() as pinned:
        t0 = time.perf_counter()
        forward(y, x, store, cfg)
        wall = time.perf_counter() - t0
        tracemalloc.start()   # what a built session keeps, untimed
        sess = StreamingSession(store, cfg)
        session_mb = tracemalloc.get_traced_memory()[0] / 2 ** 20
        tracemalloc.stop()
        hop_s = []
        for i in range(0, n_stream, hop):
            t0 = time.perf_counter()
            sess.feed(ys[i:i + hop], xs[i:i + hop])
            hop_s.append(time.perf_counter() - t0)
        peak_mb = _peak_rss_mb()   # inference's, before the two training steps below
        params = params_as_vars(store, np.float32)
        tracemalloc.start()   # an untimed step's graph, once its forward is built
        loss = batched_loss(examples, params, cfg)
        graph_mb = tracemalloc.get_traced_memory()[0] / 2 ** 20
        tracemalloc.stop()
        backward(loss, params)
        step_s = toy_train(store, cfg, examples, steps=1)[1][0]["wall"]   # a timed step
    hop_ms = 1000.0 * np.asarray(hop_s)
    _print_report({
        "tool_version": __version__,
        "audio_seconds": args.seconds,
        "processing_seconds": wall,
        "rtf": wall / args.seconds,
        "stream_seconds": n_stream / RATE,
        "stream_hop_ms_p50": float(np.percentile(hop_ms, 50)),
        "stream_hop_ms_p99": float(np.percentile(hop_ms, 99)),
        "stream_hop_ms_max": float(hop_ms.max()),
        "stream_rtf": float(hop_ms.sum()) / 1000.0 / (n_stream / RATE),
        "train_step_s": step_s,
        "train_graph_mb": graph_mb,
        "session_mb": session_mb,
        "threads_pinned": pinned,
        "latency_samples": sess.algorithmic_latency,
        "latency_ms": 1000.0 * sess.algorithmic_latency / RATE,
        "params": count_params(store),
        "peak_rss_mb": peak_mb,
    })


def cmd_init_weights(args):
    cfg = _config_by_name(args.config, seed=args.seed)
    store = init_weights(cfg, seed=args.seed)
    save_weights(args.out, store)
    print(f"wrote {args.out}: {count_params(store)} parameters "
          f"(config {args.config}, seed {args.seed})")


# ---- argument parsing ----------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="dcaec", description="Deep complex AEC engine")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("process", help="cancel echo in a mic recording")
    sp.add_argument("--mic", required=True)
    sp.add_argument("--farend", required=True)
    sp.add_argument("--weights", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--streaming", action="store_true")
    sp.set_defaults(func=cmd_process)

    sp = sub.add_parser("simulate", help="generate synthetic scenes")
    sp.add_argument("--recipes", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--outdir", required=True)
    sp.add_argument("--ranges", default=None, help="key=value ranges file")
    sp.add_argument("--corpus", default=None, help="directory with near/ far/ noise/ WAVs")
    sp.add_argument("--rirs", type=int, default=8)
    sp.add_argument("--clip-seconds", type=float, default=4.0)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("metrics", help="score an estimate against a reference")
    sp.add_argument("--est", required=True)
    sp.add_argument("--ref", required=True)
    sp.add_argument("--mic", required=True)
    sp.set_defaults(func=cmd_metrics)

    sp = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.set_defaults(func=cmd_gradcheck)

    sp = sub.add_parser("traintoy", help="desk-scale training smoke run")
    sp.add_argument("--steps", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--lr", type=float, default=1e-3)
    sp.add_argument("--examples", type=int, default=8)
    sp.add_argument("--chunk-seconds", type=float, default=1.0)
    sp.add_argument("--config", default="desk", choices=["desk", "paper"])
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_traintoy)

    sp = sub.add_parser("bench", help="measure offline RTF, streaming per-hop times "
                                      "and latency")
    sp.add_argument("--weights", default=None)
    sp.add_argument("--config", default="paper", choices=["desk", "paper"])
    sp.add_argument("--seconds", type=float, default=10.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("init-weights", help="write a seeded random weight file")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--config", default="paper", choices=["desk", "paper"])
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_init_weights)
    return p


def main(argv=None):
    """Run the subcommand; input errors exit 2, numeric errors 3."""
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (InputError, WavFormatError, WeightFormatError, WeightError,
            FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
    except (NumericError, FloatingPointError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        sys.exit(3)


if __name__ == "__main__":
    main()
