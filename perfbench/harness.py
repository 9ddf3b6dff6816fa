"""Measure one workload and assemble its report.

An untraced run (`trace=False`) gives the end-to-end metrics.  A traced run
alternates untraced and traced ops of the timed loop, one at a time, so that
both kinds meet the same mix of machine speeds (CPU speed on a shared host
changes every few seconds); then it runs a fixed amount of work with the
counters on, and gives the per-layer metrics.  The difference between its
traced and untraced ops is the tracing overhead.
"""

import ctypes
import json
import os
import platform
import resource
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from tracing import PATH_STAGES, Tracer, instrument, instrument_counts
from workloads import HOP_S, WORKLOADS

STAGE_SUM_TOL = 0.05   # traced stage self times vs the untraced end-to-end time
# per-call metrics: metric -> span name
PER_CALL = {"model.validate_store_ms": "dcaec.model.validate_store",
            "model.params_as_vars_ms": "dcaec.model.params_as_vars",
            "weights_io.load_ms": "dcaec.weights_io.load_weights"}


# ---- environment --------------------------------------------------------


def _loaded_libraries():
    """Paths of the shared objects mapped into this process."""

    class Info(ctypes.Structure):
        _fields_ = [("addr", ctypes.c_void_p), ("name", ctypes.c_char_p)]

    names = []
    callback_t = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.POINTER(Info),
                                  ctypes.c_size_t, ctypes.c_char_p)

    def collect(info, size, data):
        if info.contents.name:
            names.append(info.contents.name.decode())
        return 0

    ctypes.CDLL(None).dl_iterate_phdr(callback_t(collect), None)
    return names


def blas_threads():
    """OpenBLAS's own thread count, read back from the loaded library."""
    for path in _loaded_libraries():
        if "openblas" not in os.path.basename(path).lower():
            continue
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def environment(workload, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    readback = blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS")},
        "blas_threads_readback": readback,
        # single-threaded only when the library itself says so
        "threads_pinned": readback == 1,
        "config": workload.config_name,
        "config_hash": workload.cfg.config_hash(),
        "seed": seed,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---- measurement --------------------------------------------------------


@dataclass
class Pass:
    """The ops of one kind (untraced or traced) of a timed loop."""

    op_s: list = field(default_factory=list)        # wall time per op
    op_audio_s: list = field(default_factory=list)  # audio each op consumed
    failed: int = 0
    forward_s: float = 0.0   # offline: the part of op_s inside model.forward

    @property
    def audio_s(self):
        return sum(self.op_audio_s)

    def op_rtf(self):
        """Each op's wall time per second of its audio."""
        return [t / a for t, a in zip(self.op_s, self.op_audio_s)]


class Loop:
    """Drives a workload's closed loop for `seconds` of timed work.

    Before each op the workload's `run` calls `next()`, which answers
    whether to go on and, in a traced run, hands the tracer to every second
    op, with the entry points instrumented for it alone.  After the op,
    `done()` records it.  An untraced run also repeats the set-up, spread
    evenly over the loop so that set-ups meet the same mix of machine speeds
    as the ops: `next()` ends the workload's `run` when a set-up is due, and
    `drive` does the set-up, outside the timed work, and calls `run` again.
    """

    def __init__(self, seconds, min_ops, setups=0, tracer=None, cfg=None):
        self.seconds, self.min_ops, self.setups = seconds, min_ops, setups
        self.tracer, self.cfg = tracer, cfg
        self.main, self.traced = Pass(), Pass()
        self.setup_s = []
        self.ops = 0
        self.run_ops = 0    # ops of the current `run` call
        self.paused = 0.0
        self.instrumented = False
        self.start = perf_counter()

    def _elapsed(self):
        return perf_counter() - self.start - self.paused

    def _setup_due(self):
        due = (len(self.setup_s) + 1) * self.seconds / (self.setups + 1)
        return len(self.setup_s) < self.setups and self._elapsed() >= due

    def _is_traced(self):
        return self.tracer is not None and self.ops % 2 == 1

    def drive(self, w, state):
        while True:
            self.run_ops = 0
            w.run(state, self)
            if not self._setup_due():
                return
            t0 = perf_counter()
            w.setup()
            self.setup_s.append(perf_counter() - t0)
            self.paused += self.setup_s[-1]

    def next(self, can_stop=True):
        # every `run` call does at least min_ops ops (a loss trend needs a
        # few steps of one toy_train call)
        can_stop = can_stop and self.run_ops >= self.min_ops
        time_up = self._elapsed() >= self.seconds
        go = not (can_stop and (time_up or self._setup_due()))
        traced = go and self._is_traced()
        if traced != self.instrumented:
            if traced:
                instrument(self.tracer, self.cfg)
            else:
                self.tracer.restore()
            self.instrumented = traced
        return go, (self.tracer if traced else None)

    def done(self, op_s, audio_s, failed, forward_s):
        p = self.traced if self._is_traced() else self.main
        p.op_s.append(op_s)
        p.op_audio_s.append(audio_s)
        p.failed += failed
        p.forward_s += forward_s
        self.ops += 1
        self.run_ops += 1


def measure(name, seed, seconds, trace, scale, out_dir):
    """Run one workload; returns the report dict."""
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    try:
        w = WORKLOADS[name](seed, scale, workdir)
        tracer = Tracer()
        # the first set-up is the cold one; an untraced run spreads the rest
        # over its loop, a traced run does them all here, instrumented, for
        # the per-call figures of weights_io and scene
        if trace:
            instrument(tracer, w.cfg)
        setup_s = []
        for _ in range(scale.setups if trace else 1):
            t0 = perf_counter()
            state = w.setup()
            setup_s.append(perf_counter() - t0)
        tracer.restore()

        first_span = len(tracer.spans)
        if trace:
            loop = Loop(seconds, w.min_ops, tracer=tracer, cfg=w.cfg)
        else:
            loop = Loop(seconds, w.min_ops, setups=scale.setups - 1)
        loop.drive(w, state)
        tracer.restore()
        setup_s += loop.setup_s
        main, traced = loop.main, loop.traced
        peak_mb = peak_rss_mb()

        layers = None
        if trace:
            instrument_counts(tracer)
            count_audio_s, count_steps = w.count_pass(state)
            tracer.restore()
            layers = _per_layer(w, tracer, first_span, main, traced,
                                count_audio_s, count_steps)
            tracer.write(out_dir / f"{name}-seed{seed}-spans.json")
        checks = w.checks(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = [main, traced] if trace else [main]
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(w, seed),
        "setup_s": setup_s,
        "op": w.unit,
        "op_s": main.op_s,
        "op_audio_s": main.op_audio_s,
        "attempted": sum(len(p.op_s) for p in passes),
        "failed": sum(p.failed for p in passes),
        "end_to_end": _end_to_end(w, main, setup_s, peak_mb, trace),
        "audio_s_per_op": main.audio_s / len(main.op_s),
        "per_layer": layers,
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "diagnostics": [],
        "info": w.info,
    }
    if trace:
        # a property of the measurement, not of the program's outputs, so it
        # is reported but does not fail the run
        ratio = 1.0 + layers["trace.overhead_frac"][0]
        report["diagnostics"].append({
            "name": "stage_sum_matches_end_to_end",
            "ok": abs(ratio - 1.0) <= STAGE_SUM_TOL,
            "detail": f"traced stage self times sum to {ratio:.3f} x the "
                      f"untraced end-to-end time (tolerance {STAGE_SUM_TOL:.0%})"})
    return report


def _end_to_end(w, main, setup_s, peak_mb, trace):
    """name -> (value, unit, sample count)."""
    n = len(main.op_s)
    out = {}
    # CPU speed on a shared host drifts between a fast mode and slower ones
    # (1.5x and more) over seconds to minutes, and most runs spend part of
    # their time slow.  The slow end of a run's distribution lands there in
    # run after run, while the median and the fast end follow the share of
    # slow time.  So the gated figures are the slowest set-up, the cold one
    # included, and the 75th percentile of the ops, which keeps at least ten
    # ops beyond it at the run lengths used.
    if not trace:  # traced set-ups carry the tracing overhead
        out["setup_s"] = (max(setup_s), "s", len(setup_s))
    rtf = main.op_rtf()
    out["op_rtf_p75"] = (float(np.percentile(rtf, 75)), "s/s", n)
    out["op_rtf_p50"] = (float(np.percentile(rtf, 50)), "s/s", n)
    if n >= 11:
        # the highest whole percentile with at least ten samples beyond it
        q = int(100 * (1 - 10 / n))
        out[f"op_rtf_p{q}"] = (float(np.percentile(rtf, q)), "s/s", n)
    out["peak_mem_mb"] = (peak_mb, "MB", 1)
    out["failed_frac"] = (main.failed / n, "ratio", n)
    out.update(w.named_metrics(main))
    return out


def _per_layer(w, tracer, first_span, main, traced, count_audio_s, count_steps):
    """name -> (value, unit, sample count) from the traced and counting passes."""
    self_s = tracer.self_times(first_span)
    audio = traced.audio_s
    out = {}
    for stage in PATH_STAGES:
        if f"{stage}_ms" not in PER_CALL:
            out[f"{stage}_ms"] = (1000.0 * self_s.get(stage, 0.0) / audio, "ms/s",
                                  len(traced.op_s))
    for metric, span in PER_CALL.items():
        ms, calls = tracer.per_call_ms(span)
        out[metric] = (ms, "ms/call", calls)
    if w.name == "train_desk":
        spans = [s for s in tracer.spans[:first_span] if s[1] == "scene.synth"]
        examples = w.scale.setups * w.scale.train_examples
        synth_ms = 1000.0 * sum(s[3] - s[2] for s in spans) / examples
        out["scene.synth_ms_per_example"] = (synth_ms, "ms/example", examples)
    else:
        out["scene.synth_ms_per_example"] = (w.info["input_synth_ms_per_scene"],
                                             "ms/example", 1)
    hops = count_audio_s / HOP_S
    out["autodiff.vars_per_hop"] = (tracer.counts["vars"] / hops, "count/hop", 1)
    out["autodiff.lstm_cell_calls_per_hop"] = (
        tracer.counts["lstm_cell"] / hops, "count/hop", 1)
    out["autodiff.vars_per_step"] = (
        tracer.counts["vars"] / count_steps if count_steps else 0.0, "count/step",
        count_steps)
    out["model.state_growth_kb_per_hop"] = (
        w.info.get("state_growth_kb_per_hop", 0.0), "KB/hop", 1)
    untraced = sum(main.op_s) / main.audio_s
    stage_sum = sum(self_s.get(s, 0.0) for s in PATH_STAGES) / audio
    out["trace.overhead_frac"] = (stage_sum / untraced - 1.0, "ratio", 1)
    return out


# ---- output -------------------------------------------------------------


def result_line(report, declared):
    """The final JSON line: exactly the metrics BENCHMARK.json declares."""
    table = report["per_layer"] if report["trace"] else report["end_to_end"]
    names = [m["name"] for m in declared]
    missing = [n for n in names if n not in table]
    if missing:
        raise KeyError(f"metrics declared but not measured: {missing}")
    for m in declared:
        if table[m["name"]][1] != m["unit"]:
            raise ValueError(f"{m['name']}: unit {table[m['name']][1]} "
                             f"!= declared {m['unit']}")
    return {
        "correct": all(c["ok"] for c in report["checks"]),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": table[n][0], "unit": table[n][1]} for n in names},
    }


def print_report(report):
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    s = report["setup_s"]
    print(f"set-up: {len(s)} repetitions, first (cold) {s[0]:.4f} s, all: "
          + " ".join(f"{t:.4f}" for t in s))
    sections = [("end to end", report["end_to_end"])]
    if report["per_layer"]:
        sections.append(("per layer (self time per audio second unless noted)",
                         report["per_layer"]))
    per_op = report["audio_s_per_op"]
    for title, table in sections:
        print(f"-- {title}; n = samples ({report['op']}s unless noted)")
        for name, (value, unit, n) in table.items():
            extra = (f"  ({value * per_op:.4g} ms per {report['op']})"
                     if unit == "ms/s" else "")
            print(f"  {name:34s} {value:14.6g} {unit:10s} n={n}{extra}")
    for key, value in sorted(report["info"].items()):
        print(f"  info {key}: {value:.6g}")
    for kind in ("checks", "diagnostics"):
        for c in report[kind]:
            print(f"[{kind[:-1]}] {c['name']}: {'PASS' if c['ok'] else 'FAIL'} "
                  f"- {c['detail']}")
