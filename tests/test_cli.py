"""CLI behaviour via main(argv): exit codes, JSON reports, file outputs."""

import contextlib
import json
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from dcaec import cli
from dcaec.cli import main
from dcaec.dsp import RATE, AudioBuffer
from dcaec.model import MASK_CLAMP, ModelConfig, count_params, init_weights
from dcaec.wavio import read_wav, write_wav
from dcaec.weights_io import load_weights, save_weights
from test_io import meta_record, packed


@pytest.fixture(scope="module")
def desk_weights(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "desk.bin"
    main(["init-weights", "--config", "desk", "--seed", "0",
          "--out", str(path)])
    return path


def _wav(path, samples):
    write_wav(path, AudioBuffer(np.asarray(samples, dtype=np.float64)))
    return path


def _check_threads_pinned(rep):
    """The report says whether BLAS really ran on one thread: without
    threadpoolctl, exactly when numpy's bundled OpenBLAS can be pinned."""
    assert isinstance(rep["threads_pinned"], bool)
    try:
        import threadpoolctl  # noqa: F401
    except ImportError:
        assert rep["threads_pinned"] is (cli._bundled_openblas() is not None)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_init_weights_writes_expected_count(desk_weights, capsys):
    store = load_weights(desk_weights)
    assert count_params(store) == 72_028
    assert store.meta["config_hash"] == ModelConfig.desk_mode().config_hash()


def test_process_silence_to_silence(tmp_path, desk_weights, capsys):
    mic = _wav(tmp_path / "mic.wav", np.zeros(RATE // 2))
    far = _wav(tmp_path / "far.wav", np.zeros(RATE // 2))
    out = tmp_path / "out.wav"
    main(["process", "--mic", str(mic), "--farend", str(far),
          "--weights", str(desk_weights), "--out", str(out)])
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["mode"] == "offline"
    assert rep["rtf"] > 0
    assert rep["peak_rss_mb"] > 0
    _check_threads_pinned(rep)
    from dcaec.wavio import read_wav
    assert np.max(np.abs(read_wav(out).samples)) <= 1.0 / 32768.0


def test_process_streaming_report(tmp_path, desk_weights, capsys):
    rng = np.random.default_rng(0)
    mic = _wav(tmp_path / "m.wav", 0.05 * rng.normal(size=RATE // 4))
    far = _wav(tmp_path / "f.wav", 0.05 * rng.normal(size=RATE // 4))
    out = tmp_path / "o.wav"
    main(["process", "--mic", str(mic), "--farend", str(far),
          "--weights", str(desk_weights), "--out", str(out), "--streaming"])
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["mode"] == "streaming"
    assert rep["latency_samples"] <= 640
    assert rep["peak_rss_mb"] > 0
    _check_threads_pinned(rep)


@pytest.mark.parametrize("streaming", [False, True])
def test_process_reports_clamped_mask_bins(tmp_path, streaming, capsys):
    """Weights whose final projection pushes every mask bin past the clamp:
    offline and streaming JSON both count every bin of every frame."""
    cfg = ModelConfig.desk_mode()
    store = init_weights(cfg, seed=0)
    for part in ("br", "bi"):
        store.tensors[f"clstm0.proj.{part}"][:] = 10 * MASK_CLAMP
    weights = tmp_path / "clamping.bin"
    save_weights(weights, store)
    rng = np.random.default_rng(1)
    mic = _wav(tmp_path / "m.wav", 0.05 * rng.normal(size=RATE // 4))
    far = _wav(tmp_path / "f.wav", 0.05 * rng.normal(size=RATE // 4))
    main(["process", "--mic", str(mic), "--farend", str(far), "--weights", str(weights),
          "--out", str(tmp_path / "o.wav")] + (["--streaming"] if streaming else []))
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["mask_clamped_bins"] == cfg.stft.n_frames(RATE // 4) * cfg.n_bins


@pytest.mark.parametrize("streaming", [False, True])
def test_process_empty_wavs_report_no_rtf(tmp_path, desk_weights, streaming, capsys):
    """A real-time factor is undefined without audio: it reads null."""
    mic = _wav(tmp_path / "m.wav", np.zeros(0))
    main(["process", "--mic", str(mic), "--farend", str(mic), "--weights", str(desk_weights),
          "--out", str(tmp_path / "o.wav")] + (["--streaming"] if streaming else []))
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["audio_seconds"] == 0
    assert rep["rtf"] is None


def _without_prelu(store):
    # laid out for a network without PReLU: no alpha tensors
    for name in [k for k in store.tensors if ".alpha_" in k]:
        del store.tensors[name]
    store.meta["config"]["activation"] = "relu"


def _without_lstm_hidden(store):
    del store.meta["config"]["lstm_hidden"]


def _unpadded_enc1_dec1(store):
    # another topology with the same tensor shapes; dec1 is the first dec row
    cfg = store.meta["config"]
    cfg["enc"][1][6] = cfg["dec"][0][6] = 0  # pad_f


@pytest.mark.parametrize("streaming", [False, True])
@pytest.mark.parametrize("key, edit", [("activation", _without_prelu),
                                       ("lstm_hidden", _without_lstm_hidden),
                                       ("enc", _unpadded_enc1_dec1)],
                         ids=["relu", "no_lstm_hidden", "unpadded"])
def test_process_rejects_weights_with_another_activation(tmp_path, key, edit, streaming,
                                                         capsys):
    """A weight file whose config is not this network's at some widths (another
    activation, a missing key, another topology) is bad input."""
    store = init_weights(ModelConfig.desk_mode(), seed=0)
    edit(store)
    weights = tmp_path / "other.bin"
    save_weights(weights, store)
    mic = _wav(tmp_path / "m.wav", np.zeros(RATE // 4))
    with pytest.raises(SystemExit) as e:
        main(["process", "--mic", str(mic), "--farend", str(mic), "--weights", str(weights),
              "--out", str(tmp_path / "o.wav")] + (["--streaming"] if streaming else []))
    assert e.value.code == 2
    assert key in capsys.readouterr().err


def test_process_missing_file_exit_2(tmp_path, desk_weights, capsys):
    with pytest.raises(SystemExit) as e:
        main(["process", "--mic", str(tmp_path / "nope.wav"),
              "--farend", str(tmp_path / "nope.wav"),
              "--weights", str(desk_weights),
              "--out", str(tmp_path / "o.wav")])
    assert e.value.code == 2


def test_process_corrupt_weights_exit_2(tmp_path, capsys):
    mic = _wav(tmp_path / "m.wav", np.zeros(RATE // 4))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"garbage")
    with pytest.raises(SystemExit) as e:
        main(["process", "--mic", str(mic), "--farend", str(mic),
              "--weights", str(bad), "--out", str(tmp_path / "o.wav")])
    assert e.value.code == 2


@pytest.mark.parametrize("streaming", [False, True])
def test_process_non_finite_weights_exit_2(tmp_path, streaming, capsys):
    """A NaN weight is refused at load as bad input, not met block by block."""
    store = init_weights(ModelConfig.desk_mode(), seed=0)
    store.tensors["enc0.kr"].flat[0] = np.nan
    weights = tmp_path / "nan.bin"
    save_weights(weights, store)
    mic = _wav(tmp_path / "m.wav", 0.1 * np.ones(RATE // 4))
    with pytest.raises(SystemExit) as e:
        main(["process", "--mic", str(mic), "--farend", str(mic), "--weights", str(weights),
              "--out", str(tmp_path / "o.wav")] + (["--streaming"] if streaming else []))
    assert e.value.code == 2
    assert "enc0.kr" in capsys.readouterr().err
    assert not (tmp_path / "o.wav").exists()


def test_weights_without_config_exit_2(tmp_path, capsys):
    from collections import OrderedDict
    from dcaec.model import WeightStore
    path = tmp_path / "nocfg.bin"
    save_weights(path, WeightStore(OrderedDict(a=np.zeros(2, dtype=np.float32))))
    mic = _wav(tmp_path / "m.wav", np.zeros(RATE // 4))
    with pytest.raises(SystemExit) as e:
        main(["process", "--mic", str(mic), "--farend", str(mic),
              "--weights", str(path), "--out", str(tmp_path / "o.wav")])
    assert e.value.code == 2


@pytest.mark.parametrize("command", ["process", "bench"])
def test_weights_with_string_metadata_exit_2(tmp_path, command, capsys):
    """Metadata that is JSON but not an object is a corrupt file, refused at
    load, not a crash where the config is read."""
    path = tmp_path / "str.bin"
    path.write_bytes(packed([(b"a", np.zeros(2)), meta_record(b'"config"')]))
    mic = _wav(tmp_path / "m.wav", np.zeros(RATE // 4))
    argv = {"process": ["process", "--mic", str(mic), "--farend", str(mic),
                        "--out", str(tmp_path / "o.wav")],
            "bench": ["bench", "--seconds", "0.5"]}[command]
    with pytest.raises(SystemExit) as e:
        main(argv + ["--weights", str(path)])
    assert e.value.code == 2
    assert "JSON object" in capsys.readouterr().err


def test_metrics_json(tmp_path, capsys):
    rng = np.random.default_rng(1)
    s = 0.1 * rng.normal(size=RATE)
    est = s + 0.01 * rng.normal(size=RATE)
    ref = _wav(tmp_path / "ref.wav", s)
    est_p = _wav(tmp_path / "est.wav", est)
    mic = _wav(tmp_path / "mic.wav", s + 0.05 * rng.normal(size=RATE))
    main(["metrics", "--est", str(est_p), "--ref", str(ref), "--mic", str(mic)])
    rep = json.loads(capsys.readouterr().out.strip())
    assert rep["si_snr_db"] > 10.0
    assert set(rep["seg_sisnr_per_c"]) == {"1", "10", "20"}
    assert rep["erle_db"] is not None


def test_simulate_process_metrics_pipeline(tmp_path, desk_weights, capsys):
    """The README's simulate -> process -> metrics pipeline on one scene whose
    length is no whole number of hops: process writes as many samples as the
    mic recording, offline and streaming, so metrics exits 0."""
    scenes = tmp_path / "scenes"
    main(["simulate", "--recipes", "1", "--seed", "0", "--rirs", "2", "--clip-seconds", "1.0",
          "--outdir", str(scenes)])
    files = json.loads((scenes / "manifest.jsonl").read_text())["files"]
    mic, far, near = (str(scenes / files[k]) for k in ("y", "x", "s"))
    assert len(read_wav(mic)) % 160 != 0
    for mode in ([], ["--streaming"]):
        out = str(tmp_path / "clean.wav")
        main(["process", "--weights", str(desk_weights), "--mic", mic, "--farend", far,
              "--out", out, *mode])
        assert len(read_wav(out)) == len(read_wav(mic))
        capsys.readouterr()
        main(["metrics", "--est", out, "--ref", near, "--mic", mic])   # exits only on error
        assert json.loads(capsys.readouterr().out)["si_snr_db"] is not None


def test_readme_cli_lines_parse():
    """Every dcaec command in the README's CLI block parses, so a renamed
    subcommand or flag fails here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
             if line.startswith("dcaec ")]
    assert lines
    parser = cli.build_parser()
    for argv in lines:
        assert parser.parse_args(argv).command == argv[0]


def test_metrics_length_mismatch_exit_2(tmp_path, capsys):
    a = _wav(tmp_path / "a.wav", np.zeros(1000) + 0.1)
    b = _wav(tmp_path / "b.wav", np.zeros(500) + 0.1)
    with pytest.raises(SystemExit) as e:
        main(["metrics", "--est", str(a), "--ref", str(b), "--mic", str(a)])
    assert e.value.code == 2


def test_simulate_writes_manifest_deterministically(tmp_path, capsys):
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    argv = ["simulate", "--recipes", "2", "--seed", "11",
            "--rirs", "2", "--clip-seconds", "1.0"]
    main(argv + ["--outdir", str(d1)])
    main(argv + ["--outdir", str(d2)])
    m1 = (d1 / "manifest.jsonl").read_text()
    assert m1 == (d2 / "manifest.jsonl").read_text()
    lines = [json.loads(l) for l in m1.splitlines()]
    assert len(lines) == 2
    for i, rec in enumerate(lines):
        for tag in ("s", "x", "y", "d", "v"):
            f = d1 / rec["files"][tag]
            assert f.exists()
            assert f.name == f"ex{i:05d}_{tag}.wav"
            assert (d1 / rec["files"][tag]).read_bytes() == \
                   (d2 / rec["files"][tag]).read_bytes()


def test_simulate_ranges_file(tmp_path, capsys):
    ranges = tmp_path / "ranges.txt"
    ranges.write_text("ser_db = -5, 5\np_farend_zero = 0\n"
                      "p_noise_zero = 0\ndelay_samples = 0, 0\n")
    out = tmp_path / "sim"
    main(["simulate", "--recipes", "3", "--seed", "2", "--rirs", "2",
          "--clip-seconds", "1.0", "--ranges", str(ranges),
          "--outdir", str(out)])
    for rec in [json.loads(l) for l in (out / "manifest.jsonl").read_text().splitlines()]:
        assert -5.0 <= rec["ser_db"] <= 5.0
        assert rec["delay_samples"] == 0
        assert not rec["farend_zeroed"]


def test_simulate_ranges_file_unknown_key_exit_2(tmp_path, capsys):
    ranges = tmp_path / "ranges.txt"
    ranges.write_text("ser_dbx = -5, 5\n")
    with pytest.raises(SystemExit) as e:
        main(["simulate", "--recipes", "1", "--rirs", "2", "--clip-seconds", "1.0",
              "--ranges", str(ranges), "--outdir", str(tmp_path / "sim")])
    assert e.value.code == 2
    assert "ser_dbx" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    pytest.param("traintoy", "--steps", "0", id="--steps"),
    pytest.param("traintoy", "--examples", "0", id="--examples"),
    *(pytest.param(cmd, flag, v, id=f"{flag}={v}")
      for cmd, flag in (("traintoy", "--chunk-seconds"), ("simulate", "--clip-seconds"))
      for v in ("0", "-1")),
])
def test_traintoy_rejects_counts_below_one(command, flag, value, tmp_path, capsys):
    """A count below one or a duration of 0 s or less exits 2, and the error
    names the flag."""
    argv = {"traintoy": ["traintoy", "--config", "desk", "--chunk-seconds", "0.25"],
            "simulate": ["simulate", "--recipes", "1", "--outdir", str(tmp_path)]}[command]
    with pytest.raises(SystemExit) as e:
        main(argv + [flag, value])
    assert e.value.code == 2
    assert f"{flag} must be" in capsys.readouterr().err


def test_traintoy_smoke(tmp_path, capsys):
    out = tmp_path / "trained.bin"
    main(["traintoy", "--steps", "2", "--examples", "1",
          "--chunk-seconds", "0.25", "--config", "desk",
          "--out", str(out)])
    text = capsys.readouterr().out
    steps = [json.loads(l) for l in text.splitlines() if l.startswith("{")]
    assert len(steps) == 2
    last = text.splitlines()[-1]
    assert "threads_pinned" in last
    peak = re.search(r"peak_rss_mb: ([0-9.]+)", last)
    assert peak and float(peak.group(1)) > 0, last
    assert out.exists()
    load_weights(out)


def test_bench_report(desk_weights, capsys, monkeypatch):
    """bench times everything in-process: it starts no child process."""
    def no_child(*args, **kwargs):
        raise AssertionError("bench started a child process")

    monkeypatch.setattr(subprocess, "Popen", no_child)
    main(["bench", "--weights", str(desk_weights), "--seconds", "0.5"])
    rep = json.loads(capsys.readouterr().out.strip())
    assert rep["params"] == 72_028
    assert rep["latency_samples"] == 480
    assert rep["rtf"] > 0
    assert rep["stream_seconds"] >= 3.0
    assert 0 < rep["stream_hop_ms_p50"] <= rep["stream_hop_ms_p99"] <= rep["stream_hop_ms_max"]
    assert rep["stream_rtf"] > 0
    assert rep["peak_rss_mb"] > 0
    assert rep["train_step_s"] > 0 and rep["train_graph_mb"] > 0
    _check_threads_pinned(rep)


@pytest.mark.parametrize("seconds", ["0", "-1"])
def test_bench_rejects_nonpositive_seconds(desk_weights, seconds, capsys):
    with pytest.raises(SystemExit) as e:
        main(["bench", "--weights", str(desk_weights), "--seconds", seconds])
    assert e.value.code == 2
    assert "--seconds" in capsys.readouterr().err


GRADIENT_CHECKS = ("complex_conv2d", "complex_deconv2d", "lstm_uni", "lstm_bidi",
                   "ft_lstm_block", "complex_lstm", "deep_filter", "prelu",
                   "si_snr_loss", "seg_sisnr_loss", "composed_model_loss")


def test_gradcheck_command_passes(capsys):
    main(["gradcheck"])
    lines = capsys.readouterr().out.splitlines()
    assert [l.split()[0] for l in lines[:-1]] == list(GRADIENT_CHECKS)
    assert all(l.split()[-1] == "ok" for l in lines[:-1])
    assert lines[-1].startswith("gradcheck passed")


def test_gradcheck_command_fails_below_tolerance(capsys):
    with pytest.raises(SystemExit) as e:
        main(["gradcheck", "--tol", "1e-30"])
    assert e.value.code == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [l.split()[0] for l in lines if l.split()[-1] == "FAIL"]
    assert failed
    assert lines[-1] == f"gradcheck failed for: {', '.join(failed)}"


def test_single_threaded_without_threadpoolctl_pins_and_restores(monkeypatch):
    """Without threadpoolctl the limit goes through numpy's bundled OpenBLAS
    in-process, and its thread count comes back on exit."""
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    blas = cli._bundled_openblas()
    if blas is None:
        with cli._single_threaded() as pinned:
            assert pinned is False
        return
    get, _ = blas
    before = get()
    with cli._single_threaded() as pinned:
        assert pinned is True
        assert get() == 1
    assert get() == before


@pytest.mark.parametrize("threads, pinned", [([1, 1], True), ([1, 2], False), ([], False)],
                         ids=["all_one", "one_at_two", "no_pools"])
def test_single_threaded_with_threadpoolctl(monkeypatch, threads, pinned):
    """With threadpoolctl, the limit is its threadpool_limits(limits=1), and
    it holds when every pool it then reports runs one thread."""
    seen = []

    @contextlib.contextmanager
    def threadpool_limits(limits=None):
        seen.append(limits)
        yield

    stub = types.ModuleType("threadpoolctl")
    stub.threadpool_limits = threadpool_limits
    stub.threadpool_info = lambda: [{"num_threads": t} for t in threads]
    monkeypatch.setitem(sys.modules, "threadpoolctl", stub)
    with cli._single_threaded() as held:
        assert held is pinned
    assert seen == [1]


def test_bench_child_errors_keep_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["bench", "--weights", str(tmp_path / "nope.bin"), "--seconds", "0.5"])
    assert e.value.code == 2
    assert "nope.bin" in capsys.readouterr().err
