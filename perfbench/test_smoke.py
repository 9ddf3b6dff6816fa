"""Smoke test of the benchmark (every workload, tracing off and on, tiny inputs)
and unit tests of its tracer and loop driver.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_declared_metrics(workload, trace):
    p = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
             "--trace", str(trace), "--tiny")
    assert p.returncode == 0, p.stdout + p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    checks = [l for l in p.stdout.splitlines() if l.startswith("[check]")]
    assert checks and not any(": FAIL" in l for l in checks)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(tmp_path, "--workload", "stream_paper", "--seed", "1",
             "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert p.stdout.strip() == ""


def test_self_times_add_up_to_root_duration():
    from tracing import Tracer

    tr = Tracer()

    def leaf():
        time.sleep(0.01)

    def mid():
        time.sleep(0.01)
        tr.call("leaf", "b", leaf)

    tr.call("root", "a", mid)
    tr.call("root", "a", leaf)
    self_s = tr.self_times()
    roots = sum(s[3] - s[2] for s in tr.spans if s[4] == -1)
    assert sum(self_s.values()) == pytest.approx(roots, rel=1e-9)
    assert self_s["b"] == pytest.approx(tr.spans[1][3] - tr.spans[1][2], rel=1e-9)
    assert self_s["a"] >= 0.02


def test_loop_spreads_setups_and_alternates_traced_ops():
    from harness import Loop
    from tracing import Tracer
    from workloads import model_config

    class Fake:
        def __init__(self):
            self.setups, self.runs, self.traced = 0, 0, []

        def setup(self):
            self.setups += 1

        def run(self, state, loop):
            self.runs += 1
            while True:
                go, tracer = loop.next()
                if not go:
                    return
                self.traced.append(tracer is not None)
                time.sleep(0.002)
                loop.done(0.002, 0.01, 0, 0.0)

    w = Fake()
    loop = Loop(0.2, min_ops=1, setups=3)
    loop.drive(w, None)
    assert w.setups == len(loop.setup_s) == 3
    assert w.runs == 4          # run ends when a set-up is due
    assert not any(w.traced) and not loop.traced.op_s

    w = Fake()
    tracer = Tracer()
    loop = Loop(0.1, min_ops=1, tracer=tracer, cfg=model_config("desk", 0))
    loop.drive(w, None)
    assert w.setups == 0 and w.runs == 1
    assert w.traced[:4] == [False, True, False, True]
    assert len(loop.traced.op_s) == w.traced.count(True)
    assert not tracer._patches  # instrumentation is off after the loop
