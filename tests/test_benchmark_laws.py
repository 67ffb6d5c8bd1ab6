"""The benchmark's correctness gates and call-count laws hold on the current code.

Each workload of perfbench/ runs once, traced, at seed 1 in a fresh
`perfbench/worker.py` process, exactly as a `--trace 1` benchmark call
does, and must pass its workload's `check` and `check_counts` and produce
every per-layer metric that BENCHMARK.json lists, since `perfbench/run.py`
refuses a traced run that misses one.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# run.py imports its workloads by name, as when it runs as a script
sys.modules.setdefault("workloads", _load("workloads", "workloads.py"))
RUN = _load("perfbench_run", "run.py")
WORKLOADS = RUN.WORKLOADS
# a traced run's per-layer metrics; trace.overhead_frac compares traced with
# untraced calls, so no single call produces it
PER_LAYER = [
    m["name"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if m["name"] != "trace.overhead_frac"
]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_call_meets_gate_and_laws(name):
    workload = WORKLOADS[name]
    argv = workload.argv(1)
    spec = {"build": list(workload.build), "argv": argv, "trace": 1}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(PERFBENCH))))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["exit_code"] == 0, out["error"]
    assert workload.check(argv, out["results"]) == []
    assert workload.check_counts(argv, out["trace"]) == []
    produced = RUN._layer_values(out)
    assert [name for name in PER_LAYER if name not in produced] == []
