"""The benchmark's correctness gates and call-count laws hold on the current code.

Each workload of perfbench/ runs once, traced, at seed 1 in a fresh
`perfbench/worker.py` process, exactly as a `--trace 1` benchmark call
does, and must pass its workload's `check` and `check_counts`.
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


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


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
