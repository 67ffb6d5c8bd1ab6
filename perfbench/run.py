"""qsymlab benchmark: one workload, closed loop, one call at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload compile-mc --seed 1 --seconds 20 --trace 0

A run first checks the program with ``qsymlab verify`` (untimed) and
refuses to report if that fails. It then times set-up in fresh processes,
and for ``--seconds`` seconds runs the workload's CLI command, each call in
a fresh worker process, always with the same seed-made inputs. Every call
must exit 0, pass its workload's correctness gate and produce the same
``results`` digest as the first call. With ``--trace 1`` the run alternates
untraced and traced calls; traced calls must also meet the workload's exact
call-count laws, and the per-layer metrics come from them.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics that BENCHMARK.json lists
(end-to-end ones without tracing, per-layer ones with it). A full record
of the run goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6  # set-up-only processes per run, besides each call's own set-up
MIN_CALLS = 3  # untraced calls per run, so the digest is compared and the median is defined
MIN_TRACED = 2  # traced and untraced calls each in a traced run
RUN_LIMIT_S = 160  # start no call that could end after this; runs must end within 180 s
E2E_UNITS = {
    "setup_s": "s",
    "setup_wall_s": "s",
    "wall_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
    "units_per_s": "units/s",
    "units_per_ref": "units/ref",
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer metrics taken from a traced call's summary
COUNTED_SPANS = (
    "statevector.run",
    "statevector.require_unitary",
    "oracles.StandardOracle.apply_tensor",
    "oracles.oracle_from_partial",
    "oracles.standard_oracle",
    "oracles.ClassicalOracle.lookup",
    "distributions.sample_small_range",
    "distributions.sample_permutation",
    "distributions.enumerate_small_range_support",
    "compiler.compile_and_run_once",
    "compiler.compiled_distribution",
    "disting.advantage_monte_carlo",
    "disting.advantage_exact",
    "core.image",
    "core.IndexFunction.__post_init__",
)


class BenchmarkError(Exception):
    """The program cannot be benchmarked here; no result is reported."""


def _worker_env() -> dict:
    env = dict(os.environ)
    # set-up times imports from cached bytecode, as an installed package would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _call_worker(spec: dict, timeout: float) -> dict:
    """Run one worker process and return its JSON line, or an error record."""
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"worker printed no result line: {lines[-1][:200]}"}


def _preflight() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "qsymlab", "verify"],
        cwd=ROOT,
        env=_worker_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"qsymlab verify failed:\n{proc.stdout}{proc.stderr}")


def _setup_probes(workload) -> list[dict]:
    probes = []
    for _ in range(SETUP_PROBES):
        out = _call_worker({"build": workload.build, "setup_only": True}, timeout=60)
        if "setup_s" not in out:
            raise BenchmarkError(f"set-up failed: {out.get('error')}")
        probes.append(out)
    return probes


def _judge(workload, argv: list[str], call: dict, reference: dict) -> list[str]:
    """Failures of one call; ``reference`` keeps the first digest and call counts seen."""
    if call.get("error"):
        return [call["error"].strip().splitlines()[-1]]
    if call.get("exit_code") != 0:
        return [f"exit code {call.get('exit_code')}"]
    try:
        failures = workload.check(argv, call["results"])
        if "trace" in call:
            failures += workload.check_counts(argv, call["trace"])
    except (KeyError, IndexError, TypeError) as exc:
        return [f"report lacks what the gate reads: {exc!r}"]
    digest = reference.setdefault("digest", call["digest"])
    if call["digest"] != digest:
        failures.append(f"results digest {call['digest'][:12]} differs from {digest[:12]} under one seed")
    if "trace" in call and reference.setdefault("calls", call["trace"]["calls"]) != call["trace"]["calls"]:
        failures.append("call counts differ from the first traced call under one seed")
    return failures


def _measure(workload, argv: list[str], seconds: float, trace: bool) -> list[dict]:
    """Closed loop of worker calls for ``seconds``; alternates traced calls when tracing."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    calls: list[dict] = []
    reference: dict = {}
    longest = 0.0
    while True:
        now = time.perf_counter()
        untraced = sum(1 for c in calls if not c["traced"])
        traced = len(calls) - untraced
        short = untraced < MIN_CALLS if not trace else min(untraced, traced) < MIN_TRACED
        if (now - start >= seconds and not short) or now + longest > deadline:
            break
        traced_call = trace and len(calls) % 2 == 1
        spec = {"build": workload.build, "argv": argv, "trace": traced_call}
        began = time.perf_counter()
        call = _call_worker(spec, timeout=max(1.0, deadline - now))
        longest = max(longest, time.perf_counter() - began)
        call["traced"] = traced_call
        call["failures"] = _judge(workload, argv, call, reference)
        calls.append(call)
    return calls


def _spread(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _layer_values(call: dict) -> dict:
    """Every per-layer number of one traced call, including spans this workload never enters."""
    t = call["trace"]
    values = {f"{span}.calls": t["calls"].get(span, 0) for span in COUNTED_SPANS}
    values.update({f"{span}.self_s": s for span, s in t["self_s"].items()})
    values.update({f"{module}.self_s": s for module, s in t["module_self_s"].items()})
    values.update(t["derived"])
    values["cli.report_bytes"] = call["report_bytes"]
    return values


def _per_layer(calls: list[dict]) -> dict:
    traced = [c for c in calls if c["traced"] and "trace" in c and "wall_ref" in c]
    untraced = [c["wall_ref"] for c in calls if not c["traced"] and "wall_ref" in c]
    if not traced or not untraced:
        return {}
    samples = [_layer_values(c) for c in traced]
    names = sorted(set().union(*samples))
    merged = {name: statistics.median(s.get(name, 0) for s in samples) for name in names}
    traced_wall = statistics.median(c["wall_ref"] for c in traced)
    merged["trace.overhead_frac"] = traced_wall / statistics.median(untraced) - 1
    return merged


def _provenance() -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "src_lines": src_lines,
    }


def _print_table(title: str, rows: list[tuple]) -> None:
    print(title)
    for row in rows:
        print("  " + "  ".join(str(cell) for cell in row))


def _first_failure(calls: list[dict]) -> str:
    return "first call failure: " + next((f for c in calls for f in c["failures"]), "none")


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: (last-line result, full record)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[workload_name]
    if not (ROOT / "src" / "qsymlab" / "__init__.py").is_file():
        raise BenchmarkError(f"no qsymlab sources under {ROOT / 'src'}")
    _preflight()
    argv = workload.argv(seed)
    setups = _setup_probes(workload)
    calls = _measure(workload, argv, seconds, trace)

    failed = sum(1 for c in calls if c["failures"])
    untraced = [c for c in calls if not c["traced"] and "wall_ref" in c]
    if not untraced:
        raise BenchmarkError(f"no untraced call ran long enough to be timed; {_first_failure(calls)}")
    setups += [c for c in calls if "setup_s" in c]
    units = workload.units(argv)
    stats = {
        "setup_s": _spread([c["setup_s"] for c in setups]),
        "setup_wall_s": _spread([c["setup_wall_s"] for c in setups]),
        "wall_s": _spread([c["wall_s"] for c in untraced]),
        "wall_ref": _spread([c["wall_ref"] for c in untraced]),
        "peak_rss_mb": _spread([c["peak_rss_mb"] for c in untraced]),
    }
    end_to_end = {name: v["median"] for name, v in stats.items()}
    end_to_end["units_per_s"] = units / end_to_end["wall_s"]
    end_to_end["units_per_ref"] = units / end_to_end["wall_ref"]
    layers = _per_layer(calls) if trace else {}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    produced = layers if trace else end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in produced]
    if missing:
        raise BenchmarkError(f"metrics not produced: {', '.join(missing)}; {_first_failure(calls)}")
    metrics = {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted = len(calls)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": argv,
        "units": units,
        "provenance": _provenance(),
        "digest": calls[0].get("digest"),
        "error_rate": failed / attempted,
        "end_to_end": end_to_end,
        "spread": stats,
        "layers": layers,
        "calls": [
            {k: v for k, v in c.items() if k not in ("results", "trace")} for c in calls
        ],
        "result": result,
    }
    return result, record


def _report(record: dict) -> None:
    p = record["provenance"]
    print(f"qsymlab benchmark  workload={record['workload']}  seed={record['seed']}  trace={int(record['trace'])}")
    print(f"  command: qsymlab {' '.join(record['argv'])}")
    print(
        f"  git {p['git_sha']}  python {p['python']}  numpy {p['numpy']}  nproc {p['nproc']}  "
        f"cpu {p['cpu']}  src lines {p['src_lines']}"
    )
    print(f"  units per call: {record['units']}  results digest: {record['digest']}")
    rows = [
        (f"{name:<14}", f"{value:.6g} {E2E_UNITS[name]}")
        + tuple(f"{q} {record['spread'][name][q]:.6g}" for q in ("q1", "q3", "n") if name in record["spread"])
        for name, value in record["end_to_end"].items()
    ]
    rows.append((f"{'error_rate':<14}", f"{record['error_rate']:.6g} failed/attempted"))
    _print_table("end-to-end (median of untraced calls):", rows)
    if record["layers"]:
        _print_table(
            "per-layer (median of traced calls):",
            [(f"{name:<52}", f"{value:.6g}") for name, value in sorted(record["layers"].items())],
        )
    for call in record["calls"]:
        for failure in call["failures"]:
            print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    _report(record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
