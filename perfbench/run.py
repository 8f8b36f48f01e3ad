"""The ssrank benchmark: closed-loop CLI requests, checked, timed and traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload construct --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

One run generates the workload's fixed request list from --seed, then runs
it as passes: each pass is a fresh interpreter (perfbench/worker.py) that
imports ssrank.cli from ./src and sends every request to ssrank.cli.main
in-process, one at a time.  Passes repeat while they fit in --seconds.
Every response of every pass is checked (checker.py).  With --trace 1,
untraced and traced passes alternate and the per-layer metrics are
reported instead of the end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Full results, with run metadata, go to .perfbench/results/.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import checker
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
STATE = ".perfbench"
SETUP_SAMPLES = 15
SETUP_CHUNKS = 20
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"), ("ok_ratio", "ratio"), ("peak_rss_mb", "MB"),
)

# Single-request figures measured before this benchmark existed (2-core box,
# CPython 3.11.7), keyed by the request kind that reproduces them.
BASELINE_S = {
    "atlas --g-max 12": 0.82,
    "eo list --g 12 --format json": 0.42,
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _spawn(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its "ready" line; returns it and the set-up in reference seconds."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    factor = calibrate.speed_factor(calibrate.chunk() for _ in range(SETUP_CHUNKS))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, ROOT, *args], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = (time.perf_counter() - t0) * factor
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start (exit {proc.returncode}); is ./src/ssrank here?")
    return proc, setup


def _finish(proc: subprocess.Popen, command: str) -> None:
    try:
        proc.communicate(command + "\n", timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")


def setup_probe() -> float:
    proc, setup = _spawn(["-", "-"])
    _finish(proc, "stop")
    return setup


def run_pass(rundir: str, traced: bool, spans_path: str) -> tuple[float, list[dict], dict]:
    """(set-up seconds, per-request responses, pass summary) of one worker."""
    responses_path = os.path.join(rundir, "responses.jsonl")
    args = [os.path.join(rundir, "requests.json"), responses_path]
    if traced:
        args += ["--trace", spans_path]
    proc, setup = _spawn(args)
    _finish(proc, "go")
    with open(responses_path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    return setup, lines[:-1], lines[-1]


def _tail(latencies: list[float]) -> float:
    """The latency with exactly TAIL_BEYOND requests beyond it (the maximum if fewer)."""
    ordered = sorted(latencies)
    return ordered[max(len(ordered) - TAIL_BEYOND - 1, 0) if len(ordered) > TAIL_BEYOND
                   else len(ordered) - 1]


def _per_request_medians(passes: list[dict], key: str) -> list[float]:
    return [statistics.median(column) for column in zip(*(p[key] for p in passes))]


def tail_percentile(n: int) -> float:
    return 100.0 * (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else 100.0


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate, run, check and summarise one workload."""
    if not os.path.isfile(os.path.join(ROOT, "src", "ssrank", "cli.py")):
        raise BenchError("src/ssrank/cli.py not found; run from a checkout of the repository")
    rundir_rel = os.path.join(STATE, f"run-{workload}-{seed}-{os.getpid()}")
    rundir = os.path.join(ROOT, rundir_rel)
    results_dir = os.path.join(ROOT, STATE, "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    spans_path = os.path.join(results_dir, f"{tag}.spans.tsv")
    try:
        requests, files = workloads.generate(workload, seed, os.path.join(rundir_rel, "in"))
        os.makedirs(os.path.join(rundir, "in"))
        for path, text in files.items():
            with open(os.path.join(ROOT, path), "w", encoding="ascii") as fh:
                fh.write(text)
        with open(os.path.join(rundir, "requests.json"), "w", encoding="ascii") as fh:
            json.dump([r["argv"] for r in requests], fh)
        return _measure(workload, seed, seconds, trace, requests, rundir, spans_path,
                        os.path.join(results_dir, f"{tag}.json"))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _measure(workload, seed, seconds, trace, requests, rundir, spans_path, results_path) -> dict:
    check = checker.Checker()
    setup_probe()  # warm-up: the first start in a checkout compiles bytecode
    setups = []
    plain: list[dict] = []
    traced: list[dict] = []
    verdicts: dict[str, int] = {}
    failures: dict[str, int] = {}
    latencies_by_kind: dict[str, list[float]] = {}

    def read_file(path: str) -> str:
        with open(os.path.join(ROOT, path), encoding="ascii") as fh:
            return fh.read()

    start = time.perf_counter()
    last = {False: 0.0, True: 0.0}
    while True:
        is_traced = trace and len(traced) < len(plain)
        if plain and (not trace or traced) and \
                time.perf_counter() - start + last[is_traced] > seconds:
            break
        t0 = time.perf_counter()
        setup, responses, summary = run_pass(rundir, is_traced, spans_path)
        last[is_traced] = time.perf_counter() - t0
        setups.append(setup)
        factor = calibrate.speed_factor(r["chunk_s"] for r in responses)
        stats = {"speed_factor": factor, "measured_wall_s": sum(r["wall_s"] for r in responses),
                 "peak_rss_mb": summary["peak_rss_mb"], "layers": summary.get("layers"),
                 "latency_s": [r["wall_s"] * factor for r in responses],
                 "cpu_s": [r["cpu_s"] * factor for r in responses]}
        (traced if is_traced else plain).append(stats)
        for req, resp in zip(requests, responses):
            verdict, reason = check.verdict(req, resp["code"], resp["out"], read_file)
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            if verdict != checker.OK:
                key = f"{verdict}: {req['kind']}: {reason}"
                failures[key] = failures.get(key, 0) + 1
            if not is_traced:
                latencies_by_kind.setdefault(req["kind"], []).append(resp["wall_s"])
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_probe())

    attempted = sum(verdicts.values())
    failed = attempted - verdicts.get(checker.OK, 0)

    # Times are in reference seconds (calibrate.py), and each request's
    # latency is the median over the passes, so neither the host's speed
    # drift nor a burst of noise in one pass moves the run's figures.
    latency = _per_request_medians(plain, "latency_s")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(latency),
        "cpu_s": sum(_per_request_medians(plain, "cpu_s")),
        "req_p50_ms": 1000 * statistics.median(latency),
        "req_tail_ms": 1000 * _tail(latency),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    layers = None
    if trace:
        layers = dict(traced[0]["layers"])
        for key in layers:
            if key.endswith(".self_s"):
                layers[key] = statistics.median(t["layers"][key] for t in traced)
        layers["trace_overhead_ratio"] = sum(_per_request_medians(traced, "latency_s")) / metrics["wall_s"]
    kind_medians = {k: 1000 * statistics.median(v) for k, v in sorted(latencies_by_kind.items())}
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": verdicts.get(checker.WRONG, 0) == 0,
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": metrics, "layers": layers,
        "measured_wall_s": statistics.median(p["measured_wall_s"] for p in plain),
        "speed_factor": statistics.median(p["speed_factor"] for p in plain),
        "metadata": {
            "git_revision": git_revision(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "seed": seed, "passes_untraced": len(plain), "passes_traced": len(traced),
            "requests_per_pass": len(requests),
            "req_tail_percentile": tail_percentile(len(requests)),
            "request_counts": workloads.kind_counts(requests),
            "setup_samples": len(setups),
        },
        "kind_median_ms": kind_medians,
        "failures": dict(sorted(failures.items())),
        "passes": {"untraced": plain, "traced": traced},
    }
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result: dict) -> None:
    """Human-readable lines for one workload."""
    meta = result["metadata"]
    w = result["workload"]
    print(f"== {w}  seed {result['seed']}  rev {meta['git_revision'][:12]}  "
          f"python {meta['python']}  nproc {meta['nproc']}")
    print(f"   passes {meta['passes_untraced']} untraced + {meta['passes_traced']} traced, "
          f"{meta['requests_per_pass']} requests per pass, tail = "
          f"p{meta['req_tail_percentile']:.2f}")
    print(f"   attempted {result['attempted']}  failed {result['failed']}  "
          f"failed_ratio {result['failed_ratio']:.4f}  correct {result['correct']}")
    for key, count in result["failures"].items():
        print(f"   {count:5d} x {key}")
    print(f"   times in reference seconds; median speed factor {result['speed_factor']:.4f}, "
          f"measured pass wall {result['measured_wall_s']:.4f} s")
    for name, unit in END_TO_END:
        print(f"   {w}.{name} = {result['metrics'][name]:.6g} {unit}")
    for kind, ms in result["kind_median_ms"].items():
        n = meta["request_counts"][kind]
        line = f"   kind {kind!r} x{n}: median {ms:.2f} ms"
        if kind in BASELINE_S:
            line += f" (earlier baseline {BASELINE_S[kind] * 1000:.0f} ms)"
        print(line)
    if result["layers"] is not None:
        for name, unit in tracing.per_layer_metric_units():
            print(f"   {w}.{name} = {result['layers'][name]:.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    units = tracing.per_layer_metric_units() if args.trace else list(END_TO_END)
    prefix = len(results) > 1
    metrics = {}
    for result in results:
        report(result)
        values = result["layers"] if args.trace else result["metrics"]
        for name, unit in units:
            key = f"{result['workload']}.{name}" if prefix else name
            metrics[key] = {"value": values[name], "unit": unit}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
