"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py ROOT REQUESTS.json RESPONSES.jsonl [--trace SPANS.tsv]

Imports ssrank.cli from ROOT/src, prints "ready" and waits for a line on
stdin, so the parent can time set-up from process start; any line but "go"
ends the process there (a set-up probe).  On "go" it sends
each request to ssrank.cli.main in-process with one request in flight,
capturing stdout and stderr in memory, and appends one JSON line per
response, followed by one calibration chunk (calibrate.py) outside the
timed interval.  The last line holds the pass summary: peak RSS and, with
--trace, the per-layer metrics.  Tracing wrappers exist only in this
process and are removed before it exits.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import calibrate


def _cpu() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main(argv: list[str]) -> int:
    root, requests_path, responses_path = argv[:3]
    spans_path = argv[4] if argv[3:4] == ["--trace"] else None
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import ssrank.cli

    if not os.path.abspath(ssrank.cli.__file__).startswith(src + os.sep):
        print(f"ssrank was imported from {ssrank.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    with open(requests_path, encoding="utf-8") as fh:
        requests = json.load(fh)
    tracer = None
    if spans_path is not None:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        with open(responses_path, "w", encoding="utf-8") as fh:
            for argv_i in requests:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    cpu0, t0 = _cpu(), time.perf_counter()
                    try:
                        code = ssrank.cli.main(argv_i)
                    except Exception:  # a crash is a failed request, not a failed run
                        code = "exception"
                        traceback.print_exc()
                    t1, cpu1 = time.perf_counter(), _cpu()
                fh.write(json.dumps({"code": code, "out": out.getvalue(), "err": err.getvalue(),
                                     "wall_s": t1 - t0, "cpu_s": cpu1 - cpu0,
                                     "chunk_s": calibrate.chunk()}) + "\n")
    finally:
        if tracer is not None:
            tracer.uninstall()
    summary = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        summary["layers"] = tracer.metrics()
        tracer.write_spans(spans_path)
    with open(responses_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
