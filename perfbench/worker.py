"""One round of a benchmark run, in a fresh interpreter.

Reads a job (workload, requests, trace flag, span file) as JSON on stdin,
imports ``orbitrr`` from the checkout's ``src``, sets the workload up,
prints ``ready``, sends the requests one after another (a closed loop with
one client), then checks every answer outside the timed region and prints
one JSON result line.  Set-up and every request are timed together with
the machine-speed probes of ``speed.py``.  ``run.py`` starts one of these
per round.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def run_job(job: dict) -> dict:
    import speed

    # set-up is bracketed by probes, with ticks in between; the probes' own
    # time is reported so that it can be taken off the set-up time
    t0 = time.perf_counter()
    setup_probes = [speed.probe()]
    setup_probe_s = time.perf_counter() - t0
    sampler = speed.Sampler()
    sampler.arm()
    try:
        import orbitrr
        from tracing import Tracer
        from workloads import WORKLOADS

        workload = WORKLOADS[job["workload"]]
        requests = job["requests"]
        tracer = Tracer() if job.get("trace") else None
        if tracer:
            tracer.install()
            with tracer.root("setup"):
                ctx = workload.setup(orbitrr)
        else:
            ctx = workload.setup(orbitrr)
    finally:
        sampler.disarm()
    t1 = time.perf_counter()
    setup_probes += sampler.ticks + [speed.probe()]
    setup_probe_s += sampler.spent + time.perf_counter() - t1
    print("ready", flush=True)

    latencies, nominal, answers, errors = [], [], [], []
    before = setup_probes[-1]
    for i, req in enumerate(requests):
        answer = error = None
        t0 = time.perf_counter()
        sampler.arm()
        try:
            if tracer:
                with tracer.root("request", rid=i):
                    answer = workload.call(orbitrr, ctx, req)
            else:
                answer = workload.call(orbitrr, ctx, req)
        except Exception as exc:  # every request ends with an outcome
            error = "error:%s" % type(exc).__name__, str(exc)
        finally:
            sampler.disarm()
        latency = time.perf_counter() - t0 - sampler.spent
        after = speed.probe()
        latencies.append(latency)
        nominal.append(speed.nominal(latency, [before, after] + sampler.ticks))
        answers.append(answer)
        errors.append(error)
        before = after

    # the high-water mark of the requests, before the checks add their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    trace = None
    if tracer:
        tracer.uninstall()
        sums = tracer.request_self_sums()
        trace = {
            "summary": tracer.summary(),
            "self_within_latency": all(s <= lat + 1e-9 for lat, s in sums),
        }
        if job.get("span_file"):
            with open(job["span_file"], "w") as fh:
                json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)

    outcomes, failures = [], []
    for i, (req, answer, error) in enumerate(zip(requests, answers, errors)):
        if error is None:
            try:
                ok, detail = workload.check(orbitrr, ctx, req, answer)
                outcome = "correct" if ok else "wrong"
            except Exception as exc:
                outcome, detail = "error:%s" % type(exc).__name__, "in check: %s" % exc
        else:
            outcome, detail = error
        outcomes.append(outcome)
        if outcome != "correct":
            failures.append({"index": i, "request": req, "outcome": outcome, "detail": detail})

    return {
        "latencies": latencies,
        "nominal": nominal,
        "outcomes": outcomes,
        "failures": failures,
        "setup_probes": setup_probes,
        "setup_probe_s": setup_probe_s,
        "peak_rss_mb": peak_rss_mb,
        "trace": trace,
    }


def main() -> int:
    job = json.loads(sys.stdin.read())
    result = run_job(job)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
