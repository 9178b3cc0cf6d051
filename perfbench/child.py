"""One measured ``tancone`` run in a fresh interpreter.

Usage: child.py RESULT_JSON TRACE(0|1) [CLI ARGS...]

With no CLI arguments it only imports the package, which times set-up.
Otherwise it runs ``tancone.cli.main(CLI ARGS)`` once, with the layer
trace installed when TRACE is 1, and writes the timings, CPU and memory
of that call to RESULT_JSON.  A plain run also times every case
(``tancone.verify.verify_case``, looked up by name) and writes the
per-case wall and CPU times in call order, with the times of the speed
probe run before the sweep, before each case and after the sweep; when
that function no longer exists, the case lists are left out.  ``ready``
is a CLOCK_MONOTONIC reading, which run.py compares with the moment it started this process;
``setup_probe_s`` is the median of three probes run just after it.
"""

import json
import resource
import statistics
import sys
import time

import tancone.cli

ready = time.monotonic()


def cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def kernel_name():
    try:
        from tancone.kernel import kernel_name as name
    except ImportError:
        return None
    return name()


def main() -> int:
    result_path, traced, cli_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from layertrace import speed_probe

    setup_probe = statistics.median(speed_probe()[0] for _ in range(3))
    result = {"ready": ready, "setup_probe_s": setup_probe, "kernel": kernel_name()}
    if cli_args:
        tracer = timer = None
        if traced:
            from layertrace import Tracer

            tracer = Tracer()
            tracer.install()
        else:
            from layertrace import CaseTimer

            timer = CaseTimer()
            timer.install()
            timer.probe()
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        exit_code = tancone.cli.main(cli_args)
        sweep_s = time.perf_counter() - start
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        result.update(
            exit_code=exit_code,
            sweep_s=sweep_s,
            cpu_s=cpu_seconds(self1) - cpu_seconds(self0)
            + cpu_seconds(kids1) - cpu_seconds(kids0),
            # ru_maxrss is in KiB on Linux; for children it is the largest one
            peak_rss_mb=max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,
        )
        if tracer is not None:
            result["trace"] = tracer.snapshot()
        if timer is not None:
            timer.probe()
            result["probe_s"] = timer.probe_wall
            result["probe_cpu_s"] = timer.probe_cpu
            if timer.installed:
                result["case_s"] = timer.wall
                result["case_cpu_s"] = timer.cpu
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
