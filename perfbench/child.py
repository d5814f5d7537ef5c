"""One fresh benchmark process: set up, then optionally run one CLI call.

Invoked by ``run.py`` with one JSON argument::

    {"result": path, "n": N, "warm": [gamma, j], "argv": [...] or null,
     "trace": bool}

Set-up is what every CLI user pays: interpreter start, ``import pshchain``,
the parity build and one solve at the workload's N. It goes through the same
solver path the CLI uses, so the parity cache is warm when the call starts.
The readiness time is taken from ``time.monotonic`` (CLOCK_MONOTONIC, shared
by all processes), so the parent can subtract its own spawn time from it.
With ``argv`` the process then times ``pshchain.cli.main(argv)`` and the CPU
it and its reaped pool children used. The result goes to ``result`` as JSON;
the exit code is the CLI's.
"""

import json
import resource
import sys
import time


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    spec = json.loads(sys.argv[1])
    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)

    from pshchain.cli import main as cli_main
    from pshchain.epscan import AXIS_COUPLING, SweepGrid

    gamma, j = spec["warm"]
    grid = SweepGrid(axis=AXIS_COUPLING, fixed_value=gamma, points=(j, j + 0.01),
                     n=spec["n"])
    grid.solver()(j)
    out = {"ready": time.monotonic()}

    code = 0
    if spec["argv"] is not None:
        main_from = len(recorder.spans) if recorder else 0
        cpu0 = _cpu_s()
        start = time.perf_counter()
        code = cli_main(spec["argv"])
        wall = time.perf_counter() - start
        out.update(wall_s=wall, cpu_s=_cpu_s() - cpu0, exit=code)
        if recorder:
            out["layers"] = spans.layer_metrics(recorder.spans, main_from, wall, spec["n"])
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
