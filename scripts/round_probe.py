"""The Dyson preconditioner's share of a benchmark round, and the round's array peak.

    python3 scripts/round_probe.py --root CHECKOUT --workload metal-compare --seed 901

Runs rounds of a workload of CHECKOUT/perfbench/worker.py in this
process, on the program in CHECKOUT/src.  The first round warms up.
The next --rounds are timed, and so is every call of
`harness.dyson_preconditioner` inside them (0 where the program has
none).  One more round runs under tracemalloc alone, as tracing slows
allocation down; in it, the peak of the traced memory is also taken
over each call of the preconditioner's build and of
`harness.build_perturbation`, everything live at the time counted, so
either can be compared with the round's peak.  Prints one JSON line:
the round walls, the build's seconds per round and its share of the
round, tracemalloc's peak over that round, the largest peak over one
build and over one `build_perturbation` (0 where a round makes no such
call) and ru_maxrss after the round, all in MB.  Set the BLAS thread
variables to 1 before the run, as perfbench/run.py does.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout whose src/ and perfbench/ run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=901)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import worker
    from pwdyson import harness

    builds, peaks, round_peak = [], {}, [0]

    def watched(name, function):
        # times every call; under tracemalloc, also the traced peak over the call
        def call(*a, **kw):
            tracing = tracemalloc.is_tracing()
            if tracing:
                round_peak[0] = max(round_peak[0], tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
            t0 = time.perf_counter()
            try:
                return function(*a, **kw)
            finally:
                if name == "dyson_preconditioner":
                    builds.append(time.perf_counter() - t0)
                if tracing:
                    peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1])
        return call

    for name in ("dyson_preconditioner", "build_perturbation"):
        if hasattr(harness, name):
            setattr(harness, name, watched(name, getattr(harness, name)))

    scratch = tempfile.mkdtemp(prefix="round-probe-")
    try:
        make_configs, work = worker.WORKLOADS[args.workload]
        ctx = {"configs": make_configs(args.seed), "scratch": scratch}
        if args.workload == "metal-compare":
            ctx["gs"] = harness.ensure_ground_state(ctx["configs"][0], archive_path=None)
        work(ctx)
        walls, build_s = [], []
        for _ in range(args.rounds):
            builds.clear()
            t0 = time.perf_counter()
            work(ctx)
            walls.append(time.perf_counter() - t0)
            build_s.append(sum(builds))
        tracemalloc.start()
        work(ctx)
        peak = max(round_peak[0], tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    wall, built = statistics.median(walls), statistics.median(build_s)
    print(json.dumps({
        "walls": walls, "build_s": build_s, "wall_s": wall, "build_s_median": built,
        "build_share": built / wall, "tracemalloc_peak_mb": peak / 2**20,
        "build_peak_mb": peaks.get("dyson_preconditioner", 0) / 2**20,
        "perturbation_peak_mb": peaks.get("build_perturbation", 0) / 2**20,
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))


if __name__ == "__main__":
    main()
