"""Benchmark entry point: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload metal-compare --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's `src`; nothing is installed.  Each measurement is a fresh
single-threaded process (BLAS, OpenMP and FFT threads set to 1):

* the shipped toy-metal ground state is built once per program source,
  with the program's own SCF, into `.perfbench-cache/` before any timed
  run;
* SETUP_PROBES processes only set up (imports, configuration, ground
  state) and exit; with the workload process itself they give the
  set-up samples whose median is `setup_s`;
* the workload process repeats whole rounds until --seconds have passed
  (at least one round), then checks every output against the reference
  computations of `reference.py`.

With --trace 1 the single workload process runs with spans around the
program's public functions and the per-layer metrics are printed instead.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 4
RUN_TIMEOUT = 170
BUILD_TIMEOUT = 880
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("metal-compare", "chain-scf")


def source_key(src):
    """Hash of every file of the program package: the cache is per source."""
    digest = hashlib.sha256()
    pkg = os.path.join(src, "pwdyson")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def child_env(src):
    env = {k: v for k, v in os.environ.items() if k != "PWDYSON_NUM_THREADS"}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def worker(args, env, timeout):
    """Run worker.py to its end and return (launch time, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    launched = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args[:2])} exited with {proc.returncode}")
    return launched, json.loads(proc.stdout.strip().splitlines()[-1])


def _terminate(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the running worker
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pwdyson", "__init__.py")):
        sys.exit(f"no program source at {src}: run from the root of a checkout")
    env = child_env(src)
    cache_root = os.path.join(root, ".perfbench-cache")
    os.makedirs(cache_root, exist_ok=True)
    cache = os.path.join(cache_root, f"toy_metal-{source_key(src)}")
    common = ["--root", root, "--cache", cache]

    if not os.path.isdir(cache):
        t0 = time.monotonic()
        worker(["--mode", "build", *common], env, BUILD_TIMEOUT)
        print(f"built the toy-metal ground state in {time.monotonic() - t0:.1f} s",
              file=sys.stderr)

    wl = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            launched, out = worker(["--mode", "setup", *wl, *common], env, RUN_TIMEOUT)
            setups.append(out["ready"] - launched)
    launched, out = worker(["--mode", "run", *wl, "--seconds", str(args.seconds),
                            "--trace", str(args.trace), *common], env, RUN_TIMEOUT)
    setups.append(out["ready"] - launched)

    for check in out["checks"]:
        verdict = "pass" if check["passed"] else "FAIL" if check["gate"] else "over"
        print(f"{verdict}  {check['name']}: "
              f"{check['value']:.4g} (limit {check['limit']:.4g})", file=sys.stderr)
    for solve in out["solves"]:
        print(f"{solve['strategy']}: n_ham {solve['n_ham']}, estimate {solve['est']:.5g}, "
              f"final_true_res {solve['true']:.5g}, reference {solve['reference']:.5g}",
              file=sys.stderr)
    print(f"rounds {len(out['walls'])}: " + ", ".join(f"{w:.3f} s" for w in out["walls"])
          + "; set-up samples: " + ", ".join(f"{s:.3f} s" for s in setups), file=sys.stderr)

    if args.trace:
        if out["missing"]:
            print("missing from the program: " + ", ".join(out["missing"]), file=sys.stderr)
        trace_path = os.path.join(cache_root, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"wall_s": statistics.median(out["walls"]), "missing": out["missing"],
                       "spans": out["spans"]}, fh, indent=1)
        metrics = out["per_layer"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(out["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": out["rss_mb"], "unit": "MB"},
            "n_ham": {"value": statistics.median(out["n_ham"]), "unit": "count"},
        }
    print(json.dumps({"correct": all(c["passed"] for c in out["checks"] if c["gate"]),
                      "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
