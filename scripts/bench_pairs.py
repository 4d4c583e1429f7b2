"""Alternating benchmark pairs of two program sources, written to one JSON file.

    python3 scripts/bench_pairs.py --base HEAD~1 --change HEAD --pairs 10 \
        --workloads metal-compare,chain-scf --seconds 20 --out BENCH.json

Each side is a git revision, exported with `git archive` into --workdir
(so the repository gains no worktree), or the path of an existing
checkout, used as it is.  For every workload and pair i the script runs
`python3 perfbench/run.py --workload W --seed S --seconds T` once on each
side with the same seed S = --first-seed + i, base first on even pairs
and change first on odd ones, one process at a time.  The output holds
every run's JSON line and `n_ham` per solve, each side's median and
quartiles of every end-to-end metric, the per-pair change/base ratios
and the machine the runs were made on.  After the pairs, each side runs
one traced round (`--trace 1 --seconds 0`) per workload at --first-seed,
and `traces` holds its per-layer metrics.  Then `scripts/round_probe.py`
runs each workload once per side at --first-seed, and `probes` holds the
Dyson preconditioner's build share of a round and tracemalloc's array
peak of one round, with the peaks over the preconditioner's build and
over `build_perturbation` inside that round, next to that process's
ru_maxrss.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

SOLVE_LINE = re.compile(r"^(\w+): n_ham (\d+), estimate (\S+), final_true_res (\S+), "
                        r"reference (\S+)$")


def export(rev, workdir, name):
    """A directory holding the program at `rev`: the path itself, or a `git archive` of it."""
    if os.path.isdir(rev):
        return os.path.abspath(rev)
    target = os.path.join(workdir, name)
    os.makedirs(target, exist_ok=True)
    archive = subprocess.run(["git", "archive", rev], check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", target], input=archive, check=True)
    return target


def run_once(root, workload, seed, seconds, trace=0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} in {root} exited with {proc.returncode}")
    solves = [dict(zip(("strategy", "n_ham", "est", "true", "reference"), m.groups()))
              for m in map(SOLVE_LINE.match, proc.stderr.splitlines()) if m]
    for s in solves:
        s["n_ham"] = int(s["n_ham"])
        for key in ("est", "true", "reference"):
            s[key] = float(s[key])
    return {"started": started, "result": json.loads(proc.stdout.strip().splitlines()[-1]),
            "solves": solves,
            "checks_over": [line for line in proc.stderr.splitlines()
                            if line.startswith(("over", "FAIL"))]}


def probe(root, workload, seed):
    """`round_probe.py`'s JSON line for one workload on the checkout at `root`."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "round_probe.py")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    proc = subprocess.run([sys.executable, script, "--root", root, "--workload", workload,
                           "--seed", str(seed)], env=env, stdout=subprocess.PIPE, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarise(runs, workload):
    pairs = {}
    for r in runs:
        if r["workload"] == workload:
            pairs.setdefault(r["pair"], {})[r["side"]] = r
    complete = [p for _, p in sorted(pairs.items()) if len(p) == 2]
    out = {"pairs": len(complete),
           "correct": all(p[s]["result"]["correct"] for p in complete for s in p),
           "failed": sum(p[s]["result"]["failed"] for p in complete for s in p),
           "metrics": {}}
    for name in complete[0]["base"]["result"]["metrics"] if complete else ():
        values = {s: [p[s]["result"]["metrics"][name]["value"] for p in complete]
                  for s in ("base", "change")}
        ratios = [c / b if b else float("nan") for b, c in zip(values["base"], values["change"])]
        out["metrics"][name] = {
            "unit": complete[0]["base"]["result"]["metrics"][name]["unit"],
            "base": quartiles(values["base"]), "change": quartiles(values["change"]),
            "ratio_median": statistics.median(ratios),
            "change_lower_in": sum(c < b for b, c in zip(values["base"], values["change"])),
            "side_by_side": [{"seed": p["base"]["seed"], "base": b, "change": c}
                             for p, b, c in zip(complete, values["base"], values["change"])],
        }
    return out


def machine():
    info = {"platform": platform.platform(), "python": platform.python_version(),
            "cpus": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), None)
    except OSError:
        pass
    for mod in ("numpy", "scipy"):
        try:
            info[mod] = __import__(mod).__version__
        except ImportError:
            info[mod] = None
    return info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision or checkout directory")
    parser.add_argument("--change", required=True, help="git revision or checkout directory")
    parser.add_argument("--workloads", default="metal-compare,chain-scf")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=901)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workdir", help="where revisions are exported (default: a temp dir)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    workdir = args.workdir or tempfile.mkdtemp(prefix="bench-pairs-")
    roots = {"base": export(args.base, workdir, "base"),
             "change": export(args.change, workdir, "change")}
    workloads = args.workloads.split(",")
    runs = []
    for workload in workloads:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                run = run_once(roots[side], workload, seed, args.seconds)
                run.update(workload=workload, pair=i, seed=seed, side=side)
                runs.append(run)
                metrics = run["result"]["metrics"]
                print(f"{workload} pair {i} seed {seed} {side}: "
                      f"wall_s {metrics['wall_s']['value']:.3f}, "
                      f"n_ham {metrics['n_ham']['value']:.0f}, "
                      f"correct {run['result']['correct']}", file=sys.stderr)
    traces = {w: {side: run_once(roots[side], w, args.first_seed, 0, trace=1)
                  for side in ("base", "change")} for w in workloads}
    probes = {w: {side: probe(roots[side], w, args.first_seed)
                  for side in ("base", "change")} for w in workloads}
    report = {
        "sides": {"base": args.base, "change": args.change},
        "workloads": workloads, "pairs": args.pairs, "first_seed": args.first_seed,
        "seconds": args.seconds, "machine": machine(),
        "summary": {w: summarise(runs, w) for w in workloads},
        "runs": runs,
        "traces": traces,
        "probes": probes,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
