"""Command line interface.

    pwdyson scf <config.json> -o <archive-dir>
    pwdyson respond <config.json> [--strategy pbal] [--tau 1e-9] [-o <dir>]
    pwdyson compare <config.json> --strategies pbal,pgrt,pd10 [-o <dir>]
    pwdyson verify <config.json> [-o <dir>]

`compare` tabulates cost next to the true residual: grt and pgrt carry
the guarantee true residual <= tau, and bal/agr are heuristics that can
miss it.  Exit codes: 0 ok, 1 configuration error (an unknown config
key, say), 2 non-convergence, 3 invariant violation, 4 I/O or archive
problems.
"""

import argparse
import dataclasses
import json
import sys

from .archive import save_ground_state
from .config import load_config
from .errors import (
    ArchiveError,
    ConfigurationError,
    InvariantViolationError,
    NonConvergenceError,
)
from .harness import compare_strategies, ensure_ground_state, run_response, verify_suite

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONCONVERGENCE = 2
EXIT_INVARIANT = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pwdyson",
                                     description="Plane-wave Dyson response solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scf = sub.add_parser("scf", help="run the SCF and write a ground-state archive")
    p_scf.add_argument("config")
    p_scf.add_argument("-o", "--output", required=True, help="archive directory")

    p_resp = sub.add_parser("respond", help="solve the Dyson equation")
    p_resp.add_argument("config")
    p_resp.add_argument("--strategy", help="override the configured strategy name")
    p_resp.add_argument("--tau", type=float, help="override the outer tolerance")
    p_resp.add_argument("-m", "--restart", type=int, help="override the restart size")
    p_resp.add_argument("-o", "--output", help="directory for report.json/history.csv")

    p_cmp = sub.add_parser("compare", help="run several strategies and tabulate")
    p_cmp.add_argument("config")
    p_cmp.add_argument("--strategies", required=True,
                       help="comma-separated strategy names, e.g. pbal,pgrt,pd10")
    p_cmp.add_argument("--tau", type=float, help="override the outer tolerance")
    p_cmp.add_argument("-o", "--output", help="directory for compare.csv/json")

    p_ver = sub.add_parser("verify", help="run the executable-lemma check suite")
    p_ver.add_argument("config")
    p_ver.add_argument("-o", "--output", help="directory for verify.json")
    return parser


def _override_response(config, **updates):
    updates = {k: v for k, v in updates.items() if v is not None}
    if not updates:
        return config
    return dataclasses.replace(config, response=dataclasses.replace(config.response, **updates))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "scf":
            gs = ensure_ground_state(config, archive_path=args.output)
            save_ground_state(args.output, gs)
            print(f"archive written to {args.output} "
                  f"(n_b={gs.grids.n_b}, n_occ={gs.n_occ}, "
                  f"scf residual {gs.scf_residual:.3e})")
        elif args.command == "respond":
            config = _override_response(config, strategy=args.strategy, tau=args.tau,
                                        m=args.restart)
            out = args.output or config.output_dir
            metrics = run_response(config, out_dir=out)
            print(f"{metrics.strategy}: true residual {metrics.final_true_res:.3e} "
                  f"(estimated {metrics.final_est_res:.3e}) "
                  f"after {metrics.n_ham} Hamiltonian applications")
        elif args.command == "compare":
            config = _override_response(config, tau=args.tau)
            out = args.output or config.output_dir
            rows = compare_strategies(config, args.strategies.split(","), out_dir=out)
            print(f"{'strategy':>10} {'converged':>9} {'true_res':>12} {'n_ham':>10} "
                  f"{'eta_rel':>8}")
            for r in rows:
                print(f"{r['strategy']:>10} {str(r['converged']):>9} "
                      f"{r['final_true_res']:>12.3e} {r['n_ham']:>10d} {r['eta_rel']:>8.2f}")
        elif args.command == "verify":
            result = verify_suite(config, out_dir=args.output or config.output_dir)
            for check in result["checks"]:
                status = "pass" if check["passed"] else "FAIL"
                print(f"{status}  {check['name']:<28} margin {check['margin']:.3g}")
        return EXIT_OK
    except NonConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except InvariantViolationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ArchiveError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
