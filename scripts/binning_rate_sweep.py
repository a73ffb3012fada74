#!/usr/bin/env python3
"""Trace simulated binning performance across transmission rates.

Runs the random-binning simulator on an erasure joint for a grid of rates
and records the empirical decoding error and eavesdropper equivocation next
to the asymptotic references H(A|B) (reliability threshold) and
H(A|E) - rate (equivocation floor). Writes a CSV for plotting.
"""

import argparse
import csv
import sys

from secomp.binning import run_sw_binning
from secomp.erasure import ErasureParams, make_erasure_joint
from secomp.probability import entropy_of


def sweep(args: argparse.Namespace) -> list[dict]:
    """One CSV row per rate; raises ValueError for an out-of-range flag."""
    joint = make_erasure_joint(ErasureParams(args.pb, args.pe))
    h_a_b = entropy_of(joint, "A", "B")
    h_a_e = entropy_of(joint, "A", "E")
    print(f"H(A|B)={h_a_b:.4f} (reliability threshold), H(A|E)={h_a_e:.4f}")

    rows = []
    for rate in args.rates:
        report = run_sw_binning(joint, args.n, rate, args.trials, args.seed)
        rows.append(
            {
                "rate": rate,
                "p_e_hat": report.p_e_hat,
                "equiv_hat": report.equiv_hat,
                "equiv_stderr": report.equiv_stderr,
                "equiv_floor": max(h_a_e - rate, 0.0),
            }
        )
        print(
            f"rate={rate:.2f}  p_e={report.p_e_hat:.3f}  equiv={report.equiv_hat:.4f} "
            f"(floor {rows[-1]['equiv_floor']:.4f})"
        )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pb", type=float, default=0.5)
    parser.add_argument("--pe", type=float, default=0.8)
    parser.add_argument("--n", type=int, default=16)
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rates", type=float, nargs="+",
                        default=[0.4, 0.5, 0.55, 0.6, 0.65, 0.7, 0.8, 0.9, 1.0])
    parser.add_argument("-o", "--output", default="binning_rate_sweep.csv")
    args = parser.parse_args()
    try:
        rows = sweep(args)
    except ValueError as exc:
        parser.error(str(exc))

    with open(args.output, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
