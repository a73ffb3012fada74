#!/usr/bin/env python3
"""Sweep the erasure family and compare optimizer output with closed forms.

For a fixed eavesdropper erasure rate, walks Bob's erasure rate over a grid
and records, per point: the closed-form equivocation with and without encoder
side information, the optimizer's value for both switch settings, and its
``starts_agreeing`` diagnostic, the number of scored channels within
``ascent.TOL`` of the best (columns ``agree_none`` and ``agree_sb``). Writes
a CSV for plotting.

``closed_form_sb`` is ``erasure_delta`` with S_B closed: p_e, exact, for
p_b <= 1/2 (where the optimizer certifies the same value without a search)
and p_e h(p_b) above, a lower bound the optimizer matches.
"""

import argparse
import csv
import sys

from secomp.erasure import ErasureParams, erasure_delta, make_erasure_joint
from secomp.regions import OptimizerConfig, SwitchConfig, maximize_equivocation


def sweep(args: argparse.Namespace) -> list[dict]:
    """One CSV row per p_b; raises ValueError for an out-of-range flag."""
    none = SwitchConfig()
    sb = SwitchConfig.from_name("sb")
    cfg = OptimizerConfig(starts=args.starts, seed=args.seed)
    rows = []
    for k in range(args.steps):
        pb = k / (args.steps - 1) if args.steps > 1 else 0.0
        params = ErasureParams(pb, args.pe)
        joint = make_erasure_joint(params)
        res_none = maximize_equivocation(joint, none, cfg)
        res_sb = maximize_equivocation(joint, sb, cfg)
        rows.append(
            {
                "p_b": pb,
                "closed_form_none": erasure_delta(params, none),
                "optimizer_none": res_none.delta_star,
                "agree_none": res_none.starts_agreeing,
                "closed_form_sb": erasure_delta(params, sb),
                "optimizer_sb": res_sb.delta_star,
                "agree_sb": res_sb.starts_agreeing,
            }
        )
        print(
            f"p_b={pb:.2f}  none: closed={rows[-1]['closed_form_none']:.4f} "
            f"opt={res_none.delta_star:.4f}  encoder-SI: closed={rows[-1]['closed_form_sb']:.4f} "
            f"opt={res_sb.delta_star:.4f}"
        )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pe", type=float, default=0.5, help="eavesdropper erasure rate")
    parser.add_argument("--steps", type=int, default=11, help="grid points for Bob's rate")
    parser.add_argument("--starts", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-o", "--output", default="erasure_region_sweep.csv")
    args = parser.parse_args()
    if args.steps < 1:
        parser.error("--steps must be >= 1")
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
