#!/usr/bin/env python3
"""Planar spin-winding loops for four representative dissipative states.

The four (Gamma, gamma) points bracket the three analytic special points of
the n = 4 level: the zx-plane direction reverses across the first two
boundaries (gap-closing reversal and gapped reversal), the yx-plane
direction reverses only across the super-invariant point. One CSV per state
holds the sampled loop; directions are printed per state.
"""

import argparse
from pathlib import Path

from nhjc import (
    LevelIndex,
    ModelParams,
    coupling_scale,
    texture_closed_form,
    winding_report,
)
from nhjc.csvtext import csv_table
from nhjc.params import N_MAX

POINTS = ((0.01, 0.2), (0.03, 0.2), (0.06, 0.2), (0.06, 0.9))


def level_n(text: str) -> int:
    """--n: a level of the validity domain, 1 <= n <= N_MAX."""
    n = int(text)
    if not 1 <= n <= N_MAX:
        raise argparse.ArgumentTypeError(f"must be in [1, {N_MAX}], got {n}")
    return n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="data", help="output directory")
    parser.add_argument("--n", type=level_n, default=4)
    args = parser.parse_args()

    g_scale = coupling_scale(0.9, 1.0)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    level = LevelIndex(args.n, -1)
    for index, (Gamma, gamma) in enumerate(POINTS, start=1):
        params = ModelParams(omega=0.9, Omega=1.0, g=0.1 * g_scale, kappa=0.5,
                             gamma=gamma, Gamma=Gamma)
        tex = texture_closed_form(params, level)
        path = out_dir / f"winding_loop_{index}.csv"
        path.write_bytes(csv_table({"x": tex.grid, "sx": tex.sx, "sy": tex.sy, "sz": tex.sz}))
        reports = winding_report(params, level, ("zx", "yx"))
        turning = ", ".join(f"n_w^{plane} = {report['node_sum']:+d} "
                            f"({'counter-clockwise' if report['direction_rule'] > 0 else 'clockwise'})"
                            for plane, report in reports.items())
        print(f"state {index} (Gamma={Gamma}, gamma={gamma}): {turning} -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
