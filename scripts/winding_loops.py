#!/usr/bin/env python3
"""Planar spin-winding loops for the four winding states of the reference
configuration (nhjc.params.winding_states).

The four (Gamma, gamma) states bracket the three analytic special points of
the n = 4 level: the zx-plane direction reverses across the first two
boundaries (gapped reversal, then gap-closing reversal), the yx-plane
direction reverses only across the super-invariant point. One CSV per state
holds the sampled loop; directions are printed per state.
"""

import argparse
from pathlib import Path

from nhjc import (
    LevelIndex,
    texture_closed_form,
    winding_report,
)
from nhjc.csvtext import csv_table
from nhjc.params import WINDING_LEVEL, check_level, winding_states


def level_n(text: str) -> int:
    """--n: a level of the validity domain, 1 <= n <= N_MAX."""
    return check_level(int(text), low=1, name="", error=argparse.ArgumentTypeError)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="data", help="output directory")
    parser.add_argument("--n", type=level_n, default=WINDING_LEVEL.n)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    level = LevelIndex(args.n, -1)
    for index, params in enumerate(winding_states(), start=1):
        tex = texture_closed_form(params, level)
        path = out_dir / f"winding_loop_{index}.csv"
        path.write_bytes(csv_table({"x": tex.grid, "sx": tex.sx, "sy": tex.sy, "sz": tex.sz}))
        reports = winding_report(params, level, ("zx", "yx"))
        turning = ", ".join(f"n_w^{plane} = {report['node_sum']:+d} "
                            f"({'counter-clockwise' if report['direction_rule'] > 0 else 'clockwise'})"
                            for plane, report in reports.items())
        print(f"state {index} (Gamma={params.Gamma}, gamma={params.gamma}): {turning} -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
