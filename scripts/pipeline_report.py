#!/usr/bin/env python3
"""Run the simulation-pipeline corpus and report stage sizes.

For each (k, y-width, t-width) combination a one-gate-chain advice checker
is built, the constant-1 formula is proved through it, and the pipeline's
stage sizes (bits of the provability D2 proof, the modus-ponens step, the
extraction, and the final P+alpha proof) are tabulated.  A log-log least
squares fit of total size against input size is printed at the end; the
shipped corpus stays under exponent 4, and the script exits 1 when the fit
is above MAX_EXPONENT.
"""

import argparse
import math
import sys
import os

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from nwtaut import circuits as cc  # noqa: E402
from nwtaut import proofsys as ps  # noqa: E402

# the growth claim: total size grows at most like (input size)^4
MAX_EXPONENT = 4.0


def chain_checker(k: int, yw: int, tw: int) -> cc.Circuit:
    b = cc.CircuitBuilder([("x", k), ("y", yw), ("t", tw)])
    out = b.inp("x", 4)
    for i in range(yw):
        out = b.AND(out, b.inp("y", i + 1))
    for i in range(tw):
        out = b.AND(out, b.inp("t", i + 1))
    return b.build([out])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ks", default="8,9,10", help="comma-separated widths")
    ap.add_argument("--max-y", type=int, default=3)
    ap.add_argument("--max-t", type=int, default=2)
    args = ap.parse_args()

    header = f"{'k':>3} {'|y|':>4} {'|w|':>4} {'prov_d2':>9} {'sat_mp':>9} {'d4':>10} {'total':>10}"
    print(header)
    print("-" * len(header))
    points = []
    for k in (int(t) for t in args.ks.split(",")):
        for yw in range(1, args.max_y + 1):
            for tw in range(1, args.max_t + 1):
                QS = ps.AdviceSystem(chain_checker(k, yw, tw), {k: "1" * tw}, c=2)
                res = ps.simulate(QS, "1" * tw, ("const", 1), "1" * yw)
                st = res.stage_bits
                print(
                    f"{k:>3} {yw:>4} {tw:>4} {st['prov_d2']:>9} "
                    f"{st['sat_mp']:>9} {st['d4']:>10} {st['total']:>10}"
                )
                points.append((math.log(k + yw + tw), math.log(st["total"])))

    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    slope = sum((x - mx) * (y - my) for x, y in points) / sum(
        (x - mx) ** 2 for x, _ in points
    )
    print(f"\nfitted size exponent (log total vs log input size): {slope:.2f}")
    if slope > MAX_EXPONENT:
        print(f"size exponent {slope:.2f} exceeds {MAX_EXPONENT}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
