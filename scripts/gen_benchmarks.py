#!/usr/bin/env python3
"""Generate the standard benchmark bundle: designs plus DIMACS instances.

Writes, under --outdir:

* design files for the polynomial designs q in {2, 3, 4, 5, 7};
* the full 512-instance tau sweep for the q=3, d=2 design (parity base by
  default), with a verdict summary in sweep_summary.txt;
* for each tautology of the sweep, the solver's DRUP refutation of the
  negation as tau_<b>.drup (one lemma per line, DIMACS literals ending in 0,
  the form DRAT-trim reads), checked by cnf.check_rup against the written
  tau_<b>.cnf as cnf.parse_dimacs reads it back; its lemma count and total
  literals are added to that b's summary line.

Everything is produced through the library, so the output agrees byte for
byte with `nwtaut design` / `nwtaut gen-tau` runs of the same parameters.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from nwtaut import cnf  # noqa: E402
from nwtaut import designs as dg  # noqa: E402
from nwtaut import nwcore as nw  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="benchmarks")
    ap.add_argument("--base", default="parity", choices=list(nw.BASES))
    ap.add_argument("--table", help="truth table for the tabular base (8 bits)")
    ap.add_argument("--no-sweep", action="store_true",
                    help="skip the 512-instance tau sweep")
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)

    for q in (2, 3, 4, 5, 7):
        d = min(q, 3)
        params = dg.poly_design(q, d)
        path = os.path.join(args.outdir, f"poly_q{q}_d{d}.design")
        with open(path, "w") as fh:
            fh.write(dg.serialize_design(params))
        print(f"wrote {path} (n={params.n}, m={params.m}, l={params.l})")

    if args.no_sweep:
        return 0

    params = dg.poly_design(3, 2)
    base = nw.builtin_base(args.base, params.l, table=args.table)
    spec = nw.GeneratorSpec(params, base)
    taudir = os.path.join(args.outdir, "tau_sweep_q3_d2")
    os.makedirs(taudir, exist_ok=True)
    n_taut = 0
    summary = []
    for v in range(1 << params.m):
        b = format(v, f"0{params.m}b")
        tau = nw.tau_of(spec, b)
        cnf_path = os.path.join(taudir, f"tau_{b}.cnf")
        with open(cnf_path, "w") as fh:
            fh.write(tau.clauses.to_dimacs())
        lemmas: list[list[int]] = []
        if cnf.dpll_solve(tau.clauses, lemmas=lemmas) is not None:
            summary.append(f"{b} sat")
            continue
        # the refutation must refute the shipped file, not the clauses in memory
        with open(cnf_path) as fh:
            written = cnf.parse_dimacs(fh.read())
        if not cnf.check_rup(written, lemmas):
            print(f"error: the refutation of tau_{b} does not check", file=sys.stderr)
            return 1
        with open(os.path.join(taudir, f"tau_{b}.drup"), "w") as fh:
            fh.write("".join(" ".join(map(str, [*lemma, 0])) + "\n" for lemma in lemmas))
        n_taut += 1
        summary.append(f"{b} taut lemmas={len(lemmas)} literals={sum(map(len, lemmas))}")
    with open(os.path.join(args.outdir, "sweep_summary.txt"), "w") as fh:
        fh.write("\n".join(summary) + "\n")
    print(f"tau sweep: {n_taut}/{1 << params.m} tautologies under base={args.base}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
