"""Command-line entry point.

Subcommands: design, gen-tau, check-proof, simulate, solve, reduce.  Each
command refuses an option that its mode (see MODES) does not read.  Every
command that writes files also writes a manifest (line-oriented key-value:
command, argv, parameter values, input/output hashes, wall clock) next to
its primary output; re-running the argv recorded in a manifest reproduces
the outputs byte for byte.  Writes are atomic (temp file + rename, the
temp file removed if either fails), and an empty --out is refused.

Solver exit codes: 0 = solution found, 3 = certified none (complete sweep),
4 = budget exhausted / unknown.  Other errors exit 2 with a message.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from . import circuits as cc
from . import designs as dg
from . import formulas as fm
from . import nwcore as nw
from . import tasks as tk
from .frege import FREGE, check, parse_proof, proof_size_bits, serialize_proof
from .proofsys import AdviceSystem, PlusAlphaSystem, check_plus_alpha, simulate

EXIT_SOLUTION = 0
EXIT_ERROR = 2
EXIT_NONE = 3
EXIT_UNKNOWN = 4

NAME_MAX = 255  # bytes in one file name on common file systems
#: largest m that gen-tau --sweep takes: 2^20 DIMACS files of some 8 KB are 8 GB
SWEEP_M_LIMIT = 20


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    fh = open(tmp, "w")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)  # a failed write or rename leaves no temp file
        raise


def _tau_file_name(b: str) -> str:
    """tau_<b>.cnf, or tau_sha256_<hex digest of b>.cnf when the temp file
    of the first would be named with more than NAME_MAX bytes (m >= 244);
    the DIMACS comment and the manifest's argv still give b."""
    name = f"tau_{b}.cnf"
    if len(f"{name}.tmp".encode()) > NAME_MAX:
        name = f"tau_sha256_{tk.sha256_hex(b)}.cnf"
    return name


def _write_manifest(
    out_path: str,
    command: str,
    argv: list[str],
    params: dict[str, str],
    inputs: dict[str, str],
    outputs: dict[str, str],
    started: float,
) -> None:
    lines = [
        "manifest",
        f"command {command}",
        f"version {__version__}",
        "argv " + " ".join(argv),
    ]
    for key in sorted(params):
        lines.append(f"param {key} {params[key]}")
    for name in sorted(inputs):
        lines.append(f"input {name} {tk.sha256_hex(inputs[name])}")
    for name in sorted(outputs):
        lines.append(f"output {name} {tk.sha256_hex(outputs[name])}")
    lines.append(f"wallclock {time.time() - started:.3f}")
    _atomic_write(out_path + ".manifest", "\n".join(lines) + "\n")


def _write_output(args, argv, t0: float, params: dict[str, str],
                  inputs: dict[str, str], text: str) -> None:
    """Write text to args.out atomically, and its manifest beside it."""
    _atomic_write(args.out, text)
    _write_manifest(args.out, args.command, argv, params, inputs,
                    {os.path.basename(args.out): text}, t0)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# subcommands

def cmd_design(args, argv) -> int:
    t0 = time.time()
    if args.verify is not None:
        params = dg.parse_design(_read(args.verify))
        if params.tag == "canonical" and not params.blocks:  # parse_design checked the header
            print(f"design n={params.n} m={params.m} l={params.l} d={params.d}: "
                  "header ok, no blocks to scan")
            return EXIT_SOLUTION
        report = dg.verify_design(params)
        print(
            f"design n={params.n} m={params.m} l={params.l} d={params.d}: "
            + ("ok" if report.ok else f"FAIL: {report.detail}")
            + (f" (max intersection {report.max_intersection})" if report.ok else "")
        )
        return EXIT_SOLUTION if report.ok else EXIT_ERROR
    if args.poly:
        params = dg.poly_design(args.q, args.d)
    else:
        params = dg.canonical_params(args.n, args.delta)
    # a canonical preset is verified only when it is materialized
    verifiable = params.m <= dg.SCAN_LIMIT and (params.tag == "poly" or params.blocks)
    report = dg.verify_design(params) if verifiable else None
    text = dg.serialize_design(params)
    print(f"n={params.n} m={params.m} l={params.l} d={params.d} tag={params.tag}")
    if report:
        print(f"verified: max pairwise intersection {report.max_intersection}")
    if args.out:
        _write_output(args, argv, t0, {"tag": params.tag}, {}, text)
    return EXIT_SOLUTION


def cmd_gen_tau(args, argv) -> int:
    t0 = time.time()
    if args.design is not None:
        design_text = _read(args.design)
        params = dg.parse_design(design_text)
    else:
        params = dg.poly_design(args.q, args.d)
        design_text = dg.serialize_design(params)
    spec = nw.GeneratorSpec(params, nw.builtin_base(args.base, params.l, table=args.table))
    if args.sweep:
        if params.m > SWEEP_M_LIMIT:
            raise ValueError(f"gen-tau: sweep over 2^{params.m} is out of reach")
        b_list = [format(v, f"0{params.m}b") for v in range(1 << params.m)]
    else:
        b_list = args.b.split(",")
    # translate every b before the first write, so a bad b leaves no files
    outputs: dict[str, str] = {}
    verdicts: list[bool] = []
    for b in b_list:
        tau = nw.tau_of(spec, b)
        outputs[_tau_file_name(b)] = tau.clauses.to_dimacs()
        if args.verdict:
            verdicts.append(nw.tau_verdict(tau))
    os.makedirs(args.outdir, exist_ok=True)
    for name, text in outputs.items():
        _atomic_write(os.path.join(args.outdir, name), text)
    for b, taut in zip(b_list, verdicts):
        print(f"b={b}: {'tautology (UNSAT negation)' if taut else 'falsifiable (SAT)'}")
    n_unsat = sum(verdicts)
    _write_manifest(
        os.path.join(args.outdir, "gen-tau"), "gen-tau", argv,
        {"base": args.base, "m": str(params.m)},
        {"design": design_text}, outputs, t0,
    )
    if args.verdict:
        print(f"{n_unsat}/{len(b_list)} tautologies")
    return EXIT_SOLUTION


def cmd_check_proof(args, argv) -> int:
    tau = fm.parse(args.tau)
    proof = parse_proof(_read(args.proof))
    if args.alpha is not None:
        ok = check_plus_alpha(PlusAlphaSystem(FREGE, fm.parse(args.alpha)), tau, proof)
        label = "P+alpha"
    else:
        ok = check(FREGE, tau, proof)
        label = "P"
    print(
        f"{label} proof of {fm.to_text(tau)}: "
        f"{'ACCEPTED' if ok else 'REJECTED'} "
        f"({len(proof.lines)} lines, {proof_size_bits(proof)} bits)"
    )
    return EXIT_SOLUTION if ok else EXIT_ERROR


def cmd_simulate(args, argv) -> int:
    t0 = time.time()
    phi = fm.parse(args.phi)
    if args.w is not None:
        if not args.w:
            raise ValueError("simulate: --w is empty; empty advice leaves --w out")
        checker_text = _read(args.checker)
        QS = AdviceSystem(cc.parse_circuit(checker_text), c=args.c)
        res = simulate(QS, args.w, phi, args.y)
        inputs = {"checker": checker_text}
    else:
        res = simulate(AdviceSystem(None, c=args.c), "", phi, _read(args.proof))
        inputs = {}
    for stage in sorted(res.stage_bits):
        print(f"stage {stage}: {res.stage_bits[stage]} bits")
    _write_output(args, argv, t0, {"phi": args.phi, "c": str(args.c)}, inputs,
                  serialize_proof(res.proof))
    print(f"P+alpha proof written ({len(res.proof.lines)} lines)")
    return EXIT_SOLUTION


def _solve_outcome(args, argv, t0, params, inputs, sol_lines: list[str], found: bool):
    text = "\n".join(sol_lines) + "\n"
    if args.out:
        _write_output(args, argv, t0, params, inputs, text)
    print(text, end="")
    return EXIT_SOLUTION if found else EXIT_NONE


def cmd_solve(args, argv) -> int:
    t0 = time.time()
    if args.task == "cert":
        circ_text = _read(args.circuit)
        inst = tk.CertInstance(args.k, args.c, cc.parse_circuit(circ_text))
        sol = tk.solve_cert(inst)
        lines = ["solution cert"]
        if sol:
            lines += [f"kind {sol.kind}", f"code {sol.code}"]
        else:
            lines.append("verdict none")
        return _solve_outcome(
            args, argv, t0, {"k": str(args.k), "c": str(args.c)},
            {"circuit": circ_text}, lines, sol is not None,
        )
    if args.task == "find-verify":
        inst = tk.FindInstance(
            FREGE, fm.parse(args.alpha), args.k, args.c0, args.c1
        )
        verdict = tk.verify_find_candidate(inst, fm.parse(args.beta), args.mode)
        print(f"candidate: {verdict}")
        return EXIT_SOLUTION if verdict == "accepted" else EXIT_NONE
    design_text = _read(args.design)
    params = dg.parse_design(design_text)
    spec = nw.GeneratorSpec(params, nw.builtin_base(args.base, params.l, table=args.table))
    triple = nw.err_triple(spec)
    k = triple.k
    L, wits = nw.ttable_from_seed(spec, args.seed)
    inst = tk.ErrInstance(triple, k, L, args.seed, tuple(wits), args.w)
    if args.task == "err":
        sol = tk.solve_err(inst)
    else:
        sol = tk.solve_pair(tk.pair_from_err(inst))
    lines = [f"solution {args.task}"]
    lines.append(f"index {sol}" if sol else "verdict none")
    return _solve_outcome(
        args, argv, t0, {"seed": args.seed, "w": args.w, "base": args.base},
        {"design": design_text}, lines, sol is not None,
    )


def cmd_reduce(args, argv) -> int:
    t0 = time.time()
    inst = tk.FindInstance(FREGE, fm.parse(args.alpha), args.k, args.c0, args.c1)
    cert = tk.reduce_find_to_cert(inst)
    env = tk.envelope_text(
        "cert",
        {
            "k": str(cert.k), "c": str(cert.c),
            "y-width": str(cert.y_width), "oracle": "plus-alpha-provability",
            "reduced-from": "find", "c0": str(args.c0), "c1": str(args.c1),
        },
        [("alpha", "alpha.txt", fm.to_text(inst.alpha))],
    )
    print(f"reduced: D over x ({cert.k} bits), y ({cert.y_width} bits), opaque oracle")
    if args.out:
        _write_output(args, argv, t0, {"k": str(args.k), "c0": str(args.c0), "c1": str(args.c1)},
                      {"alpha": fm.to_text(inst.alpha)}, env)
    return EXIT_SOLUTION


# ---------------------------------------------------------------------------

REQUIRED = object()  # an option that its mode cannot run without
_GEN_TAU = dict(base="parity", table=None, verdict=None, outdir=".")
_ERR = dict(task=REQUIRED, design=REQUIRED, seed=REQUIRED, w=REQUIRED, base="parity", table=None,
            out=None)
#: Each command's modes, by the phrase that names one in an error, and the
#: options (argparse dests) that a mode reads, with their defaults or REQUIRED.
MODES: dict[str, dict[str, dict[str, object]]] = {
    "design": {"with --verify": dict(verify=REQUIRED),
               "with --poly": dict(poly=REQUIRED, q=3, d=2, out=None),
               "with --canonical": dict(canonical=REQUIRED, n=27, delta="1/3", out=None)},
    "gen-tau": {"with --design and --b": dict(design=REQUIRED, b=REQUIRED, **_GEN_TAU),
                "with --design and --sweep": dict(design=REQUIRED, sweep=REQUIRED, **_GEN_TAU),
                "with --b": dict(q=3, d=2, b=REQUIRED, **_GEN_TAU),
                "with --sweep": dict(q=3, d=2, sweep=REQUIRED, **_GEN_TAU)},
    "check-proof": {"": dict(tau=REQUIRED, proof=REQUIRED, alpha=None)},
    "simulate": {"with advice": dict(phi=REQUIRED, checker=REQUIRED, w=REQUIRED, y=REQUIRED, c=2,
                                     out=REQUIRED),
                 "with empty advice": dict(phi=REQUIRED, proof=REQUIRED, c=2, out=REQUIRED)},
    "solve": {"with --task cert": dict(task=REQUIRED, k=8, c=1, circuit=REQUIRED, out=None),
              "with --task err": _ERR, "with --task pair": _ERR,
              "with --task find-verify": dict(task=REQUIRED, k=8, alpha=REQUIRED, beta=REQUIRED,
                                              c0=2, c1=1, mode="sound")},
    "reduce": {"": dict(alpha=REQUIRED, k=8, c0=2, c1=1, out=None)},
}


def _apply_mode(args) -> None:
    """Run args.command in the mode its --task names, or else the first that misses
    fewest REQUIRED options: refuse the other options given, and fill in defaults."""
    modes = MODES[args.command]
    task = f"with --task {getattr(args, 'task', None)}"
    missing = {label: [n for n, v in row.items() if v is REQUIRED and getattr(args, n) is None]
               for label, row in modes.items() if label == task or task not in modes}
    label = min(missing, key=lambda m: len(missing[m]))
    if missing[label]:
        ties = dict.fromkeys(", ".join("--" + n for n in m) for m in missing.values()
                             if len(m) == len(missing[label]))
        raise ValueError(f"{args.command}: missing {' or '.join(ties)}")
    unread = dict.fromkeys(n for row in modes.values() for n in row
                           if n not in modes[label] and getattr(args, n) is not None)
    if unread:
        raise ValueError(f"{args.command}: {', '.join('--' + n for n in unread)} not read {label}")
    if getattr(args, "out", None) == "":
        raise ValueError(f"{args.command}: --out is empty")
    for name, default in modes[label].items():
        if getattr(args, name) is None:
            setattr(args, name, default)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nwtaut", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="build or verify a combinatorial design")
    d.add_argument("--poly", action="store_const", const=True)
    d.add_argument("--canonical", action="store_const", const=True)
    d.add_argument("--verify", metavar="FILE")
    d.add_argument("--q", type=int)
    d.add_argument("--d", type=int)
    d.add_argument("--n", type=int)
    d.add_argument("--delta")
    d.add_argument("--out")
    d.set_defaults(func=cmd_design)

    g = sub.add_parser("gen-tau", help="generate tau(NW)_b DIMACS benchmarks")
    g.add_argument("--design", metavar="FILE")
    g.add_argument("--q", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--base", choices=["parity", "tabular", "toy-owp"])
    g.add_argument("--table")
    g.add_argument("--b", help="comma-separated output strings")
    g.add_argument("--sweep", action="store_const", const=True)
    g.add_argument("--verdict", action="store_const", const=True, help="also decide each b by DPLL")
    g.add_argument("--outdir")
    g.set_defaults(func=cmd_gen_tau)

    c = sub.add_parser("check-proof", help="check a kernel or P+alpha proof")
    c.add_argument("--tau", help="formula text")
    c.add_argument("--proof", metavar="FILE")
    c.add_argument("--alpha", help="axiom formula text (P+alpha mode)")
    c.set_defaults(func=cmd_check_proof)

    s = sub.add_parser("simulate", help="run the advice-to-P+alpha pipeline")
    s.add_argument("--phi", help="formula text")
    s.add_argument("--checker", metavar="FILE", help="advice checker circuit (with --w)")
    s.add_argument("--w", help="advice bits (none: empty advice)")
    s.add_argument("--y", help="Q-proof bits (with --w)")
    s.add_argument("--proof", metavar="FILE", help="kernel proof (empty advice)")
    s.add_argument("--c", type=int)
    s.add_argument("--out")
    s.set_defaults(func=cmd_simulate)

    v = sub.add_parser("solve", help="run a task solver")
    v.add_argument("--task", choices=["cert", "err", "pair", "find-verify"])
    v.add_argument("--k", type=int)
    v.add_argument("--c", type=int)
    v.add_argument("--circuit", metavar="FILE")
    v.add_argument("--design", metavar="FILE")
    v.add_argument("--base", choices=["parity", "tabular", "toy-owp"])
    v.add_argument("--table")
    v.add_argument("--seed", help="generator seed bits (err/pair)")
    v.add_argument("--w", help="advice bits (err/pair)")
    v.add_argument("--alpha", help="axiom formula text (find)")
    v.add_argument("--beta", help="candidate formula text (find)")
    v.add_argument("--c0", type=int)
    v.add_argument("--c1", type=int)
    v.add_argument("--mode", choices=["sound", "heuristic"])
    v.add_argument("--out")
    v.set_defaults(func=cmd_solve)

    r = sub.add_parser("reduce", help="reduce a Find instance to Cert")
    r.add_argument("--alpha", help="axiom formula text")
    r.add_argument("--k", type=int)
    r.add_argument("--c0", type=int)
    r.add_argument("--c1", type=int)
    r.add_argument("--out")
    r.set_defaults(func=cmd_reduce)
    return p


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    try:
        _apply_mode(args)
        return args.func(args, argv)
    except fm.BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    # deeply nested formulas exhaust the recursive printer, substitute and
    # tuple comparison
    except RecursionError:
        print("error: the input formula is nested too deeply", file=sys.stderr)
        return EXIT_ERROR
    # every error class of the package subclasses ValueError
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
