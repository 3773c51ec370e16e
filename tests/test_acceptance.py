"""The acceptance gate: one test per shipped claim, at the stated scale.

Each test is a desk-scale exhibit with explicit tolerances (sweep sizes,
corpus sizes, wall-clock ceilings).  Randomized corpora are seeded, so the
gate is deterministic.
"""

import hashlib
import math
import random
import time
from pathlib import Path

import pytest

from nwtaut import circuits as cc
from nwtaut import cnf
from nwtaut import designs as dg
from nwtaut import formulas as fm
from nwtaut import frege as fr
from nwtaut import nwcore as nw
from nwtaut import proofsys as ps
from nwtaut import tasks as tk
from nwtaut.cli import EXIT_SOLUTION, main


def four_block_spec():
    design = dg.explicit_design([[1, 2], [2, 3], [1, 3], [1, 4]], 4, 2)
    return nw.GeneratorSpec(design, nw.builtin_base("parity", 2))


def eight_block_spec():
    blocks = [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6], [2, 3], [2, 4], [2, 5]]
    design = dg.explicit_design(blocks, 6, 2)
    return nw.GeneratorSpec(design, nw.builtin_base("parity", 2))


def chain_checker(k, yw, tw):
    """Accept iff x4 = 1 and every y and t bit is 1.  Among the codes that
    decode at k <= 10 (the two constants), x4 = 1 singles out the code of
    the constant 1, so the checker only ever accepts a tautology."""
    b = cc.CircuitBuilder([("x", k), ("y", yw), ("t", tw)])
    out = b.inp("x", 4)
    for i in range(yw):
        out = b.AND(out, b.inp("y", i + 1))
    for i in range(tw):
        out = b.AND(out, b.inp("t", i + 1))
    return b.build([out])


def rand_sentence(rng, budget):
    """A random variable-free formula with at most ``budget`` nodes."""
    if budget <= 1 or rng.random() < 0.25:
        return ("const", rng.randint(0, 1))
    op = rng.choice(["not", "and", "or"]) if budget >= 3 else "not"
    if op == "not":
        return ("not", rand_sentence(rng, budget - 1))
    left = rand_sentence(rng, (budget - 1) // 2)
    right = rand_sentence(rng, (budget - 1) // 2)
    return (op, left, right)


def nodes(f):
    return 1 + sum(nodes(g) for g in f[1:] if isinstance(g, tuple))


def rand_small_formula(rng, max_var=3, depth=2):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.3:
            return ("const", rng.randint(0, 1))
        return fm.Var(rng.randint(1, max_var))
    op = rng.choice(["not", "and", "or"])
    if op == "not":
        return ("not", rand_small_formula(rng, max_var, depth - 1))
    return (op, rand_small_formula(rng, max_var, depth - 1),
            rand_small_formula(rng, max_var, depth - 1))


# ---------------------------------------------------------------------------
# 1. design suite

def test_design_suite():
    t0 = time.monotonic()
    for q in (2, 3, 4, 5, 7):
        for d in range(1, min(q, 4) + 1):
            params = dg.poly_design(q, d)
            report = dg.verify_design(params)  # full pairwise scan
            assert report.ok, (q, d, report.detail)
            assert report.max_intersection <= d - 1
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# 2. tau-translation soundness sweep

# the q=3 tabular (table 01101011) sweep's DIMACS files in b order, also the
# files of the README's gen-tau --sweep example
TAU_SWEEP_512_SHA256 = "b207a8122b32bab84994197210532eac7d3f1334f63660ed16f40f69b3e45182"


def drup_text(lemmas: list[list[int]]) -> str:
    """A lemma log as scripts/gen_benchmarks.py writes it to tau_<b>.drup."""
    return "".join(" ".join(map(str, [*lemma, 0])) + "\n" for lemma in lemmas)


def test_tau_soundness_sweep_512():
    t0 = time.monotonic()
    params = dg.poly_design(3, 2)  # n = 9, m = 9
    base = nw.builtin_base("tabular", 3, table="01101011")
    spec = nw.GeneratorSpec(params, base)
    in_range = nw.full_range(spec)  # the 2^9-seed oracle
    least_seed: dict[str, str] = {}
    for v in range(512):
        x = format(v, "09b")
        least_seed.setdefault(nw.nw_eval(spec, x), x)
    dimacs = hashlib.sha256()
    for v in range(512):
        b = format(v, "09b")
        tau = nw.tau_of(spec, b)
        assert nw.tau_verdict(tau) == (b not in in_range), b
        if b in least_seed:
            # x comes first in the default decision order, so the lex-least
            # model projects to the least preimage seed
            model = cnf.dpll_solve(tau.clauses)
            assert "".join(str(model[v]) for v in range(1, params.n + 1)) == least_seed[b], b
        dimacs.update(tau.clauses.to_dimacs().encode())
    assert time.monotonic() - t0 < 120.0
    # the benchmark files themselves are pinned byte for byte
    assert dimacs.hexdigest() == TAU_SWEEP_512_SHA256


def test_parity_tau_dimacs_pinned_512():
    """The parity q=3 sweep's benchmark files, pinned byte for byte beside
    the tabular sweep's: parity checkers bring NOT-gate clause shapes.  The
    solver's work is pinned too: the refutations' counts and their lemma
    logs, which scripts/gen_benchmarks.py writes as the tau_<b>.drup files
    (concatenated in name order here)."""
    spec = nw.GeneratorSpec(dg.poly_design(3, 2), nw.builtin_base("parity", 3))
    dimacs, drup = hashlib.sha256(), hashlib.sha256()
    refutations = lemma_count = literals = 0
    for v in range(512):
        cs = nw.tau_of(spec, format(v, "09b")).clauses
        dimacs.update(cs.to_dimacs().encode())
        lemmas: list[list[int]] = []
        if cnf.dpll_solve(cs, lemmas=lemmas) is None:
            refutations += 1
            lemma_count += len(lemmas)
            literals += sum(map(len, lemmas))
            drup.update(drup_text(lemmas).encode())
    assert dimacs.hexdigest() == (
        "e386d097a819929208b3e928d0d412c3dcbdd8df966eecd4af0d3e17369927fd"
    )
    assert (refutations, lemma_count, literals) == (384, 6144, 22578)
    assert drup.hexdigest() == (
        "40b5f4ea0c30b047da6cb4d0330069eadbc158454832d05c24f086d2ea8a0e66"
    )


def test_tau_refutations_check_512():
    """Every tautology of the 512-b sweep comes with a DRUP refutation that
    check_rup accepts.  Unit propagation alone refutes none of them, a log
    cut before its final empty clause is no refutation, and the empty clause
    appended to the log of a satisfiable negation is not implied.  The 318
    refutations take 2,030 lemmas of 5,204 literals in all (4,542 lemmas
    before the output units were propagated at level 0), and their logs, as
    scripts/gen_benchmarks.py writes them, are pinned byte for byte."""
    spec = nw.GeneratorSpec(
        dg.poly_design(3, 2), nw.builtin_base("tabular", 3, table="01101011")
    )
    in_range = nw.full_range(spec)
    drup = hashlib.sha256()
    refutations = lemma_count = literals = 0
    for v in range(512):
        b = format(v, "09b")
        cs = nw.tau_of(spec, b).clauses
        lemmas: list[list[int]] = []
        model = cnf.dpll_solve(cs, lemmas=lemmas)
        assert (model is None) == (b not in in_range), b
        if model is None:
            assert lemmas[-1] == [] and cnf.check_rup(cs, lemmas), b
            assert not cnf.check_rup(cs, [[]]), b
            assert not cnf.check_rup(cs, lemmas[:-1]), b
            refutations += 1
            lemma_count += len(lemmas)
            literals += sum(map(len, lemmas))
            drup.update(drup_text(lemmas).encode())
        else:
            assert [] not in lemmas and not cnf.check_rup(cs, lemmas + [[]]), b
    assert (refutations, lemma_count, literals) == (318, 2030, 5204)
    assert drup.hexdigest() == (
        "f994ea82cd6b059b0984863efb09dd7b791bf96dde0af7a8edebeeead93c3ab0"
    )


def test_toy_owp_q4_verdicts_are_certified():
    """toy-owp at q = 4 (n = m = 16): two b in the range and two uniform b.
    A satisfiable negation is certified by the generator on its seed, an
    unsatisfiable one by check_rup.  Chronological backtracking took about
    50 s on each unsatisfiable b."""
    spec = nw.GeneratorSpec(dg.poly_design(4, 2), nw.builtin_base("toy-owp", 4))
    rng = random.Random(0)
    b_values = [nw.nw_eval(spec, format(rng.getrandbits(16), "016b")) for _ in range(2)]
    b_values += [format(rng.getrandbits(16), "016b") for _ in range(2)]
    refuted = 0
    for b in b_values:
        tau = nw.tau_of(spec, b)
        lemmas: list[list[int]] = []
        t0 = time.monotonic()
        model = cnf.dpll_solve(tau.clauses, lemmas=lemmas)
        assert time.monotonic() - t0 < 5.0, b
        if model is None:
            refuted += 1
            assert cnf.check_rup(tau.clauses, lemmas), b
        else:
            seed = "".join(str(model[v]) for v in range(1, spec.design.n + 1))
            assert nw.nw_eval(spec, seed) == b
    assert refuted == 2


# ---------------------------------------------------------------------------
# 3. parity linearity

def test_parity_linearity_three_designs():
    rng = random.Random(3)
    specs = [
        nw.GeneratorSpec(dg.poly_design(3, 2), nw.builtin_base("parity", 3)),
        nw.GeneratorSpec(dg.poly_design(5, 2), nw.builtin_base("parity", 5)),
        four_block_spec(),
    ]
    for spec in specs:
        n = spec.design.n
        for _ in range(10_000):
            a, b = rng.getrandbits(n), rng.getrandbits(n)
            x = format(a, f"0{n}b")
            y = format(b, f"0{n}b")
            z = format(a ^ b, f"0{n}b")
            gx, gy, gz = (nw.nw_eval(spec, s) for s in (x, y, z))
            assert int(gx, 2) ^ int(gy, 2) == int(gz, 2)


# ---------------------------------------------------------------------------
# 4. kernel closure

def test_kernel_d2_corpus():
    rng = random.Random(4)
    n_true = n_false = 0
    for _ in range(1000):
        psi = rand_sentence(rng, 30)
        assert nodes(psi) <= 30
        if fm.evaluate(psi, {}) == 1:
            n_true += 1
            proof = fr.prove_true_sentence(psi)
            assert fr.check(fr.FREGE, psi, proof)
        else:
            n_false += 1
            with pytest.raises(fr.ProofError):
                fr.prove_true_sentence(psi)
    # the corpus exercises both branches
    assert n_true > 100 and n_false > 100


def test_kernel_d1_d3_corpus():
    rng = random.Random(41)
    names = sorted(fr.AXIOM_SCHEMES)
    for _ in range(500):
        # D1: substitute formulas through a scheme-instance proof
        name = rng.choice(names)
        b = fr.ProofBuilder()
        sigma0 = {m: rand_small_formula(rng) for m in (1, 2, 3)}
        idx = b.axiom(name, sigma0)
        base = b.proof(idx)
        sigma = {v: rand_small_formula(rng) for v in fm.fvars(base.conclusion)}
        out = fr.subst_proof(base, sigma)
        assert fr.check(fr.FREGE, fm.substitute(base.conclusion, sigma), out)

        # D3: combine proofs of psi and psi -> eta
        psi = rand_sentence(rng, 12)
        if fm.evaluate(psi, {}) != 1:
            psi = ("not", psi)
        eta = rand_sentence(rng, 12)
        if fm.evaluate(eta, {}) != 1:
            eta = ("not", eta)
        pi1 = fr.prove_true_sentence(psi)
        pi2 = fr.prove_true_sentence(fm.Implies(psi, eta))
        out = fr.mp(pi1, pi2)
        assert fr.check(fr.FREGE, eta, out)


# ---------------------------------------------------------------------------
# 5. simulation pipeline corpus

def checker_corpus():
    """The 18 checker runs of the pipeline corpus, in corpus order: simulate
    on phi = 1 under chain_checker(k, yw, tw); yields (input bits, result)."""
    for k in (8, 9, 10):
        for yw in (1, 2, 3):
            for tw in (1, 2):
                QS = ps.AdviceSystem(chain_checker(k, yw, tw), {k: "1" * tw}, c=2)
                yield k + yw + tw, ps.simulate(QS, "1" * tw, ("const", 1), "1" * yw)


def test_pipeline_corpus_and_size_regression():
    results = []  # (input bits, stage sizes)
    proofs = hashlib.sha256()  # serialized pipeline outputs, in corpus order
    for bits, res in checker_corpus():
        phi = ("const", 1)
        S = ps.PlusAlphaSystem(fr.FREGE, res.alpha.alpha)
        assert ps.check_plus_alpha(S, phi, res.proof)
        assert set(res.stage_bits) == {"prov_d2", "sat_mp", "d4", "total"}
        results.append((bits, res.stage_bits))
        proofs.update(fr.serialize_proof(res.proof).encode())

    # empty-advice instances round out the corpus past 20
    for text in ("x1 | ~x1", "~x1 | x1"):
        phi = fm.parse(text)
        b = fr.ProofBuilder()
        name = "EM" if text.startswith("x1") else "ID"
        b.axiom(name, {1: fm.Var(1)})
        y = fr.serialize_proof(b.proof())
        res = ps.simulate(ps.AdviceSystem(None), "", phi, y)
        assert fr.check(fr.FREGE, phi, res.proof)
        results.append((len(y) * 8, res.stage_bits))
        proofs.update(fr.serialize_proof(res.proof).encode())
    assert len(results) >= 20
    assert proofs.hexdigest() == (
        "632a21ea3c86ef5d19b2569263f5d2b2f6880a4ffee33964383750055162120a"
    )

    # log-log regression over the checker corpus: growth stays polynomial
    pts = [(math.log(sz), math.log(st["total"])) for sz, st in results[:18]]
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    slope = sum((x - mx) * (y - my) for x, y in pts) / sum(
        (x - mx) ** 2 for x, _ in pts
    )
    assert slope <= 4.0, f"fitted size exponent {slope:.2f}"


def test_pipeline_stage_sizes_are_pinned():
    """simulate's four stage sizes over the checker corpus, in corpus order,
    have a fixed digest: the proof text pin above covers only the final
    stage, while prov_d2, sat_mp and d4 are each sized by their own text."""
    sizes = hashlib.sha256()
    for _, res in checker_corpus():
        st = res.stage_bits
        sizes.update(f"{st['prov_d2']} {st['sat_mp']} {st['d4']} {st['total']}\n".encode())
    assert sizes.hexdigest() == (
        "264eaf0f18cb3965bc07c98fff5d86f77ddb2b695fb2d87ffec727ab25b858f7"
    )


# ---------------------------------------------------------------------------
# 6. alpha_k tautology-hood

def test_alpha_k_is_tautology_brute():
    t0 = time.monotonic()
    QS = ps.AdviceSystem(chain_checker(8, 1, 1), {8: "1"}, c=2)
    enc = ps.alpha_k(QS, "1", 8)  # trimmed evaluator by default
    occurring = fm.fvars(enc.alpha)
    assert len(occurring) <= fm.BRUTE_VAR_LIMIT
    assert fm.is_tautology(enc.alpha, "brute")  # exhaustive over all atoms
    assert time.monotonic() - t0 < 300.0


# ---------------------------------------------------------------------------
# 7. partial-definability exhibits

def test_cert_taut_oracle_certified_none():
    b = cc.CircuitBuilder([("x", 8), ("y", 1)])
    out = b.opaque("taut", [b.inp("x", i + 1) for i in range(8)])
    D = b.build([out])

    def oracle(bits):
        phi = fm.decode_k("".join(str(v) for v in bits))
        return phi is not None and fm.is_tautology(phi, mode="auto")

    inst = tk.CertInstance(8, 2, D, oracles={"taut": oracle})
    # complete 2^8 sweep with exhaustive y enumeration: certified none
    assert tk.solve_cert(inst) is None


def test_err_true_seed_certified_none():
    spec = four_block_spec()
    tri = nw.err_triple(spec)
    for v in range(16):
        seed = format(v, "04b")
        L, wits = nw.ttable_from_seed(spec, seed)
        inst = tk.ErrInstance(tri, 2, L, seed, wits, seed)
        assert tk.solve_err(inst) is None


# ---------------------------------------------------------------------------
# 8. positive-solution exhibits

def test_cert_reject_all_positive_solution():
    b = cc.CircuitBuilder([("x", 8), ("y", 1)])
    D = b.build([b.AND(b.inp("y", 1), b.NOT(b.inp("y", 1)))])  # constant 0
    inst = tk.CertInstance(8, 2, D)
    sol = tk.solve_cert(inst)
    assert sol is not None and sol.kind == "tautology-rejected"
    assert fm.is_tautology(fm.decode_k(sol.code), mode="auto")
    assert tk.verify_cert(inst, sol) is True


def test_err_wrong_advice_positive_solution():
    spec = four_block_spec()
    tri = nw.err_triple(spec)
    L, wits = nw.ttable_from_seed(spec, "1010")
    inst = tk.ErrInstance(tri, 2, L, "1010", wits, "1101")
    x = tk.solve_err(inst)
    assert x is not None
    assert tk.verify_err(inst, x) is True
    # the solved index really is a disagreement of the two generator runs
    assert nw.nw_eval(spec, "1010")[int(x, 2)] != nw.nw_eval(spec, "1101")[int(x, 2)]


# ---------------------------------------------------------------------------
# 9. Find -> Cert end to end

def test_find_to_cert_end_to_end_sound():
    inst = tk.FindInstance(fr.FREGE, fm.parse("x1 | ~x1"), 8, 2, 1)
    cert = tk.reduce_find_to_cert(inst)
    sol = tk.solve_cert(cert)
    assert sol is not None and sol.kind == "tautology-rejected"
    beta = fm.decode_k(sol.code)
    assert tk.verify_find_candidate(inst, beta, "sound") == "accepted"

    # soundness sweep: the reduced decider accepts nothing at all, so no
    # falsifiable-accepted solution can exist
    oracle = cert.oracles["provable"]
    for v in range(256):
        code = format(v, "08b")
        phi = fm.decode_k(code)
        if phi is None or fm.is_tautology(phi, mode="auto"):
            continue
        xbits = [int(ch) for ch in code]
        for yv in range(256):
            ybits = [(yv >> (7 - j)) & 1 for j in range(8)]
            assert not oracle(tuple(xbits + ybits))


# ---------------------------------------------------------------------------
# 10. Pair / Err consistency

def test_pair_err_consistency_50_instances():
    rng = random.Random(10)
    specs = [four_block_spec(), eight_block_spec(),
             nw.GeneratorSpec(dg.poly_design(2, 1), nw.builtin_base("parity", 2))]
    checked = 0
    while checked < 50:
        spec = specs[checked % len(specs)]
        n = spec.design.n
        seed = format(rng.getrandbits(n), f"0{n}b")
        w = format(rng.getrandbits(n), f"0{n}b")
        tri = nw.err_triple(spec)
        L, wits = nw.ttable_from_seed(spec, seed)
        inst = tk.ErrInstance(tri, tri.k, L, seed, wits, w)
        err = tk.solve_err(inst)
        pair = tk.solve_pair(tk.pair_from_err(inst))
        assert err == pair, (seed, w)
        checked += 1


# ---------------------------------------------------------------------------
# 11. reproducibility

def run_twice_and_compare(tmp_path, name, argv_of):
    outs = []
    for tag in ("r1", "r2"):
        out = str(tmp_path / f"{name}.{tag}")
        assert main(argv_of(out)) == EXIT_SOLUTION
        hashes = [
            line.split()[1:]
            for line in Path(out + ".manifest").read_text().splitlines()
            if line.startswith(("input ", "output "))
        ]
        outs.append((Path(out).read_text(), [h[-1] for h in hashes]))
    (text1, h1), (text2, h2) = outs
    assert text1 == text2 and h1 == h2


def test_cli_manifest_reproducibility(tmp_path):
    run_twice_and_compare(
        tmp_path, "design",
        lambda out: ["design", "--poly", "--q", "3", "--d", "2", "--out", out],
    )
    run_twice_and_compare(
        tmp_path, "reduce",
        lambda out: ["reduce", "--alpha", "x1 | ~x1", "--out", out],
    )

    circ = str(tmp_path / "d.circ")
    b = cc.CircuitBuilder([("x", 8), ("y", 1)])
    with open(circ, "w") as fh:
        fh.write(cc.serialize(b.build([b.AND(b.inp("y", 1), b.NOT(b.inp("y", 1)))])))
    run_twice_and_compare(
        tmp_path, "solve",
        lambda out: ["solve", "--task", "cert", "--circuit", circ, "--out", out],
    )

    checker = str(tmp_path / "q.circ")
    with open(checker, "w") as fh:
        fh.write(cc.serialize(chain_checker(8, 1, 1)))
    run_twice_and_compare(
        tmp_path, "simulate",
        lambda out: ["simulate", "--phi", "1", "--checker", checker,
                     "--w", "1", "--y", "1", "--out", out],
    )

    # gen-tau writes a directory of benchmarks; compare the whole set
    import os

    sets = []
    for tag in ("r1", "r2"):
        outdir = str(tmp_path / f"taus.{tag}")
        rc = main(["gen-tau", "--q", "3", "--d", "2", "--b", "111111111",
                   "--outdir", outdir])
        assert rc == EXIT_SOLUTION
        sets.append({
            name: Path(os.path.join(outdir, name)).read_text()
            for name in os.listdir(outdir)
            if not name.endswith(".manifest")
        })
    assert sets[0] == sets[1]
