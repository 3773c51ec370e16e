"""The four workloads.  Each one builds its fixed objects in ``setup`` (timed
as set-up), makes one pass of items from a seed in ``items`` (every pass
holds a fixed slice, checked against the digests recorded at the seed
version, and a seeded slice), and names its one ``nwtaut`` command.

nwtaut is reached only through module attributes (``nw.tau_of``, never a
``from`` import of a function), so the tracer's patches see every call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import reference as ref
from nwtaut import circuits as cc
from nwtaut import designs as dg
from nwtaut import formulas as fm
from nwtaut import frege as fr
from nwtaut import nwcore as nw
from nwtaut import proofsys as ps
from nwtaut import tasks as tk


@dataclass
class Checked:
    ok: bool
    digest: str
    proofs: tuple = ()       # proof objects the item produced
    proof_bits: int = 0      # their serialized size


@dataclass
class Item:
    label: str                       # also the reference key of fixed items
    run: Callable[[], object]        # the timed call into nwtaut
    check: Callable[[object], Checked]
    fixed: bool = False              # compared with the recorded digest


@dataclass
class CliRun:
    inputs: dict[str, str]           # files written before the timed command
    commands: list[list[str]]
    exit_codes: list[int]
    must_print: list[str] = field(default_factory=list)


def rng_for(name: str, seed, pass_no) -> random.Random:
    return random.Random(f"{name}/{seed}/{pass_no}")


def bits(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), f"0{n}b")


def round_trip(goal, proof) -> tuple:
    """The kernel's full treatment of one proof: check, serialize, parse."""
    text = fr.serialize_proof(proof)
    return proof, fr.check(fr.FREGE, goal, proof), text, fr.parse_proof(text)


def check_round_trip(out) -> Checked:
    proof, ok, text, back = out
    return Checked(ok and back == proof, ref.digest(text), (proof,), 8 * len(text.encode()))


class Workload:
    """Defaults for the hooks a workload may leave out."""

    name = ""

    def prepare(self) -> list[str]:
        """Benchmark-side references for the items (untimed); returns problems."""
        return []

    def final_checks(self, outcomes) -> list[str]:
        """Checks over every (item, Checked) of the run; returns problems."""
        return []


# ---------------------------------------------------------------------------


class TauSweep(Workload):
    """tau(NW)_b generation as `nwtaut gen-tau --verdict` drives it: one item
    is one b through tau_of, DIMACS output and the DPLL verdict."""

    name = "tau_sweep"
    TABLE = "01101011"
    Q4_PER_PASS = 8

    def setup(self) -> None:
        base3 = nw.builtin_base("tabular", 3, table=self.TABLE)
        self.spec3 = nw.GeneratorSpec(dg.poly_design(3, 2), base3)
        self.range3 = nw.full_range(self.spec3)  # the q=3 verdict reference
        self.spec4 = nw.GeneratorSpec(dg.poly_design(4, 2), nw.builtin_base("parity", 4))

    def prepare(self) -> list[str]:
        self.blocks4 = ref.poly_blocks(4, 2)
        self.range4 = ref.ParityRange(self.blocks4)
        rank = self.range4.rank()
        return [] if rank == 9 else [f"q=4 incidence rank {rank}, expected 9 of 16"]

    def _item(self, spec, b: str, tautology: bool, label: str, fixed: bool) -> Item:
        def run():
            tau = nw.tau_of(spec, b)
            return tau.clauses.to_dimacs(), nw.tau_verdict(tau)

        def check(out) -> Checked:
            text, verdict = out
            return Checked(verdict == tautology, ref.digest(text, verdict))

        return Item(label, run, check, fixed)

    def items(self, seed, pass_no) -> list[Item]:
        out = []
        for v in range(512):  # the acceptance sweep: 318 tautologies
            b = format(v, "09b")
            out.append(self._item(self.spec3, b, b not in self.range3, f"q3/{b}", True))
        rng = rng_for(self.name, seed, pass_no)
        for i in range(self.Q4_PER_PASS):
            # half in the range (b = G(x), satisfiable negation), half uniform
            b = ref.nw_output(self.blocks4, "parity", bits(rng, 16)) if i % 2 == 0 else bits(rng, 16)
            out.append(self._item(self.spec4, b, not self.range4.contains(b), f"q4/{b}", False))
        return out

    def cli(self) -> CliRun:
        b_values = [format(v, "09b") for v in range(0, 512, 8)]
        tautologies = sum(b not in self.range3 for b in b_values)
        return CliRun(
            {},
            [["gen-tau", "--q", "3", "--d", "2", "--base", "tabular", "--table", self.TABLE,
              "--b", ",".join(b_values), "--verdict", "--outdir", "taus"]],
            [0],
            [f"{tautologies}/{len(b_values)} tautologies"],
        )


# ---------------------------------------------------------------------------


class NwAudit(Workload):
    """The generator and the search tasks built on it: NW evaluations, Err and
    Pair audits of advice strings, and the design-suite verification."""

    name = "nw_audit"
    # seeded evaluations per pass; the toy-owp group is the largest, so the
    # median item lies inside it rather than on a boundary between groups
    EVAL_SPECS = [("toy-owp", 4, 2, 120), ("parity", 5, 2, 60), ("parity", 5, 3, 60)]
    AUDIT_BASES = ["toy-owp", "parity"]
    FIXED_EVALS = 10
    SUITE = [(q, d) for q in (2, 3, 4, 5, 7) for d in range(1, min(q, 4) + 1)]
    CLI_SEED = "1011001110001101"

    def setup(self) -> None:
        self.specs = {}
        for base, q, d, _ in self.EVAL_SPECS + [(b, 4, 2, 0) for b in self.AUDIT_BASES]:
            self.specs[base, q, d] = nw.GeneratorSpec(dg.poly_design(q, d), nw.builtin_base(base, q))
        self.triples = {b: nw.err_triple(self.specs[b, 4, 2]) for b in self.AUDIT_BASES}
        self.suite = [dg.poly_design(q, d) for q, d in self.SUITE]

    def prepare(self) -> list[str]:
        self.blocks = {(q, d): ref.poly_blocks(q, d) for _, q, d in self.specs}
        return []

    def _eval_item(self, base, q, d, x, fixed) -> Item:
        spec = self.specs[base, q, d]
        expected = ref.nw_output(self.blocks[q, d], base, x)

        def check(out) -> Checked:
            return Checked(out == expected, ref.digest(out))

        return Item(f"nw/{base}/q{q}d{d}/{x}", lambda: nw.nw_eval(spec, x), check, fixed)

    def _audit_item(self, base, seed, w, fixed) -> Item:
        spec, tri = self.specs[base, 4, 2], self.triples[base]
        table = ref.nw_output(self.blocks[4, 2], base, seed)
        i = ref.first_disagreement(table, ref.nw_output(self.blocks[4, 2], base, w))
        expected = None if i is None else format(i, f"0{tri.k}b")

        def run():
            L, wits = nw.ttable_from_seed(spec, seed)
            inst = tk.ErrInstance(tri, tri.k, L, seed, tuple(wits), w)
            return inst, tk.solve_err(inst), tk.solve_pair(tk.pair_from_err(inst))

        def check(out) -> Checked:
            inst, err, pair = out
            ok = inst.L == table and err == pair == expected and (w != seed or err is None)
            if ok and err is not None:
                ok = tk.verify_err(inst, err) is True
            return Checked(ok, ref.digest(inst.L, err, pair))

        return Item(f"audit/{base}/{seed}/{w}", run, check, fixed)

    def _design_item(self, params, d) -> Item:
        def check(report) -> Checked:
            # distinct polynomials of degree < d agree on at most d-1 points,
            # and some pair agrees on exactly d-1 when d <= q
            ok = report.ok and report.max_intersection == d - 1
            return Checked(ok, ref.digest(report.ok, report.detail, report.max_intersection))

        return Item(f"design/q{params.q}d{d}", lambda: dg.verify_design(params), check, True)

    def items(self, seed, pass_no) -> list[Item]:
        out = []
        fixed_rng = rng_for(self.name, "fixed", 0)
        rng = rng_for(self.name, seed, pass_no)
        for base, q, d, count in self.EVAL_SPECS:
            out += [self._eval_item(base, q, d, bits(fixed_rng, q * q), True)
                    for _ in range(self.FIXED_EVALS)]
            out += [self._eval_item(base, q, d, bits(rng, q * q), False) for _ in range(count)]
        for base in self.AUDIT_BASES:
            for r, fixed in ((fixed_rng, True), (rng, False)):
                seed_bits = bits(r, 16)
                out.append(self._audit_item(base, seed_bits, seed_bits, fixed))  # certified none
                out.append(self._audit_item(base, seed_bits, bits(r, 16), fixed))
        out += [self._design_item(p, d) for p, (_, d) in zip(self.suite, self.SUITE)]
        return out

    def cli(self) -> CliRun:
        s = self.CLI_SEED
        return CliRun(
            {},
            [["design", "--poly", "--q", "4", "--d", "2", "--out", "q4d2.design"],
             ["design", "--verify", "q4d2.design"],
             ["solve", "--task", "err", "--design", "q4d2.design", "--base", "toy-owp",
              "--seed", s, "--w", s, "--out", "err.txt"]],
            [0, 0, 3],
            ["verdict none"],
        )


# ---------------------------------------------------------------------------


class Kernel(Workload):
    """Many small proofs: D2 proofs of random sentences, the D1 and D3
    corpora, case-analysis proofs of small tautologies, each checked and
    round-tripped through text; plus the certified-none Cert sweep at k=14
    and the Find->Cert reduction at k=8."""

    name = "kernel"
    # the tautology batch of the unit tests, kept as a fixed slice
    TAUTOLOGIES = [
        "x1 | ~x1", "~x1 | x1", "~(x1 & x2) | (x2 & x1 | x3)", "~(x1 | x2) | (x2 | x1)",
        "~(x1 & (x2 | x3)) | (x1 & x2 | x1 & x3)", "~~x1 | ~x1", "1 | x1", "~(x1 & ~x1)",
    ]
    CLI_TAU = "~((x1 | x2) & (~x1 | x2)) | x2"  # resolution; a 222-line proof, ~20 ms to check
    # (fixed, seeded) counts per pass
    D2 = (40, 100)
    D1 = (20, 30)
    D3 = (20, 30)
    TAUT = (0, 12)

    def setup(self) -> None:
        b = cc.CircuitBuilder([("x", 14), ("y", 1)])
        D = b.build([b.opaque("taut", [b.inp("x", i + 1) for i in range(14)])])

        def taut_oracle(bits_):
            phi = fm.decode_k("".join(str(v) for v in bits_))
            return phi is not None and fm.is_tautology(phi, mode="auto")

        self.cert14 = tk.CertInstance(14, 2, D, oracles={"taut": taut_oracle})
        self.find8 = tk.FindInstance(fr.FREGE, fm.parse("x1 | ~x1"), 8, 2, 1)
        self.tautologies = [fm.parse(t) for t in self.TAUTOLOGIES]
        self.cli_proof = fr.serialize_proof(fr.prove_tautology(fm.parse(self.CLI_TAU)))

    def _d2_item(self, psi, label, fixed) -> Item:
        true = ref.evaluate(psi, {}) == 1

        def run():
            try:
                proof = fr.prove_true_sentence(psi)
            except fr.ProofError:
                return None  # false sentences must raise
            return round_trip(psi, proof)

        def check(out) -> Checked:
            if out is None:
                return Checked(not true, ref.digest("raised"))
            c = check_round_trip(out)
            c.ok = c.ok and true
            return c

        return Item(label, run, check, fixed)

    def _d1_item(self, rng, label, fixed) -> Item:
        name = rng.choice(sorted(fr.AXIOM_SCHEMES))
        sigma0 = {m: ref.rand_small_formula(rng) for m in (1, 2, 3)}
        instance = ref.substitute(fr.AXIOM_SCHEMES[name], sigma0)
        sigma = {v: ref.rand_small_formula(rng) for v in sorted(ref.variables(instance))}
        goal = ref.substitute(instance, sigma)

        def run():
            b = fr.ProofBuilder()
            base = b.proof(b.axiom(name, sigma0))
            return round_trip(goal, fr.subst_proof(base, sigma))

        def check(out) -> Checked:
            c = check_round_trip(out)
            c.ok = c.ok and ref.is_tautology(goal)
            return c

        return Item(label, run, check, fixed)

    def _d3_item(self, rng, label, fixed) -> Item:
        psi, eta = ref.rand_sentence(rng, 12), ref.rand_sentence(rng, 12)
        psi = psi if ref.evaluate(psi, {}) else ("not", psi)
        eta = eta if ref.evaluate(eta, {}) else ("not", eta)

        def run():
            pi1 = fr.prove_true_sentence(psi)
            pi2 = fr.prove_true_sentence(("or", ("not", psi), eta))
            return round_trip(eta, fr.mp(pi1, pi2))

        return Item(label, run, check_round_trip, fixed)

    def _taut_item(self, F, label, fixed) -> Item:
        return Item(label, lambda: round_trip(F, fr.prove_tautology(F)), check_round_trip, fixed)

    def _cert_item(self) -> Item:
        def check(sol) -> Checked:
            # the decider accepts exactly the tautology codes: no solution
            return Checked(sol is None, ref.digest(sol))

        return Item("cert/k14", lambda: tk.solve_cert(self.cert14), check, True)

    def _find_item(self) -> Item:
        def run():
            sol = tk.solve_cert(tk.reduce_find_to_cert(self.find8))
            beta = fm.decode_k(sol.code)
            return sol, tk.verify_find_candidate(self.find8, beta, "sound")

        def check(out) -> Checked:
            sol, verdict = out
            # at k=8 only the two constants have codes (token 1110/1111 then
            # END); the least code of a tautology is that of the constant 1
            ok = sol.kind == "tautology-rejected" and sol.code == "11110000" and verdict == "accepted"
            return Checked(ok, ref.digest(sol.kind, sol.code, verdict))

        return Item("find/k8", run, check, True)

    def items(self, seed, pass_no) -> list[Item]:
        out = []
        for fixed, rng in ((True, rng_for(self.name, "fixed", 0)),
                           (False, rng_for(self.name, seed, pass_no))):
            slot = 0 if fixed else 1
            tag = "fixed" if fixed else "seeded"
            for i in range(self.D2[slot]):
                out.append(self._d2_item(ref.rand_sentence(rng, 30), f"d2/{tag}/{i}", fixed))
            for i in range(self.D1[slot]):
                out.append(self._d1_item(rng, f"d1/{tag}/{i}", fixed))
            for i in range(self.D3[slot]):
                out.append(self._d3_item(rng, f"d3/{tag}/{i}", fixed))
            for i in range(self.TAUT[slot]):
                out.append(self._taut_item(ref.rand_tautology(rng, 6, 8, 2), f"taut/{tag}/{i}", fixed))
        out += [self._taut_item(F, f"taut/batch/{i}", True) for i, F in enumerate(self.tautologies)]
        out += [self._cert_item(), self._find_item()]
        return out

    def cli(self) -> CliRun:
        return CliRun(
            {"taut.proof": self.cli_proof},
            [["check-proof", "--tau", self.CLI_TAU, "--proof", "taut.proof"]],
            [0],
            ["ACCEPTED"],
        )


# ---------------------------------------------------------------------------


class Pipeline(Workload):
    """The advice -> P+alpha simulation: one item is one simulate run on a
    chain checker, followed by check_plus_alpha and serialization."""

    name = "pipeline"
    KS = range(8, 12)
    # seeded items share the corpus's widths, so the largest width pair is a
    # sixth of the items and the p90 item lies inside it
    Y_WIDTHS = range(1, 4)
    T_WIDTHS = range(1, 3)
    SEEDED_PER_PASS = 6
    CLI_WIDTHS = (11, 6, 4)
    MAX_EXPONENT = 4.0
    ONE = ("const", 1)

    @staticmethod
    def chain_checker(k: int, yw: int, tw: int):
        """Accepts iff x4 = 1 and every y and t bit is 1: among the codes
        that decode at k <= 11 (the two constants) it accepts only the
        constant 1."""
        b = cc.CircuitBuilder([("x", k), ("y", yw), ("t", tw)])
        out = b.inp("x", 4)
        for i in range(yw):
            out = b.AND(out, b.inp("y", i + 1))
        for i in range(tw):
            out = b.AND(out, b.inp("t", i + 1))
        return b.build([out])

    def setup(self) -> None:
        self.evaluators = {k: cc.universal_evaluator(k, trim=True) for k in self.KS}
        self.systems = {
            (k, yw, tw): ps.AdviceSystem(self.chain_checker(k, yw, tw), {k: "1" * tw}, c=2)
            for k in self.KS for yw in self.Y_WIDTHS for tw in self.T_WIDTHS
        }
        self.cli_checker = self.chain_checker(*self.CLI_WIDTHS)

    def _item(self, k, yw, tw, fixed) -> Item:
        QS, ev = self.systems[k, yw, tw], self.evaluators[k]

        def run():
            res = ps.simulate(QS, "1" * tw, self.ONE, "1" * yw, evaluator=ev)
            S = ps.PlusAlphaSystem(fr.FREGE, res.alpha.alpha)
            return res, ps.check_plus_alpha(S, self.ONE, res.proof), fr.serialize_proof(res.proof)

        def check(out) -> Checked:
            res, accepted, text = out
            bits_ = 8 * len(text.encode())
            ok = (accepted and res.tau == self.ONE and res.stage_bits["total"] == bits_
                  and set(res.stage_bits) == {"prov_d2", "sat_mp", "d4", "total"})
            stages = sorted(res.stage_bits.items())
            return Checked(ok, ref.digest(text, stages), (res.proof,), bits_)

        return Item(f"sim/{k}/{yw}/{tw}", run, check, fixed)

    def items(self, seed, pass_no) -> list[Item]:
        out = [self._item(k, yw, tw, True)  # the acceptance corpus
               for k in (8, 9, 10) for yw in (1, 2, 3) for tw in (1, 2)]
        rng = rng_for(self.name, seed, pass_no)
        combos = sorted(self.systems)
        out += [self._item(*rng.choice(combos), False) for _ in range(self.SEEDED_PER_PASS)]
        return out

    def cli(self) -> CliRun:
        _, yw, tw = self.CLI_WIDTHS
        return CliRun(
            {"q.circ": cc.serialize(self.cli_checker)},
            [["simulate", "--phi", "1", "--checker", "q.circ", "--w", "1" * tw, "--y", "1" * yw,
              "--out", "phi.proof"]],
            [0],
            ["P+alpha proof written"],
        )

    def final_checks(self, outcomes) -> list[str]:
        """Log-log least-squares fit of total proof size against input size
        k + |y| + |t| over every item of the run stays below MAX_EXPONENT."""
        pts = []
        for item, checked in outcomes:
            if checked is not None and checked.proof_bits:
                k, yw, tw = (int(t) for t in item.label.split("/")[1:])
                pts.append((math.log(k + yw + tw), math.log(checked.proof_bits)))
        if len({x for x, _ in pts}) < 2:
            return ["too few distinct input sizes for the size-growth fit"]
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        slope = sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)
        return [] if slope <= self.MAX_EXPONENT else [f"size-growth exponent {slope:.2f} > 4"]


WORKLOADS = {w.name: w for w in (TauSweep, NwAudit, Kernel, Pipeline)}
