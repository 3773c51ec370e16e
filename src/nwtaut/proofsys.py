"""Proof systems built over the Frege kernel.

Three layers:

* the P+alpha systems: a proof of tau is a kernel proof of a right-nested
  disjunction ~a'_1 | (... | (~a'_t | tau)) where every a'_i is a
  substitution instance of the axiom alpha obtained by substituting only
  constants and variables for variables (zero disjuncts = a plain kernel
  proof);

* advice systems Q: a two-clause checker — nonempty advice w of length at
  most k^c is fed with (x, y) to an explicit checking circuit, while empty
  advice falls back to "y is a serialized kernel proof of the formula coded
  by x";

* the soundness-statement builders SAT_k / Prov_k / alpha_k and the
  simulation pipeline turning an accepted Q-proof into a P+alpha_k proof
  (D2 on the provability sentence, modus ponens with an alpha_k instance,
  then the D4 extraction of the proved formula).

Variable numbering conventions are carried in explicit encoding records;
nothing is implicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import circuits as cc
from . import formulas as fm
from .formulas import Formula
from .frege import (
    FREGE,
    FregeSystem,
    Proof,
    ProofBuilder,
    ProofError,
    _serialize,
    check,
    discharge,
    parse_proof,
    prove_tautology,
    prove_true_sentence,
    serialize_proof,
    subst_proof,
)


def _at_most_power(n: int, k: int, c: int) -> bool:
    """n <= k^c, multiplied up with an early exit: a large c gives a power
    that does not fit in memory."""
    if c < 1 or k < 2:
        return n <= k**c  # at most 1, so cheap to form
    power = k
    for _ in range(c - 1):
        if power >= n:
            break
        power *= k
    return n <= power


@dataclass(frozen=True)
class PlusAlphaSystem:
    base: FregeSystem
    alpha: Formula


@dataclass(frozen=True)
class AdviceSystem:
    """Checker circuit over groups x (k bits), y, t plus an advice schedule
    w_k indexed by input length; checker=None gives the pure empty-advice
    system.  The y/t widths are whatever the checker declares (bounded by
    k^c, not forced to equal it)."""

    checker: cc.Circuit | None
    schedule: dict[int, str] = field(default_factory=dict)
    c: int = 2

    def widths(self) -> tuple[int, int, int]:
        if self.checker is None:
            raise ProofError("advice system has no explicit checker circuit")
        g = dict(self.checker.groups)
        if set(g) != {"x", "y", "t"}:
            raise ProofError(f"checker must have groups x, y, t; got {sorted(g)}")
        return g["x"], g["y"], g["t"]


# ---------------------------------------------------------------------------
# SAT_k

@dataclass(frozen=True)
class SatEncoding:
    """SAT_k(u, x, v) = CORRECT_E(u, x, v) -> out, with recorded numbering."""

    k: int
    formula: Formula
    correct: Formula
    conjuncts: tuple[Formula, ...]
    out_formula: Formula
    u_vars: tuple[int, ...]
    x_vars: tuple[int, ...]
    v_vars: tuple[int, ...]
    evaluator: cc.Circuit


def sat_formula(
    k: int,
    evaluator: cc.Circuit,
    u_vars: tuple[int, ...],
    x_vars: tuple[int, ...],
    v_vars: tuple[int, ...],
) -> SatEncoding:
    """Tseitin-style satisfaction formula from the universal evaluator, with
    u_vars and x_vars for its input groups and v_vars for its gates."""
    if evaluator.groups != (("u", k), ("x", k)):
        raise ProofError(f"evaluator must have groups u, x of width {k}")
    if len(evaluator.outputs) != 1:
        raise ProofError("evaluator must have a single output")
    cf = cc.circuit_to_formula(evaluator, u_vars + x_vars + v_vars)
    out = ("var", cf.out_vars[0])
    formula = fm.Implies(cf.correct, out)
    return SatEncoding(
        k, formula, cf.correct, cf.conjuncts, out, u_vars, x_vars, v_vars, evaluator
    )


def _const_map(vars_: tuple[int, ...], bits: str) -> dict[int, Formula]:
    if len(vars_) != len(bits):
        raise ProofError(f"expected {len(vars_)} bits, got {len(bits)}")
    return {v: ("const", int(b)) for v, b in zip(vars_, bits)}


def _u_independent(circ: cc.Circuit, u_width: int) -> bool:
    """True if no gate reads a u-wire (wires 0..u_width-1)."""
    return all(a >= u_width for g in circ.gates for a in cc.gate_operands(g))


def evaluator_run_bits(enc: SatEncoding, code: str) -> str:
    """Gate values of the evaluator on formula code ``code``; defined only
    when the computation does not depend on u (true whenever no variable
    formula fits in k code bits)."""
    if not _u_independent(enc.evaluator, enc.k):
        raise ProofError(
            "evaluator computation depends on the assignment bits u; "
            "no constant run exists at this width"
        )
    return cc.gate_bits(enc.evaluator, {"u": "0" * enc.k, "x": code})


# ---------------------------------------------------------------------------
# D4

def _prove_conjunction(b: ProofBuilder, conj_indices: list[int],
                       conjs: list[Formula]) -> int:
    """Fold proved conjuncts into the right-nested conjunction."""
    acc_idx = conj_indices[-1]
    acc_f = conjs[-1]
    for i in range(len(conjs) - 2, -1, -1):
        step = b.axiom("C3", {1: conjs[i], 2: acc_f})
        half = b.mp(conj_indices[i], step)
        acc_idx = b.mp(acc_idx, half)
        acc_f = ("and", conjs[i], acc_f)
    return acc_idx


def _prove_equiv_refl(b: ProofBuilder, conjunct: Formula) -> int:
    """Prove a conjunct of the shape equiv(theta, theta)."""
    if (
        conjunct[0] != "and"
        or conjunct[1] != conjunct[2]
        or conjunct[1][0] != "or"
        or conjunct[1][1][0] != "not"
        or conjunct[1][1][1] != conjunct[1][2]
    ):
        raise ProofError(
            "gate equivalence did not reduce to a reflexive instance; "
            "substitution map disagrees with the gate structure"
        )
    theta = conjunct[1][2]
    leg_f = ("or", ("not", theta), theta)
    i = b.axiom("ID", {1: theta})
    step = b.axiom("C3", {1: leg_f, 2: leg_f})
    half = b.mp(i, step)
    return b.mp(i, half)


def d4_from_sat(pi_sat: Proof, phi: Formula, enc: SatEncoding, code: str) -> Proof:
    """D4: from a proof of the satisfaction statement at x = code(phi),
    derive phi itself.

    Two shapes are handled.  With the computation variables v free, each v_g
    is substituted by the exact formula computed at gate g (code bits
    constant-folded), which turns every gate equivalence into a reflexive
    instance with a short schematic proof.  With v already filled by the
    constant run bits, the substituted CORRECT part is a true sentence and
    D2 applies.  In both cases a final case-analysis lemma bridges the
    out-gate formula to phi.  Hypothesis lines in the input are preserved
    (the simulation pipeline discharges them afterwards)."""
    xmap = _const_map(enc.x_vars, code)
    conclusion = pi_sat.conclusion
    free_shape = fm.substitute(enc.formula, xmap)

    b = ProofBuilder()
    if conclusion == free_shape:
        if pi_sat.hypotheses():
            raise ProofError(
                "free-v extraction substitutes into every line and would "
                "corrupt hypothesis lines; discharge them first"
            )
        # sigma_v: gate variable -> formula computed at that gate
        wf: dict[int, Formula] = {}
        for j in range(enc.k):
            wf[j] = ("var", enc.u_vars[j])
        for j in range(enc.k):
            wf[enc.k + j] = ("const", int(code[j]))
        gate_f = cc.gate_formulas(enc.evaluator, wf)
        sigma = {enc.v_vars[i]: gate_f[2 * enc.k + i] for i in range(len(enc.v_vars))}
        pi2 = subst_proof(pi_sat, sigma)
        imp_idx = b.append_proof(pi2)
        conjs = [fm.substitute(cj, {**xmap, **sigma}) for cj in enc.conjuncts]
        idxs = [_prove_equiv_refl(b, cj) for cj in conjs]
        corr_idx = _prove_conjunction(b, idxs, conjs)
        phi_prime_idx = b.mp(corr_idx, imp_idx)
        phi_prime = fm.substitute(enc.out_formula, sigma)
    else:
        run = evaluator_run_bits(enc, code)
        vmap = _const_map(enc.v_vars, run)
        sub = {**xmap, **vmap}
        if conclusion != fm.substitute(enc.formula, sub):
            raise ProofError("proof conclusion is not the satisfaction statement")
        correct_sentence = fm.substitute(enc.correct, sub)
        imp_idx = b.append_proof(pi_sat)
        corr_idx = b.append_proof(prove_true_sentence(correct_sentence))
        phi_prime_idx = b.mp(corr_idx, imp_idx)
        phi_prime = fm.substitute(enc.out_formula, sub)
    if phi_prime == phi:
        return b.proof(phi_prime_idx)
    bridge = prove_tautology(fm.Implies(phi_prime, phi))
    bridge_idx = b.append_proof(bridge)
    final = b.mp(phi_prime_idx, bridge_idx)
    return b.proof(final)


# ---------------------------------------------------------------------------
# P + alpha

def check_plus_alpha(S: PlusAlphaSystem, tau: Formula, pi: Proof) -> bool:
    """Def-shape acceptance: a kernel proof of a right-nested disjunction of
    negated alpha-instances ending in tau (possibly with no instances)."""
    lines = pi.lines
    if not lines or not check(S.base, lines[-1].formula, pi):
        return False

    C = lines[-1].formula
    while C != tau:
        if C[0] != "or" or C[1][0] != "not" or fm.match_instance(C[1][1], S.alpha) is None:
            return False
        C = C[2]
    return True


# ---------------------------------------------------------------------------
# advice systems

def check_advice(QS: AdviceSystem, x: str, y: str, w: str) -> bool:
    """The two-clause advice checker: nonempty w runs the explicit circuit,
    empty w asks whether y serializes a kernel proof of the formula coded
    by x.  False, never an exception, on malformed inputs."""
    k = len(x)
    if not x or x.strip("01"):
        return False
    if w:
        if QS.checker is None:
            return False
        try:
            xw, yw, tw = QS.widths()
        except ProofError:
            return False
        if k != xw or len(y) != yw or len(w) != tw:
            return False
        if (y + w).strip("01") or not _at_most_power(len(w), k, QS.c):
            return False
        return cc.eval_circuit(QS.checker, {"x": x, "y": y, "t": w}) == "1"
    phi = fm.decode_k(x)
    return phi is not None and _kernel_proof_within(QS, phi, k, y) is not None


def _kernel_proof_within(QS: AdviceSystem, phi: Formula, k: int, y: str) -> Proof | None:
    """The empty-advice clause for the formula phi of a k-bit code: the
    kernel proof of phi that y serializes in at most k^c bits, or None."""
    if not _at_most_power(8 * len(y.encode()), k, QS.c):
        return None
    try:
        proof = parse_proof(y)
        return proof if check(FREGE, phi, proof) else None
    except (ProofError, fm.ParseError, RecursionError):
        # the printer, substitute and tuple comparison still recurse once
        # per nesting level
        return None


@dataclass(frozen=True)
class ProvEncoding:
    """Prov_k(x, y, t, s) = CORRECT_Q(x, y, t, s) & out; satisfiable in s
    exactly on accepted (x, y, t)."""

    formula: Formula
    x_vars: tuple[int, ...]
    y_vars: tuple[int, ...]
    t_vars: tuple[int, ...]
    s_vars: tuple[int, ...]


def prov_formula(QS: AdviceSystem, k: int) -> ProvEncoding:
    """Numbering: x = 1..k, then y, s, t consecutively, so that baking the
    advice t in as constants leaves x, y, s numbered without a gap."""
    xw, yw, tw = QS.widths()
    if xw != k:
        raise ProofError(f"checker takes {xw}-bit codes, not {k}")
    if not _at_most_power(max(yw, tw), k, QS.c):
        raise ProofError(f"checker widths y={yw}, t={tw} exceed k^c = {k}^{QS.c}")
    if len(QS.checker.outputs) != 1:
        raise ProofError("checker must have a single output")
    n_s = len(QS.checker.gates)
    x_vars = tuple(range(1, k + 1))
    y_vars = tuple(range(k + 1, k + 1 + yw))
    s_vars = tuple(range(k + 1 + yw, k + 1 + yw + n_s))
    t_vars = tuple(range(k + 1 + yw + n_s, k + 1 + yw + n_s + tw))
    # input wires follow the checker's group order, whatever it is
    named = {"x": x_vars, "y": y_vars, "t": t_vars}
    cf = cc.circuit_to_formula(
        QS.checker, [v for n, _ in QS.checker.groups for v in named[n]] + list(s_vars)
    )
    formula = fm.And(cf.correct, ("var", cf.out_vars[0]))
    return ProvEncoding(formula, x_vars, y_vars, t_vars, s_vars)


@dataclass(frozen=True)
class AlphaEncoding:
    """alpha_k = Prov_k(x, y, w_k, s) -> SAT_k(z, x, v): Prov_k's numbering
    with the advice baked in as constants; the satisfaction side reads the
    shared x as its code slot and numbers its assignment slot z and its
    gates v after s."""

    alpha: Formula
    antecedent: Formula
    x_vars: tuple[int, ...]
    y_vars: tuple[int, ...]
    s_vars: tuple[int, ...]
    sat: SatEncoding


def alpha_k(
    QS: AdviceSystem,
    w_k: str,
    k: int,
    evaluator: cc.Circuit | None = None,
) -> AlphaEncoding:
    prov = prov_formula(QS, k)
    if len(w_k) != len(prov.t_vars):
        raise ProofError(
            f"advice has {len(w_k)} bits, checker expects {len(prov.t_vars)}"
        )
    if evaluator is None:
        evaluator = cc.universal_evaluator(k, trim=True)
    antecedent = fm.substitute(prov.formula, _const_map(prov.t_vars, w_k))
    z_start = k + len(prov.y_vars) + len(prov.s_vars) + 1
    v_start = z_start + k
    sat = sat_formula(
        k, evaluator, tuple(range(z_start, v_start)), prov.x_vars,
        tuple(range(v_start, v_start + len(evaluator.gates))),
    )
    alpha = fm.Implies(antecedent, sat.formula)
    return AlphaEncoding(alpha, antecedent, prov.x_vars, prov.y_vars, prov.s_vars, sat)


# ---------------------------------------------------------------------------
# the simulation pipeline

@dataclass(frozen=True)
class SimulateResult:
    proof: Proof
    tau: Formula
    alpha: AlphaEncoding | None
    stage_bits: dict[str, int]


def simulate(
    QS: AdviceSystem,
    w_k: str,
    phi: Formula,
    pi_Q: str,
    evaluator: cc.Circuit | None = None,
) -> SimulateResult:
    """Turn an accepted Q-proof of phi into a P+alpha_k proof of phi.

    Empty advice short-circuits: the Q-proof is itself a kernel proof of phi
    and is returned as a zero-disjunct P+alpha proof.  With nonempty advice
    the pipeline runs D2 on the (true) provability sentence, modus ponens
    against the alpha_k instance at x = code(phi), y = pi_Q, s = the checker
    run, v = the evaluator run, and finishes with the D4 extraction; the
    hypothesis instance is then discharged into the single negated disjunct.
    """
    if w_k == "":
        # phi's code is never built: a large variable index makes it huge
        proof = _kernel_proof_within(QS, phi, fm.code_width(phi), pi_Q)
        if proof is None:
            raise ProofError("advice checker rejects the given Q-proof")
        return SimulateResult(
            proof, phi, None, {"total": 8 * len(serialize_proof(proof).encode())}
        )

    k, _, _ = QS.widths()
    code = fm.encode_k(phi, k)
    if code is None:
        raise ProofError(f"formula does not fit a {k}-bit code")
    if not check_advice(QS, code, pi_Q, w_k):
        raise ProofError("advice checker rejects the given Q-proof")
    alpha = alpha_k(QS, w_k, k, evaluator)

    # D2 stage: the provability sentence at the accepting run is true
    e = cc.gate_bits(QS.checker, {"x": code, "y": pi_Q, "t": w_k})
    inst: dict[int, Formula] = {}
    inst.update(_const_map(alpha.x_vars, code))
    inst.update(_const_map(alpha.y_vars, pi_Q))
    inst.update(_const_map(alpha.s_vars, e))
    prov_sentence = fm.substitute(alpha.antecedent, inst)
    if fm.evaluate(prov_sentence, {}) != 1:
        raise ProofError("provability sentence is false (tampered proof?)")
    pi_prov = prove_true_sentence(prov_sentence)

    # the alpha_k instance: z stays variable, v gets the constant run
    run = evaluator_run_bits(alpha.sat, code)
    inst.update(_const_map(alpha.sat.v_vars, run))
    # one hash-keeping node, shared by every line of pi_sat, pi_phi and final
    # that contains it (see discharge)
    alpha_inst = fm.HashedFormula(fm.substitute(alpha.alpha, inst))

    b = ProofBuilder()
    hyp_idx = b.hyp(alpha_inst)
    prov_idx = b.append_proof(pi_prov)
    sat_idx = b.mp(prov_idx, hyp_idx)
    pi_sat = b.proof(sat_idx)

    pi_phi = d4_from_sat(pi_sat, phi, alpha.sat, code)
    final = discharge(pi_phi, alpha_inst)

    S = PlusAlphaSystem(FREGE, alpha.alpha)
    if not check_plus_alpha(S, phi, final):
        raise ProofError("internal error: pipeline output fails check_plus_alpha")
    # pi_sat replays pi_prov, d4 replays pi_sat and final wraps d4, so one
    # text memo prints all four (see the comment above fm._text); each stage
    # is sized by its text, which final keeps for the caller to write
    memo: dict[int, str] = {}
    return SimulateResult(
        final, phi, alpha,
        {
            stage: 8 * len(_serialize(proof, memo).encode())
            for stage, proof in (
                ("prov_d2", pi_prov), ("sat_mp", pi_sat), ("d4", pi_phi), ("total", final)
            )
        },
    )
