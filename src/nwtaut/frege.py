"""A decent Hilbert-style proof kernel for {~, |, &, 0, 1}.

Lines are axiom-scheme instances or modus ponens; ψ -> η abbreviates ~ψ | η
throughout, and modus ponens reads: from ψ and ~ψ | η infer η.  The basis is
a standard complete implication/conjunction/disjunction set extended with
constant axioms and convenience schemes for negated connectives (the basis
is ours to fix; any finite sound and complete set qualifies).  The schemes
live in AXIOM_SCHEMES, the kernel's one table, and use variables 1, 2, 3 as
metavariables.

The kernel supports the four proof manipulations of a decent system:
line-wise substitution into proofs, proofs of true sentences, combining
proofs by modus ponens, and (in proofsys) extraction of a formula from a
proof of its satisfaction encoding.  A deduction-theorem transformation and
a Kalmar-style complete prover are built on top; both are mechanical and
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import formulas as fm
from .formulas import Formula


# metavariables: x1 = p, x2 = q, x3 = r
AXIOM_SCHEMES: dict[str, Formula] = {
    "P1": fm.parse("~x1 | (~x2 | x1)"),                            # p -> (q -> p)
    "P2": fm.parse("~(~x1 | (~x2 | x3)) | (~(~x1 | x2) | (~x1 | x3))"),
    "P3": fm.parse("~(~~x1 | ~x2) | (~x2 | x1)"),                  # (~p->~q) -> (q->p)
    "C1": fm.parse("~(x1 & x2) | x1"),
    "C2": fm.parse("~(x1 & x2) | x2"),
    "C3": fm.parse("~x1 | (~x2 | x1 & x2)"),
    "D1": fm.parse("~x1 | (x1 | x2)"),
    "D2": fm.parse("~x2 | (x1 | x2)"),
    "D3": fm.parse("~(~x1 | x3) | (~(~x2 | x3) | (~(x1 | x2) | x3))"),
    "T1": fm.parse("1"),
    "F1": fm.parse("~0"),
    "N1": fm.parse("~~x1 | ~(x1 & x2)"),                           # ~p -> ~(p&q)
    "N2": fm.parse("~~x2 | ~(x1 & x2)"),
    "N3": fm.parse("~~x1 | (~~x2 | ~(x1 | x2))"),
    "N4": fm.parse("~x1 | ~~x1"),                                  # p -> ~~p
    "N5": fm.parse("~~~x1 | x1"),                                  # ~~p -> p
    "EM": fm.parse("x1 | ~x1"),
    "ID": fm.parse("~x1 | x1"),
}


class ProofError(ValueError):
    pass


# justifications: ("axiom", scheme_id, sigma) | ("mp", i, j) | ("hyp",)
@dataclass(frozen=True)
class Line:
    formula: Formula
    just: tuple


@dataclass(frozen=True)
class Proof:
    lines: tuple[Line, ...]

    @property
    def conclusion(self) -> Formula:
        if not self.lines:
            raise ProofError("empty proof")
        return self.lines[-1].formula

    def hypotheses(self) -> list[Formula]:
        return [ln.formula for ln in self.lines if ln.just[0] == "hyp"]

    def __len__(self) -> int:
        return len(self.lines)


@dataclass(frozen=True)
class FregeSystem:
    """The fixed kernel: the schemes of AXIOM_SCHEMES plus modus ponens.

    FREGE is its one instance; the checkers take it as the proof system P
    of the paper, while the proof builders always build kernel proofs."""

    def line_valid(self, lines: tuple[Line, ...], i: int, allow_hyp: bool = False) -> bool:
        f, just = lines[i].formula, lines[i].just
        kind = just[0]
        if kind == "axiom":
            _, name, sigma = just
            pattern = AXIOM_SCHEMES.get(name)
            return pattern is not None and fm.substitute(pattern, sigma) == f
        if kind == "mp":
            _, a, b = just
            if not (0 <= a < i and 0 <= b < i):
                return False
            return lines[b].formula == ("or", ("not", lines[a].formula), f)
        if kind == "hyp":
            return allow_hyp
        return False


FREGE = FregeSystem()


def check(P: FregeSystem, tau: Formula, proof: Proof) -> bool:
    """True iff every line is justified (no hypotheses) and the conclusion
    is tau."""
    lines = proof.lines
    if not lines:
        return False
    for i in range(len(lines)):
        if not P.line_valid(lines, i):
            return False
    return lines[-1].formula == tau


def check_derivation(P: FregeSystem, proof: Proof) -> bool:
    """Like check but hypothesis lines are allowed (internal use)."""
    lines = proof.lines
    return bool(lines) and all(
        P.line_valid(lines, i, allow_hyp=True) for i in range(len(lines))
    )


# ---------------------------------------------------------------------------
# proof construction

class ProofBuilder:
    """Accumulates lines with formula-level deduplication."""

    def __init__(self):
        self.lines: list[Line] = []
        self._index: dict[Formula, int] = {}

    def _push(self, line: Line) -> int:
        prev = self._index.get(line.formula)
        if prev is not None:
            return prev
        self.lines.append(line)
        idx = len(self.lines) - 1
        self._index[line.formula] = idx
        return idx

    def axiom(self, name: str, sigma: dict[int, Formula]) -> int:
        pattern = AXIOM_SCHEMES.get(name)
        if pattern is None:
            raise ProofError(f"unknown axiom scheme {name!r}")
        f = fm.substitute(pattern, sigma)
        return self._push(Line(f, ("axiom", name, dict(sigma))))

    def hyp(self, f: Formula) -> int:
        return self._push(Line(f, ("hyp",)))

    def mp(self, i: int, j: int) -> int:
        impl = self.lines[j].formula
        if impl[0] != "or" or impl[1] != ("not", self.lines[i].formula):
            raise ProofError(
                f"line {j} is not an implication with antecedent of line {i}"
            )
        return self._push(Line(impl[2], ("mp", i, j)))

    def imply(self, i: int, name: str, sigma: dict[int, Formula]) -> int:
        """Axiom instance expected to be (~f_i | g); MP through it."""
        return self.mp(i, self.axiom(name, sigma))

    def append_proof(self, proof: Proof) -> int:
        """Replay an existing proof; returns the index of its conclusion."""
        placed: list[int] = []  # where each replayed line landed after dedup
        for ln in proof.lines:
            just = ln.just
            if just[0] == "mp":
                if not all(0 <= p < len(placed) for p in just[1:]):
                    raise ProofError("append_proof: dangling modus ponens premise")
                just = ("mp", placed[just[1]], placed[just[2]])
            placed.append(self._push(Line(ln.formula, just)))
        return placed[-1] if placed else -1

    def proof(self, conclusion_index: int | None = None) -> Proof:
        if conclusion_index is not None and conclusion_index != len(self.lines) - 1:
            # conclusion must be the last line; replay a tail copy if dedup
            # left it earlier
            self.lines.append(self.lines[conclusion_index])
        return Proof(tuple(self.lines))


def subst_proof(proof: Proof, sigma: dict[int, Formula]) -> Proof:
    """D1 (generalized): line-wise substitution of formulas for variables.

    Frege proofs are closed under it; the constants-only case is the decency
    condition proper."""
    if not check_derivation(FREGE, proof):
        raise ProofError("input proof does not check")
    out: list[Line] = []
    for ln in proof.lines:
        f = fm.substitute(ln.formula, sigma)
        if ln.just[0] == "axiom":
            _, name, s = ln.just
            s2 = {m: fm.substitute(t, sigma) for m, t in s.items()}
            out.append(Line(f, ("axiom", name, s2)))
        else:
            out.append(Line(f, ln.just))
    return Proof(tuple(out))


def _value_index(b: ProofBuilder, theta: Formula, assignment: dict[int, int]) -> int:
    """Index of a line proving theta (if it evaluates true) or ~theta,
    with hypothesis lines for assigned variables."""
    tag = theta[0]
    if tag == "const":
        return b.axiom("T1", {}) if theta[1] else b.axiom("F1", {})
    if tag == "var":
        v = theta[1]
        if v not in assignment:
            raise ProofError(f"variable x{v} unassigned in value lemma")
        lit = theta if assignment[v] else ("not", theta)
        return b.hyp(lit)
    if tag == "not":
        phi = theta[1]
        sub = _value_index(b, phi, assignment)
        if fm.evaluate(phi, assignment) == 0:
            return sub  # sub proves ~phi == theta
        return b.imply(sub, "N4", {1: phi})  # phi -> ~~phi, proving ~theta
    phi, eta = theta[1], theta[2]
    vp = fm.evaluate(phi, assignment)
    ve = fm.evaluate(eta, assignment)
    if tag == "and":
        if vp and ve:
            i = _value_index(b, phi, assignment)
            j = _value_index(b, eta, assignment)
            step = b.imply(i, "C3", {1: phi, 2: eta})
            return b.mp(j, step)
        if not vp:
            i = _value_index(b, phi, assignment)  # proves ~phi
            return b.imply(i, "N1", {1: phi, 2: eta})
        i = _value_index(b, eta, assignment)
        return b.imply(i, "N2", {1: phi, 2: eta})
    # or
    if vp:
        i = _value_index(b, phi, assignment)
        return b.imply(i, "D1", {1: phi, 2: eta})
    if ve:
        i = _value_index(b, eta, assignment)
        return b.imply(i, "D2", {1: phi, 2: eta})
    i = _value_index(b, phi, assignment)
    j = _value_index(b, eta, assignment)
    step = b.imply(i, "N3", {1: phi, 2: eta})
    return b.mp(j, step)


def prove_true_sentence(psi: Formula) -> Proof:
    """D2: a kernel proof of a true variable-free sentence."""
    if fm.fvars(psi):
        raise ProofError("sentence has variables")
    if fm.evaluate(psi, {}) != 1:
        raise ProofError("sentence is false")
    b = ProofBuilder()
    idx = _value_index(b, psi, {})
    return b.proof(idx)


def mp(pi1: Proof, pi2: Proof) -> Proof:
    """D3: from proofs of psi and psi -> eta, a proof of eta."""
    if not check_derivation(FREGE, pi1) or not check_derivation(FREGE, pi2):
        raise ProofError("input proof does not check")
    impl = pi2.conclusion
    if impl[0] != "or" or impl[1] != ("not", pi1.conclusion):
        raise ProofError("conclusion shapes do not match for modus ponens")
    b = ProofBuilder()
    i = b.append_proof(pi1)
    j = b.append_proof(pi2)
    idx = b.mp(i, j)
    return b.proof(idx)


def discharge(proof: Proof, hypothesis: Formula) -> Proof:
    """Deduction-theorem transformation: remove one hypothesis H, turning a
    derivation of phi from hypotheses into one of H -> phi."""
    b = ProofBuilder()
    mapped: dict[int, int] = {}  # old line -> line proving H -> f
    H = hypothesis
    for i, ln in enumerate(proof.lines):
        f, just = ln.formula, ln.just
        kind = just[0]
        if kind == "hyp" and f == H:
            mapped[i] = b.axiom("ID", {1: H})
        elif kind in ("axiom", "hyp"):
            base = b.axiom(just[1], just[2]) if kind == "axiom" else b.hyp(f)
            mapped[i] = b.imply(base, "P1", {1: f, 2: H})
        else:
            _, a, c = just
            fa = proof.lines[a].formula
            step = b.axiom("P2", {1: H, 2: fa, 3: f})
            step2 = b.mp(mapped[c], step)
            mapped[i] = b.mp(mapped[a], step2)
    return b.proof(mapped[len(proof.lines) - 1])


# each variable multiplies proof size by ~6 (two branches, each discharged)
KALMAR_VAR_LIMIT = 8


def _prove_under(F: Formula, vars_left: list[int], assignment: dict[int, int]) -> Proof:
    if not vars_left:
        b = ProofBuilder()
        idx = _value_index(b, F, assignment)
        if fm.evaluate(F, assignment) != 1:
            raise ProofError("formula is falsified; not a tautology")
        return b.proof(idx)
    z = vars_left[0]
    rest = vars_left[1:]
    zvar: Formula = ("var", z)
    p1 = _prove_under(F, rest, {**assignment, z: 1})
    d1 = discharge(p1, zvar)  # z -> F
    p0 = _prove_under(F, rest, {**assignment, z: 0})
    d0 = discharge(p0, ("not", zvar))  # ~z -> F
    b = ProofBuilder()
    i1 = b.append_proof(d1)
    i0 = b.append_proof(d0)
    em = b.axiom("EM", {1: zvar})  # z | ~z
    cases = b.axiom("D3", {1: zvar, 2: ("not", zvar), 3: F})
    s1 = b.mp(i1, cases)
    s2 = b.mp(i0, s1)
    idx = b.mp(em, s2)
    return b.proof(idx)


def prove_tautology(F: Formula) -> Proof:
    """A kernel proof of any tautology, by case analysis over its variables
    (exponential in the variable count; desk scale only)."""
    vs = sorted(fm.fvars(F))
    if len(vs) > KALMAR_VAR_LIMIT:
        raise fm.BudgetError(
            f"{len(vs)} variables exceeds the case-analysis limit {KALMAR_VAR_LIMIT}"
        )
    return _prove_under(F, vs, {})


# ---------------------------------------------------------------------------
# serialization

def serialize_proof(proof: Proof) -> str:
    # one memo for the whole proof; the proof keeps every formula alive
    memo: dict[int, str] = {}
    lines = ["proof"]
    for i, ln in enumerate(proof.lines, 1):
        f = fm._text(ln.formula, memo)
        kind = ln.just[0]
        if kind == "axiom":
            _, name, sigma = ln.just
            subst = " ".join(
                f"[{m}:={fm._text(t, memo)}]" for m, t in sorted(sigma.items())
            )
            just = f"axiom {name} {subst}".rstrip()
        elif kind == "mp":
            just = f"mp {ln.just[1] + 1} {ln.just[2] + 1}"
        else:
            just = "hyp"
        lines.append(f"{i} {f} ; {just}")
    return "\n".join(lines) + "\n"


def proof_size_bits(proof: Proof) -> int:
    """Proof size = bit length of the serialized string form.

    Counts the bytes of serialize_proof's layout without building the text:
    formula lengths come from one memo over the proof, and the text is ASCII
    apart from scheme names, which are counted as UTF-8."""
    memo: dict[int, int] = {}
    n = len("proof\n")
    for i, ln in enumerate(proof.lines, 1):
        # "<i> <formula> ; <just>\n"
        n += len(str(i)) + fm._text_len(ln.formula, memo) + 5
        kind = ln.just[0]
        if kind == "axiom":
            _, name, sigma = ln.just
            if sigma:
                # "axiom <name> " then "[m:=<t>]" joined by single spaces
                n += 7 + len(name.encode()) + len(sigma) - 1 + sum(
                    len(str(m)) + 4 + fm._text_len(t, memo) for m, t in sigma.items()
                )
            else:
                n += len(f"axiom {name}".rstrip().encode())
        elif kind == "mp":
            n += len(f"mp {ln.just[1] + 1} {ln.just[2] + 1}")
        else:
            n += len("hyp")
    return 8 * n


def _decimal(token: str) -> int | None:
    """The value of an ASCII decimal numeral; None for anything else."""
    try:
        return int(token) if token.isascii() and token.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None


def parse_proof(text: str) -> Proof:
    lines: list[Line] = []
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        if s == "proof":
            saw_header = True
            continue
        if ";" not in s:
            raise ProofError(f"line {lineno}: missing justification separator")
        head, _, just = s.partition(";")
        head = head.strip()
        num, _, ftext = head.partition(" ")
        if _decimal(num) != len(lines) + 1:
            raise ProofError(f"line {lineno}: expected line number {len(lines) + 1}")
        f = fm.parse(ftext.strip())
        jtoks = just.strip().split(None, 1)
        if not jtoks:
            raise ProofError(f"line {lineno}: empty justification")
        if jtoks[0] == "axiom":
            if len(jtoks) < 2:
                raise ProofError(f"line {lineno}: axiom needs a scheme name")
            rest = jtoks[1].split(None, 1)
            name = rest[0]
            sigma: dict[int, Formula] = {}
            if len(rest) > 1:
                for part in rest[1].split("]"):
                    part = part.strip()
                    if not part:
                        continue
                    key, sep, val = part[1:].partition(":=")
                    m = _decimal(key)
                    if not part.startswith("[") or not sep or m is None:
                        raise ProofError(f"line {lineno}: bad substitution {part!r}")
                    sigma[m] = fm.parse(val)
            lines.append(Line(f, ("axiom", name, sigma)))
        elif jtoks[0] == "mp":
            refs = [_decimal(t) for t in jtoks[1].split()] if len(jtoks) > 1 else []
            if len(refs) != 2 or None in refs:
                raise ProofError(f"line {lineno}: mp needs two line numbers")
            a, b = refs
            lines.append(Line(f, ("mp", a - 1, b - 1)))
        elif jtoks[0] == "hyp":
            lines.append(Line(f, ("hyp",)))
        else:
            raise ProofError(f"line {lineno}: unknown justification {jtoks[0]!r}")
    if not saw_header:
        raise ProofError("missing 'proof' header")
    if not lines:
        raise ProofError("empty proof")
    return Proof(tuple(lines))
