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
from .cnf import _decimal
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


_TAGS = tuple(fm._PREC)  # tested with ==, so an unhashable root tag is no error


def _rooted(t) -> bool:
    """Whether t is a rooted formula: a tuple whose root tag is in fm._PREC,
    ("var", i) with an int i >= 1 and ("const", c) with c 0 or 1 at a leaf
    root.  Deeper subterms, leaves among them, are not read."""
    if not (isinstance(t, tuple) and t):
        return False
    tag = t[0]
    if tag == "var":
        return len(t) == 2 and type(t[1]) is int and t[1] >= 1
    if tag == "const":
        return len(t) == 2 and type(t[1]) is int and 0 <= t[1] <= 1
    return tag in _TAGS


def _line_fault(lines: tuple[Line, ...], i: int) -> str | None:
    """Why lines[i] is not well formed, or None: the kernel's one line-shape
    rule.  A well-formed line has a rooted formula (see _rooted) and the
    justification ("hyp",), ("mp", a, b) with ints 0 <= a, b < i (a fault
    quotes them from 1, as the text numbers lines), or ("axiom", name, sigma)
    with name a scheme and sigma a dict from ints >= 1 to rooted formulas:
    the lines the printer writes and parse_proof reads back."""
    ln = lines[i]
    f, just = ln.formula, ln.just
    if not _rooted(f):
        return f"malformed formula {f!r}"
    if type(just) is tuple and len(just) == 3:
        kind, a, b = just
        if kind == "mp" and type(a) is type(b) is int:
            earlier = 0 <= a < i and 0 <= b < i
            return None if earlier else f"malformed justification mp {a + 1} {b + 1}"
        if kind == "axiom" and type(a) is str and a in AXIOM_SCHEMES and type(b) is dict:
            for m, t in b.items():
                if not (type(m) is int and m > 0 and _rooted(t)):
                    return f"malformed substitution {b!r}"
            return None
    elif just == ("hyp",):
        return None
    return f"malformed justification {just!r}"


def _proof_fault(proof: Proof) -> str | None:
    """Why proof is not well formed ("empty proof", or "line N: why" for its
    first malformed line), or None; a well-formed proof records so in its
    __dict__, beside its kept text (see _serialize), so each is walked once."""
    if "_formed" in proof.__dict__:
        return None
    lines = proof.lines
    if not lines:
        return "empty proof"
    for i in range(len(lines)):
        why = _line_fault(lines, i)
        if why is not None:
            return f"line {i + 1}: {why}"
    proof.__dict__["_formed"] = True
    return None


@dataclass(frozen=True)
class Proof:
    """A sequence of lines; serialize_proof keeps its text once printed."""

    lines: tuple[Line, ...]

    @property
    def conclusion(self) -> Formula:
        if not self.lines:
            raise ProofError("empty proof")
        return self.lines[-1].formula

    def hypotheses(self) -> list[Formula]:
        return [ln.formula for ln in self.lines if ln.just == ("hyp",)]

    def __len__(self) -> int:
        return len(self.lines)


@dataclass(frozen=True)
class FregeSystem:
    """The fixed kernel: the schemes of AXIOM_SCHEMES plus modus ponens.

    FREGE is its one instance; the checkers take it as the proof system P
    of the paper, while the proof builders always build kernel proofs."""

    def _follows(self, lines: tuple[Line, ...], i: int, allow_hyp: bool) -> bool:
        """Whether the well-formed line lines[i] follows from the lines before it."""
        f, just = lines[i].formula, lines[i].just
        if just[0] == "axiom":
            return fm.substitute(AXIOM_SCHEMES[just[1]], just[2]) == f
        if just[0] == "mp":
            return lines[just[2]].formula == ("or", ("not", lines[just[1]].formula), f)
        return allow_hyp


FREGE = FregeSystem()


def check(P: FregeSystem, tau: Formula, proof: Proof) -> bool:
    """True iff the proof is well formed, every line is justified (no
    hypotheses) and the conclusion is tau."""
    lines = proof.lines
    if _proof_fault(proof) is not None:
        return False
    for i in range(len(lines)):
        if not P._follows(lines, i, False):
            return False
    return lines[-1].formula == tau


def check_derivation(P: FregeSystem, proof: Proof) -> bool:
    """Like check but hypothesis lines are allowed (internal use)."""
    lines = proof.lines
    return _proof_fault(proof) is None and all(
        P._follows(lines, i, True) for i in range(len(lines))
    )


# ---------------------------------------------------------------------------
# proof construction

class ProofBuilder:
    """Accumulates lines with formula-level deduplication.

    One hash per push: a line formula is looked up and, if new, indexed by
    one dict operation.  Formulas are nested tuples, whose hash Python does
    not cache, so each hash walks the whole formula, except that it reads
    the kept hash of any fm.HashedFormula inside (discharge's hypothesis)."""

    def __init__(self):
        self.lines: list[Line] = []
        self._index: dict[Formula, int] = {}

    def _push(self, line: Line) -> int:
        # every indexed line is in self.lines, so only a new formula gets
        # len(self.lines); proof()'s tail copy stays outside the index
        idx = self._index.setdefault(line.formula, len(self.lines))
        if idx == len(self.lines):
            self.lines.append(line)
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
        n = len(self.lines)
        if not (0 <= i < n and 0 <= j < n):
            raise ProofError(f"mp premises {i}, {j}: the lines are 0..{n - 1}")
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
        """Replay an existing proof; returns the index of its conclusion.
        A proof that is not well formed (see _proof_fault) raises ProofError
        naming its first malformed line, and none of its lines is copied."""
        if (fault := _proof_fault(proof)) is not None:
            raise ProofError(fault)
        placed: list[int] = []  # where each replayed line landed after dedup
        for ln in proof.lines:
            just = ln.just
            if just[0] == "mp":
                just = ("mp", placed[just[1]], placed[just[2]])
            placed.append(self._push(Line(ln.formula, just)))
        return placed[-1]

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
        just = ln.just
        if just[0] == "axiom":
            just = ("axiom", just[1], {m: fm.substitute(t, sigma) for m, t in just[2].items()})
        out.append(Line(fm.substitute(ln.formula, sigma), just))
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
    """D3: from proofs of psi and psi -> eta, a proof of eta; ProofBuilder.mp
    rejects conclusions that do not fit."""
    if not check_derivation(FREGE, pi1) or not check_derivation(FREGE, pi2):
        raise ProofError("input proof does not check")
    b = ProofBuilder()
    return b.proof(b.mp(b.append_proof(pi1), b.append_proof(pi2)))


def discharge(proof: Proof, hypothesis: Formula) -> Proof:
    """Deduction-theorem transformation: remove one hypothesis H, turning a
    derivation of phi from hypotheses into one of H -> phi.

    Every output line contains H, so H is held as one fm.HashedFormula and
    hashing a line costs the same whatever the size of H.  The input is
    checked for shape only: a proof that is not well formed (see
    _proof_fault) raises ProofError naming its first malformed line; the
    builder's mp rejects premises whose formulas do not fit."""
    if (fault := _proof_fault(proof)) is not None:
        raise ProofError(fault)
    b = ProofBuilder()
    mapped: dict[int, int] = {}  # old line -> line proving H -> f
    H = hypothesis if isinstance(hypothesis, fm.HashedFormula) else fm.HashedFormula(hypothesis)
    for i, ln in enumerate(proof.lines):
        f, just = ln.formula, ln.just
        if just[0] == "mp":
            _, a, c = just
            fa = proof.lines[a].formula
            step = b.axiom("P2", {1: H, 2: fa, 3: f})
            step2 = b.mp(mapped[c], step)
            mapped[i] = b.mp(mapped[a], step2)
        elif just[0] == "hyp" and f == H:
            mapped[i] = b.axiom("ID", {1: H})
        else:
            base = b.axiom(just[1], just[2]) if just[0] == "axiom" else b.hyp(f)
            mapped[i] = b.imply(base, "P1", {1: f, 2: H})
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
    """The proof's text, printed once and then kept by the proof."""
    return _serialize(proof, {})


def _serialize(proof: Proof, memo: dict[int, str]) -> str:
    """serialize_proof(proof), with formula texts from a caller's memo, which
    may serve several proofs; the caller keeps them all alive while the memo
    is in use (see the comment above fm._text).

    A proof that is not well formed (see _proof_fault), or has a formula
    malformed below its root, raises ProofError naming the line.  The text
    is kept in the proof's __dict__, so ==, hash and repr ignore it.  Line is
    frozen, formulas are tuples and ProofBuilder copies each sigma it is
    given, so the text stays that of the lines unless a caller mutates a
    sigma dict it put in a Line."""
    text = proof.__dict__.get("_text")
    if text is not None:
        return text
    if (fault := _proof_fault(proof)) is not None:
        raise ProofError(fault)
    lines = ["proof"]
    try:
        for i, ln in enumerate(proof.lines, 1):
            just = ln.just
            if just[0] == "axiom":
                just = f"axiom {just[1]}" + "".join(
                    f" [{m}:={fm._text(t, memo)}]" for m, t in sorted(just[2].items())
                )
            elif just[0] == "mp":
                just = f"mp {just[1] + 1} {just[2] + 1}"
            else:
                just = "hyp"
            lines.append(f"{i} {fm._text(ln.formula, memo)} ; {just}")
    except (KeyError, TypeError, IndexError):  # a formula malformed below its root
        raise ProofError(f"line {i}: malformed formula") from None
    text = proof.__dict__["_text"] = "\n".join(lines) + "\n"
    return text


def proof_size_bits(proof: Proof) -> int:
    """Proof size = bit length of the serialized string form, counted without
    building the text (formula lengths come from one memo over the proof);
    raises ProofError where serialize_proof does."""
    if (fault := _proof_fault(proof)) is not None:
        raise ProofError(fault)
    memo: dict[int, int] = {}
    n = len("proof\n")
    try:
        for i, ln in enumerate(proof.lines, 1):
            # "<i> <formula> ; <just>\n"
            n += len(str(i)) + fm._text_len(ln.formula, memo) + 5
            just = ln.just
            if just[0] == "axiom":
                # "axiom <name>", then " [m:=<t>]" per sigma entry
                n += 6 + len(just[1]) + sum(
                    len(str(m)) + 5 + fm._text_len(t, memo) for m, t in just[2].items()
                )
            elif just[0] == "mp":
                n += len(f"mp {just[1] + 1} {just[2] + 1}")
            else:
                n += len("hyp")
    except (KeyError, TypeError, IndexError):  # a formula malformed below its root
        raise ProofError(f"line {i}: malformed formula") from None
    return 8 * n


def parse_proof(text: str) -> Proof:
    """Read the line format of serialize_proof.

    A line spelled as the printer spells its justification's formula (the
    right disjunct of an mp line's second premise, or an axiom instance) is
    read as that formula without re-parsing: parse(to_text(f)) == f, so the
    result is the parser's.  Any other spelling goes through fm.parse, with
    the same result and the same error.  A formula text read once is not
    read again, so a parsed proof shares subterms between its lines."""
    lines: list[Line] = []
    saw_header = False
    read: dict[str, Formula] = {}  # text -> formula, over line formulas and sigma values
    printed: dict[int, str] = {}   # fm._text's memo over the candidates
    kept: list[Formula | None] = []  # every candidate printed; see the comment above fm._text
    for lineno, raw in enumerate(text.splitlines(), 1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        if s == "proof":
            saw_header = True
            continue
        if ";" not in s:
            raise ProofError(f"line {lineno}: missing justification separator")
        head, _, jtext = s.partition(";")
        num, _, ftext = head.strip().partition(" ")
        if _decimal(num) != len(lines) + 1:
            raise ProofError(f"line {lineno}: expected line number {len(lines) + 1}")
        ftext = ftext.strip()
        try:
            just = _justification(jtext, lineno, read)
        except (ProofError, fm.ParseError) as e:
            just, err = None, e  # raised after the formula, which the line states first
        f = None if just is None else _candidate(just, lines)
        kept.append(f)
        if f is not None and _spells(f, ftext, printed):
            read.setdefault(ftext, f)
        else:
            f = _read(ftext, read)
        if just is None:
            raise err
        lines.append(Line(f, just))
    if not saw_header:
        raise ProofError("missing 'proof' header")
    if not lines:
        raise ProofError("empty proof")
    return Proof(tuple(lines))


def _read(text: str, read: dict[str, Formula]) -> Formula:
    """fm.parse(text), parsing each text once per memo."""
    f = read.get(text)
    if f is None:
        f = read[text] = fm.parse(text)
    return f


def _justification(text: str, lineno: int, read: dict[str, Formula]) -> tuple:
    """The justification after a line's ';', sigma values read through read."""
    jtoks = text.strip().split(None, 1)
    if not jtoks:
        raise ProofError(f"line {lineno}: empty justification")
    if jtoks[0] == "axiom":
        if len(jtoks) < 2:
            raise ProofError(f"line {lineno}: axiom needs a scheme name")
        rest = jtoks[1].split(None, 1)
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
                sigma[m] = _read(val, read)
        return ("axiom", rest[0], sigma)
    if jtoks[0] == "mp":
        refs = [_decimal(t) for t in jtoks[1].split()] if len(jtoks) > 1 else []
        if len(refs) != 2 or None in refs:
            raise ProofError(f"line {lineno}: mp needs two line numbers")
        return ("mp", refs[0] - 1, refs[1] - 1)
    if jtoks[0] == "hyp":
        return ("hyp",)
    raise ProofError(f"line {lineno}: unknown justification {jtoks[0]!r}")


def _candidate(just: tuple, lines: list[Line]) -> Formula | None:
    """The formula just derives from the lines before it, where it names
    one: the right disjunct of an mp line's second premise, or the axiom
    instance."""
    if just[0] == "mp":
        b = just[2]
        if 0 <= b < len(lines) and lines[b].formula[0] == "or":
            return lines[b].formula[2]
    elif just[0] == "axiom" and just[1] in AXIOM_SCHEMES:
        return fm.substitute(AXIOM_SCHEMES[just[1]], just[2])
    return None


def _spells(f: Formula, text: str, memo: dict[int, str]) -> bool:
    """Whether the printer spells f as text; False where printing f exceeds
    the recursion limit, which the parser does not have."""
    try:
        return fm._text(f, memo) == text
    except RecursionError:
        return False


#: fewest bits of any text that parse_proof reads and check accepts.  Such a
#: text has the `proof` line and a line break.  Its line 1 passes check
#: without hypotheses, so it is an axiom line: an mp line cites earlier
#: lines, and line 1 has none.  An axiom line reads "N F;axiom NAME", at
#: least 1 + 1 + 1 + 1 + 5 + 1 + 2 characters, NAME being a scheme name.
#: Each character takes at least one UTF-8 byte, and check_plus_alpha runs
#: check first, so the floor holds for P+alpha proofs too.
MIN_PROOF_BITS = 8 * len("proof\n1 1;axiom " + min(AXIOM_SCHEMES, key=len))
