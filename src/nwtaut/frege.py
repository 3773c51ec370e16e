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

Each scheme is compiled once, at import, into a function of sigma that
builds its instance without walking the scheme (_INSTANCE).  The provers
(D2, discharge, the case-analysis prover) write their lines into a
ProofBuilder the caller gives them, so a proof built as part of a larger
one is built there once, not built apart and then replayed; the public
functions are thin wrappers that give each a fresh builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

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


#: scheme name -> its metavariables, ascending (the order of the fields of
#: its text patterns; see _axiom_pattern)
_METAVARS = {name: tuple(sorted(fm.fvars(t))) for name, t in AXIOM_SCHEMES.items()}


def _instance_function(name: str, scheme: Formula):
    """sigma -> fm.substitute(scheme, sigma), compiled from the scheme's
    tree into one tuple expression: each metavariable x_m is looked up in
    sigma once per instance, and no tree is walked."""
    def expr(f: Formula) -> str:
        if f[0] == "var":
            return f"x{f[1]}"
        if f[0] == "const":
            return repr(f)
        return f"({f[0]!r}, {', '.join(expr(g) for g in f[1:])})"

    lookups = "".join(
        f"    x{m} = sigma.get({m}, {('var', m)!r})\n" for m in _METAVARS[name]
    )
    namespace: dict = {}
    src = f"def instance(sigma):\n{lookups}    return {expr(scheme)}\n"
    exec(compile(src, f"<axiom scheme {name}>", "exec"), namespace)
    return namespace["instance"]


#: scheme name -> the instance function of its scheme (see _instance_function)
_INSTANCE = {name: _instance_function(name, t) for name, t in AXIOM_SCHEMES.items()}


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
    rule, which Proof checks when it is built.  A well-formed line has a
    rooted formula (see _rooted) and the justification ("hyp",),
    ("mp", a, b) with ints 0 <= a, b < i (a fault quotes them from 1, as the
    text numbers lines), or ("axiom", name, sigma) with name a scheme and
    sigma a dict from ints >= 1 to rooted formulas: the lines the printer
    writes and parse_proof reads back."""
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


@dataclass(frozen=True)
class Proof:
    """A nonempty sequence of well-formed lines (see _line_fault): any other
    is refused when it is built, with ProofError("empty proof") or
    ProofError("line N: why") for its first malformed line.  serialize_proof
    keeps its text once printed."""

    lines: tuple[Line, ...]

    def __post_init__(self):
        lines = self.lines
        if not lines:
            raise ProofError("empty proof")
        for i in range(len(lines)):
            if (why := _line_fault(lines, i)) is not None:
                raise ProofError(f"line {i + 1}: {why}")

    @property
    def conclusion(self) -> Formula:
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

    def _justified(self, proof: Proof, allow_hyp: bool) -> bool:
        """Whether each line of the proof follows from the lines before it:
        the one loop of check and check_derivation."""
        lines = proof.lines
        for ln in lines:
            f, just = ln.formula, ln.just
            if just[0] == "axiom":
                if _INSTANCE[just[1]](just[2]) != f:
                    return False
            elif just[0] == "mp":
                if lines[just[2]].formula != ("or", ("not", lines[just[1]].formula), f):
                    return False
            elif not allow_hyp:
                return False
        return True


FREGE = FregeSystem()


def check(P: FregeSystem, tau: Formula, proof: Proof) -> bool:
    """True iff every line of the proof is justified (no hypotheses), the
    conclusion is tau and the printer prints the proof, reading every depth:
    a node malformed below a formula's root fails (Proof reads only roots).
    The proof keeps its text (see serialize_proof), so a proof that is
    checked and then written is printed once."""
    if not P._justified(proof, False) or proof.conclusion != tau:
        return False
    try:
        serialize_proof(proof)
    except ProofError:
        return False
    return True


def check_derivation(P: FregeSystem, proof: Proof) -> bool:
    """Like check but hypothesis lines are allowed (internal use), and only
    the roots of formulas are read."""
    return P._justified(proof, True)


# ---------------------------------------------------------------------------
# proof construction

class ProofBuilder:
    """Accumulates lines with formula-level deduplication.

    One hash per push: a line formula is looked up and, if new, indexed by
    one dict operation.  Formulas are nested tuples, whose hash Python does
    not cache, so each hash walks the whole formula, except that it reads
    the kept hash of any fm.HashedFormula inside (discharge's hypothesis).

    The provers write into a builder they are given and return the index
    of their conclusion.  Dedup makes that equal, line for line, to
    building the proof apart and replaying it with append_proof: its new
    lines arrive in the same order, and a formula already present maps to
    the index the replay would find.  An axiom line's formula comes from
    its scheme's compiled instance function (_INSTANCE)."""

    def __init__(self):
        self.lines: list[Line] = []
        self._index: dict[Formula, int] = {}

    def _push(self, line: Line) -> int:
        # every indexed line is in self.lines, so only a new formula gets
        # len(self.lines); proof()'s tail copy stays outside the index
        try:
            idx = self._index.setdefault(line.formula, len(self.lines))
        except TypeError:  # hashing met a node below the root that is a list or dict
            raise ProofError(f"malformed formula {line.formula!r}") from None
        if idx == len(self.lines):
            self.lines.append(line)
        return idx

    def axiom(self, name: str, sigma: dict[int, Formula]) -> int:
        instance = _INSTANCE.get(name)
        if instance is None:
            raise ProofError(f"unknown axiom scheme {name!r}")
        if type(sigma) is not dict:
            raise ProofError(f"axiom {name}: the substitution is no dict")
        return self._push(Line(instance(sigma), ("axiom", name, dict(sigma))))

    def hyp(self, f: Formula) -> int:
        """A hypothesis line; one that is not a rooted formula (see _rooted)
        raises ProofError, as discharge does."""
        if not _rooted(f):
            raise ProofError(f"malformed hypothesis {f!r}")
        return self._push(Line(f, ("hyp",)))

    def mp(self, i: int, j: int) -> int:
        n = len(self.lines)
        if not (type(i) is type(j) is int and 0 <= i < n and 0 <= j < n):
            raise ProofError(f"mp premises {i!r}, {j!r}: not lines of {n}")
        impl = self.lines[j].formula
        if len(impl) != 3 or impl[0] != "or" or impl[1] != ("not", self.lines[i].formula):
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
                just = ("mp", placed[just[1]], placed[just[2]])
            placed.append(self._push(Line(ln.formula, just)))
        return placed[-1]

    def proof(self, conclusion_index: int | None = None) -> Proof:
        if conclusion_index is not None:
            n = len(self.lines)
            if not (type(conclusion_index) is int and 0 <= conclusion_index < n):
                raise ProofError(f"conclusion {conclusion_index!r}: not a line of {n}")
            if conclusion_index != n - 1:
                # conclusion must be the last line; replay a tail copy if
                # dedup left it earlier
                self.lines.append(self.lines[conclusion_index])
        return Proof(tuple(self.lines))


def subst_proof(proof: Proof, sigma: dict[int, Formula]) -> Proof:
    """D1 (generalized): line-wise substitution of formulas for variables.

    Frege proofs are closed under it; the constants-only case is the decency
    condition proper.  A node malformed below a formula's root, which the
    check does not read, raises ProofError naming the line."""
    if not check_derivation(FREGE, proof):
        raise ProofError("input proof does not check")
    out: list[Line] = []
    try:
        for i, ln in enumerate(proof.lines, 1):
            just = ln.just
            if just[0] == "axiom":
                just = ("axiom", just[1], {m: fm.substitute(t, sigma) for m, t in just[2].items()})
            out.append(Line(fm.substitute(ln.formula, sigma), just))
    except (TypeError, IndexError):
        raise ProofError(f"line {i}: malformed formula") from None
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
    b = ProofBuilder()
    return b.proof(_prove_true_into(b, psi))


def _prove_true_into(b: ProofBuilder, psi: Formula) -> int:
    """D2 written into b: the index of a line proving the true sentence psi."""
    if fm.fvars(psi):
        raise ProofError("sentence has variables")
    if fm.evaluate(psi, {}) != 1:
        raise ProofError("sentence is false")
    return _value_index(b, psi, {})


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

    A wrapper over _discharge_into with a fresh builder; the case-analysis
    prover discharges into its own builder instead.  Every output line
    contains H, so H is held as one fm.HashedFormula and hashing a line
    costs the same whatever the size of H.  The input is checked for shape
    only: a hypothesis that is not a rooted formula (see _rooted) raises
    ProofError before any line is built; the builder's mp rejects premises
    whose formulas do not fit."""
    b = ProofBuilder()
    return b.proof(_discharge_into(b, proof, hypothesis))


def _discharge_into(b: ProofBuilder, proof: Proof, hypothesis: Formula) -> int:
    """discharge written into b: the index of the line proving H -> phi."""
    if not _rooted(hypothesis):
        raise ProofError(f"malformed hypothesis {hypothesis!r}")
    mapped: dict[int, int] = {}  # old line -> line proving H -> f
    try:
        H = hypothesis if isinstance(hypothesis, fm.HashedFormula) else fm.HashedFormula(hypothesis)
    except TypeError:  # hashing met a node below the root that is a list or dict
        raise ProofError(f"malformed hypothesis {hypothesis!r}") from None
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
    return mapped[len(proof.lines) - 1]


# each variable multiplies proof size by ~6 (two branches, each discharged)
KALMAR_VAR_LIMIT = 8


def _prove_under(
    b: ProofBuilder, F: Formula, vars_left: list[int], assignment: dict[int, int]
) -> int:
    """The index of a line of b proving F from the hypotheses of assignment.
    Each case branch is built apart, since discharge reads it as a proof, and
    discharged straight into b."""
    if not vars_left:
        idx = _value_index(b, F, assignment)
        if fm.evaluate(F, assignment) != 1:
            raise ProofError("formula is falsified; not a tautology")
        return idx
    z = vars_left[0]
    rest = vars_left[1:]
    zvar: Formula = ("var", z)

    def branch(value: int) -> Proof:
        sub = ProofBuilder()
        return sub.proof(_prove_under(sub, F, rest, {**assignment, z: value}))

    i1 = _discharge_into(b, branch(1), zvar)  # z -> F
    i0 = _discharge_into(b, branch(0), ("not", zvar))  # ~z -> F
    em = b.axiom("EM", {1: zvar})  # z | ~z
    cases = b.axiom("D3", {1: zvar, 2: ("not", zvar), 3: F})
    s1 = b.mp(i1, cases)
    s2 = b.mp(i0, s1)
    return b.mp(em, s2)


def prove_tautology(F: Formula) -> Proof:
    """A kernel proof of any tautology, by case analysis over its variables
    (exponential in the variable count; desk scale only)."""
    b = ProofBuilder()
    return b.proof(_prove_tautology_into(b, F))


def _prove_tautology_into(b: ProofBuilder, F: Formula) -> int:
    """prove_tautology written into b: the index of the line proving F."""
    vs = sorted(fm.fvars(F))
    if len(vs) > KALMAR_VAR_LIMIT:
        raise fm.BudgetError(
            f"{len(vs)} variables exceeds the case-analysis limit {KALMAR_VAR_LIMIT}"
        )
    return _prove_under(b, F, vs, {})


# ---------------------------------------------------------------------------
# serialization

def serialize_proof(proof: Proof) -> str:
    """The proof's text, printed once and then kept by the proof."""
    return _serialize(proof, {})


def _serialize(proof: Proof, memo: dict[int, str]) -> str:
    """serialize_proof(proof), with formula texts from a caller's memo, which
    may serve several proofs; the caller keeps them all alive while the memo
    is in use (see the comment above fm._text).

    A proof with a node below a formula's root that fm._text refuses raises
    ProofError naming the line.  The text is built as one list of pieces,
    joined once, and kept in the proof's __dict__, so ==, hash and repr
    ignore it.  It is no cached_property because it is printed through the
    caller's memo: printing simulate's four stages with a fresh memo each
    made the pipeline benchmark 8-18% slower (2-vCPU host, Python 3.11).
    Line is frozen, formulas are tuples and ProofBuilder copies each sigma
    it is given, so the text stays that of the lines unless a caller
    mutates a sigma dict it put in a Line."""
    text = proof.__dict__.get("_text")
    if text is not None:
        return text
    out = ["proof\n"]
    try:
        for i, ln in enumerate(proof.lines, 1):
            just, s = ln.just, fm._text(ln.formula, memo)
            if just[0] == "axiom":
                out.append(f"{i} {s} ; axiom {just[1]}")
                for m, t in sorted(just[2].items()):
                    out.append(f" [{m}:={fm._text(t, memo)}]")
                out.append("\n")
            elif just[0] == "mp":
                out.append(f"{i} {s} ; mp {just[1] + 1} {just[2] + 1}\n")
            else:
                out.append(f"{i} {s} ; hyp\n")
    except (ValueError, TypeError, IndexError):  # a formula malformed below its root
        raise ProofError(f"line {i}: malformed formula") from None
    text = proof.__dict__["_text"] = "".join(out)
    return text


def proof_size_bits(proof: Proof) -> int:
    """Proof size = bit length of the proof's text (see serialize_proof),
    which the proof keeps for a caller that then writes it."""
    return 8 * len(serialize_proof(proof).encode())


def parse_proof(text: str) -> Proof:
    """Read the line format of serialize_proof.

    Each line is read by one of two routes.  A line spelled as the printer
    spells its justification's formula (the right disjunct of an mp line's
    second premise, or an axiom instance) is read as that formula without
    parsing or printing it: the reader keeps each line's text beside the
    line and compares texts it already holds (see _derived).  Any other
    spelling goes through fm.parse, with the same result and the same
    error.  A formula text read once is not read again, so a parsed proof
    shares subterms between its lines."""
    lines: list[Line] = []
    texts: list[str] = []  # each line's formula text, stripped, beside lines
    saw_header = False
    read: dict[str, Formula] = {}  # text -> formula, over line formulas and sigma values
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
            just, values = _justification(jtext, lineno, read)
        except (ProofError, fm.ParseError) as e:
            just, err = None, e  # raised after the formula, which the line states first
        f = None if just is None else _derived(just, values, ftext, lines, texts)
        if f is not None:
            read.setdefault(ftext, f)
        else:
            f = _read(ftext, read)
        if just is None:
            raise err
        lines.append(Line(f, just))
        texts.append(ftext)
    if not saw_header:
        raise ProofError("missing 'proof' header")
    return Proof(tuple(lines))


def _read(text: str, read: dict[str, Formula]) -> Formula:
    """fm.parse(text), parsing each text once per memo."""
    f = read.get(text)
    if f is None:
        f = read[text] = fm.parse(text)
    return f


def _justification(
    text: str, lineno: int, read: dict[str, Formula]
) -> tuple[tuple, dict[int, str] | None]:
    """The justification after a line's ';', sigma values read through read,
    and an axiom line's sigma texts (None for other lines)."""
    jtoks = text.strip().split(None, 1)
    if not jtoks:
        raise ProofError(f"line {lineno}: empty justification")
    if jtoks[0] == "axiom":
        if len(jtoks) < 2:
            raise ProofError(f"line {lineno}: axiom needs a scheme name")
        rest = jtoks[1].split(None, 1)
        sigma: dict[int, Formula] = {}
        values: dict[int, str] = {}
        if len(rest) > 1:
            for part in rest[1].split("]"):
                part = part.strip()
                if not part:
                    continue
                key, sep, val = part[1:].partition(":=")
                m = _decimal(key)
                if not part.startswith("[") or not sep or not m:
                    raise ProofError(f"line {lineno}: bad substitution {part!r}")
                if m in sigma:
                    raise ProofError(f"line {lineno}: variable {m} substituted twice")
                sigma[m] = _read(val, read)
                values[m] = val
        return ("axiom", rest[0], sigma), values
    if jtoks[0] == "mp":
        refs = [_decimal(t) for t in jtoks[1].split()] if len(jtoks) > 1 else []
        if len(refs) != 2 or None in refs:
            raise ProofError(f"line {lineno}: mp needs two line numbers")
        return ("mp", refs[0] - 1, refs[1] - 1), None
    if jtoks[0] == "hyp":
        return ("hyp",), None
    raise ProofError(f"line {lineno}: unknown justification {jtoks[0]!r}")


def _derived(
    just: tuple, values: dict[int, str] | None, ftext: str, lines: list[Line],
    texts: list[str],
) -> Formula | None:
    """The formula just derives from the lines before it, if ftext spells it:
    the right disjunct of an mp line's second premise, or the axiom instance.

    Every text compared here parses to the formula it stands for (a line's
    text to the line, a sigma text to its value), and the printer's
    parentheses depend only on a child's root tag, so a match means
    fm.parse(ftext) is the candidate:
    - An mp line's candidate is read when its second premise's text is
      "~" + the first premise's text (in parentheses when that formula is
      binary) + " | " + ftext; the left disjunct is then one operand, so
      the premise's parse is an or whose right disjunct is ftext's parse.
    - An axiom line's candidate is read when ftext is the scheme's pattern
      (_axiom_pattern) filled with the sigma texts.
    Otherwise None, and the caller parses ftext."""
    n = len(lines)
    if just[0] == "mp":
        _, a, b = just
        if 0 <= a < n and 0 <= b < n and lines[b].formula[0] == "or":
            left = texts[a] if len(lines[a].formula) == 2 else f"({texts[a]})"
            if texts[b] == f"~{left} | {ftext}":
                return lines[b].formula[2]
    elif just[0] == "axiom" and just[1] in _INSTANCE:
        name, sigma = just[1], just[2]
        ms = _METAVARS[name]
        pattern = _axiom_pattern(name, *[sigma[m][0] if m in sigma else None for m in ms])
        if pattern.format(*[values.get(m, "") for m in ms]) == ftext:
            return _INSTANCE[name](sigma)
    return None


@cache  # one entry per scheme and tuple of tags: at most 6^3 per scheme
def _axiom_pattern(name: str, *tags: str | None) -> str:
    """The text of the scheme's instance with a field {i} where the text of
    the value of its i-th metavariable goes (see _METAVARS), for values with
    the given root tags (None: the metavariable is unbound, so it stays a
    variable).  fm._text prints the instance over stand-ins with those root
    tags whose memo texts are the fields, so the pattern has the printer's
    parentheses: they depend only on a child's root tag, and a leaf is
    parenthesized as a not is."""
    standins: dict[int, Formula] = {}
    memo: dict[int, str] = {}
    for i, (m, tag) in enumerate(zip(_METAVARS[name], tags)):
        if tag is not None:
            v = ("var", m)
            s = standins[m] = (tag, v, v) if tag in ("and", "or") else ("not", v)
            memo[id(s)] = f"{{{i}}}"
    return fm._text(_INSTANCE[name](standins), memo)


#: fewest bits of any text that parse_proof reads and check accepts.  Such a
#: text has the `proof` line and a line break.  Its line 1 passes check
#: without hypotheses, so it is an axiom line: an mp line cites earlier
#: lines, and line 1 has none.  An axiom line reads "N F;axiom NAME", at
#: least 1 + 1 + 1 + 1 + 5 + 1 + 2 characters, NAME being a scheme name.
#: Each character takes at least one UTF-8 byte, and check_plus_alpha runs
#: check first, so the floor holds for P+alpha proofs too.
MIN_PROOF_BITS = 8 * len("proof\n1 1;axiom " + min(AXIOM_SCHEMES, key=len))
