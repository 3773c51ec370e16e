"""The four search tasks: Cert, Find, Err, Pair.

Instance records, solution verifiers, exhaustive desk-scale solvers, the
Find-to-Cert reduction, and the writer of the instance envelope that
``nwtaut reduce`` outputs.  Solvers sweep candidates in lexicographic order
and return the least solution, so none-results are certified by a complete
sweep and reruns are deterministic.  Universal ("for all y") clauses go through
the DPLL engine on explicit circuits and bounded enumeration on opaque ones;
when a budget is too small the verdict is the distinct token ``unknown``,
never ``False``.

"Size k formula" always means: a bit string of length exactly k that decodes
under the canonical formula code.  The Cert solver walks only the strings
that decode (fm.codes), and verifiers reject the others.  A Find proof has
fewer than k^c1 bits, so the Find-to-Cert oracle reads the first
floor((k^c1 - 1)/8) bytes of its y slot of k^c1 bits, which may hold at most
``Y_WIDTH_LIMIT`` bits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from . import circuits as cc
from . import formulas as fm
from .circuits import Circuit, CircuitBuilder
from .frege import MIN_PROOF_BITS, FregeSystem, ProofError, parse_proof
from .nwcore import Triple
from .proofsys import PlusAlphaSystem, _at_most_power, check_plus_alpha

UNKNOWN = "unknown"

#: largest k the solvers sweep: Err and Pair sweep all 2^k indices, Cert
#: the decodable k-bit codes
SWEEP_K_LIMIT = 14

#: largest y slot (k^c1 bits) of the Find-to-Cert reduction
Y_WIDTH_LIMIT = 1 << 16


class TaskError(ValueError):
    pass


def _sweepable(k: int) -> int:
    """k itself; BudgetError above SWEEP_K_LIMIT, the largest k swept."""
    if k > SWEEP_K_LIMIT:
        raise fm.BudgetError(f"k={k} exceeds sweep limit {SWEEP_K_LIMIT}")
    return k


def _first_true(k: int, verify, what: str) -> str | None:
    """Least k-bit string that verify accepts; None after a complete sweep."""
    for v in range(1 << _sweepable(k)):
        s = format(v, f"0{k}b")
        verdict = verify(s)
        if verdict is UNKNOWN:
            raise fm.BudgetError(f"budget exhausted at {what} {s}")
        if verdict:
            return s
    return None


# ---------------------------------------------------------------------------
# Cert

@dataclass(frozen=True)
class CertInstance:
    """1^(k) plus a circuit D(x, y) claimed to accept exactly the size-k
    tautology codes; oracles resolve any opaque blocks of D."""

    k: int
    c: int
    D: Circuit
    oracles: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        g = dict(self.D.groups)
        if set(g) != {"x", "y"} or g["x"] != self.k:
            raise TaskError(f"D must have groups x ({self.k} bits) and y")
        if len(self.D.outputs) != 1:
            raise TaskError("D must have a single output")

    @property
    def y_width(self) -> int:
        return dict(self.D.groups)["y"]


@dataclass(frozen=True)
class CertSolution:
    kind: str  # "falsifiable-accepted" | "tautology-rejected"
    code: str

    def __post_init__(self):
        if self.kind not in ("falsifiable-accepted", "tautology-rejected"):
            raise TaskError(f"unknown solution kind {self.kind!r}")


def _cert_kind(inst: CertInstance, code: str, budget: int) -> str | None:
    """The solution kind that code witnesses, or None: a code that decodes
    is a solution when D accepts it although it is falsifiable, or rejects
    it although it is a tautology."""
    phi = fm.decode_k(code)
    if phi is None:
        return None
    taut = fm.is_tautology(phi, mode="auto")
    y = cc.sat_search(inst.D, fixed={"x": code}, budget=budget, oracles=inst.oracles)
    if taut == (y is not None):
        return None
    return "tautology-rejected" if taut else "falsifiable-accepted"


def verify_cert(inst: CertInstance, sol: CertSolution, budget: int = 20):
    """True, False, or UNKNOWN (opaque-enumeration budget exceeded)."""
    if len(sol.code) != inst.k:
        return False
    try:
        return _cert_kind(inst, sol.code, budget) == sol.kind
    except fm.BudgetError:
        return UNKNOWN


def solve_cert(inst: CertInstance, budget: int = 20) -> CertSolution | None:
    """Least x that decodes to a formula witnessing either clause; None is
    certified by the complete walk over the decodable k-bit codes."""
    for code in fm.codes(_sweepable(inst.k)):
        kind = _cert_kind(inst, code, budget)
        if kind:
            return CertSolution(kind, code)
    return None


# ---------------------------------------------------------------------------
# Find

@dataclass(frozen=True)
class FindInstance:
    """1^(k) plus an axiom alpha with a code of at most k^c0 bits; sought is
    a size-k tautology without a P+alpha proof of fewer than k^c1 bits.
    The promise that alpha is a tautology is decided on construction."""

    P: FregeSystem
    alpha: fm.Formula
    k: int
    c0: int
    c1: int

    def __post_init__(self):
        if self.k < 8:
            raise TaskError(f"k={self.k}: no code of fewer than 8 bits decodes")
        if self.c0 < 1 or self.c1 < 1:
            raise TaskError(f"need c0, c1 >= 1, got c0={self.c0}, c1={self.c1}")
        if not _at_most_power(fm.code_width(self.alpha), self.k, self.c0):
            raise TaskError(f"alpha does not fit {self.k}^{self.c0} code bits")
        if not fm.is_tautology(self.alpha, mode="auto"):
            raise TaskError("alpha is not a tautology")

    @property
    def system(self) -> PlusAlphaSystem:
        return PlusAlphaSystem(self.P, self.alpha)


def _spells_proof(S: PlusAlphaSystem, phi: fm.Formula, raw: bytes) -> bool:
    """Whether the bytes raw spell a P+alpha proof of phi."""
    try:
        return check_plus_alpha(S, phi, parse_proof(raw.decode("utf-8")))
    except (UnicodeDecodeError, ProofError, fm.ParseError, RecursionError):
        # substitute and tuple comparison still recurse once per nesting level
        return False


def verify_find_candidate(inst: FindInstance, beta: fm.Formula, mode: str = "sound") -> str:
    """'accepted' | 'rejected' | 'unverified'.

    Sound mode decides proof nonexistence only while k^c1 <= MIN_PROOF_BITS:
    no text that parse_proof and check accept is shorter, so every size-k
    tautology is accepted; above that floor it raises BudgetError.
    Heuristic mode stops after the tautology and size gates: proof
    nonexistence is not certified."""
    # beta has a size-k code when its tokens and END fit k bits; none is built
    n = fm.code_length(beta, fm.index_width(inst.k))
    if n is None or n + len(fm.TOK_END) > inst.k or not fm.is_tautology(beta, mode="auto"):
        return "rejected"
    if mode == "heuristic":
        return "unverified"
    if mode != "sound":
        raise TaskError(f"unknown mode {mode!r}")
    if _at_most_power(MIN_PROOF_BITS + 1, inst.k, inst.c1):
        raise fm.BudgetError(f"k^c1 = {inst.k}^{inst.c1} bits exceeds the {MIN_PROOF_BITS}-bit "
                             "floor below which no proof text exists")
    return "accepted"


def reduce_find_to_cert(inst: FindInstance) -> CertInstance:
    """D(x, y) = 'y spells a P+alpha proof of the formula coded by x', as an
    opaque circuit over x (k bits) and y (k^c1 bits); trailing zero bytes of
    y are padding."""
    if _at_most_power(Y_WIDTH_LIMIT + 1, inst.k, inst.c1):
        raise TaskError(f"y slot of {inst.k}^{inst.c1} bits exceeds the limit {Y_WIDTH_LIMIT}")
    k, yw = inst.k, inst.k**inst.c1
    nbytes = (yw - 1) // 8
    b = CircuitBuilder([("x", k), ("y", yw)])
    wires = [b.inp("x", i + 1) for i in range(k)] + [b.inp("y", i + 1) for i in range(yw)]
    D = b.build([b.opaque("provable", wires)])
    S = inst.system

    def oracle(bits: tuple[int, ...]) -> bool:
        phi = fm.decode_k("".join(str(v) for v in bits[:k]))
        if phi is None:
            return False
        ybits = "".join(str(v) for v in bits[k : k + 8 * nbytes])
        raw = int("0" + ybits, 2).to_bytes(nbytes, "big").rstrip(b"\x00")
        return _spells_proof(S, phi, raw)

    return CertInstance(k, inst.c1, D, oracles={"provable": oracle})


# ---------------------------------------------------------------------------
# Err

@dataclass(frozen=True)
class ErrInstance:
    """Truth table L (2^k bits) with a replayable witness bundle (one base
    witness per index, relative to the generating seed), and an advice
    string w to be audited."""

    triple: Triple
    k: int
    L: str
    seed: str
    witnesses: tuple[str, ...]
    w: str

    def __post_init__(self):
        if len(self.L) != 1 << self.k:
            raise TaskError(f"truth table must have {1 << self.k} bits")
        if self.L.strip("01"):
            raise TaskError("truth table L must be a string of 0 and 1")
        if len(self.w) != self.triple.advice_width:
            raise TaskError(
                f"advice must have {self.triple.advice_width} bits, got {len(self.w)}"
            )
        if self.w.strip("01"):
            raise TaskError("advice w must be a string of 0 and 1")
        if len(self.witnesses) != 1 << self.k:
            raise TaskError("need one witness per index")
        if self.triple.k != self.k:
            raise TaskError("triple index width disagrees with k")
        for v in range(1 << self.k):
            x = format(v, f"0{self.k}b")
            if not self.triple.accepts(int(self.L[v]), x, self.witnesses[v], self.seed):
                raise TaskError(f"witness bundle fails to replay at index {x}")


def _index(s: str, k: int, what: str) -> int:
    """The k-bit string s as a number."""
    if len(s) != k or s.strip("01"):
        raise TaskError(f"{what} must be a {k}-bit string")
    return int(s, 2)


def _no_witness(triple: Triple, a: int, x: str, w: str, budget: int):
    """True iff F_a(x, ., w) has no witness; UNKNOWN past the budget."""
    try:
        y = cc.sat_search(triple.f1 if a else triple.f0, fixed={"x": x, "w": w}, budget=budget)
    except fm.BudgetError:
        return UNKNOWN
    return y is None


def verify_err(inst: ErrInstance, x: str, budget: int = 20):
    """True iff the advice-equipped algorithm errs at index x: no witness
    for the table's bit exists under advice w."""
    a = int(inst.L[_index(x, inst.k, "index")])
    return _no_witness(inst.triple, a, x, inst.w, budget)


def solve_err(inst: ErrInstance, budget: int = 20) -> str | None:
    return _first_true(inst.k, lambda x: verify_err(inst, x, budget), "index")


# ---------------------------------------------------------------------------
# Pair

@dataclass(frozen=True)
class PairInstance:
    """Disjoint sets A, B given as truth tables at width k; candidate
    reduction C from (A, B) to the canonical disjoint pair (U, V) of the
    triple (U: pairs with an F0 witness, V: with an F1 witness)."""

    A: str
    B: str
    triple: Triple
    C: Circuit

    def __post_init__(self):
        k = self.k
        if len(self.A) != 1 << k or len(self.B) != 1 << k:
            raise TaskError(f"membership tables must have {1 << k} bits")
        if self.A.strip("01") or self.B.strip("01"):
            raise TaskError("membership tables must be strings of 0 and 1")
        if any(a == "1" and b == "1" for a, b in zip(self.A, self.B)):
            raise TaskError("A and B intersect")
        g = dict(self.C.groups)
        if list(g) != ["u"] or g["u"] != k:
            raise TaskError(f"C must have the single input group u ({k} bits)")
        if len(self.C.outputs) != k + self.triple.advice_width:
            raise TaskError(
                "C must output an index plus an advice slot "
                f"({k} + {self.triple.advice_width} wires)"
            )

    @property
    def k(self) -> int:
        return self.triple.k


def passthrough_circuit(k: int, zbits: str) -> Circuit:
    """The pass-through candidate reduction: u maps to the pair (u, zbits)."""
    b = CircuitBuilder([("u", k)])
    one = b.const(1)
    zero = b.NOT(one)
    outs = [b.inp("u", i + 1) for i in range(k)]
    outs += [one if ch == "1" else zero for ch in zbits]
    return b.build(outs)


def verify_pair(inst: PairInstance, u: str, budget: int = 20):
    """True iff u certifies that C is not a reduction: u is in A but C(u)
    lands outside U, or in B but outside V."""
    v = _index(u, inst.k, "candidate")
    if inst.A[v] != "1" and inst.B[v] != "1":
        return False
    out = cc.eval_circuit(inst.C, {"u": u})
    return _no_witness(inst.triple, inst.B[v] == "1", out[: inst.k], out[inst.k:], budget)


def solve_pair(inst: PairInstance, budget: int = 20) -> str | None:
    return _first_true(inst.k, lambda u: verify_pair(inst, u, budget), "candidate")


def pair_from_err(inst: ErrInstance) -> PairInstance:
    """The induced Pair instance: A/B are the table's zero/one sets and C is
    the pass-through circuit carrying the audited advice."""
    k = inst.k
    A = "".join("1" if ch == "0" else "0" for ch in inst.L)
    B = inst.L
    C = passthrough_circuit(k, inst.w)
    return PairInstance(A, B, inst.triple, C)


# ---------------------------------------------------------------------------
# the instance envelope that `reduce` writes

def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def envelope_text(task: str, params: dict[str, str],
                  files: list[tuple[str, str, str]]) -> str:
    """files: (role, name, content); contents are hashed, not embedded."""
    lines = [f"envelope {task}"]
    for key in params:
        lines.append(f"param {key} {params[key]}")
    for role, name, content in files:
        lines.append(f"file {role} {name} {sha256_hex(content)}")
    return "\n".join(lines) + "\n"
