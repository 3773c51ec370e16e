"""The four search tasks: Cert, Find, Err, Pair.

Instance records, solution verifiers, exhaustive desk-scale solvers, and the
Find-to-Cert reduction.  Solvers sweep candidates in lexicographic order and
return the least solution, so none-results are certified by a complete sweep
and reruns are deterministic.  Universal ("for all y") clauses go through
the DPLL engine on explicit circuits and bounded enumeration on opaque ones;
when a budget is too small the verdict is the distinct token ``unknown``,
never ``False``.

"Size k formula" always means: a bit string of length exactly k that decodes
under the canonical formula code.  Strings that do not decode are skipped by
solvers and rejected by verifiers.  A Find proof has fewer than k^c1 bits, so
the Find-to-Cert oracle reads the first floor((k^c1 - 1)/8) bytes of its y slot
of k^c1 bits, which may hold at most ``Y_WIDTH_LIMIT`` bits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from . import circuits as cc
from . import formulas as fm
from .circuits import Circuit, CircuitBuilder
from .frege import FregeSystem, ProofError, parse_proof
from .nwcore import Triple
from .proofsys import PlusAlphaSystem, _at_most_power, check_plus_alpha

UNKNOWN = "unknown"

#: largest proof-search budget (in bits) for which sound Find verification
#: enumerates every candidate proof string
SOUND_BIT_BUDGET = 22

#: largest k for which solvers sweep all 2^k candidate indices
SWEEP_K_LIMIT = 14

#: largest y slot (k^c1 bits) of the Find-to-Cert reduction
Y_WIDTH_LIMIT = 1 << 16


class TaskError(ValueError):
    pass


def _sweep(k: int):
    """All k-bit strings in lexicographic order; k is capped by SWEEP_K_LIMIT."""
    if k > SWEEP_K_LIMIT:
        raise fm.BudgetError(f"k={k} exceeds sweep limit {SWEEP_K_LIMIT}")
    return (format(v, f"0{k}b") for v in range(1 << k))


def _first_true(k: int, verify, what: str) -> str | None:
    """Least k-bit string that verify accepts; None after a complete sweep."""
    for s in _sweep(k):
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
    certified by the complete 2^k sweep."""
    for code in _sweep(inst.k):
        kind = _cert_kind(inst, code, budget)
        if kind:
            return CertSolution(kind, code)
    return None


# ---------------------------------------------------------------------------
# Find

def _fits(f: fm.Formula, k: int, c: int) -> bool:
    """Whether f has a code of some width w with 8 <= w <= k^c.  The widths
    2^(iw-1) < w <= 2^iw share the index width iw, and f fits each of them
    from its token length plus END on, so one length per index width decides."""
    iw = fm.index_width(8)
    while _at_most_power(lo := max(8, (1 << (iw - 1)) + 1), k, c):
        n = fm.code_length(f, iw)
        if n is not None and n + len(fm.TOK_END) <= 1 << iw:
            return _at_most_power(max(lo, n + len(fm.TOK_END)), k, c)
        iw += 1
    return False


@dataclass(frozen=True)
class FindInstance:
    """1^(k) plus an axiom alpha with a code of at most k^c0 bits; sought is
    a size-k tautology without a P+alpha proof of fewer than k^c1 bits."""

    P: FregeSystem
    alpha: fm.Formula
    k: int
    c0: int
    c1: int
    promise_checked: bool = field(init=False)

    def __post_init__(self):
        if self.k < 8:
            raise TaskError(f"k={self.k}: no code of fewer than 8 bits decodes")
        if self.c0 < 1 or self.c1 < 1:
            raise TaskError(f"need c0, c1 >= 1, got c0={self.c0}, c1={self.c1}")
        if not _fits(self.alpha, self.k, self.c0):
            raise TaskError(f"alpha does not fit {self.k}^{self.c0} code bits")
        # the promise (alpha is a tautology) is decided eagerly when feasible
        checked = len(fm.fvars(self.alpha)) <= 20
        if checked and not fm.is_tautology(self.alpha, mode="auto"):
            raise TaskError("alpha is not a tautology")
        object.__setattr__(self, "promise_checked", checked)

    @property
    def system(self) -> PlusAlphaSystem:
        return PlusAlphaSystem(self.P, self.alpha)


def _proof_strings(bit_budget: int):
    """Every byte string shorter than bit_budget bits, lexicographically."""
    nbytes = 0
    while 8 * nbytes < bit_budget:
        yield from (v.to_bytes(nbytes, "big") for v in range(1 << (8 * nbytes)))
        nbytes += 1


def _spells_proof(S: PlusAlphaSystem, phi: fm.Formula, raw: bytes) -> bool:
    """Whether the bytes raw spell a P+alpha proof of phi."""
    try:
        proof = parse_proof(raw.decode("utf-8"))
    except (UnicodeDecodeError, ProofError, fm.ParseError):
        return False
    return check_plus_alpha(S, phi, proof)


def verify_find_candidate(inst: FindInstance, beta: fm.Formula, mode: str = "sound") -> str:
    """'accepted' | 'rejected' | 'unverified'.

    Sound mode enumerates every proof string of fewer than k^c1 bits and
    accepts only when none is a P+alpha proof of beta; it therefore exists
    only under the explicit bit budget.  Heuristic mode stops after the
    tautology and size gates: proof nonexistence is not certified."""
    if fm.encode_k(beta, inst.k) is None or not fm.is_tautology(beta, mode="auto"):
        return "rejected"
    if mode == "heuristic":
        return "unverified"
    if mode != "sound":
        raise TaskError(f"unknown mode {mode!r}")
    if _at_most_power(SOUND_BIT_BUDGET + 1, inst.k, inst.c1):
        raise fm.BudgetError(
            f"k^c1 = {inst.k}^{inst.c1} bits exceeds sound search budget {SOUND_BIT_BUDGET}"
        )
    S = inst.system
    if any(_spells_proof(S, beta, raw) for raw in _proof_strings(inst.k**inst.c1)):
        return "rejected"
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
        if len(self.w) != self.triple.advice_width:
            raise TaskError(
                f"advice must have {self.triple.advice_width} bits, got {len(self.w)}"
            )
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
    c: int
    oracles: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        k = self.k
        if len(self.A) != 1 << k or len(self.B) != 1 << k:
            raise TaskError(f"membership tables must have {1 << k} bits")
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
    out = cc.eval_circuit(inst.C, {"u": u}, inst.oracles)
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
    return PairInstance(A, B, inst.triple, C, inst.triple.c)


# ---------------------------------------------------------------------------
# instance envelopes

def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Envelope:
    task: str
    params: dict[str, str]
    files: tuple[tuple[str, str, str], ...]  # (role, name, sha256)


def envelope_text(task: str, params: dict[str, str],
                  files: list[tuple[str, str, str]]) -> str:
    """files: (role, name, content); contents are hashed, not embedded."""
    lines = [f"envelope {task}"]
    for key in params:
        lines.append(f"param {key} {params[key]}")
    for role, name, content in files:
        lines.append(f"file {role} {name} {sha256_hex(content)}")
    return "\n".join(lines) + "\n"


def parse_envelope(text: str) -> Envelope:
    task = None
    params: dict[str, str] = {}
    files: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if toks[0] == "envelope" and len(toks) == 2:
            task = toks[1]
        elif toks[0] == "param" and len(toks) == 3:
            params[toks[1]] = toks[2]
        elif toks[0] == "file" and len(toks) == 4:
            files.append((toks[1], toks[2], toks[3]))
        else:
            raise TaskError(f"envelope line {lineno}: unrecognized {line!r}")
    if task is None:
        raise TaskError("missing envelope header")
    return Envelope(task, params, tuple(files))
