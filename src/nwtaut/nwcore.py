"""NW generator core: pluggable base functions with unique witnesses, the
generator map, range oracles, the tau_b tautology translation, error-task
triples and the advice-baked circuits.

Bit strings are python strings of '0'/'1'; seed bit j of x is x[j-1].
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import formulas as fm
from .cnf import ClauseSet, dpll_solve
from .circuits import (
    Circuit,
    CircuitBuilder,
    circuit_clauses_mapped,
    eval_circuit,
    inline,
)
from .designs import DesignParams, block


class NWError(ValueError):
    pass


# ---------------------------------------------------------------------------
# base functions

@dataclass(frozen=True)
class BaseFunction:
    """A 0/1 function on l-bit strings with checkable witnesses for both
    values: exactly one of F0, F1 has a witness on every input, and that
    witness is unique."""

    name: str
    l: int
    witness_width: int
    f0: Circuit  # groups ("u", l), ("y", witness_width)
    f1: Circuit
    _forward: callable = field(repr=False, compare=False, default=None)

    def evaluate(self, u: str) -> tuple[int, str]:
        if len(u) != self.l:
            raise NWError(f"expected {self.l} input bits, got {len(u)}")
        return self._forward(u)

    def checker(self, a: int) -> Circuit:
        return self.f1 if a else self.f0

    def verify(self, a: int, u: str, y: str) -> bool:
        if len(y) != self.witness_width:
            return False
        return eval_circuit(self.checker(a), {"u": u, "y": y}) == "1"


def _parity_base(l: int) -> BaseFunction:
    def build(a: int) -> Circuit:
        b = CircuitBuilder([("u", l), ("y", 0)])
        p = b.inp("u", 1)
        for j in range(2, l + 1):
            p = b.XOR(p, b.inp("u", j))
        return b.build([p if a else b.NOT(p)])

    def forward(u: str) -> tuple[int, str]:
        return u.count("1") % 2, ""

    return BaseFunction("parity", l, 0, build(0), build(1), forward)


def _tabular_base(l: int, table: str) -> BaseFunction:
    if len(table) != 1 << l:
        raise NWError(f"table must have {1 << l} bits")

    def build(a: int) -> Circuit:
        b = CircuitBuilder([("u", l), ("y", 0)])
        rows = [
            b.equals_const([b.inp("u", j + 1) for j in range(l)], format(r, f"0{l}b"))
            for r in range(1 << l)
            if int(table[r]) == a
        ]
        out = b.or_list(rows) if rows else b.const(0)
        return b.build([out])

    def forward(u: str) -> tuple[int, str]:
        return int(table[int(u, 2)]), ""

    return BaseFunction("tabular", l, 0, build(0), build(1), forward)


def _feistel_constants(l: int) -> list[tuple[int, int]]:
    """Published round constants (K_i, C_i) for the 3-round toy permutation."""
    t = l // 2
    mask = (1 << t) - 1
    out = []
    for i in range(1, 4):
        k = ((2 * i - 1) * 2654435761) % (1 << 32) & mask
        c = (2 * i * 2654435761) % (1 << 32) & mask
        out.append((k, c))
    return out


def _feistel_round_fn(r: int, k: int, c: int, t: int) -> int:
    """G(r) = (r AND k) XOR rot1(r) XOR c on t-bit ints (MSB-first strings)."""
    rot = ((r << 1) | (r >> (t - 1))) & ((1 << t) - 1)
    return (r & k) ^ rot ^ c


def _toy_owp_base(l: int) -> BaseFunction:
    if l % 2 != 0 or l < 2:
        raise NWError("toy-owp needs an even input width >= 2")
    t = l // 2
    consts = _feistel_constants(l)

    def h(y: int) -> int:
        left, right = y >> t, y & ((1 << t) - 1)
        for k, c in consts:
            left, right = right, left ^ _feistel_round_fn(right, k, c, t)
        return (left << t) | right

    def h_inv(u: int) -> int:
        left, right = u >> t, u & ((1 << t) - 1)
        for k, c in reversed(consts):
            left, right = right ^ _feistel_round_fn(left, k, c, t), left
        return (left << t) | right

    def forward(u: str) -> tuple[int, str]:
        y = h_inv(int(u, 2))
        ybits = format(y, f"0{l}b")
        return int(ybits[0]), ybits

    def build(a: int) -> Circuit:
        b = CircuitBuilder([("u", l), ("y", l)])
        left = [b.inp("y", j + 1) for j in range(t)]
        right = [b.inp("y", t + j + 1) for j in range(t)]
        for k, c in consts:
            g = []
            for j in range(t):  # bit j of G(right), MSB-first
                kbit = (k >> (t - 1 - j)) & 1
                cbit = (c >> (t - 1 - j)) & 1
                anded = right[j] if kbit else None
                rotbit = right[(j + 1) % t]
                if anded is None:
                    w = rotbit
                else:
                    # need (right_j AND k_j) XOR rot: k_j == 1 here
                    w = b.XOR(anded, rotbit)
                if cbit:
                    w = b.NOT(w)
                g.append(w)
            left, right = right, [b.XOR(left[j], g[j]) for j in range(t)]
        hy = left + right
        eqs = []
        for j in range(l):
            u_j = b.inp("u", j + 1)
            x = b.XOR(hy[j], u_j)
            eqs.append(b.NOT(x))
        eq = b.and_list(eqs)
        bbit = b.inp("y", 1)  # hard bit: first bit of the preimage
        out = b.AND(eq, bbit if a else b.NOT(bbit))
        return b.build([out])

    return BaseFunction("toy-owp", l, l, build(0), build(1), forward)


def builtin_base(name: str, l: int, table: str | None = None) -> BaseFunction:
    """parity | tabular | toy-owp.  The toy-owp is shape-correct only; it
    carries no hardness claim whatsoever."""
    if name == "parity":
        return _parity_base(l)
    if name == "tabular":
        if table is None:
            raise NWError("tabular base needs a truth table")
        return _tabular_base(l, table)
    if name == "toy-owp":
        return _toy_owp_base(l)
    raise NWError(f"unknown base function {name!r}")


# ---------------------------------------------------------------------------
# the generator

@dataclass(frozen=True)
class GeneratorSpec:
    design: DesignParams
    base: BaseFunction

    def __post_init__(self):
        if self.base.l != self.design.l:
            raise NWError(
                f"base input width {self.base.l} != design block size {self.design.l}"
            )


def seed_restriction(x, J: list[int]) -> str:
    """x(J): the bits of x at the (1-based) sorted positions of J."""
    bits = "".join(str(x[j - 1]) for j in J)
    if bits.strip("01"):
        raise NWError(f"seed bits must be 0 or 1, got {bits!r} at positions {J}")
    return bits


def _block_values(spec: GeneratorSpec, x: str) -> list[tuple[int, str]]:
    """(bit, witness) of the base function on each block of seed x, in
    output order."""
    if len(x) != spec.design.n:
        raise NWError(f"seed must have {spec.design.n} bits, got {len(x)}")
    return [spec.base.evaluate(seed_restriction(x, block(spec.design, i)))
            for i in range(1, spec.design.m + 1)]


def nw_eval(spec: GeneratorSpec, x: str) -> str:
    return "".join(str(bit) for bit, _ in _block_values(spec, x))


RANGE_ORACLE_LIMIT = 22


def range_oracle(spec: GeneratorSpec, b: str) -> str | None:
    """Lexicographically least preimage seed of b, or None (exhaustive)."""
    n = spec.design.n
    if n > RANGE_ORACLE_LIMIT:
        raise fm.BudgetError(f"n={n} exceeds range oracle budget {RANGE_ORACLE_LIMIT}")
    if len(b) != spec.design.m:
        raise NWError(f"b must have {spec.design.m} bits")
    for val in range(1 << n):
        x = format(val, f"0{n}b")
        if nw_eval(spec, x) == b:
            return x
    return None


def full_range(spec: GeneratorSpec) -> set[str]:
    n = spec.design.n
    if n > RANGE_ORACLE_LIMIT:
        raise fm.BudgetError(f"n={n} exceeds range oracle budget {RANGE_ORACLE_LIMIT}")
    return {nw_eval(spec, format(v, f"0{n}b")) for v in range(1 << n)}


# ---------------------------------------------------------------------------
# tau translation

@dataclass(frozen=True)
class TauResult:
    """tau(NW)_b given as the clause set of its negation (the SAT benchmark):
    the clauses are unsatisfiable exactly when tau(NW)_b is a tautology.

    Variable layout: seed bits x are 1..n; then per output bit i (in output
    order) a fresh witness block y^(i) followed by that block's computation
    variables."""

    clauses: ClauseSet
    b: str
    n: int


def tau_of(spec: GeneratorSpec, b: str) -> TauResult:
    design = spec.design
    base = spec.base
    if len(b) != design.m or b.strip("01"):
        raise NWError(f"b must be {design.m} bits of 0 and 1")
    n = design.n
    next_var = n + 1
    clauses: list[list[int]] = []
    for i in range(1, design.m + 1):
        J = block(design, i)
        checker = base.checker(int(b[i - 1]))
        if checker.has_opaque():
            raise NWError("tau translation needs explicit witness checkers")
        width = base.witness_width + checker.size
        fresh = list(range(next_var, next_var + width))
        next_var += width
        blk_clauses, outs = circuit_clauses_mapped(checker, list(J) + fresh)
        clauses.extend(blk_clauses)
        clauses.append([outs[0]])
    cs = ClauseSet(clauses, next_var - 1)
    cs.comments = [
        f"tau(NW)_b negation: design n={n} m={design.m} l={design.l} d={design.d} tag={design.tag}",
        f"base={base.name} witness_width={base.witness_width}",
        f"b={b}",
        "vars: x=1.." + str(n) + " then per-block witness and computation vars",
    ]
    return TauResult(cs, b, n)


def tau_verdict(tau: TauResult) -> bool:
    """True iff tau is a tautology, decided by DPLL on the negation clauses."""
    return dpll_solve(tau.clauses) is None


def tau_preimage(tau: TauResult) -> str | None:
    """Seed projected from the lex-least model of the negation clauses."""
    model = dpll_solve(tau.clauses)
    if model is None:
        return None
    return "".join(str(model[v]) for v in range(1, tau.n + 1))


# ---------------------------------------------------------------------------
# triples, D_k circuits, truth tables from seeds

@dataclass(frozen=True)
class Triple:
    """Witness checkers F0, F1 over groups x (k bits), y (witness bits),
    w (advice bits), with the exclusivity property (exactly one of the two
    has a witness for every (x, w))."""

    f0: Circuit
    f1: Circuit
    c: int

    def __post_init__(self):
        if self.f0.groups != self.f1.groups:
            raise NWError("triple checkers disagree on input groups")
        names = [n for n, _ in self.f0.groups]
        if names != ["x", "y", "w"]:
            raise NWError("triple checkers need groups x, y, w")

    @property
    def k(self) -> int:
        return dict(self.f0.groups)["x"]

    @property
    def witness_width(self) -> int:
        return dict(self.f0.groups)["y"]

    @property
    def advice_width(self) -> int:
        return dict(self.f0.groups)["w"]

    def accepts(self, a: int, x: str, y: str, w: str) -> bool:
        circ = self.f1 if a else self.f0
        return eval_circuit(circ, {"x": x, "y": y, "w": w}) == "1"

    def has_witness(self, a: int, x: str, w: str) -> bool:
        yw = self.witness_width
        return any(
            self.accepts(a, x, format(v, f"0{yw}b") if yw else "", w)
            for v in range(1 << yw)
        )


def _index_width(design: DesignParams) -> int:
    """k with m = 2^k: the output bits of the design indexed by k-bit strings."""
    m = design.m
    k = m.bit_length() - 1
    if 1 << k != m:
        raise NWError(f"design m={m} is not a power of two")
    return k


def err_triple(spec: GeneratorSpec) -> Triple:
    """The generator-induced triple: F_a(x,y,w) applies the base checker to
    (w(J_x), y), where J_x is the design block selected by index x."""
    m = spec.design.m
    k = _index_width(spec.design)
    n = spec.design.n
    base = spec.base

    def build(a: int) -> Circuit:
        b = CircuitBuilder([("x", k), ("y", base.witness_width), ("w", n)])
        branches = []
        for i in range(m):
            sel = b.equals_const([b.inp("x", j + 1) for j in range(k)], format(i, f"0{k}b"))
            J = block(spec.design, i + 1)
            u_wires = [b.inp("w", j) for j in J]
            y_wires = [b.inp("y", j + 1) for j in range(base.witness_width)]
            (val,) = inline(b, base.checker(a), u_wires + y_wires)
            branches.append(b.AND(sel, val))
        return b.build([b.or_list(branches)])

    return Triple(build(0), build(1), c=spec.base.l)


def dk_circuit(t: Triple, w_k: str) -> Circuit:
    """D_k(x,y): the F1 checker with the advice baked in as constants."""
    if len(w_k) > t.advice_width:
        raise NWError(
            f"advice of length {len(w_k)} exceeds bound {t.advice_width}"
        )
    w_bits = w_k + "0" * (t.advice_width - len(w_k))
    b = CircuitBuilder([("x", t.k), ("y", t.witness_width)])
    c1 = b.const(1)
    c0 = b.NOT(c1)
    x_wires = [b.inp("x", j + 1) for j in range(t.k)]
    y_wires = [b.inp("y", j + 1) for j in range(t.witness_width)]
    w_wires = [c1 if bit == "1" else c0 for bit in w_bits]
    (out,) = inline(b, t.f1, x_wires + y_wires + w_wires)
    return b.build([out])


def compute_bit(spec: GeneratorSpec, i: str, a) -> tuple[int, str]:
    """Bit at k-bit index i of NW(a), reading only the positions of the
    selected block from a (advice-style local computation)."""
    k = _index_width(spec.design)
    if len(a) != spec.design.n:
        raise NWError(f"seed must have {spec.design.n} bits, got {len(a)}")
    if len(i) != k:
        raise NWError(f"index must have {k} bits")
    idx = int(i, 2) + 1
    u = seed_restriction(a, block(spec.design, idx))
    return spec.base.evaluate(u)


def ttable_from_seed(spec: GeneratorSpec, a: str) -> tuple[str, list[str]]:
    """The 2^k-bit truth table NW(a) together with the collected witness
    bundle (one base-function witness per index)."""
    _index_width(spec.design)  # the table is indexed by k-bit strings
    values = _block_values(spec, a)
    return "".join(str(bit) for bit, _ in values), [wit for _, wit in values]
