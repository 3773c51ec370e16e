"""NW generator core: pluggable base functions with unique witnesses, the
generator map and its full range, the tau_b tautology translation, the
error-task triples and truth tables from seeds.

Bit strings are python strings of '0'/'1'; seed bit j of x is x[j-1].

Evaluating the generator on a seed gathers every bit its blocks read in one
itemgetter call (built once per spec, which keeps it) and cuts the result
into l-bit block inputs.  Each base function keeps a table of the inputs it
has evaluated, so an input is computed once per base and the table holds at
most 2^l entries.  Likewise a spec keeps the clause set of each tau block it
has translated, which every tau that has the block joins: a tau shares the
block's clauses, and assembles its DIMACS lines and solver occurrence lists
from the ones the block keeps, so only a block met for the first time is
formatted and indexed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from . import formulas as fm
from .cnf import ClauseSet, dpll_solve
from .circuits import (
    Circuit,
    CircuitBuilder,
    circuit_clauses_mapped,
    eval_circuit,
    inline,
)
from .designs import DesignParams, blocks


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

    @cached_property
    def _seen(self) -> dict[str, tuple[int, str]]:
        """The base's table: each binary l-bit input it has evaluated maps to
        _forward's (bit, witness), so it holds at most 2^l entries; _forward
        is taken to be a pure function of its input."""
        return {}

    def evaluate(self, u: str) -> tuple[int, str]:
        """(bit, witness) on the l-bit input u, read from the base's table;
        an input the table lacks is computed once and kept."""
        value = self._seen.get(u)
        if value is None:
            if len(u) != self.l:
                raise NWError(f"expected {self.l} input bits, got {len(u)}")
            if u.strip("01"):
                raise NWError(f"input bits must be 0 or 1, got {u!r}")
            value = self._seen[u] = self._forward(u)
        return value

    def checker(self, a: int) -> Circuit:
        return self.f1 if a else self.f0


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
    if len(table) != 1 << l or table.strip("01"):
        raise NWError(f"table must be {1 << l} bits of 0 and 1")

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
                rotbit = right[(j + 1) % t]
                # (right_j AND k_j) XOR rot, where the AND is right_j or 0
                w = b.XOR(right[j], rotbit) if kbit else rotbit
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


#: the built-in base functions by name; tabular also takes its truth table
BASES = {"parity": _parity_base, "tabular": _tabular_base, "toy-owp": _toy_owp_base}


def builtin_base(name: str, l: int, table: str | None = None) -> BaseFunction:
    """A base function of BASES; table is the truth table that tabular
    needs and the others refuse.  The toy-owp is shape-correct only; it
    carries no hardness claim whatsoever."""
    if name == "tabular":
        if table is None:
            raise NWError("tabular base needs a truth table")
        return _tabular_base(l, table)
    if name not in BASES:
        raise NWError(f"unknown base function {name!r}")
    if table is not None:
        raise NWError(f"{name} base takes no truth table")
    return BASES[name](l)


# ---------------------------------------------------------------------------
# the generator

@dataclass(frozen=True)
class GeneratorSpec:
    """A design and a base function of its block size."""

    design: DesignParams
    base: BaseFunction

    def __post_init__(self):
        if self.base.l != self.design.l:
            raise NWError(
                f"base input width {self.base.l} != design block size {self.design.l}"
            )

    @cached_property
    def _pieces(self) -> dict[tuple[int, str, int], ClauseSet]:
        """tau_of's table of block pieces (see tau_of)."""
        return {}

    @cached_property
    def _gather(self) -> itemgetter:
        """The itemgetter of the m*l seed bits the blocks read, in output
        order, which cut into l-bit pieces are the block inputs; a later
        evaluation neither hashes the design nor walks its blocks."""
        design = self.design
        table = blocks(design)
        for J in table:
            if len(J) != design.l:
                raise NWError(f"expected {design.l} input bits, got {len(J)}")
        return itemgetter(*[j - 1 for J in table for j in J])


def seed_restriction(x, J) -> str:
    """x(J): the bits of x at the (1-based) sorted positions of J, a list
    from block() or a tuple from the block table."""
    bits = "".join(str(x[j - 1]) for j in J)
    if bits.strip("01"):
        raise NWError(f"seed bits must be 0 or 1, got {bits!r} at positions {list(J)}")
    return bits


def _block_values(spec: GeneratorSpec, x: str) -> list[tuple[int, str]]:
    """(bit, witness) of the base function on each block of seed x, in
    output order."""
    design = spec.design
    if len(x) != design.n:
        raise NWError(f"seed must have {design.n} bits, got {len(x)}")
    evaluate = spec.base.evaluate
    # a binary seed needs no check per block; any other seed goes through
    # seed_restriction, whose error names the first block reading a bad bit
    if isinstance(x, str) and not x.strip("01"):
        bits = "".join(spec._gather(x))
        l, seen = design.l, spec.base._seen
        return [seen.get(bits[i:i + l]) or evaluate(bits[i:i + l])
                for i in range(0, len(bits), l)]
    return [evaluate(seed_restriction(x, J)) for J in blocks(design)]


def nw_eval(spec: GeneratorSpec, x: str) -> str:
    return "".join(["01"[bit] for bit, _ in _block_values(spec, x)])


RANGE_ORACLE_LIMIT = 22


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


def tau_of(spec: GeneratorSpec, b: str) -> TauResult:
    """The negation clauses of tau(NW)_b, block by block.

    A block's clauses depend only on its index i, its bit b_i and its first
    fresh variable, so the spec keeps each block's piece under the key
    (i, b_i, first variable), built and checked on first use: a clause set
    of the block's clauses, its witness and computation variables numbered
    from the first, ending in the unit of its output, whose nvars is the
    last of those variables.  The first variable of block i is n + 1 plus
    the sizes of the earlier blocks; with two checker sizes, block i sees at
    most i + 1 of them, so the table holds at most m(m+1) pieces, whose
    clause tuples, DIMACS lines and occurrence lists every result shares
    through ``ClauseSet.join``."""
    design = spec.design
    base = spec.base
    if len(b) != design.m or b.strip("01"):
        raise NWError(f"b must be {design.m} bits of 0 and 1")
    n = design.n
    pieces = spec._pieces
    next_var = n + 1
    parts: list[ClauseSet] = []
    for i, bit in enumerate(b):
        piece = pieces.get((i, bit, next_var))
        if piece is None:
            checker = base.checker(int(bit))
            end = next_var + base.witness_width + checker.size
            wires = [*blocks(design)[i], *range(next_var, end)]
            clauses, outs = circuit_clauses_mapped(checker, wires)
            piece = pieces[i, bit, next_var] = ClauseSet((*clauses, (outs[0],)), end - 1)
        parts.append(piece)
        next_var = piece.nvars + 1
    comments = (
        f"tau(NW)_b negation: design n={n} m={design.m} l={design.l} d={design.d} tag={design.tag}",
        f"base={base.name} witness_width={base.witness_width}",
        f"b={b}",
        "vars: x=1.." + str(n) + " then per-block witness and computation vars",
    )
    return TauResult(ClauseSet.join(parts, next_var - 1, comments))


def tau_verdict(tau: TauResult) -> bool:
    """True iff tau is a tautology, decided by DPLL on the negation clauses."""
    return dpll_solve(tau.clauses) is None


# ---------------------------------------------------------------------------
# triples and truth tables from seeds

@dataclass(frozen=True)
class Triple:
    """Witness checkers F0, F1 over groups x (k bits), y (witness bits),
    w (advice bits), with the exclusivity property (exactly one of the two
    has a witness for every (x, w))."""

    f0: Circuit
    f1: Circuit

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
    def advice_width(self) -> int:
        return dict(self.f0.groups)["w"]

    def accepts(self, a: int, x: str, y: str, w: str) -> bool:
        circ = self.f1 if a else self.f0
        return eval_circuit(circ, {"x": x, "y": y, "w": w}) == "1"


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
    k = _index_width(spec.design)
    n = spec.design.n
    base = spec.base

    def build(a: int) -> Circuit:
        b = CircuitBuilder([("x", k), ("y", base.witness_width), ("w", n)])
        branches = []
        for i, J in enumerate(blocks(spec.design)):
            sel = b.equals_const([b.inp("x", j + 1) for j in range(k)], format(i, f"0{k}b"))
            u_wires = [b.inp("w", j) for j in J]
            y_wires = [b.inp("y", j + 1) for j in range(base.witness_width)]
            (val,) = inline(b, base.checker(a), u_wires + y_wires)
            branches.append(b.AND(sel, val))
        return b.build([b.or_list(branches)])

    return Triple(build(0), build(1))


def ttable_from_seed(spec: GeneratorSpec, a: str) -> tuple[str, list[str]]:
    """The 2^k-bit truth table NW(a) together with the collected witness
    bundle (one base-function witness per index)."""
    _index_width(spec.design)  # the table is indexed by k-bit strings
    values = _block_values(spec, a)
    return "".join(["01"[bit] for bit, _ in values]), [wit for _, wit in values]
