"""Boolean circuits with named input groups and optional opaque blocks.

Wires are integers: inputs occupy 0..n_in-1 flattened in group order, gate i
produces wire n_in+i.  Gate basis is AND/OR/NOT; opaque blocks name an
external predicate over declared input wires.  Opaque circuits support
evaluation and bounded enumeration only; clause translation (the package's
one Tseitin rule), circuit_to_formula and the text format require explicit
circuits.  ``sat_search`` translates an explicit circuit once and keeps the
clause set with the circuit, so repeated searches with other fixings reuse it.

Canonical text format (one item per line):

    circuit
    group <name> <width>
    g<i> = AND|OR|NOT <wire> [<wire>]
    output <wire...>

where a wire is written ``<group>:<j>`` (j 1-based) or ``g<i>`` (i 1-based),
with j and i ASCII decimals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import formulas as fm
from .cnf import ClauseSet, _decimal, dpll_solve, gate_clauses


class CircuitError(ValueError):
    pass


# length of each gate tuple: the op, then its operands or name and operands
_GATE_FIELDS = {"not": 2, "and": 3, "or": 3, "opaque": 3}


def gate_operands(g: tuple) -> tuple[int, ...]:
    """The wires gate g reads, in order."""
    return g[2] if g[0] == "opaque" else g[1:]


def _group_offset(groups, name: str) -> tuple[int, int]:
    """First wire and width of input group name."""
    off = 0
    for n, w in groups:
        if n == name:
            return off, w
        off += w
    raise CircuitError(f"no group {name!r}")


def _input_wire(groups, name: str, j: int) -> int:
    """Wire of the 1-based bit j of input group name."""
    off, w = _group_offset(groups, name)
    if not 1 <= j <= w:
        raise CircuitError(f"bit {j} out of range for group {name}")
    return off + j - 1


@dataclass(frozen=True)
class Circuit:
    groups: tuple[tuple[str, int], ...]
    gates: tuple[tuple, ...]          # ("not",a) ("and",a,b) ("or",a,b) ("opaque",name,args)
    outputs: tuple[int, ...]

    def __post_init__(self):
        for field in ("groups", "gates", "outputs"):
            if type(getattr(self, field)) is not tuple:
                raise CircuitError(f"{field} {getattr(self, field)!r} is not a tuple")
        for g in self.groups:
            if type(g) is not tuple or len(g) != 2 or type(g[0]) is not str:
                raise CircuitError(f"malformed group {g!r}")
        names = [n for n, _ in self.groups]
        if len(set(names)) != len(names):
            raise CircuitError("duplicate group name")
        for n, w in self.groups:
            if type(w) is not int:
                raise CircuitError(f"group {n}: width {w!r} is not an integer")
            if w < 0:
                raise CircuitError(f"negative width for group {n}")
        limit = self.n_inputs  # gate i reads wires below n_inputs + i
        for i, g in enumerate(self.gates):
            op = g[0] if type(g) is tuple and g and type(g[0]) is str else None
            ops = gate_operands(g) if op in _GATE_FIELDS and len(g) == _GATE_FIELDS[op] else None
            if type(ops) is not tuple:
                raise CircuitError(f"gate {i}: malformed gate {g!r}")
            for a in ops:
                if type(a) is not int:
                    raise CircuitError(f"gate {i}: wire {a!r} is not an integer")
                if not 0 <= a < limit:
                    raise CircuitError(f"gate {i}: wire {a} not yet defined")
            limit += 1
        for o in self.outputs:
            if type(o) is not int:
                raise CircuitError(f"output wire {o!r} is not an integer")
            if not 0 <= o < limit:
                raise CircuitError(f"output wire {o} undefined")

    @property
    def n_inputs(self) -> int:
        return sum(w for _, w in self.groups)

    @property
    def size(self) -> int:
        return len(self.gates)

    def group_offset(self, name: str) -> tuple[int, int]:
        return _group_offset(self.groups, name)

    def has_opaque(self) -> bool:
        return any(g[0] == "opaque" for g in self.gates)

    @cached_property
    def _clauses(self) -> ClauseSet | None:
        """sat_search's clause set, the Tseitin clauses plus the output unit,
        built on the first search; None for an opaque circuit."""
        if self.has_opaque():
            return None
        cs, outs = circuit_clauses(self)
        return ClauseSet.join([cs, ClauseSet([(outs[0],)], cs.nvars)], cs.nvars)


class CircuitBuilder:
    """Incremental construction helper; wires are the same integers as in Circuit."""

    def __init__(self, groups: list[tuple[str, int]]):
        self.groups = tuple(groups)
        self.n_in = sum(w for _, w in self.groups)
        self.gates: list[tuple] = []
        self.const_anchor = 0

    def inp(self, name: str, j: int) -> int:
        """1-based bit j of input group name."""
        return _input_wire(self.groups, name, j)

    def _add(self, gate: tuple) -> int:
        self.gates.append(gate)
        return self.n_in + len(self.gates) - 1

    def NOT(self, a: int) -> int:
        return self._add(("not", a))

    def AND(self, a: int, b: int) -> int:
        return self._add(("and", a, b))

    def OR(self, a: int, b: int) -> int:
        return self._add(("or", a, b))

    def XOR(self, a: int, b: int) -> int:
        return self.OR(self.AND(a, self.NOT(b)), self.AND(self.NOT(a), b))

    def opaque(self, name: str, args: list[int]) -> int:
        return self._add(("opaque", name, tuple(args)))

    def const(self, bit: int) -> int:
        """Constant wire built from the wire const_anchor (initially wire 0)."""
        if self.n_in == 0:
            raise CircuitError("const wire needs at least one input")
        a = self.const_anchor
        w = self.NOT(a)
        t = self.OR(a, w)  # tautological wire
        return t if bit else self.NOT(t)

    def and_list(self, wires: list[int]) -> int:
        if not wires:
            raise CircuitError("and_list of nothing")
        out = wires[0]
        for w in wires[1:]:
            out = self.AND(out, w)
        return out

    def or_list(self, wires: list[int]) -> int:
        if not wires:
            raise CircuitError("or_list of nothing")
        out = wires[0]
        for w in wires[1:]:
            out = self.OR(out, w)
        return out

    def equals_const(self, wires: list[int], bits: str) -> int:
        """Wire that is 1 iff the listed wires spell the given bit string."""
        if len(wires) != len(bits):
            raise CircuitError("width mismatch in equals_const")
        lits = [w if b == "1" else self.NOT(w) for w, b in zip(wires, bits)]
        return self.and_list(lits) if lits else self.const(1)

    def build(self, outputs: list[int]) -> Circuit:
        return Circuit(self.groups, tuple(self.gates), tuple(outputs))


# ---------------------------------------------------------------------------
# evaluation

def wire_values(
    circ: Circuit,
    inputs: dict[str, str],
    oracles: dict | None = None,
) -> list[int]:
    """Value of every wire (inputs then gates) on the given input bits."""
    vals: list[int] = []
    for name, width in circ.groups:
        if name not in inputs:
            raise CircuitError(f"missing input group {name!r}")
        bits = inputs[name]
        if len(bits) != width:
            raise CircuitError(f"group {name!r}: expected {width} bits, got {len(bits)}")
        if bits.strip("01"):
            raise CircuitError(f"group {name!r}: bits must be 0 or 1, got {bits!r}")
        vals.extend(1 if b == "1" else 0 for b in bits)
    for g in circ.gates:
        op = g[0]
        if op == "not":
            vals.append(1 - vals[g[1]])
        elif op == "and":
            vals.append(vals[g[1]] & vals[g[2]])
        elif op == "or":
            vals.append(vals[g[1]] | vals[g[2]])
        else:
            name = g[1]
            if not oracles or name not in oracles:
                raise CircuitError(f"unresolved opaque block {name!r}")
            vals.append(1 if oracles[name](tuple(vals[a] for a in g[2])) else 0)
    return vals


def eval_circuit(
    circ: Circuit,
    inputs: dict[str, str],
    oracles: dict | None = None,
) -> str:
    """Evaluate; inputs maps group name -> bit string, returns output bits."""
    vals = wire_values(circ, inputs, oracles)
    return "".join(str(vals[o]) for o in circ.outputs)


def gate_bits(circ: Circuit, inputs: dict[str, str]) -> str:
    """Values of the gate wires, in gate order, on the given input bits."""
    vals = wire_values(circ, inputs)
    return "".join(str(b) for b in vals[circ.n_inputs:])


# ---------------------------------------------------------------------------
# clause translation / formula translation (explicit circuits only)

def circuit_clauses(circ: Circuit) -> tuple[ClauseSet, list[int]]:
    """Tseitin clauses; input wire w -> variable w+1, gate i -> n_in+i+1.

    Returns (clauses, output variable list)."""
    nvars = circ.n_inputs + circ.size
    clauses, outs = circuit_clauses_mapped(circ, list(range(1, nvars + 1)))
    return ClauseSet(clauses, nvars), outs


def circuit_clauses_mapped(circ: Circuit, wire_vars: list[int]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Tseitin clauses with a caller-chosen variable for every wire
    (inputs then gates); returns (clauses, output variables)."""
    if circ.has_opaque():
        raise CircuitError("clause translation requires an explicit circuit")
    n_in = circ.n_inputs
    if len(wire_vars) != n_in + len(circ.gates):
        raise CircuitError("wire variable map has wrong length")
    clauses: list[tuple[int, ...]] = []
    for v, g in zip(wire_vars[n_in:], circ.gates):
        # g[-1] is the second operand of AND/OR and is ignored for NOT
        clauses.extend(gate_clauses(g[0], v, wire_vars[g[1]], wire_vars[g[-1]]))
    return clauses, [wire_vars[o] for o in circ.outputs]


@dataclass(frozen=True)
class CircuitFormula:
    """circuit_to_formula result: CORRECT as a conjunction of gate
    equivalences over input vars and computation vars, plus the out vars."""

    correct: fm.Formula
    out_vars: tuple[int, ...]
    conjuncts: tuple[fm.Formula, ...]


def equiv(a: fm.Formula, b: fm.Formula) -> fm.Formula:
    return ("and", ("or", ("not", a), b), ("or", ("not", b), a))


def _gate_formula(g: tuple, wire) -> fm.Formula:
    """The gate op applied to the formulas wire[a] of its operands."""
    return (g[0], *(wire[a] for a in g[1:]))


def circuit_to_formula(circ: Circuit, wire_vars: list[int]) -> CircuitFormula:
    """Gate-definition equivalences CORRECT(inputs, s) with out variables,
    with a caller-chosen variable for every wire (inputs then gates).

    For every fixed input there is exactly one satisfying setting of the
    computation variables s, on which each out var equals the circuit output.
    """
    if circ.has_opaque():
        raise CircuitError("circuit_to_formula requires an explicit circuit")
    n_in = circ.n_inputs
    if len(wire_vars) != n_in + len(circ.gates):
        raise CircuitError("wire variable map has wrong length")
    wire = [("var", v) for v in wire_vars]
    conjuncts = tuple(
        equiv(wire[n_in + i], _gate_formula(g, wire)) for i, g in enumerate(circ.gates)
    )
    return CircuitFormula(
        fm.big_and(conjuncts), tuple(wire_vars[o] for o in circ.outputs), conjuncts
    )


def gate_formulas(circ: Circuit, wire_formula: dict[int, fm.Formula]) -> dict[int, fm.Formula]:
    """Formula computed at every wire, given formulas for the input wires.

    No simplification: the formula at a gate literally applies the gate op to
    the argument formulas (exact match for the D4 substitution argument)."""
    if circ.has_opaque():
        raise CircuitError("gate_formulas requires an explicit circuit")
    n_in = circ.n_inputs
    out = dict(wire_formula)
    for w in range(n_in):
        if w not in out:
            raise CircuitError(f"input wire {w} has no formula")
    for i, g in enumerate(circ.gates):
        out[n_in + i] = _gate_formula(g, out)
    return out


def inline(b: CircuitBuilder, circ: Circuit, input_wires: list[int]) -> list[int]:
    """Append circ's gates to builder b, feeding them the given wires (one per
    flattened input of circ); returns the wires of circ's outputs."""
    if len(input_wires) != circ.n_inputs:
        raise CircuitError("inline: input wire count mismatch")
    # circ's gate i becomes the builder's next gate, wire top + i
    top = b.n_in + len(b.gates)
    wmap = [*input_wires, *range(top, top + circ.size)]
    for g in circ.gates:
        args = [wmap[a] for a in gate_operands(g)]
        b.gates.append(("opaque", g[1], tuple(args)) if g[0] == "opaque" else (g[0], *args))
    return [wmap[o] for o in circ.outputs]


# ---------------------------------------------------------------------------
# satisfiability search

#: most free input bits that sat_search enumerates on an opaque circuit
ENUMERATION_LIMIT = 20
#: largest k of universal_evaluator, whose selector has an entry per decodable code
UNIVERSAL_K_LIMIT = 20


def sat_search(
    circ: Circuit, fixed: dict[str, str] | None = None, oracles: dict | None = None
) -> dict[str, str] | None:
    """Lexicographically least satisfying completion of the free input groups.

    The circuit is read as a predicate through its single output wire.
    Explicit circuits run through the DPLL engine on their Tseitin clauses
    plus the output unit, translated on the first search and kept by the
    circuit (``Circuit._clauses``) for every later one, which also reuses
    the clause set's solver index; only the fixings and the decision order
    are built per call.  Opaque ones enumerate the free bits (at most
    ``ENUMERATION_LIMIT`` of them).
    """
    if len(circ.outputs) != 1:
        raise CircuitError("sat_search needs a single-output circuit")
    fixed = fixed or {}
    free_groups = [(n, w) for n, w in circ.groups if n not in fixed]
    for n in fixed:
        circ.group_offset(n)  # validates the name

    cs = circ._clauses
    if cs is None:
        nfree = sum(w for _, w in free_groups)
        if nfree > ENUMERATION_LIMIT:
            raise fm.BudgetError(f"{nfree} free bits exceed enumeration limit {ENUMERATION_LIMIT}")
        for val in range(1 << nfree):
            bits = format(val, f"0{nfree}b") if nfree else ""
            inputs = dict(fixed)
            pos = 0
            for n, w in free_groups:
                inputs[n] = bits[pos : pos + w]
                pos += w
            if eval_circuit(circ, inputs, oracles) == "1":
                return {n: inputs[n] for n, _ in free_groups}
        return None
    fixing: dict[int, int] = {}
    for name, bits in fixed.items():
        off, w = circ.group_offset(name)
        if len(bits) != w or bits.strip("01"):
            raise CircuitError(f"group {name!r}: expected {w} bits of 0 and 1")
        for j, b in enumerate(bits):
            fixing[off + j + 1] = 1 if b == "1" else 0
    order = []
    for name, w in free_groups:
        off, _ = circ.group_offset(name)
        order.extend(range(off + 1, off + w + 1))
    order.extend(range(circ.n_inputs + 1, cs.nvars + 1))
    model = dpll_solve(cs, fixed=fixing, decision_order=order)
    if model is None:
        return None
    result = {}
    for name, w in free_groups:
        off, _ = circ.group_offset(name)
        result[name] = "".join(str(model[off + j + 1]) for j in range(w))
    return result


# ---------------------------------------------------------------------------
# text serialization

def serialize(circ: Circuit) -> str:
    if circ.has_opaque():
        raise CircuitError("the text format has no opaque gates")
    names = [f"{name}:{j}" for name, w in circ.groups for j in range(1, w + 1)]
    names += [f"g{i}" for i in range(1, circ.size + 1)]
    lines = ["circuit"]
    for name, w in circ.groups:
        lines.append(f"group {name} {w}")
    for i, g in enumerate(circ.gates):
        args = " ".join(names[a] for a in g[1:])
        lines.append(f"g{i + 1} = {g[0].upper()} {args}")
    lines.append("output " + " ".join(names[o] for o in circ.outputs))
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    groups: list[tuple[str, int]] = []
    gates: list[tuple] = []
    outputs: list[int] | None = None
    seen_header = False

    def err(lineno: int, msg: str) -> CircuitError:
        return CircuitError(f"line {lineno}: {msg}")

    def resolve(tok: str, lineno: int) -> int:
        name, colon, j = tok.partition(":")
        if not colon and tok.startswith("g"):
            j = tok[1:]
        j = _decimal(j)
        if j is None:
            raise err(lineno, f"bad wire reference {tok!r}")
        if colon:
            try:
                return _input_wire(groups, name, j)
            except CircuitError as exc:
                raise err(lineno, str(exc)) from None
        if not 1 <= j <= len(gates):
            raise err(lineno, f"undefined gate {tok}")
        return sum(w for _, w in groups) + j - 1

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if toks[0] == "circuit":
            seen_header = True
            continue
        if toks[0] == "group":
            if gates:
                raise err(lineno, "group after gates")
            if len(toks) != 3:
                raise err(lineno, "group needs name and width")
            name, width = toks[1], _decimal(toks[2])
            if width is None:
                raise err(lineno, f"bad group width {toks[2]!r}")
            if any(n == name for n, _ in groups):
                raise err(lineno, f"duplicate group name {name!r}")
            groups.append((name, width))
            continue
        if toks[0] == "output":
            if outputs is not None:
                raise err(lineno, "second output line")
            outputs = [resolve(t, lineno) for t in toks[1:]]
            continue
        # gate line: g<i> = OP a [b]
        if len(toks) >= 4 and toks[1] == "=":
            if toks[0] != f"g{len(gates) + 1}":
                raise err(lineno, f"expected g{len(gates) + 1}, got {toks[0]}")
            op = toks[2].lower()
            if op == "not":
                if len(toks) != 4:
                    raise err(lineno, "NOT takes one wire")
                gates.append(("not", resolve(toks[3], lineno)))
            elif op in ("and", "or"):
                if len(toks) != 5:
                    raise err(lineno, f"{toks[2]} takes two wires")
                gates.append((op, resolve(toks[3], lineno), resolve(toks[4], lineno)))
            else:
                raise err(lineno, f"unknown op {toks[2]!r}")
            continue
        raise err(lineno, f"unrecognized line {line!r}")

    if not seen_header:
        raise CircuitError("missing 'circuit' header line")
    if outputs is None:
        raise CircuitError("missing output line")
    return Circuit(tuple(groups), tuple(gates), tuple(outputs))


# ---------------------------------------------------------------------------
# the universal formula evaluator

def formula_to_wire(b: CircuitBuilder, f: fm.Formula, leaf: dict[int, int]) -> int:
    """Lower a formula to gates; leaf maps variable index -> wire."""
    tag = f[0]
    if tag == "const":
        return b.const(f[1])
    if tag == "var":
        return leaf[f[1]]
    if tag == "not":
        return b.NOT(formula_to_wire(b, f[1], leaf))
    a = formula_to_wire(b, f[1], leaf)
    c = formula_to_wire(b, f[2], leaf)
    return b.AND(a, c) if tag == "and" else b.OR(a, c)


def universal_evaluator(k: int, trim: bool = False) -> Circuit:
    """Circuit E_k over groups u (k bits) and x (k code bits) that decodes x
    and evaluates the decoded formula under assignment u.

    Built as a selector over the enumerated set of valid k-bit codes whose
    variables all lie within u; other x values yield 0.  With ``trim`` the
    code comparators only test bit positions needed to tell valid codes
    apart, so behaviour off the valid-code set is unspecified (smaller
    circuit, same contract).
    """
    if k > UNIVERSAL_K_LIMIT:
        raise fm.BudgetError(f"universal evaluator capped at k <= {UNIVERSAL_K_LIMIT}")
    entries = []
    for f in fm.enumerate_fitting(k):
        code = fm.encode_k(f, k)
        assert code is not None
        entries.append((code, f))
    positions = list(range(k))
    if trim:
        # greedily drop positions while the valid codes stay pairwise distinct
        keep = positions[:]
        for p in positions:
            trial = [q for q in keep if q != p]
            sigs = {tuple(code[q] for q in trial) for code, _ in entries}
            if len(sigs) == len(entries):
                keep = trial
        positions = keep

    b = CircuitBuilder([("u", k), ("x", k)])
    # anchor constant wires on a code bit: branches for constant formulas then
    # involve no u-wire, so the whole computation is code-determined whenever
    # no variable formula fits in k bits
    b.const_anchor = b.inp("x", 1)
    leaf = {i: b.inp("u", i) for i in range(1, k + 1)}
    branches = []
    for code, f in entries:
        sel_wires = [b.inp("x", p + 1) for p in positions]
        sel_bits = "".join(code[p] for p in positions)
        sel = b.equals_const(sel_wires, sel_bits)
        val = formula_to_wire(b, f, leaf)
        branches.append(b.AND(sel, val))
    out = b.or_list(branches) if branches else b.const(0)
    return b.build([out])
