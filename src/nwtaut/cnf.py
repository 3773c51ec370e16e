"""Clause sets, a deterministic DPLL engine and DIMACS I/O.

The solver is deliberately simple: unit propagation plus branching on the
first unassigned variable of a fixed decision order, false branch first, with
chronological backtracking.  That makes the first model found the
lexicographically least one over the decision order, which the task solvers
rely on; a partial order is completed by the variables it leaves out, in
index order.  No clause learning.

Propagation scans, for each literal that becomes false, every clause that
contains it; every clause the package builds has at most three literals, so
a scan costs no more than watched literals would.  Clauses are only looked
at then, so input unit clauses are not propagated ahead of the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class CnfError(ValueError):
    pass


@dataclass
class ClauseSet:
    """A list of clauses (nonzero integer literals) over variables 1..nvars."""

    clauses: list[list[int]]
    nvars: int
    comments: list[str] = field(default_factory=list)

    def validate(self) -> None:
        for ci, clause in enumerate(self.clauses):
            seen = set()
            for lit in clause:
                if lit == 0:
                    raise CnfError(f"clause {ci}: zero literal")
                if abs(lit) > self.nvars:
                    raise CnfError(f"clause {ci}: literal {lit} exceeds nvars={self.nvars}")
                if -lit in seen:
                    raise CnfError(f"clause {ci}: contains both {lit} and {-lit}")
                seen.add(lit)

    def to_dimacs(self) -> str:
        lines = [f"c {c}" for c in self.comments]
        lines.append(f"p cnf {self.nvars} {len(self.clauses)}")
        for clause in self.clauses:
            lines.append(" ".join(str(l) for l in clause) + " 0")
        return "\n".join(lines) + "\n"


def gate_clauses(op: str, v: int, a: int, b: int) -> list[list[int]]:
    """Tseitin clauses (Tseitin 1968) making literal v equal to op applied to
    literals a and b: "and", "or", or "not" (which ignores b)."""
    if op == "not":
        return [[-v, -a], [v, a]]
    if op == "and":
        return [[-v, a], [-v, b], [v, -a, -b]]
    return [[-v, a, b], [v, -a], [v, -b]]


def parse_dimacs(text: str) -> ClauseSet:
    nvars = None
    nclauses = None
    clauses: list[list[int]] = []
    comments: list[str] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            comments.append(line[1:].strip())
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CnfError(f"bad header line: {line!r}")
            nvars, nclauses = int(parts[2]), int(parts[3])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(pending)
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise CnfError("unterminated clause at end of file")
    if nvars is None:
        raise CnfError("missing p cnf header")
    if nclauses is not None and nclauses != len(clauses):
        raise CnfError(f"header declares {nclauses} clauses, found {len(clauses)}")
    cs = ClauseSet(clauses, nvars, comments)
    cs.validate()
    return cs


def dpll_solve(
    cs: ClauseSet,
    fixed: dict[int, int] | None = None,
    decision_order: list[int] | None = None,
) -> dict[int, int] | None:
    """Return the lex-least (over decision_order, 0 before 1) total model, or None.

    ``fixed`` pre-assigns variables; a conflicting fixing yields None.  The
    variables a given ``decision_order`` leaves out are decided after it, in
    index order; the default order is 1..nvars.
    """
    nvars = cs.nvars
    order = range(1, nvars + 1) if decision_order is None else decision_order
    # value and occurrence lists are indexed by literal: -v wraps to the back
    value: list[int | None] = [None] * (2 * nvars + 1)
    occ: list[list[list[int]]] = [[] for _ in range(2 * nvars + 1)]
    for clause in cs.clauses:
        for lit in clause:
            occ[lit].append(clause)
    trail: list[int] = []

    def assign(lit: int) -> bool:
        """Make lit true and propagate units; False on conflict."""
        queue = [lit]
        while queue:
            lit = queue.pop()
            if value[lit] is not None:
                if not value[lit]:
                    return False
                continue
            value[lit], value[-lit] = 1, 0
            trail.append(lit)
            for clause in occ[-lit]:
                unit = 0
                for other in clause:
                    val = value[other]
                    if val is None:
                        if unit:
                            break
                        unit = other
                    elif val:
                        break
                else:
                    if not unit:
                        return False
                    queue.append(unit)
        return True

    if fixed:
        for var, bit in fixed.items():
            if not 1 <= var <= nvars:
                raise CnfError(f"fixed variable {var} out of range")
            if not assign(var if int(bit) else -var):
                return None
    if any(not clause for clause in cs.clauses):
        return None

    # chronological backtracking over (trail mark, order position, branch tried)
    stack: list[tuple[int, int, bool]] = []
    pos = 0
    while True:
        while pos < len(order) and value[order[pos]] is not None:
            pos += 1
        if pos == len(order):
            if None not in value[1 : nvars + 1]:
                return {v: value[v] for v in range(1, nvars + 1)}
            # a partial order runs out: the variables it leaves out follow
            # it, by index; positions already on the stack stay valid
            listed = set(order)
            order = [*order, *(v for v in range(1, nvars + 1) if v not in listed)]
            continue
        stack.append((len(trail), pos, False))
        ok = assign(-order[pos])
        while not ok:
            if not stack:
                return None
            mark, pos, tried = stack.pop()
            for lit in trail[mark:]:
                value[lit] = value[-lit] = None
            del trail[mark:]
            if not tried:
                stack.append((mark, pos, True))
                ok = assign(order[pos])
