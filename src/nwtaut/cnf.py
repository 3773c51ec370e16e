"""Clause sets, a deterministic DPLL engine and DIMACS I/O.

The solver is deliberately simple: unit propagation plus branching on the
first unassigned variable of a fixed decision order, false branch first.
That makes the first model found the lexicographically least one over the
decision order, which the task solvers rely on.  No clause learning.
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

    ``fixed`` pre-assigns variables; a conflicting fixing yields None.
    """
    nvars = cs.nvars
    clauses = cs.clauses
    ncl = len(clauses)
    if decision_order is None:
        decision_order = list(range(1, nvars + 1))

    # occurrence lists indexed by literal via offset
    pos_occ: list[list[int]] = [[] for _ in range(nvars + 1)]
    neg_occ: list[list[int]] = [[] for _ in range(nvars + 1)]
    for ci, clause in enumerate(clauses):
        for lit in clause:
            (pos_occ if lit > 0 else neg_occ)[abs(lit)].append(ci)

    assign: list[int | None] = [None] * (nvars + 1)
    true_count = [0] * ncl
    unassigned_count = [len(c) for c in clauses]
    n_satisfied = 0  # clauses with true_count >= 1

    trail: list[int] = []

    def set_var(var: int, val: int) -> bool:
        """Assign and propagate; returns False on conflict (caller must undo)."""
        nonlocal n_satisfied
        queue = [(var, val)]
        while queue:
            v, b = queue.pop()
            if assign[v] is not None:
                if assign[v] != b:
                    return False
                continue
            assign[v] = b
            trail.append(v)
            sup = pos_occ[v] if b == 1 else neg_occ[v]
            fal = neg_occ[v] if b == 1 else pos_occ[v]
            for ci in sup:
                if true_count[ci] == 0:
                    n_satisfied += 1
                true_count[ci] += 1
                unassigned_count[ci] -= 1
            # finish this variable's bookkeeping even on conflict, so that
            # undo_to (which replays full occurrence lists) is an exact inverse
            conflict = False
            for ci in fal:
                unassigned_count[ci] -= 1
                if true_count[ci] == 0:
                    if unassigned_count[ci] == 0:
                        conflict = True
                    elif unassigned_count[ci] == 1:
                        for lit in clauses[ci]:
                            if assign[abs(lit)] is None:
                                queue.append((abs(lit), 1 if lit > 0 else 0))
                                break
            if conflict:
                return False
        return True

    def undo_to(mark: int) -> None:
        nonlocal n_satisfied
        while len(trail) > mark:
            v = trail.pop()
            b = assign[v]
            assign[v] = None
            sup = pos_occ[v] if b == 1 else neg_occ[v]
            fal = neg_occ[v] if b == 1 else pos_occ[v]
            for ci in sup:
                true_count[ci] -= 1
                if true_count[ci] == 0:
                    n_satisfied -= 1
                unassigned_count[ci] += 1
            for ci in fal:
                unassigned_count[ci] += 1

    def finish_model() -> dict[int, int]:
        model = {v: (assign[v] if assign[v] is not None else 0) for v in range(1, nvars + 1)}
        return model

    if fixed:
        for var, val in fixed.items():
            if not 1 <= var <= nvars:
                raise CnfError(f"fixed variable {var} out of range")
            if not set_var(var, int(val)):
                return None

    if any(len(c) == 0 for c in clauses):
        return None
    if n_satisfied == ncl:
        return finish_model()

    # iterative search: stack of (trail_mark, var, next_val_to_try)
    stack: list[tuple[int, int, int]] = []

    def next_decision() -> int | None:
        for v in decision_order:
            if assign[v] is None:
                return v
        return None

    while True:
        var = next_decision()
        if var is None or n_satisfied == ncl:
            return finish_model()
        stack.append((len(trail), var, 1))
        ok = set_var(var, 0)
        while not ok:
            # backtrack
            while stack:
                mark, v, nxt = stack.pop()
                undo_to(mark)
                if nxt <= 1:
                    stack.append((mark, v, 2))
                    ok = set_var(v, 1)
                    break
            else:
                return None
        if ok and n_satisfied == ncl:
            return finish_model()
