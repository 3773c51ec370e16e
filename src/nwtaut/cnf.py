"""Clause sets, a deterministic CDCL engine, a RUP checker and DIMACS I/O.

The solver branches on the first unassigned variable of a fixed decision
order, false branch first, with unit propagation.  A conflict is analysed to
its first unique implication point (Marques-Silva & Sakallah, "GRASP", 1999);
the learned clause is kept, the search jumps back to the second-highest level
in it, and the clause then asserts its first literal there.  There are no
restarts, no activity heuristics and no clause deletion, so the first model
found is still the lexicographically least one over the decision order (the
argument is in ``dpll_solve``), which the task solvers rely on; a partial
order is completed by the variables it leaves out, in index order.  Each
learned clause is RUP, so the log of an unsatisfiable run is a DRUP
refutation that ``check_rup`` verifies (Goldberg & Novikov, DATE 2003).

The fixings and the input unit clauses are put on the trail at level 0,
before the first decision (MiniSat, Een & Sorensson, SAT 2003, does the
same), so a conflict among their consequences is a refutation by itself.
The output unit that ``tau_of`` adds for each block is thus propagated
before the seed is decided, not found through a conflict after it.

Propagation scans, for each literal that becomes false, every clause that
contains it.  Every clause the package builds has at most three literals,
and for those a scan reads no more than moving a watch would, without the
watch bookkeeping.  Learned clauses are longer; with units at level 0 they
are 2,030 over the 318 refutations of the 512 q=3 tabular tau formulas and
6,144 over the 384 of the parity ones.  With units at level 0 in both, a
prototype that watched two literals of every clause took 1.5-1.9x this
scan's time on the q=3 sweeps and on uniform q=4 parity b.  Watching only
the clauses of more than three literals took 1.1-1.3x there, and about half
the scan's time on uniform q=5 parity b, where long learned clauses are most
of the work.

A clause set is checked when it is built, so the solver and the RUP checker
never check one; ``ClauseSet.join`` assembles a tau from the checked pieces
its spec keeps (see ``tau_of``) without checking them again.

A clause set cannot change, so it keeps the solver index built on its first
solve (each literal's occurrence list over its input clauses, its unit
clauses and whether one is empty): ``sat_search`` asks one circuit's clause
set many questions, and MiniSat likewise keeps its clause database across
searches.  Learned clauses go into per-call copies of the lists they touch,
so the kept lists hold input clauses only and every call starts from them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain


class CnfError(ValueError):
    pass


def _decimal(token: str) -> int | None:
    """The value of an ASCII decimal numeral; None for anything else.

    The rule of every reader for counts, widths and indices: int() would
    also take signs, underscores and non-ASCII digits."""
    try:
        return int(token) if token.isascii() and token.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None


@dataclass(frozen=True)
class ClauseSet:
    """A tuple of clauses (tuples of literals) over variables 1..nvars, with
    comment lines; lists are converted, and clause tuples are kept as given.
    A bad set raises CnfError when built: nvars must be an int >= 0 (not a
    bool), a comment one line, and each literal a nonzero int (not a bool)
    of size at most nvars, with no clause holding both v and -v."""

    clauses: tuple[tuple[int, ...], ...]
    nvars: int
    comments: tuple[str, ...] = ()

    def __post_init__(self):
        if type(self.nvars) is not int or self.nvars < 0:
            raise CnfError(f"nvars {self.nvars!r} is not a nonnegative integer")
        object.__setattr__(self, "clauses", tuple(map(tuple, self.clauses)))
        object.__setattr__(self, "comments", tuple(self.comments))
        for i, c in enumerate(self.comments):
            # to_dimacs writes f"c {c}"; a line break there starts a new line
            s = f"{c}"
            if s and s.splitlines() != [s]:
                raise CnfError(f"comment {i}: contains a line break")
        for ci, clause in enumerate(self.clauses):
            seen = set()
            for lit in clause:
                # bool is an int subclass, but True is no DIMACS literal
                if not isinstance(lit, int) or isinstance(lit, bool):
                    raise CnfError(f"clause {ci}: literal {lit!r} is not an integer")
                if lit == 0:
                    raise CnfError(f"clause {ci}: zero literal")
                if abs(lit) > self.nvars:
                    raise CnfError(f"clause {ci}: literal {lit} exceeds nvars={self.nvars}")
                if -lit in seen:
                    raise CnfError(f"clause {ci}: contains both {lit} and {-lit}")
                seen.add(lit)

    @classmethod
    def join(cls, parts: Sequence[ClauseSet], nvars: int, comments: Sequence[str] = ()) -> ClauseSet:
        """The set of the parts' clauses, in order, over variables 1..nvars.

        The parts were checked when they were built, so join checks only
        nvars and the comments, as an empty set of them, and that each part
        is a ClauseSet over at most nvars variables."""
        cs = cls((), nvars, comments)
        for i, part in enumerate(parts):
            if not isinstance(part, ClauseSet):
                raise CnfError(f"part {i} is not a ClauseSet")
            if part.nvars > nvars:
                raise CnfError(f"part {i}: nvars={part.nvars} exceeds nvars={nvars}")
        object.__setattr__(cs, "clauses", tuple(chain.from_iterable(p.clauses for p in parts)))
        return cs

    @cached_property
    def _index(self) -> tuple[list[list[tuple[int, ...]]], list[int], bool]:
        """The solver index, built on the first solve: each literal's
        occurrence list over the clauses, indexed by literal, the unit
        literals in clause order, and whether a clause is empty."""
        occ: list[list[tuple[int, ...]]] = [[] for _ in range(2 * self.nvars + 1)]
        units = []
        for clause in self.clauses:
            if len(clause) == 1:
                units.append(clause[0])
            for lit in clause:
                occ[lit].append(clause)
        return occ, units, not all(self.clauses)

    def to_dimacs(self) -> str:
        lines = [f"c {c}" for c in self.comments]
        lines.append(f"p cnf {self.nvars} {len(self.clauses)}\n")
        # one %-format over all literals, rendered in C: a clause of width w
        # gets "%s " * w + "0\n" and an empty one " 0\n", the line that
        # str(lit) joined by spaces and " 0" would give; one format per
        # distinct width, so the formats are no longer than the body
        widths = list(map(len, self.clauses))
        formats = {w: "%s " * w + "0\n" if w else " 0\n" for w in set(widths)}
        template = "".join(map(formats.__getitem__, widths))
        return "\n".join(lines) + template % tuple(chain.from_iterable(self.clauses))


def gate_clauses(op: str, v: int, a: int, b: int) -> tuple[tuple[int, ...], ...]:
    """Tseitin clauses (Tseitin 1968) making literal v equal to op applied to
    literals a and b: "and", "or", or "not" (which ignores b)."""
    if op == "not":
        return (-v, -a), (v, a)
    if op == "and":
        return (-v, a), (-v, b), (v, -a, -b)
    return (-v, a, b), (v, -a), (v, -b)


def _literal(token: str) -> int | None:
    """A DIMACS literal: an optional '-' and an ASCII decimal, nonzero when
    signed (0 ends a clause); None for anything else."""
    negative = token.startswith("-")
    value = _decimal(token[1:] if negative else token)
    if value is None or (negative and not value):
        return None
    return -value if negative else value


def parse_dimacs(text: str) -> ClauseSet:
    nvars = None
    nclauses = None
    clauses: list[list[int]] = []
    comments: list[str] = []
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            comments.append(line[1:].strip())
            continue
        if line.startswith("p"):
            if nvars is not None:
                raise CnfError(f"line {lineno}: second header {line!r}")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CnfError(f"line {lineno}: bad header {line!r}")
            nvars, nclauses = _decimal(parts[2]), _decimal(parts[3])
            if nvars is None or nclauses is None:
                raise CnfError(f"line {lineno}: bad count in header {line!r}")
            continue
        for tok in line.split():
            lit = _literal(tok)
            if lit is None:
                raise CnfError(f"line {lineno}: bad literal {tok!r}")
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
    return ClauseSet(clauses, nvars, comments)


def _fixed_literals(fixed: dict[int, int] | None, nvars: int) -> list[int]:
    """The unit literals of a ``fixed`` map: integer variables (not bools) in
    1..nvars, bits 0, 1, "0" or "1"."""
    units = []
    for var, bit in (fixed or {}).items():
        if type(var) is not int:
            raise CnfError(f"fixed variable {var!r} is not an integer")
        if not 1 <= var <= nvars:
            raise CnfError(f"fixed variable {var} out of range")
        if bit not in (0, 1, "0", "1"):
            raise CnfError(f"fixed variable {var}: bit {bit!r} is not 0 or 1")
        units.append(var if bit in (1, "1") else -var)
    return units


def dpll_solve(
    cs: ClauseSet,
    fixed: dict[int, int] | None = None,
    decision_order: list[int] | None = None,
    lemmas: list[list[int]] | None = None,
) -> dict[int, int] | None:
    """Return the lex-least (over decision_order, 0 before 1) total model, or None.

    ``fixed`` pre-assigns variables (bits 0, 1, "0" or "1").  The fixings
    and the unit clauses of ``cs`` are level-0 units: they are propagated
    before the first decision, and a conflict among them yields None with
    ``[]`` as the whole log.  The variables a given ``decision_order``
    (int entries, not bools, in 1..nvars) leaves out are decided after it,
    in index order; the default order is 1..nvars.  Bad arguments raise
    ``CnfError``.  When a ``lemmas`` list is given, every learned clause is
    appended to it, and ``[]`` at the final conflict, so an unsatisfiable
    answer leaves a DRUP refutation that ``check_rup`` accepts.

    The occurrence lists of the input clauses are built on the first solve
    of ``cs`` and kept for later ones (see ``ClauseSet._index``).  A learned
    clause is added to per-call copies of the lists of its literals, never
    to the kept ones, so propagation visits input clauses in input order,
    then this call's learned clauses in learning order, and no lemma
    outlives its call.

    The first model found is the lex-least one over the (completed) order.
    A decision at level L sets the first unassigned order variable to 0, so
    every decision at a level <= L comes before, in the order, any variable
    implied at level L.  Suppose the returned model M first differs from the
    least model M* at v, with M*(v) = 0 and M(v) = 1.  Then v was implied,
    since decisions are 0, by the clauses, the ``fixed`` units, the learned
    clauses (consequences of those two) and decisions on variables before v,
    where M and M* agree; M* satisfies all of them, a contradiction.
    """
    nvars = cs.nvars
    units = _fixed_literals(fixed, nvars)
    for var in decision_order or ():
        if type(var) is not int:
            raise CnfError(f"decision order entry {var!r} is not an integer")
        if not 1 <= var <= nvars:
            raise CnfError(f"decision order entry {var} out of range")
    order = range(1, nvars + 1) if decision_order is None else decision_order
    return _search(cs, units, order, lemmas)


def _search(
    cs: ClauseSet, units: list[int], order: Sequence[int], lemmas: list[list[int]] | None
) -> dict[int, int] | None:
    """dpll_solve's search from checked arguments: ``units`` holds the
    fixings, ``order`` the decision order."""
    nvars = cs.nvars
    kept, input_units, empty = cs._index
    units += input_units
    # value and occurrence lists are indexed by literal: -v wraps to the back;
    # occ shares kept's lists until a learned clause copies one
    value: list[int | None] = [None] * (2 * nvars + 1)
    occ = kept[:]
    # per variable: decision level and the clause that implied it (None for
    # decisions and fixings); per level above 0: (trail mark, order position)
    level = [0] * (nvars + 1)
    reason: list[Sequence[int] | None] = [None] * (nvars + 1)
    levels: list[tuple[int, int]] = []
    trail: list[int] = []
    head = 0
    seen = [False] * (nvars + 1)  # the variables analyze has met, reset after

    def propagate() -> Sequence[int] | None:
        """Make the units of every clause of each newly false literal true;
        return a clause that became false, or None."""
        nonlocal head
        depth = len(levels)
        while head < len(trail):
            lit = trail[head]
            head += 1
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
                        return clause
                    value[unit], value[-unit] = 1, 0
                    var = abs(unit)
                    level[var], reason[var] = depth, clause
                    trail.append(unit)
        return None

    def analyze(conflict: Sequence[int]) -> list[int]:
        """The 1UIP clause of a conflict at the current level (GRASP), its
        asserting literal first and level-0 literals dropped."""
        depth = len(levels)
        learned = [0]
        pending = 0
        i = len(trail)
        lit = 0
        clause = conflict
        while True:
            for other in clause:
                var = abs(other)
                if not seen[var] and other != lit and level[var]:
                    seen[var] = True
                    if level[var] == depth:
                        pending += 1
                    else:
                        learned.append(other)
            i -= 1
            while not seen[abs(trail[i])]:
                i -= 1
            lit = trail[i]
            seen[abs(lit)] = False
            pending -= 1
            if not pending:
                break
            clause = reason[abs(lit)]
        learned[0] = -lit
        for other in learned:
            seen[abs(other)] = False
        return learned

    def refuted() -> None:
        if lemmas is not None:
            lemmas.append([])
        return None

    if empty:
        return refuted()
    # level 0: the fixings and the input unit clauses; the first propagate()
    # below reads them all before the first decision
    for lit in units:
        if value[lit] is None:
            value[lit], value[-lit] = 1, 0
            trail.append(lit)
        elif not value[lit]:
            return refuted()

    pos = 0
    while True:
        conflict = propagate()
        while conflict is not None:
            if not levels:
                return refuted()
            learned = analyze(conflict)
            back = max((level[abs(other)] for other in learned[1:]), default=0)
            # back to level `back`; the cursor returns to the decision of back + 1
            mark, pos = levels[back]
            del levels[back:]
            for lit in trail[mark:]:
                value[lit] = value[-lit] = None
            del trail[mark:]
            head = mark
            for lit in learned:
                if occ[lit] is kept[lit]:
                    occ[lit] = [*kept[lit], learned]
                else:
                    occ[lit].append(learned)
            if lemmas is not None:
                lemmas.append(learned)
            lit = learned[0]
            value[lit], value[-lit] = 1, 0
            level[abs(lit)], reason[abs(lit)] = back, learned
            trail.append(lit)
            conflict = propagate()
        while pos < len(order) and value[order[pos]] is not None:
            pos += 1
        if pos == len(order):
            if None not in value[1 : nvars + 1]:
                return {v: value[v] for v in range(1, nvars + 1)}
            # a partial order runs out: the variables it leaves out follow
            # it, by index; positions saved per level stay valid
            listed = set(order)
            order = [*order, *(v for v in range(1, nvars + 1) if v not in listed)]
            continue
        levels.append((len(trail), pos))
        var = order[pos]
        value[-var], value[var] = 1, 0
        level[var], reason[var] = len(levels), None
        trail.append(-var)


def check_rup(
    cs: ClauseSet, lemmas: list[list[int]], fixed: dict[int, int] | None = None
) -> bool:
    """True when ``lemmas`` is a DRUP refutation of ``cs`` under ``fixed``.

    The log must end in ``[]``, and each lemma must be RUP (Goldberg &
    Novikov, DATE 2003): unit propagation over the clauses, the ``fixed``
    units and the earlier lemmas, with every literal of the lemma made
    false, reaches a conflict.  This propagation is written apart from the
    solver's, so that a fault there cannot hide itself.  ``fixed`` follows
    ``dpll_solve``'s rule, and a bad one raises ``CnfError``.  A lemma that
    is not a sequence of integer literals in range makes the answer False.
    """
    nvars = cs.nvars
    clauses = [*cs.clauses, *([lit] for lit in _fixed_literals(fixed, nvars))]
    if not lemmas or lemmas[-1]:
        return False
    occ: list[list[Sequence[int]]] = [[] for _ in range(2 * nvars + 1)]
    for clause in clauses:
        for lit in clause:
            occ[lit].append(clause)
    # kept up to date as lemmas are added: the unit clauses, in clause order,
    # and whether some clause is empty
    units = [c[0] for c in clauses if len(c) == 1]
    empty = not all(clauses)
    for lemma in lemmas:
        if not isinstance(lemma, Sequence) or any(
            type(lit) is not int or not 0 < abs(lit) <= nvars for lit in lemma
        ):
            return False
        value: list[int | None] = [None] * (2 * nvars + 1)
        queue = [-lit for lit in lemma] + units
        conflict = empty
        while queue and not conflict:
            lit = queue.pop()
            if value[lit] is not None:
                conflict = not value[lit]
                continue
            value[lit], value[-lit] = 1, 0
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
                        conflict = True
                        break
                    queue.append(unit)
        if not conflict:
            return False
        if len(lemma) == 1:
            units.append(lemma[0])
        empty = empty or not lemma
        for lit in lemma:
            occ[lit].append(lemma)
    return True
