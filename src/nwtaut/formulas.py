"""Propositional formulas over {NOT, OR, AND, 0, 1} with indexed variables.

Formulas are immutable nested tuples:

    ("const", 0|1)
    ("var", i)          i >= 1
    ("not", f)
    ("and", f, g)       strictly binary
    ("or", f, g)        strictly binary

Grammar for the text form: variables ``xN`` (N >= 1), constants ``0``/``1``,
``~`` (not), ``&`` (and), ``|`` (or), parentheses.  ``~`` binds tightest,
then ``&``, then ``|``; binary connectives associate to the right, matching
the right-nested disjunction convention used by the proof checkers.  The
parser is one operator-precedence loop over an explicit stack, and the code
reader and writer below are loops too, so they accept any nesting depth;
printing, substitution and evaluation recurse.

The fixed-width binary code (encode_k/decode_k) is a Polish prefix token
stream, 4 bits per token, variable tokens followed by a fixed-width index
field of ceil(log2 k) bits holding index-1, terminated by an END token and
zero-padded to exactly k bits.  Token table:

    END   0000        AND   0010        VAR   0100
    NOT   0001        OR    0011        CONST0 1110   CONST1 1111

All other 4-bit patterns are rejected by the decoder.  codes(k) walks the
k-bit strings that decode, in string order; the Cert solver sweeps them and
enumerate_fitting filters them for the universal evaluator.  The TAUT oracle
is_tautology sweeps truth tables, or asks circuits.sat_search about ~f.
"""

from __future__ import annotations

import re

from .cnf import BudgetError

Formula = tuple

CONST0: Formula = ("const", 0)
CONST1: Formula = ("const", 1)


def Var(i: int) -> Formula:
    if i < 1:
        raise ValueError(f"variable index must be >= 1, got {i}")
    return ("var", i)


def Not(f: Formula) -> Formula:
    return ("not", f)


def And(f: Formula, g: Formula) -> Formula:
    return ("and", f, g)


def Or(f: Formula, g: Formula) -> Formula:
    return ("or", f, g)


def Implies(f: Formula, g: Formula) -> Formula:
    """The defined connective f -> g, i.e. ~f | g."""
    return ("or", ("not", f), g)


class HashedFormula(tuple):
    """A formula node that computes its hash once and keeps it.

    It equals the plain tuple with the same items and hashes like it, so the
    two are interchangeable as dict keys.  CPython does not cache tuple
    hashes: hashing a formula walks every subterm.  A large subterm held as
    one HashedFormula by many formulas, such as the hypothesis that
    frege.discharge puts into every line, is walked once; each later hash
    of an enclosing formula reads the kept value."""

    def __new__(cls, f: Formula) -> HashedFormula:
        self = tuple.__new__(cls, f)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self) -> int:
        return self._hash


def big_and(parts: list[Formula]) -> Formula:
    """Right-nested conjunction; empty list yields constant 1."""
    if not parts:
        return CONST1
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = ("and", p, out)
    return out


def fvars(f: Formula) -> set[int]:
    out: set[int] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        tag = g[0]
        if tag == "var":
            out.add(g[1])
        elif tag == "not":
            stack.append(g[1])
        elif tag in ("and", "or"):
            stack.append(g[1])
            stack.append(g[2])
    return out


# ---------------------------------------------------------------------------
# parsing / printing

class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(r"x[0-9]*|\S")


def _error(msg: str, text: str, i: int, shift: int = 0) -> ParseError:
    """A ParseError at the start of token i of text, plus shift."""
    return ParseError(msg, [m.start() for m in _TOKEN.finditer(text)][i] + shift)


def parse(text: str) -> Formula:
    """One operator-precedence loop over the tokens: ops holds the pending
    "~", "(", "and" and "or", vals the left operands of the pending "and"
    and "or", and f the operand just completed (None where one is expected)."""
    toks = _TOKEN.findall(text)
    ops: list[str] = []
    vals: list[Formula] = []
    f = None
    for i, tok in enumerate(toks):
        if f is None:
            if tok == "~" or tok == "(":
                ops.append(tok)
                continue
            if tok == "0" or tok == "1":
                f = CONST1 if tok == "1" else CONST0
            elif tok[0] != "x":
                raise _error(f"unexpected character {tok!r}", text, i)
            elif len(tok) == 1:
                raise _error("expected variable index after 'x'", text, i, 1)
            else:
                try:
                    f = ("var", int(tok[1:]))
                except ValueError:  # more digits than int() converts
                    raise _error("variable index too long", text, i, 1) from None
                if f[1] < 1:
                    raise _error("variable index must be >= 1", text, i, 1)
        elif tok == "&" or tok == "|":
            # both associate right: & reduces nothing, | only a pending and
            while tok == "|" and ops and ops[-1] == "and":
                ops.pop()
                f = ("and", vals.pop(), f)
            ops.append("and" if tok == "&" else "or")
            vals.append(f)
            f = None
            continue
        elif tok == ")":
            # no ~ sits right below a pending and/or, so this stops at the
            # innermost ( or empties ops
            while ops and ops[-1] != "(":
                f = (ops.pop(), vals.pop(), f)
            if not ops:
                raise _error("trailing input", text, i)
            ops.pop()
        else:
            raise _error("expected ')'" if "(" in ops else "trailing input", text, i)
        while ops and ops[-1] == "~":  # a completed operand takes its prefix ~
            ops.pop()
            f = ("not", f)
    if f is None:
        raise ParseError("unexpected end of input", len(text))
    while ops:
        op = ops.pop()
        if op == "(":
            raise ParseError("expected ')'", len(text))
        f = (op, vals.pop(), f)
    return f


_PREC = {"or": 1, "and": 2, "not": 3, "var": 4, "const": 4}


def to_text(f: Formula) -> str:
    """Print in the grammar; reparsing yields an equal tree.

    This is the one printing rule.  Proof serialization calls its memoized
    form _text with one memo per proof, so a subterm shared by several
    lines or parents is printed once.  A malformed node at any depth (a
    var payload that is no int >= 1, a const payload that is not the int 0
    or 1, an unknown tag or the wrong number of operands) raises ValueError,
    and a node that cannot be indexed raises what indexing it raises."""
    return _text(f, {})


# A memo maps id(subterm) to the subterm's text; one memo may serve several
# formulas.  Ids are unique only among live objects, so the caller keeps
# every formula it passes alive while the memo is in use.  proofsys.simulate
# prints its four stage proofs through one memo, since the stages share line
# formulas, and sizes each by its text; it holds all four proofs until it
# returns, so each id stays with its formula while the memo lives.
# Formulas are not hash-consed, and hashing a nested tuple costs its size
# (only a HashedFormula keeps its hash, and only the discharged hypothesis
# is one), hence ids rather than the tuples as keys.

def _text(f: Formula, memo: dict[int, str]) -> str:
    tag = f[0]
    if tag == "var" or tag == "const":
        c = f[1]
        if len(f) == 2 and type(c) is int and (c >= 1 if tag == "var" else 0 <= c <= 1):
            return f"x{c}" if tag == "var" else str(c)
        raise ValueError("malformed formula")
    s = memo.get(id(f))
    if s is not None:
        return s
    if tag == "not" and len(f) == 2:
        s = _text(f[1], memo)
        s = f"~({s})" if _PREC[f[1][0]] < 3 else "~" + s
    elif (tag == "and" or tag == "or") and len(f) == 3:
        op = "&" if tag == "and" else "|"
        p = _PREC[tag]
        left = _text(f[1], memo)
        # binary connectives associate right: a left child of equal precedence
        # needs parentheses, a right child does not
        if _PREC[f[1][0]] <= p:
            left = f"({left})"
        right = _text(f[2], memo)
        if _PREC[f[2][0]] < p:
            right = f"({right})"
        s = f"{left} {op} {right}"
    else:
        raise ValueError("malformed formula")
    memo[id(f)] = s
    return s


# ---------------------------------------------------------------------------
# evaluation / substitution / matching

class EvalError(KeyError):
    pass


def _value(f: Formula, a: dict[int, int], full: int) -> int:
    """The one evaluation rule: a maps variables to bits with full = 1, or
    to truth-table columns with full the all-ones column."""
    tag = f[0]
    if tag == "const":
        return full if f[1] else 0
    if tag == "var":
        try:
            return a[f[1]]
        except KeyError:
            raise EvalError(f"variable x{f[1]} unmapped") from None
    if tag == "not":
        return full ^ _value(f[1], a, full)
    if tag == "and":
        return _value(f[1], a, full) & _value(f[2], a, full)
    return _value(f[1], a, full) | _value(f[2], a, full)


def evaluate(f: Formula, a: dict[int, int]) -> int:
    return _value(f, a, 1)


def substitute(f: Formula, sigma: dict[int, Formula]) -> Formula:
    """Simultaneous substitution of formulas for variables; no simplification."""
    tag = f[0]
    if tag == "const":
        return f
    if tag == "var":
        return sigma.get(f[1], f)
    if tag == "not":
        return ("not", substitute(f[1], sigma))
    return (tag, substitute(f[1], sigma), substitute(f[2], sigma))


def match_instance(candidate: Formula, pattern: Formula) -> dict[int, Formula] | None:
    """Find sigma with substitute(pattern, sigma) == candidate, targets
    restricted to variables and constants.  Unique when it exists."""
    sigma: dict[int, Formula] = {}
    # left before right, so sigma binds in pre-order
    stack = [(candidate, pattern)]
    while stack:
        cand, pat = stack.pop()
        tag = pat[0]
        if tag == "var":
            if cand[0] not in ("var", "const"):
                return None
            if sigma.setdefault(pat[1], cand) != cand:
                return None
        elif tag == "const":
            if cand != pat:
                return None
        elif cand[0] != tag:
            return None
        elif tag == "not":
            stack.append((cand[1], pat[1]))
        else:
            stack.append((cand[2], pat[2]))
            stack.append((cand[1], pat[1]))
    return sigma


# ---------------------------------------------------------------------------
# fixed-width binary code

TOK_END = "0000"
TOK_NOT = "0001"
TOK_AND = "0010"
TOK_OR = "0011"
TOK_VAR = "0100"
TOK_CONST0 = "1110"
TOK_CONST1 = "1111"


def index_width(k: int) -> int:
    """Width of the variable-index field in a k-bit code."""
    return max(1, (k - 1).bit_length())


def _emit(f: Formula, w: int, out: list[str]) -> bool:
    """Append f's tokens in pre-order; False if a variable index does not fit."""
    stack = [f]
    while stack:
        g = stack.pop()
        tag = g[0]
        if tag == "const":
            out.append(TOK_CONST1 if g[1] else TOK_CONST0)
        elif tag == "var":
            if g[1] > (1 << w):
                return False
            out.append(TOK_VAR)
            out.append(format(g[1] - 1, f"0{w}b"))
        elif tag == "not":
            out.append(TOK_NOT)
            stack.append(g[1])
        else:
            out.append(TOK_AND if tag == "and" else TOK_OR)
            stack.append(g[2])
            stack.append(g[1])
    return True


def encode_k(f: Formula, k: int) -> str | None:
    """k-bit canonical code of f, or None if it does not fit."""
    if k < 8:
        raise ValueError("code width must be >= 8")
    w = index_width(k)
    parts: list[str] = []
    if not _emit(f, w, parts):
        return None
    parts.append(TOK_END)
    bits = "".join(parts)
    if len(bits) > k:
        return None
    return bits + "0" * (k - len(bits))


def decode_k(s: str) -> Formula | None:
    """Inverse of encode_k on its range; None on ill-formed codes."""
    k = len(s)
    if k < 8 or s.strip("01"):
        return None
    w = index_width(k)
    # forward: read tokens while operands are still owed; every token but
    # NOT supplies one, and AND/OR each owe two more
    toks: list[Formula | str] = []  # leaves and connective tags, in code order
    pos = 0
    owed = 1
    while owed:
        tok = s[pos : pos + 4]
        pos += 4
        if tok == TOK_NOT:
            toks.append("not")
            continue
        if tok == TOK_AND or tok == TOK_OR:
            toks.append("and" if tok == TOK_AND else "or")
            owed += 2
        elif tok == TOK_CONST0 or tok == TOK_CONST1:
            toks.append(CONST1 if tok == TOK_CONST1 else CONST0)
        elif tok == TOK_VAR and pos + w <= k:
            toks.append(("var", int(s[pos : pos + w], 2) + 1))
            pos += w
        else:
            return None  # END here, an invalid token, or one cut off
        owed -= 1
    if s[pos : pos + 4] != TOK_END or s[pos + 4 :].strip("0"):
        return None
    # backward: each connective takes the operands that follow it
    stack: list[Formula] = []
    for t in reversed(toks):
        if t == "not":
            stack.append(("not", stack.pop()))
        elif t == "and" or t == "or":
            stack.append((t, stack.pop(), stack.pop()))
        else:
            stack.append(t)
    return stack[0]


def code_length(f: Formula, w: int) -> int | None:
    """Bit length of the token stream of f (without END/padding) at index width w."""
    parts: list[str] = []
    if not _emit(f, w, parts):
        return None
    return sum(len(p) for p in parts)


def code_width(f: Formula) -> int:
    """Least k >= 8 at which encode_k(f, k) succeeds.  The widths
    2^(iw-1) < k <= 2^iw share the index width iw, and f fits each of them
    from its token length plus END on, so one length per index width decides;
    that length grows with iw, so iw skips widths shorter than it."""
    iw = max(3, (max(fvars(f), default=1) - 1).bit_length())
    while True:
        n = code_length(f, iw) + len(TOK_END)
        if n <= 1 << iw:
            return max(8, (1 << (iw - 1)) + 1, n)
        iw = max(iw + 1, (n - 1).bit_length())


def codes(k: int):
    """Every k-bit string that decode_k accepts, in lexicographic order.

    A depth-first walk over the token stream.  It tries the tokens in bit
    order (NOT, AND, OR, VAR by index, CONST0, CONST1) and takes one only
    when the operands still owed, at 4 bits each, and END fit after it; with
    no operand owed it appends END and zero padding.  Every prefix it takes
    completes, so it yields no string twice and skips none that decodes, and
    the tokens are prefix-free, so walk order is string order.  Below k = 8
    no token fits beside END."""
    w = index_width(k)
    # each token with the change it makes to the number of operands owed
    toks = [(TOK_NOT, 0), (TOK_AND, 1), (TOK_OR, 1)]
    toks += [(TOK_VAR + format(i, f"0{w}b"), -1) for i in range(1 << w)]
    toks += [(TOK_CONST0, -1), (TOK_CONST1, -1)]

    def walk(prefix: str, owed: int):
        if not owed:
            yield prefix + TOK_END + "0" * (k - len(prefix) - 4)
            return
        for tok, d in toks:
            if len(prefix) + len(tok) + 4 * (owed + d) + 4 <= k:
                yield from walk(prefix + tok, owed + d)

    yield from walk("", 1)


def enumerate_fitting(k: int) -> list[Formula]:
    """The formulas of the k-bit codes, in code order, whose variables are
    among x1..xk, the assignment bits a universal evaluator of width k
    reads."""
    fits = [decode_k(s) for s in codes(k)]
    return [f for f in fits if max(fvars(f), default=0) <= k]


# ---------------------------------------------------------------------------
# the tautology oracle

BRUTE_VAR_LIMIT = 24


def is_tautology(f: Formula, mode: str = "brute") -> bool:
    """Ground-truth tautology oracle.

    brute: bit-parallel truth-table sweep, at most BRUTE_VAR_LIMIT variables.
    dpll:  ask circuits.sat_search whether the circuit of ~f, over one
           input group x with a wire per variable of f (wire r-1 is the
           variable of rank r among them), has a satisfying input.
    auto:  brute when it fits, dpll otherwise.
    """
    vs = sorted(fvars(f))
    if mode == "auto":
        mode = "brute" if len(vs) <= BRUTE_VAR_LIMIT else "dpll"
    if mode == "brute":
        n = len(vs)
        if n > BRUTE_VAR_LIMIT:
            raise BudgetError(f"{n} variables exceeds brute-force limit {BRUTE_VAR_LIMIT}")
        total = 1 << n
        full = (1 << total) - 1
        masks = {}
        for pos, v in enumerate(vs):
            # bit j of the mask = value of v in assignment number j, i.e. bit
            # pos of j: one period of 2^pos zeros then 2^pos ones, doubled
            # until it covers all 2^n assignments, in time linear in 2^n
            width = 2 << pos
            mask = ((1 << (1 << pos)) - 1) << (1 << pos)
            while width < total:
                mask |= mask << width
                width *= 2
            masks[v] = mask
        return _value(f, masks, full) == full
    if mode == "dpll":
        from . import circuits as cc  # function-local: circuits imports formulas
        # as wide as f has variables, not as its largest variable index
        b = cc.CircuitBuilder([("x", len(vs) or 1)])
        leaf = {v: b.inp("x", r) for r, v in enumerate(vs, 1)}
        return cc.sat_search(b.build([cc.formula_to_wire(b, ("not", f), leaf)])) is None
    raise ValueError(f"unknown mode {mode!r}")
