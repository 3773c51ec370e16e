"""Reference answers computed without the code the benchmark times.

Everything here is written from the definitions in the nwtaut docstrings,
not from nwtaut itself: field arithmetic for the polynomial designs, the NW
generator for the parity and toy-owp bases, a GF(2) span test that decides
tau(NW)_b verdicts for the parity base, and a formula evaluator with a
truth-table tautology test.  Input generators for the workloads live here
too, so that the program under test receives only finished inputs.
"""

from __future__ import annotations

import hashlib

# ---------------------------------------------------------------------------
# fields and polynomial designs


def gf_mul(q: int, a: int, b: int) -> int:
    """Product in GF(q) for q prime or q = 4 (x^2 + x + 1 over GF(2), elements
    as coefficient bit vectors, constant term in bit 0)."""
    if q in (2, 3, 5, 7):
        return a * b % q
    if q != 4:
        raise ValueError(f"no reference field of order {q}")
    prod = 0
    for i in range(2):
        if b >> i & 1:
            prod ^= a << i
    if prod & 0b100:
        prod ^= 0b111
    return prod


def gf_add(q: int, a: int, b: int) -> int:
    return a ^ b if q == 4 else (a + b) % q


def poly_blocks(q: int, d: int) -> list[list[int]]:
    """Blocks of the poly-field design: block i belongs to the polynomial
    whose coefficient vector (constant term first) is the base-q digits of
    i - 1, and is { q*t + p(t) + 1 : t in GF(q) }."""
    blocks = []
    for i in range(q**d):
        coeffs = [i // q**j % q for j in range(d)]
        block = []
        for t in range(q):
            val, power = 0, 1
            for c in coeffs:
                val = gf_add(q, val, gf_mul(q, c, power))
                power = gf_mul(q, power, t)
            block.append(q * t + val + 1)
        blocks.append(sorted(block))
    return blocks


# ---------------------------------------------------------------------------
# base functions and the generator


def parity_bit(u: str) -> int:
    return u.count("1") % 2


def toy_owp_bit(u: str) -> int:
    """Hard bit (first preimage bit) of the 3-round Feistel toy permutation
    with the published round constants K_i = (2i-1)*2654435761 and
    C_i = 2i*2654435761 (mod 2^32, masked to the half width)."""
    l = len(u)
    t = l // 2
    mask = (1 << t) - 1
    consts = [
        ((2 * i - 1) * 2654435761 % 2**32 & mask, 2 * i * 2654435761 % 2**32 & mask)
        for i in (1, 2, 3)
    ]

    def round_fn(r: int, k: int, c: int) -> int:
        rot = ((r << 1) | (r >> (t - 1))) & mask
        return (r & k) ^ rot ^ c

    value = int(u, 2)
    left, right = value >> t, value & mask
    for k, c in reversed(consts):
        left, right = right ^ round_fn(left, k, c), left
    return ((left << t) | right) >> (l - 1)


BASE_BITS = {"parity": parity_bit, "toy-owp": toy_owp_bit}


def nw_output(blocks: list[list[int]], base: str, x: str) -> str:
    bit = BASE_BITS[base]
    return "".join(str(bit("".join(x[j - 1] for j in block))) for block in blocks)


def first_disagreement(a: str, b: str) -> int | None:
    for i, (p, q) in enumerate(zip(a, b)):
        if p != q:
            return i
    return None


# ---------------------------------------------------------------------------
# GF(2) linear algebra for the parity base: NW(x)_i is the parity of x on
# block i, so b is in the range exactly when it lies in the span of the
# block-incidence rows, and tau(NW)_b is a tautology exactly when it does not


def _eliminate(rows: list[int], b: str) -> tuple[int, bool]:
    """Gaussian elimination on the augmented rows (block mask above bit 0,
    b_i in bit 0).  Returns (rank of the masks, whether the system
    row_i . x = b_i is solvable)."""
    pivots: dict[int, int] = {}  # top bit -> row with that top bit
    for mask, bit in zip(rows, b):
        row = mask << 1 | int(bit)
        while row > 1:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
        else:
            if row == 1:  # 0 = 1
                return len(pivots), False
    return len(pivots), True


class ParityRange:
    def __init__(self, blocks: list[list[int]]):
        self.rows = [sum(1 << (j - 1) for j in block) for block in blocks]

    def contains(self, b: str) -> bool:
        return _eliminate(self.rows, b)[1]

    def rank(self) -> int:
        return _eliminate(self.rows, "0" * len(self.rows))[0]


# ---------------------------------------------------------------------------
# formulas: nested tuples ("const", b) ("var", i) ("not", f) ("and", f, g)
# ("or", f, g), as in the nwtaut.formulas docstring


def evaluate(f: tuple, assignment: dict[int, int]) -> int:
    """Iterative evaluation (no recursion limit on deep formulas)."""
    values: dict[int, int] = {}
    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in values:
            stack.pop()
            continue
        tag = g[0]
        if tag == "const":
            values[id(g)] = g[1]
        elif tag == "var":
            values[id(g)] = assignment[g[1]]
        else:
            pending = [c for c in g[1:] if id(c) not in values]
            if pending:
                stack.extend(pending)
                continue
            if tag == "not":
                values[id(g)] = 1 - values[id(g[1])]
            elif tag == "and":
                values[id(g)] = values[id(g[1])] & values[id(g[2])]
            else:
                values[id(g)] = values[id(g[1])] | values[id(g[2])]
        stack.pop()
    return values[id(f)]


def variables(f: tuple) -> set[int]:
    out, stack = set(), [f]
    while stack:
        g = stack.pop()
        if g[0] == "var":
            out.add(g[1])
        elif g[0] != "const":
            stack.extend(g[1:])
    return out


def is_tautology(f: tuple) -> bool:
    vs = sorted(variables(f))
    for v in range(1 << len(vs)):
        if not evaluate(f, {x: v >> i & 1 for i, x in enumerate(vs)}):
            return False
    return True


def substitute(f: tuple, sigma: dict[int, tuple]) -> tuple:
    tag = f[0]
    if tag == "const":
        return f
    if tag == "var":
        return sigma.get(f[1], f)
    return (tag,) + tuple(substitute(g, sigma) for g in f[1:])


def sharing(formulas) -> tuple[int, int]:
    """(distinct subterms, subterm occurrences) over the given formulas,
    where occurrences count the unfolded tree a recursive traversal walks
    and distinct subterms are structurally different nodes."""
    canon: dict[tuple, int] = {}   # (tag, child ids) -> structural id
    node_id: dict[int, int] = {}   # object id -> structural id
    size: dict[int, int] = {}      # object id -> unfolded size
    keep = []                      # keeps visited objects alive (stable ids)
    total = 0
    for f in formulas:
        stack = [f]
        while stack:
            g = stack[-1]
            if id(g) in node_id:
                stack.pop()
                continue
            kids = g[1:] if g[0] in ("not", "and", "or") else ()
            pending = [c for c in kids if id(c) not in node_id]
            if pending:
                stack.extend(pending)
                continue
            key = (g[0],) + (tuple(node_id[id(c)] for c in kids) if kids else g[1:])
            node_id[id(g)] = canon.setdefault(key, len(canon))
            size[id(g)] = 1 + sum(size[id(c)] for c in kids)
            keep.append(g)
            stack.pop()
        total += size[id(f)]
    return len(canon), total


# ---------------------------------------------------------------------------
# seeded input generators (shapes follow the acceptance corpora)


def rand_sentence(rng, budget: int) -> tuple:
    """A random variable-free formula with at most ``budget`` nodes."""
    if budget <= 1 or rng.random() < 0.25:
        return ("const", rng.randint(0, 1))
    op = rng.choice(["not", "and", "or"]) if budget >= 3 else "not"
    if op == "not":
        return ("not", rand_sentence(rng, budget - 1))
    return (op, rand_sentence(rng, (budget - 1) // 2), rand_sentence(rng, (budget - 1) // 2))


def rand_small_formula(rng, max_var: int = 3, depth: int = 2) -> tuple:
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.3:
            return ("const", rng.randint(0, 1))
        return ("var", rng.randint(1, max_var))
    op = rng.choice(["not", "and", "or"])
    if op == "not":
        return ("not", rand_small_formula(rng, max_var, depth - 1))
    return (op, rand_small_formula(rng, max_var, depth - 1),
            rand_small_formula(rng, max_var, depth - 1))


def leaves(f: tuple) -> int:
    return 1 if f[0] in ("const", "var") else sum(leaves(g) for g in f[1:])


def rand_tautology(rng, min_leaves: int, max_leaves: int, nvars: int) -> tuple:
    """A random tautology with min_leaves..max_leaves leaves over exactly the
    variables x1..x<nvars>, by rejection; half of the draws are forced to
    tautologies as f | ~f."""
    while True:
        f = rand_small_formula(rng, nvars, depth=3)
        if rng.random() < 0.5:
            f = ("or", f, ("not", f))
        if (min_leaves <= leaves(f) <= max_leaves and len(variables(f)) == nvars
                and is_tautology(f)):
            return f


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode() if isinstance(p, str) else repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]
