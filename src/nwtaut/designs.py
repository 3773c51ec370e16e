"""(d,l)-designs on [n]: the polynomial-over-GF(q) construction, hand-built
explicit designs, the canonical parameter preset, and verification.

The poly-field construction indexes blocks by polynomials p over GF(q) of
degree < d (block i enumerates the coefficient vector of i-1 in base q,
low digit = constant term); block(p) = { q*t + p(t) + 1 : t in GF(q) },
a subset of [q^2].  Two distinct such polynomials agree on at most d-1
points, so intersections are at most d-1.

Design description file format:

    design <n> <m> <l> <d> <tag>  (tag: poly, explicit or canonical)
    poly <q> <d>                 (poly-field tag)
    block <i1> <i2> ...          (explicit tag, one line per block)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isqrt

from .cnf import _decimal
from .gf import GF, SUPPORTED_ORDERS

_field = cache(GF)  # one field per order; at most len(SUPPORTED_ORDERS) entries


class DesignError(ValueError):
    pass


@dataclass(frozen=True)
class DesignParams:
    n: int
    m: int
    l: int
    d: int
    tag: str                      # "poly" | "explicit" | "canonical"
    q: int | None = None
    blocks: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if not (1 <= self.l <= self.n):
            raise DesignError(f"need 1 <= l <= n, got l={self.l}, n={self.n}")
        if self.m < 1:
            raise DesignError("need m >= 1")
        if self.d > self.l:
            raise DesignError(f"need d <= l, got d={self.d}, l={self.l}")
        if self.blocks is not None and len(self.blocks) != self.m:
            raise DesignError(f"need m={self.m} blocks, got {len(self.blocks)}")


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, in exact integer arithmetic."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) >= the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


# the largest d for which m = 2^d is computed; 2^(2^13) has 2,467 decimal
# digits, within the 4,300 that Python converts to a string by default
CANONICAL_D_LIMIT = 2**13


def canonical_params(n: int, delta: Fraction | str) -> DesignParams:
    """The canonical preset: l = n^(1/3), d = n^delta, m = 2^d.

    n must be a perfect cube, n^delta integral and d at most
    CANONICAL_D_LIMIT.  When the m blocks fit disjointly into [n] and their
    m*l entries are at most SCAN_LIMIT, the design is materialized; otherwise
    only the parameter record is returned (the intended m is astronomically
    large)."""
    if n < 1:
        raise DesignError(f"need n >= 1, got n={n}")
    if isinstance(delta, str):
        try:
            delta = Fraction(delta)
        except ZeroDivisionError:
            raise DesignError(f"delta {delta!r} has a zero denominator") from None
    if not 0 < delta <= Fraction(1, 3):
        raise DesignError("delta must lie in (0, 1/3]")
    l = _iroot(n, 3)
    if l**3 != n:
        raise DesignError(
            f"n={n} is not a perfect cube (nearest valid: {l**3} or {(l + 1) ** 3})"
        )
    # with delta = p/q in lowest terms, n^delta is an integer iff n = r^q for
    # an integer r, and then d = r^p; r >= 2 needs 2^q <= n, so a larger q
    # leaves only r = 1 (n = 1) and no power of the size of 2^q is taken
    p, q = delta.numerator, delta.denominator
    r = _iroot(n, q) if q < n.bit_length() else 1
    if r**q != n:
        raise DesignError(f"n^delta is not integral for n={n}, delta={delta}")
    d = r**p
    if d > CANONICAL_D_LIMIT:
        raise DesignError(f"d={d} exceeds the limit {CANONICAL_D_LIMIT} (m = 2^d)")
    m = 2**d
    blocks = None
    if m * l <= min(n, SCAN_LIMIT):
        blocks = tuple(tuple(range(i * l + 1, (i + 1) * l + 1)) for i in range(m))
    return DesignParams(n=n, m=m, l=l, d=d, tag="canonical", blocks=blocks)


def poly_design(q: int, d: int) -> DesignParams:
    """Blocks indexed by degree-<d polynomials over GF(q); a (d,q)-design on
    [q^2] with pairwise intersections at most d-1."""
    if q not in SUPPORTED_ORDERS:
        raise DesignError(f"unsupported field order {q}; supported: {SUPPORTED_ORDERS}")
    if not 1 <= d <= q:
        raise DesignError(f"need 1 <= d <= q, got d={d}")
    return DesignParams(n=q * q, m=q**d, l=q, d=d, tag="poly", q=q)


def explicit_design(blocks: list[list[int]], n: int, d: int) -> DesignParams:
    if not blocks:
        raise DesignError("no blocks")
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        raise DesignError(f"blocks of unequal size: {sorted(sizes)}")
    l = sizes.pop()
    for b in blocks:
        if len(set(b)) != len(b):
            raise DesignError(f"repeated element in block {b}")
        if any(not 1 <= j <= n for j in b):
            raise DesignError(f"block {b} not within [1, {n}]")
    params = DesignParams(
        n=n, m=len(blocks), l=l, d=d, tag="explicit",
        blocks=tuple(tuple(sorted(b)) for b in blocks),
    )
    report = verify_design(params)
    if not report.ok:
        raise DesignError(f"not a ({d},{l})-design: {report.detail}")
    return params


def block(params: DesignParams, i: int) -> list[int]:
    """J_i (sorted), computed from the index alone for poly-field designs."""
    if not 1 <= i <= params.m:
        raise DesignError(f"block index {i} out of range [1, {params.m}]")
    if params.tag == "poly":
        q, d = params.q, params.d
        field = _field(q)
        coeffs = [(i - 1) // q**e % q for e in range(d)]
        out = []
        for t in range(q):
            val = 0
            for c in reversed(coeffs):  # Horner's rule
                val = field.add(field.mul(val, t), c)
            out.append(q * t + val + 1)
        return sorted(out)
    if params.blocks is None:
        raise DesignError("design has no materialized blocks")
    return list(params.blocks[i - 1])


# the largest m whose blocks are tabulated and verified: the table holds m*l
# points, and verify_design sums l packed columns of up to m fields for each
# of the m blocks; poly designs cross it only at q in {7, 8, 9} with d >= 6
SCAN_LIMIT = 100_000


def blocks(params: DesignParams) -> tuple[tuple[int, ...], ...]:
    """J_1, ..., J_m in output order, as block() gives them.  A poly
    design's table is built from block() once and shared by later calls."""
    if params.tag == "poly":
        if params.m > SCAN_LIMIT:
            raise DesignError(f"m={params.m} exceeds the block table limit {SCAN_LIMIT}")
        return _poly_table(params)
    if params.blocks is None:
        raise DesignError("design has no materialized blocks")
    return params.blocks


@cache  # one entry per poly design in use; SUPPORTED_ORDERS bounds the (q, d) pairs
def _poly_table(params: DesignParams) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(block(params, i)) for i in range(1, params.m + 1))


@dataclass(frozen=True)
class DesignReport:
    ok: bool
    detail: str = ""
    max_intersection: int = 0


# the most column bits verify_design holds at once (2 MiB)
_COLUMN_BITS = 1 << 24


def verify_design(params: DesignParams) -> DesignReport:
    """Check both design clauses: every block has l points and every two
    blocks share at most d.  The first failing block, or the first pair
    (i, j) with i < j in lexicographic order, is reported.

    Each point p gets a column, an int whose w-bit field j is 1 when J_j
    contains p.  The sum of the columns of J_i's points holds every
    |J_i ∩ J_j| in its fields; adding (2^(w-1) - 1 - t) to each field sets
    the field's top bit exactly when it exceeds t, so one add and one mask
    test all j at once, and the lowest set bit names the first j.  Raising t
    while a field exceeds it gives the largest intersection.  Columns are
    built for one window of blocks at a time, so that they stay within
    _COLUMN_BITS on wide sparse designs."""
    if params.m > SCAN_LIMIT:
        raise DesignError(f"m={params.m} exceeds scan limit {SCAN_LIMIT}")
    table = blocks(params)
    for i, b in enumerate(table, 1):
        if len(b) != params.l:
            return DesignReport(False, f"block {i} has size {len(b)} != l={params.l}")
    m, w = len(table), params.l.bit_length() + 1  # fields hold 0..l below the top bit
    top, d = 1 << (w - 1), max(params.d, -1)      # any d < 0 fails every pair, as -1 does
    npoints = len({p for b in table for p in b})
    span = max(_COLUMN_BITS // (npoints * w), isqrt(_COLUMN_BITS // (params.l * w)), 1)
    t = -1         # no field seen so far exceeds t, and t <= d
    found = None   # the first violating (i, j, |J_i ∩ J_j|), 0-based
    for lo in range(1, m, span):  # columns for the blocks j in [lo, hi)
        hi = min(lo + span, m)
        col: dict[int, int] = {}
        for j in range(lo, hi):
            bit = 1 << (w * (j - lo))
            for p in table[j]:
                col[p] = col.get(p, 0) | bit
        ones = ((1 << (w * (hi - lo))) - 1) // ((1 << w) - 1)  # 1 in every field
        high = ones << (w - 1)
        thr = (top - 1 - t) * ones
        rows = hi - 1 if found is None else min(hi - 1, found[0])
        for i in range(rows):
            s = 0
            for p in set(table[i]):
                s += col.get(p, 0)
            if not s and t >= 0:
                continue  # J_i meets no block of the window: no field exceeds t
            drop = max(i - lo + 1, 0)  # fields of blocks j <= i
            s >>= w * drop
            mask = high >> (w * drop)
            while over := (s + thr) & mask:
                if t == d:
                    k = ((over & -over).bit_length() - 1) // w
                    found = (i, lo + drop + k, (s >> (w * k)) & (2 * top - 1))
                    break
                t += 1
                thr -= ones
            if found is not None and found[0] == i:
                break
    if found is not None:
        i, j, size = found
        return DesignReport(False, f"|J_{i + 1} ∩ J_{j + 1}| = {size} > d = {params.d}", size)
    return DesignReport(True, "", max(t, 0))


# ---------------------------------------------------------------------------
# file format

def serialize_design(params: DesignParams) -> str:
    lines = [f"design {params.n} {params.m} {params.l} {params.d} {params.tag}"]
    if params.tag == "poly":
        lines.append(f"poly {params.q} {params.d}")
    else:
        # a canonical preset without blocks is written as its header alone
        for b in params.blocks or ():
            lines.append("block " + " ".join(map(str, b)))
    return "\n".join(lines) + "\n"


def parse_design(text: str) -> DesignParams:
    header = None
    poly = None
    blocks: list[list[int]] = []

    def numbers(toks: list[str], lineno: int) -> list[int]:
        vals = [_decimal(t) for t in toks]
        if None in vals:
            bad = toks[vals.index(None)]
            raise DesignError(f"line {lineno}: bad number {bad!r}")
        return vals

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if toks[0] == "design":
            if header is not None:
                raise DesignError(f"line {lineno}: second design header")
            if len(toks) != 6:
                raise DesignError(f"line {lineno}: bad design header")
            if toks[5] not in ("poly", "explicit", "canonical"):
                raise DesignError(f"line {lineno}: unknown design tag {toks[5]!r}")
            header = (*numbers(toks[1:5], lineno), toks[5])
        elif toks[0] == "poly":
            if poly is not None:
                raise DesignError(f"line {lineno}: second poly line")
            if blocks:
                raise DesignError(f"line {lineno}: poly line in a design with block lines")
            if len(toks) != 3:
                raise DesignError(f"line {lineno}: poly line needs 'poly q d'")
            poly, poly_line = tuple(numbers(toks[1:], lineno)), lineno
        elif toks[0] == "block":
            if poly is not None:
                raise DesignError(f"line {lineno}: block line in a poly design")
            blocks.append(numbers(toks[1:], lineno))
        else:
            raise DesignError(f"line {lineno}: unrecognized {line!r}")
    if header is None:
        raise DesignError("missing design header")
    n, m, l, d, tag = header
    if poly is not None and tag != "poly":
        raise DesignError(f"line {poly_line}: poly line in a design tagged {tag!r}")
    if tag == "poly":
        if poly is None:
            raise DesignError("poly tag without poly line")
        params = poly_design(*poly)
        if (params.n, params.m, params.l, params.d) != (n, m, l, d):
            raise DesignError("poly header numbers disagree with construction")
        return params
    if not blocks:
        if tag != "canonical":
            raise DesignError("explicit tag without block lines")
        if l**3 != n:
            raise DesignError(f"canonical record fails l^3 = n (l={l}, n={n})")
        if m & (m - 1) or m.bit_length() - 1 != d:
            raise DesignError(f"canonical record fails m = 2^d (m={m}, d={d})")
        return DesignParams(n=n, m=m, l=l, d=d, tag="canonical")
    params = explicit_design(blocks, n, d)
    if (params.m, params.l) != (m, l):
        raise DesignError("header numbers disagree with block lines")
    return DesignParams(n=n, m=m, l=l, d=d, tag=tag, blocks=params.blocks)
