"""(d,l)-designs on [n]: the polynomial-over-GF(q) construction, hand-built
explicit designs, the canonical parameter preset, and verification.

The poly-field construction indexes blocks by polynomials p over GF(q) of
degree < d (block i enumerates the coefficient vector of i-1 in base q,
low digit = constant term); block(p) = { q*t + p(t) + 1 : t in GF(q) },
a subset of [q^2].  Two distinct such polynomials agree on at most d-1
points, so intersections are at most d-1.

Design description file format:

    design <n> <m> <l> <d> <tag>
    poly <q> <dbound>            (poly-field tag)
    block <i1> <i2> ...          (explicit tag, one line per block)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

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
    dbound: int | None = None
    blocks: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if not (1 <= self.l <= self.n):
            raise DesignError(f"need 1 <= l <= n, got l={self.l}, n={self.n}")
        if self.m < 1:
            raise DesignError("need m >= 1")
        if self.d > self.l:
            raise DesignError(f"need d <= l, got d={self.d}, l={self.l}")


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
    return DesignParams(n=q * q, m=q**d, l=q, d=d, tag="poly", q=q, dbound=d)


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
        q, d = params.q, params.dbound
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


@dataclass(frozen=True)
class DesignReport:
    ok: bool
    detail: str = ""
    max_intersection: int = 0


# the pairwise scan is quadratic in m
SCAN_LIMIT = 100_000


def verify_design(params: DesignParams) -> DesignReport:
    """Full pairwise scan of both design clauses (block size, intersections)."""
    if params.m > SCAN_LIMIT:
        raise DesignError(f"m={params.m} exceeds scan limit {SCAN_LIMIT}")
    masks = []
    for i in range(1, params.m + 1):
        b = block(params, i)
        if len(b) != params.l:
            return DesignReport(False, f"block {i} has size {len(b)} != l={params.l}")
        mask = 0
        for j in b:
            mask |= 1 << j
        masks.append(mask)
    worst = 0
    for i in range(len(masks)):
        mi = masks[i]
        for j in range(i + 1, len(masks)):
            inter = (mi & masks[j]).bit_count()
            if inter > params.d:
                return DesignReport(
                    False, f"|J_{i + 1} ∩ J_{j + 1}| = {inter} > d = {params.d}", inter
                )
            if inter > worst:
                worst = inter
    return DesignReport(True, "", worst)


# ---------------------------------------------------------------------------
# file format

def serialize_design(params: DesignParams) -> str:
    lines = [f"design {params.n} {params.m} {params.l} {params.d} {params.tag}"]
    if params.tag == "poly":
        lines.append(f"poly {params.q} {params.dbound}")
    else:
        # a canonical preset without blocks is written as its header alone
        for b in params.blocks or ():
            lines.append("block " + " ".join(map(str, b)))
    return "\n".join(lines) + "\n"


def parse_design(text: str) -> DesignParams:
    header = None
    poly = None
    blocks: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if toks[0] == "design":
            if len(toks) != 6:
                raise DesignError(f"line {lineno}: bad design header")
            header = (int(toks[1]), int(toks[2]), int(toks[3]), int(toks[4]), toks[5])
        elif toks[0] == "poly":
            poly = (int(toks[1]), int(toks[2]))
        elif toks[0] == "block":
            blocks.append([int(t) for t in toks[1:]])
        else:
            raise DesignError(f"line {lineno}: unrecognized {line!r}")
    if header is None:
        raise DesignError("missing design header")
    n, m, l, d, tag = header
    if tag == "poly":
        if poly is None:
            raise DesignError("poly tag without poly line")
        params = poly_design(*poly)
        if (params.n, params.m, params.l, params.d) != (n, m, l, d):
            raise DesignError("poly header numbers disagree with construction")
        return params
    if not blocks:
        if tag == "canonical":
            return DesignParams(n=n, m=m, l=l, d=d, tag="canonical")
        raise DesignError("explicit tag without block lines")
    params = explicit_design(blocks, n, d)
    if (params.m, params.l) != (m, l):
        raise DesignError("header numbers disagree with block lines")
    return DesignParams(n=n, m=m, l=l, d=d, tag=tag, blocks=params.blocks)
