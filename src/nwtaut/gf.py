"""GF(q) arithmetic for small prime powers, one rule for every order.

Each supported q is p^deg with a fixed monic irreducible modulus of degree
deg over GF(p); a prime field is the case deg = 1 with modulus x.  Elements
are the integers 0..q-1, read as base-p digit vectors of polynomials of
degree < deg (least significant digit = constant term).  The constructor
tabulates addition (digit-wise mod p) and multiplication (polynomial product
reduced by the modulus) as q x q tables, so add and mul are lookups.
"""

from __future__ import annotations

# q: (p, modulus coefficients low-to-high degree)
_MODULI = {
    2: (2, [0, 1]),              # x
    3: (3, [0, 1]),
    4: (2, [1, 1, 1]),           # x^2 + x + 1 over GF(2)
    5: (5, [0, 1]),
    7: (7, [0, 1]),
    8: (2, [1, 1, 0, 1]),        # x^3 + x + 1 over GF(2)
    9: (3, [1, 0, 1]),           # x^2 + 1 over GF(3)
}

SUPPORTED_ORDERS = sorted(_MODULI)


class GF:
    def __init__(self, q: int):
        if q not in _MODULI:
            raise ValueError(f"unsupported field order {q}; supported: {SUPPORTED_ORDERS}")
        p, modulus = _MODULI[q]
        deg = len(modulus) - 1
        self.q = q
        self.p = p
        digits = [[x // p**i % p for i in range(deg)] for x in range(q)]

        def value(vec) -> int:
            return sum((c % p) * p**i for i, c in enumerate(vec))

        def product(a: int, b: int) -> int:
            prod = [0] * (2 * deg - 1)
            for i, ca in enumerate(digits[a]):
                for j, cb in enumerate(digits[b]):
                    prod[i + j] += ca * cb
            # reduce by the monic modulus, from the top degree down
            for i in range(2 * deg - 2, deg - 1, -1):
                c = prod[i] % p
                for j, mc in enumerate(modulus):
                    prod[i - deg + j] -= c * mc
            return value(prod[:deg])

        self._add = [
            [value(x + y for x, y in zip(digits[a], digits[b])) for b in range(q)]
            for a in range(q)
        ]
        self._mul = [[product(a, b) for b in range(q)] for a in range(q)]

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]
