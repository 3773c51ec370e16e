"""GF(q) arithmetic for small prime powers.

Prime fields use modular arithmetic; GF(4), GF(8) and GF(9) use precomputed
log/antilog tables over a fixed irreducible polynomial.  Elements are the
integers 0..q-1; for extension fields the integer is the base-p digit vector
of the polynomial representation (least significant digit = constant term).
"""

from __future__ import annotations

_PRIMES = {2, 3, 5, 7}

# irreducible polynomials, coefficient list low-to-high degree
_EXTENSIONS = {
    4: (2, 2, [1, 1, 1]),        # x^2 + x + 1 over GF(2)
    8: (2, 3, [1, 1, 0, 1]),     # x^3 + x + 1 over GF(2)
    9: (3, 2, [1, 0, 1]),        # x^2 + 1 over GF(3)
}

SUPPORTED_ORDERS = sorted(_PRIMES | set(_EXTENSIONS))


class GF:
    def __init__(self, q: int):
        if q in _PRIMES:
            self.q = q
            self.p = q
            self._log = None
        elif q in _EXTENSIONS:
            self.q = q
            self.p, deg, poly = _EXTENSIONS[q]
            self._build_tables(self.p, deg, poly)
        else:
            raise ValueError(f"unsupported field order {q}; supported: {SUPPORTED_ORDERS}")

    def _build_tables(self, p: int, deg: int, poly: list[int]) -> None:
        q = self.q

        def to_vec(x: int) -> list[int]:
            v = []
            for _ in range(deg):
                v.append(x % p)
                x //= p
            return v

        def from_vec(v: list[int]) -> int:
            x = 0
            for c in reversed(v):
                x = x * p + c
            return x

        def mul_raw(a: int, b: int) -> int:
            va, vb = to_vec(a), to_vec(b)
            prod = [0] * (2 * deg - 1)
            for i, ca in enumerate(va):
                for j, cb in enumerate(vb):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
            # reduce modulo poly (monic of degree deg)
            for i in range(len(prod) - 1, deg - 1, -1):
                c = prod[i]
                if c:
                    for j, pc in enumerate(poly[:-1]):
                        prod[i - deg + j] = (prod[i - deg + j] - c * pc) % p
                    prod[i] = 0
            return from_vec(prod[:deg])

        # find a generator by trial
        for g in range(2, q):
            seen = set()
            x = 1
            for _ in range(q - 1):
                x = mul_raw(x, g)
                seen.add(x)
            if len(seen) == q - 1:
                gen = g
                break
        else:
            raise AssertionError("no generator found (bad polynomial?)")
        self._exp = [0] * (q - 1)
        self._log = [0] * q
        x = 1
        for i in range(q - 1):
            self._exp[i] = x
            self._log[x] = i
            x = mul_raw(x, gen)

    def add(self, a: int, b: int) -> int:
        if self._log is None:
            return (a + b) % self.p
        # digit-wise addition mod p
        out = 0
        mult = 1
        while a or b:
            out += ((a + b) % self.p) * mult
            a //= self.p
            b //= self.p
            mult *= self.p
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._log is None:
            return (a * b) % self.p
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
