import hashlib
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nwtaut import designs as dg
from nwtaut.gf import GF, SUPPORTED_ORDERS


# ---------------------------------------------------------------------------
# field arithmetic

@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_field_axioms_exhaustive(q):
    F = GF(q)
    for a in range(q):
        assert F.add(a, 0) == a and F.mul(a, 1) == a and F.mul(a, 0) == 0
        for b in range(q):
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in range(q):
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    # multiplicative inverses exist
    for a in range(1, q):
        assert any(F.mul(a, b) == 1 for b in range(1, q))


def test_extension_fields_and_designs_pinned():
    # the field axioms hold for any irreducible modulus; these pins fix the
    # moduli x^2+x+1, x^3+x+1 and x^2+1 and so every q = 4, 8, 9 block
    assert [[GF(4).mul(a, b) for b in range(4)] for a in range(4)] == [
        [0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2],
    ]
    text = ""
    for q in (4, 8, 9):
        p = dg.poly_design(q, 2)
        for i in range(1, p.m + 1):
            text += f"{q} {i}: {' '.join(map(str, dg.block(p, i)))}\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8210937c07511c23c1742bab6d278607a8fcf6df3f030b63e6c8bae8eeabf39b"
    )


def test_unsupported_order():
    with pytest.raises(ValueError):
        GF(6)


# ---------------------------------------------------------------------------
# polynomial designs

def test_poly_design_hand_examples():
    # q=3, d=2: the constant-zero polynomial picks the first cell of each row
    p = dg.poly_design(3, 2)
    assert (p.n, p.m, p.l) == (9, 9, 3)
    assert dg.block(p, 1) == [1, 4, 7]
    # q=2, d=1: two constant polynomials
    p2 = dg.poly_design(2, 1)
    assert [dg.block(p2, i) for i in (1, 2)] == [[1, 3], [2, 4]]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_poly_design_verifies(q):
    # distinct polynomials of degree < d agree on at most d-1 points, and
    # some pair agrees on exactly d-1 when d <= q
    for d in range(1, min(q, 4) + 1):
        rep = dg.verify_design(dg.poly_design(q, d))
        assert rep.ok and rep.max_intersection == d - 1


def test_block_table_limit_is_named():
    big = dg.poly_design(7, 6)  # m = 7^6 = 117,649
    assert big.m > dg.SCAN_LIMIT
    with pytest.raises(dg.DesignError, match=f"exceeds the block table limit {dg.SCAN_LIMIT}"):
        dg.blocks(big)
    with pytest.raises(dg.DesignError, match=f"exceeds scan limit {dg.SCAN_LIMIT}"):
        dg.verify_design(big)
    # the single-index rule has no limit
    assert dg.block(big, big.m) == [7 * t + (6 * sum(t**e for e in range(6))) % 7 + 1
                                    for t in range(7)]


def test_poly_design_bad_params():
    with pytest.raises(dg.DesignError):
        dg.poly_design(6, 2)
    with pytest.raises(dg.DesignError):
        dg.poly_design(3, 4)


# ---------------------------------------------------------------------------
# explicit designs and the canonical preset

def test_explicit_design_checks_intersections():
    dg.explicit_design([[1, 2], [2, 3], [1, 3], [1, 4]], 4, 2)
    with pytest.raises(dg.DesignError):
        dg.explicit_design([[1, 2, 3], [1, 2, 4]], 4, 1)  # intersection 2 > 1


def pairwise_report(params):
    """The reference scan: block sizes in order, then every pair i < j."""
    for i, b in enumerate(params.blocks, 1):
        if len(b) != params.l:
            return dg.DesignReport(False, f"block {i} has size {len(b)} != l={params.l}")
    sets = [set(b) for b in params.blocks]
    worst = 0
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            inter = len(sets[i] & sets[j])
            if inter > params.d:
                return dg.DesignReport(
                    False, f"|J_{i + 1} ∩ J_{j + 1}| = {inter} > d = {params.d}", inter
                )
            worst = max(worst, inter)
    return dg.DesignReport(True, "", worst)


@pytest.mark.parametrize("column_bits", [dg._COLUMN_BITS, 64, 1])
def test_verify_design_matches_pairwise_scan(monkeypatch, column_bits):
    # small column budgets split the scan into windows of a few blocks
    monkeypatch.setattr(dg, "_COLUMN_BITS", column_bits)
    rng = random.Random(10)
    kinds = set()
    for _ in range(400):
        l = rng.randint(1, 5)
        n = rng.randint(l, 40)
        m = rng.randint(1, 30)
        blocks = [rng.sample(range(1, n + 1), l) for _ in range(m)]
        b = rng.choice(blocks)
        if l > 1 and rng.random() < 0.2:
            b[-1] = b[0]  # a repeated point: the block still has l entries
        elif rng.random() < 0.05:
            b.append(n + 1)  # a block of another size
        d = min(rng.choice([0, 0, 1, 2, 3]), l)
        params = dg.DesignParams(n=n + 1, m=m, l=l, d=d, tag="explicit",
                                 blocks=tuple(tuple(sorted(b)) for b in blocks))
        report = dg.verify_design(params)
        assert report == pairwise_report(params)
        kinds.add(report.detail.split(" ")[0] if report.detail else report.max_intersection)
    assert kinds >= {"block", "|J_1", "|J_2", 0, 1, 2}


def test_verify_design_memory_is_bounded_on_a_wide_sparse_design():
    # 20,000 one-point blocks: columns with a field for every block would
    # take about 50 MB, so they are built a window of blocks at a time
    m = 20_000
    params = dg.DesignParams(n=m, m=m, l=1, d=0, tag="explicit",
                             blocks=tuple((p,) for p in range(1, m + 1)))
    tracemalloc.start()
    try:
        report = dg.verify_design(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == dg.DesignReport(True, "", 0)
    assert peak < 8 * 2**20


def test_design_params_needs_m_blocks():
    with pytest.raises(dg.DesignError, match="need m=3 blocks, got 2"):
        dg.DesignParams(n=4, m=3, l=2, d=1, tag="explicit", blocks=((1, 2), (3, 4)))


@pytest.mark.parametrize("call, message", [
    (lambda: dg.DesignParams(n=2, m=1, l=3, d=1, tag="explicit"),
     "need 1 <= l <= n, got l=3, n=2"),
    (lambda: dg.DesignParams(n=4, m=0, l=2, d=1, tag="explicit"), "need m >= 1"),
    (lambda: dg.DesignParams(n=4, m=1, l=2, d=3, tag="explicit"), "need d <= l, got d=3, l=2"),
    (lambda: dg.explicit_design([], 4, 1), "no blocks"),
    (lambda: dg.explicit_design([[1, 1]], 4, 1), "repeated element in block [1, 1]"),
    (lambda: dg.explicit_design([[1, 5]], 4, 1), "block [1, 5] not within [1, 4]"),
    (lambda: dg.block(dg.poly_design(3, 2), 10), "block index 10 out of range [1, 9]"),
], ids=["l-above-n", "no-m", "d-above-l", "no-blocks", "repeated-point", "point-outside",
        "block-index"])
def test_design_constructors_name_what_they_refuse(call, message):
    with pytest.raises(dg.DesignError) as e:
        call()
    assert str(e.value) == message


def test_canonical_params_small():
    p = dg.canonical_params(27, Fraction(1, 3))
    assert (p.n, p.l, p.d, p.m) == (27, 3, 3, 8)
    assert p.blocks is not None and len(p.blocks) == 8
    assert dg.verify_design(p).ok


def test_canonical_params_large_not_materialized():
    p = dg.canonical_params(4096, "1/3")
    assert p.m == 2**16 and p.blocks is None


def test_canonical_params_materializes_at_most_scan_limit_entries():
    # m*l = 256*512 <= n, but above SCAN_LIMIT
    p = dg.canonical_params(2**27, "1/9")
    assert (p.l, p.d, p.m) == (512, 8, 256) and p.blocks is None


def test_canonical_params_d_limit_keeps_m_printable():
    assert dg.canonical_params(2**39, "1/3").d == dg.CANONICAL_D_LIMIT == 2**13
    with pytest.raises(dg.DesignError, match="d=65536"):
        dg.canonical_params(2**48, "1/3")


def test_canonical_parameter_record_round_trip():
    p = dg.canonical_params(4096, "1/3")
    text = dg.serialize_design(p)
    assert text == "design 4096 65536 16 16 canonical\n"
    assert dg.parse_design(text) == p


def test_canonical_params_rejects_noncube():
    with pytest.raises(dg.DesignError) as e:
        dg.canonical_params(26, "1/3")
    assert "27" in str(e.value)


def test_canonical_params_rejects_nonintegral_exponent():
    with pytest.raises(dg.DesignError):
        dg.canonical_params(27, Fraction(1, 4))


# ---------------------------------------------------------------------------
# serialization

@given(st.sampled_from([(2, 1), (3, 2), (4, 2), (5, 3), (7, 2)]))
def test_design_file_round_trip(qd):
    p = dg.poly_design(*qd)
    assert dg.parse_design(dg.serialize_design(p)) == p


def test_explicit_design_file_round_trip():
    p = dg.explicit_design([[1, 2], [3, 4]], 4, 1)
    back = dg.parse_design(dg.serialize_design(p))
    assert back.blocks == p.blocks


def test_parse_design_rejects_inconsistent_header():
    text = "design 9 8 3 2 poly\npoly 3 2\n"
    with pytest.raises(dg.DesignError):
        dg.parse_design(text)


@pytest.mark.parametrize("line", ["poly", "poly 3", "poly 3 2 1"])
def test_parse_design_poly_line_is_exactly_q_and_d(line):
    with pytest.raises(dg.DesignError, match="^line 2: poly line needs 'poly q d'$"):
        dg.parse_design(f"design 9 9 3 2 poly\n{line}\n")


@pytest.mark.parametrize("text, msg", [
    ("design 9 9 3 2 poly\npoly 3 x\n", "line 2: bad number 'x'"),
    ("design 9 9 3 2 poly\npoly \u00b3 2\n", "line 2: bad number '\u00b3'"),
    ("design 9 nine 3 2 poly\npoly 3 2\n", "line 1: bad number 'nine'"),
    ("design 9 9 3 -2 poly\npoly 3 2\n", "line 1: bad number '-2'"),
    ("design 4 2 2 1 explicit\nblock 1 2\nblock 1 a\n", "line 3: bad number 'a'"),
    ("design 4 1 2 1 explicit\nblock 1 " + "9" * 5000 + "\n", "line 2: bad number '9999"),
], ids=["poly-letter", "poly-superscript", "header-word", "header-sign", "block-letter",
        "block-5000-digits"])
def test_parse_design_bad_numbers_name_their_line(text, msg):
    with pytest.raises(dg.DesignError) as exc:
        dg.parse_design(text)
    assert str(exc.value).startswith(msg)
