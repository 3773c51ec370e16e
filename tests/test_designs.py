import hashlib
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
    d = min(q, 3)
    p = dg.poly_design(q, d)
    rep = dg.verify_design(p)
    assert rep.ok and rep.max_intersection <= d - 1


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
