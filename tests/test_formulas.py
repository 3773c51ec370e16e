import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from nwtaut import formulas as fm


def formulas(max_var=6, max_leaves=12):
    leaf = st.one_of(
        st.integers(1, max_var).map(fm.Var),
        st.sampled_from([("const", 0), ("const", 1)]),
    )
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            sub.map(fm.Not),
            st.tuples(sub, sub).map(lambda p: fm.And(*p)),
            st.tuples(sub, sub).map(lambda p: fm.Or(*p)),
        ),
        max_leaves=max_leaves,
    )


def assignments(max_var=6):
    return st.fixed_dictionaries(
        {i: st.integers(0, 1) for i in range(1, max_var + 1)}
    )


# ---------------------------------------------------------------------------
# construction, text, evaluation

def test_constructors_shape():
    f = fm.Implies(fm.Var(1), fm.Or(fm.Var(2), fm.CONST0))
    assert f == ("or", ("not", ("var", 1)), ("or", ("var", 2), ("const", 0)))


def test_parse_examples():
    assert fm.parse("x1 & ~x2 | 0") == (
        "or", ("and", ("var", 1), ("not", ("var", 2))), ("const", 0)
    )
    assert fm.parse("~(x1 | x2)") == ("not", ("or", ("var", 1), ("var", 2)))


def test_parse_rejects_garbage():
    for bad in ["", "x0", "x1 &", "(x1", "x1 x2", "y1", "x\u00b2"]:
        with pytest.raises(fm.ParseError):
            fm.parse(bad)


@pytest.mark.parametrize("text, message", [
    ("", "unexpected end of input (at position 0)"),
    ("   ", "unexpected end of input (at position 3)"),
    ("~", "unexpected end of input (at position 1)"),
    ("x1 |", "unexpected end of input (at position 4)"),
    ("x1 &\t", "unexpected end of input (at position 5)"),
    ("x", "expected variable index after 'x' (at position 1)"),
    ("x 1", "expected variable index after 'x' (at position 1)"),
    ("x\u00b2", "expected variable index after 'x' (at position 1)"),
    ("x0", "variable index must be >= 1 (at position 1)"),
    ("x00", "variable index must be >= 1 (at position 1)"),
    ("x" + "9" * 5000, "variable index too long (at position 1)"),
    ("x1 )", "trailing input (at position 3)"),
    ("01", "trailing input (at position 1)"),
    ("x1 x2", "trailing input (at position 3)"),
    (" ~x1 ?", "trailing input (at position 5)"),
    ("(x1)) | x2", "trailing input (at position 4)"),
    ("(x1 x2)", "expected ')' (at position 4)"),
    ("(x1 | x2", "expected ')' (at position 8)"),
    ("((x1)", "expected ')' (at position 5)"),
    ("x1 & & x2", "unexpected character '&' (at position 5)"),
    ("y1", "unexpected character 'y' (at position 0)"),
    ("(x1 | ~)", "unexpected character ')' (at position 7)"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(fm.ParseError) as e:
        fm.parse(text)
    assert str(e.value) == message


# Deep formulas are checked by walking them in loops: == and hash() on nested
# tuples recurse in C, so they are never applied to a deep tree here.
DEEP = 10**5


def test_parse_deep_not_chain():
    f = fm.parse("~" * DEEP + "x1")
    for _ in range(DEEP):
        assert f[0] == "not"
        f = f[1]
    assert f == ("var", 1)


def test_parse_deep_parentheses():
    assert fm.parse("(" * DEEP + "x1" + ")" * DEEP) == ("var", 1)
    f = fm.parse("~(" * DEEP + "x1" + ")" * DEEP)
    for _ in range(DEEP):
        assert f[0] == "not"
        f = f[1]
    assert f == ("var", 1)


def test_parse_deep_or_chain_nests_right():
    f = fm.parse(" | ".join(f"x{i}" for i in range(1, DEEP + 1)))
    for i in range(1, DEEP):
        assert f[0] == "or" and f[1] == ("var", i)
        f = f[2]
    assert f == ("var", DEEP)


def test_parse_deep_parenthesized_and_chain_nests_left():
    f = fm.parse("(" * (DEEP - 1) + "x1" + "".join(f" & x{i})" for i in range(2, DEEP + 1)))
    for i in range(DEEP, 1, -1):
        assert f[0] == "and" and f[2] == ("var", i)
        f = f[1]
    assert f == ("var", 1)


@given(formulas())
def test_text_round_trip(f):
    assert fm.parse(fm.to_text(f)) == f


@given(formulas())
def test_hashed_formula_is_interchangeable_with_its_tuple(f):
    h = fm.HashedFormula(f)
    assert h == f and f == h and hash(h) == hash(f)
    assert fm.to_text(h) == fm.to_text(f)
    # either one finds the entry the other made, inside a larger key too
    table = {f: 1, ("not", h): 2}
    assert table[h] == 1 and table[("not", f)] == 2
    table[h] = 3
    assert table == {f: 3, ("not", f): 2}


@given(formulas(), assignments())
def test_evaluate_matches_python_semantics(f, a):
    def ref(g):
        t = g[0]
        if t == "const":
            return g[1]
        if t == "var":
            return a[g[1]]
        if t == "not":
            return 1 - ref(g[1])
        if t == "and":
            return ref(g[1]) & ref(g[2])
        return ref(g[1]) | ref(g[2])

    assert fm.evaluate(f, a) == ref(f)


def test_evaluate_missing_var():
    with pytest.raises(fm.EvalError):
        fm.evaluate(fm.Var(3), {1: 0})


# ---------------------------------------------------------------------------
# substitution and matching

@given(formulas(max_var=3), st.dictionaries(st.integers(1, 3), formulas(max_var=2), max_size=3))
def test_substitute_then_evaluate(f, sigma):
    a = {i: 1 for i in range(1, 4)}
    g = fm.substitute(f, sigma)
    expected = fm.evaluate(
        f, {i: (fm.evaluate(sigma[i], a) if i in sigma else a[i]) for i in range(1, 4)}
    )
    assert fm.evaluate(g, a) == expected


@given(formulas(max_var=3), st.dictionaries(
    st.integers(1, 3),
    st.one_of(st.integers(1, 5).map(fm.Var), st.sampled_from([fm.CONST0, fm.CONST1])),
    max_size=3,
))
def test_match_instance_round_trip(pattern, sigma):
    cand = fm.substitute(pattern, sigma)
    got = fm.match_instance(cand, pattern)
    assert got is not None
    assert fm.substitute(pattern, got) == cand


def test_match_instance_rejects_formula_targets():
    pattern = fm.And(fm.Var(1), fm.Var(1))
    cand = fm.And(fm.Or(fm.Var(1), fm.Var(2)), fm.Or(fm.Var(1), fm.Var(2)))
    assert fm.match_instance(cand, pattern) is None


def test_match_instance_consistency():
    pattern = fm.And(fm.Var(1), fm.Var(1))
    assert fm.match_instance(fm.And(fm.Var(2), fm.Var(3)), pattern) is None


# ---------------------------------------------------------------------------
# canonical code

def test_encode_pinned_bytes():
    # the two formulas that fit 8 bits, spelled out token by token
    assert fm.encode_k(("const", 1), 8) == "11110000"
    assert fm.encode_k(("const", 0), 8) == "11100000"
    assert fm.encode_k(fm.Var(1), 8) is None  # var token + index field + END > 8


def test_decode_rejects_noncodes():
    assert fm.decode_k("00000000") is None
    assert fm.decode_k("10101010") is None


@given(formulas(max_var=4, max_leaves=6), st.integers(8, 64))
def test_code_round_trip(f, k):
    code = fm.encode_k(f, k)
    if code is not None:
        assert len(code) == k
        assert fm.decode_k(code) == f


def test_code_round_trip_deep():
    n = 10**4
    code = "0001" * n + "1111" + "0000" + "0" * 5
    f = fm.decode_k(code)
    g = f
    for _ in range(n):
        assert g[0] == "not"
        g = g[1]
    assert g == ("const", 1)
    assert fm.encode_k(f, len(code)) == code
    # a variable leaf, and a code one bit too short for the same formula
    k = 4 * n + 4 + 16 + 4
    f = fm.Var(3)
    for _ in range(n):
        f = fm.Not(f)
    code = fm.encode_k(f, k)
    assert code == "0001" * n + "0100" + format(2, "016b") + "0000"
    assert fm.code_length(f, 16) == k - 4
    assert fm.encode_k(f, k - 1) is None
    g = fm.decode_k(code)
    for _ in range(n):
        assert g[0] == "not"
        g = g[1]
    assert g == ("var", 3)


def test_code_width_is_the_least_fitting_width():
    rng = random.Random(5)

    def rand(depth):
        r = rng.random()
        if depth == 0 or r < 0.3:
            if rng.random() < 0.2:
                return ("const", rng.randint(0, 1))
            return fm.Var(rng.choice([1, 2, rng.randint(1, 300), rng.randint(1, 70000)]))
        if r < 0.5:
            return fm.Not(rand(depth - 1))
        return (rng.choice(["and", "or"]), rand(depth - 1), rand(depth - 1))

    checked = 0
    for _ in range(300):
        f = rand(rng.randint(0, 6))
        w = fm.code_width(f)
        assert fm.encode_k(f, w) is not None
        brute = next((k for k in range(8, 4097) if fm.encode_k(f, k) is not None), None)
        if brute is None:
            assert w > 4096
        else:
            assert w == brute, f
            checked += 1
    assert checked > 100
    assert fm.code_width(("const", 1)) == 8
    assert fm.code_width(fm.Var(70000)) == (1 << 16) + 1  # index width 17


def test_match_instance_deep():
    n = 10**4
    pattern = fm.Var(1)
    cand = fm.Var(7)
    for _ in range(n):
        pattern = fm.Not(pattern)
        cand = fm.Not(cand)
    assert fm.match_instance(cand, pattern) == {1: ("var", 7)}
    assert fm.match_instance(cand[1], pattern) is None
    # a right-nested disjunction binds its variables left to right
    pattern, cand = fm.Var(n), fm.Var(n)
    for i in range(n - 1, 0, -1):
        pattern = fm.Or(fm.Var(i), pattern)
        cand = fm.Or(fm.CONST1 if i % 2 else fm.Var(i), cand)
    sigma = fm.match_instance(cand, pattern)
    assert list(sigma) == list(range(1, n + 1))
    assert all(sigma[i] == (fm.CONST1 if i % 2 else ("var", i)) for i in sigma)


def test_enumerate_fitting_small_widths():
    assert {f for f in fm.enumerate_fitting(8)} == {("const", 0), ("const", 1)}
    fits12 = set(fm.enumerate_fitting(12))
    assert ("var", 1) in fits12 and ("not", ("const", 1)) in fits12


@pytest.mark.parametrize("k", range(19))
def test_codes_are_the_decodable_strings_in_order(k):
    strings = ("".join(bits) for bits in itertools.product("01", repeat=k))
    assert list(fm.codes(k)) == [s for s in strings if fm.decode_k(s) is not None]


@pytest.mark.parametrize("k, count", [(24, 506), (30, 14540), (32, 16262)])
def test_codes_at_widths_past_a_brute_sweep(k, count):
    got = list(fm.codes(k))
    assert len(got) == count and got == sorted(set(got))
    assert all(len(s) == k and fm.decode_k(s) is not None for s in got)


def test_enumerate_fitting_is_every_formula_with_a_code_over_x1_to_xk():
    counts = []
    for k in range(8, 21):
        # formulas by token count; a k-bit code holds fewer than k // 4
        # tokens besides END
        by_size = {1: [fm.CONST0, fm.CONST1] + [fm.Var(i) for i in range(1, k + 1)]}
        for n in range(2, k // 4):
            by_size[n] = [fm.Not(g) for g in by_size[n - 1]] + [
                (tag, f, g) for tag in ("and", "or") for i in range(1, n - 1)
                for f in by_size[i] for g in by_size[n - 1 - i]]
        fits = {f for fs in by_size.values() for f in fs if fm.encode_k(f, k) is not None}
        got = fm.enumerate_fitting(k)
        assert len(set(got)) == len(got) and set(got) == fits, k
        counts.append(len(got))
    assert counts == [2, 2, 2, 2, 16, 17, 18, 19, 46, 48, 50, 52, 80]


# ---------------------------------------------------------------------------
# tautology oracles

@given(formulas(max_var=5))
@settings(max_examples=200)
def test_brute_vs_dpll_agree(f):
    assert fm.is_tautology(f, "brute") == fm.is_tautology(f, "dpll")


def test_is_tautology_brute_force_at_24_variables():
    """The brute-force sweep covers 2^24 assignments in time linear in 2^24:
    building its variable masks by division took time quadratic in it."""
    conj = fm.Var(24)
    for i in range(23, 0, -1):
        conj = fm.And(fm.Var(i), conj)
    t0 = time.monotonic()
    assert fm.is_tautology(conj, "brute") is False
    assert fm.is_tautology(fm.Or(conj, fm.Not(conj)), "brute") is True
    assert time.monotonic() - t0 < 2.0
    assert fm.is_tautology(conj, "dpll") is False


def test_is_tautology_basics():
    assert fm.is_tautology(fm.parse("x1 | ~x1"))
    assert not fm.is_tautology(fm.parse("x1 | x2"))
    assert fm.is_tautology(fm.parse("1"))
    assert not fm.is_tautology(fm.parse("0"), "dpll")


def test_is_tautology_auto_above_the_brute_force_limit():
    """25 variables exceed BRUTE_VAR_LIMIT, so "auto" answers by DPLL."""
    assert fm.BRUTE_VAR_LIMIT < 25
    disjuncts = " | ".join(f"x{i}" for i in range(2, 26))
    assert fm.is_tautology(fm.parse(f"x1 | ~x1 | {disjuncts}"), "auto") is True
    assert fm.is_tautology(fm.parse(f"x1 | {disjuncts}"), "auto") is False
