import pytest
from hypothesis import given, settings, strategies as st

from nwtaut import circuits as cc
from nwtaut import designs as dg
from nwtaut import nwcore as nw
from nwtaut.cnf import dpll_solve


def parity_spec():
    return nw.GeneratorSpec(dg.poly_design(3, 2), nw.builtin_base("parity", 3))


def four_block_spec(base="parity"):
    design = dg.explicit_design([[1, 2], [2, 3], [1, 3], [1, 4]], 4, 2)
    return nw.GeneratorSpec(design, nw.builtin_base(base, 2))


def base_accepts(base, a, u, y):
    """Whether the base function's F_a checker accepts witness y on u."""
    return cc.eval_circuit(base.checker(a), {"u": u, "y": y}) == "1"


def has_witness(tri, a, x, w):
    """Whether F_a(x, ., w) accepts some witness, by sweeping every y."""
    yw = dict(tri.f0.groups)["y"]
    return any(tri.accepts(a, x, format(v, f"0{yw}b") if yw else "", w) for v in range(1 << yw))


def least_preimage(spec, b):
    """The least seed x with NW(x) = b, or None, by sweeping every seed."""
    n = spec.design.n
    return next((x for x in (format(v, f"0{n}b") for v in range(1 << n))
                 if nw.nw_eval(spec, x) == b), None)


def model_seed(tau, n):
    """The seed bits x1..xn of the lex-least model of tau's negation
    clauses, or None when they are unsatisfiable."""
    model = dpll_solve(tau.clauses)
    return None if model is None else "".join(str(model[v]) for v in range(1, n + 1))


# ---------------------------------------------------------------------------
# base functions

@pytest.mark.parametrize("name,l", [("parity", 3), ("tabular", 2), ("toy-owp", 4)])
def test_base_function_witnesses_exclusive(name, l):
    table = "0110" if name == "tabular" else None
    base = nw.builtin_base(name, l, table=table)
    for v in range(1 << l):
        u = format(v, f"0{l}b")
        bit, wit = base.evaluate(u)
        assert base_accepts(base, bit, u, wit)
        # exclusivity: no witness at all for the opposite value
        yw = base.witness_width
        for m in range(1 << yw):
            y = format(m, f"0{yw}b") if yw else ""
            assert not base_accepts(base, 1 - bit, u, y)


def test_parity_evaluates():
    base = nw.builtin_base("parity", 4)
    assert base.evaluate("1011")[0] == 1
    assert base.evaluate("1001")[0] == 0


def test_toy_owp_is_a_permutation():
    base = nw.builtin_base("toy-owp", 6)
    images = {base.evaluate(format(v, "06b"))[1] for v in range(64)}
    assert len(images) == 64


def test_toy_owp_odd_width_rejected():
    with pytest.raises(nw.NWError):
        nw.builtin_base("toy-owp", 5)


# ---------------------------------------------------------------------------
# the generator

def test_nw_eval_hand_value():
    spec = parity_spec()
    # block 1 = {1,4,7}: bits of the seed at those positions, xored
    x = "100010001"
    b1 = (1 + 0 + 0) % 2
    assert nw.nw_eval(spec, x)[0] == str(b1)


@given(st.integers(0, 511), st.integers(0, 511))
@settings(max_examples=300)
def test_parity_generator_linear(a, b):
    spec = parity_spec()
    x = format(a, "09b")
    y = format(b, "09b")
    z = format(a ^ b, "09b")
    gx, gy, gz = (nw.nw_eval(spec, s) for s in (x, y, z))
    assert int(gx, 2) ^ int(gy, 2) == int(gz, 2)


def test_nw_eval_reads_a_block_table_that_block_does_not_share():
    spec = parity_spec()
    expected = nw.nw_eval(nw.GeneratorSpec(
        dg.explicit_design([dg.block(spec.design, i) for i in range(1, 10)], 9, 2),
        spec.base), "110100101")
    for i in range(1, 10):
        dg.block(spec.design, i)[:] = [1, 2, 3]
        assert nw.nw_eval(spec, "110100101") == expected


def test_nonbinary_seed_error_names_the_first_block_reading_it():
    q4 = nw.GeneratorSpec(dg.poly_design(4, 2), nw.builtin_base("parity", 4))
    cases = [
        (lambda: nw.nw_eval(parity_spec(), "10001x001"), "'0x1' at positions [3, 6, 9]"),
        (lambda: nw.ttable_from_seed(q4, "1" * 15 + "2"), "'1112' at positions [4, 8, 12, 16]"),
    ]
    for call, tail in cases:
        with pytest.raises(nw.NWError) as e:
            call()
        assert str(e.value) == "seed bits must be 0 or 1, got " + tail


def test_range_oracle_and_full_range():
    spec = four_block_spec()
    rng = nw.full_range(spec)
    for v in range(16):
        b = format(v, "04b")
        assert (least_preimage(spec, b) is not None) == (b in rng)
    assert len(rng) < 16  # parity generator is far from surjective


# ---------------------------------------------------------------------------
# the tau translation

def test_tau_verdict_matches_range_membership():
    spec = four_block_spec()
    rng = nw.full_range(spec)
    for v in range(16):
        b = format(v, "04b")
        tau = nw.tau_of(spec, b)
        assert nw.tau_verdict(tau) == (b not in rng)
        pre = model_seed(tau, spec.design.n)
        if b in rng:
            # x comes first in the default decision order
            assert pre == least_preimage(spec, b)
        else:
            assert pre is None


def test_tau_clauses_negation_consistency():
    spec = parity_spec()
    tau = nw.tau_of(spec, "1" * 9)
    tau.clauses.validate()
    # the clause set is the negation: models are exactly falsifications
    model = dpll_solve(tau.clauses)
    if model is not None:
        seed = "".join(str(model[v]) for v in range(1, 10))
        assert nw.nw_eval(spec, seed) == "1" * 9


def test_tau_metadata_comments():
    spec = parity_spec()
    tau = nw.tau_of(spec, "101101101")
    text = tau.clauses.to_dimacs()
    assert "b=101101101" in text and "base=parity" in text


# ---------------------------------------------------------------------------
# triples and advice circuits

def test_err_triple_exclusivity_h1():
    spec = four_block_spec()
    tri = nw.err_triple(spec)
    for xv in range(4):
        x = format(xv, "02b")
        for wv in range(16):
            w = format(wv, "04b")
            h0 = has_witness(tri, 0, x, w)
            h1 = has_witness(tri, 1, x, w)
            assert h0 != h1  # exactly one side has a witness


def test_err_triple_tracks_generator():
    spec = four_block_spec()
    tri = nw.err_triple(spec)
    for wv in range(16):
        w = format(wv, "04b")
        bits = nw.nw_eval(spec, w)
        for xv in range(4):
            x = format(xv, "02b")
            assert has_witness(tri, int(bits[xv]), x, w)


def test_ttable_from_seed_replays():
    spec = four_block_spec("toy-owp") if False else four_block_spec()
    table, wits = nw.ttable_from_seed(spec, "1100")
    assert table == nw.nw_eval(spec, "1100")
    tri = nw.err_triple(spec)
    for v in range(4):
        assert tri.accepts(int(table[v]), format(v, "02b"), wits[v], "1100")
