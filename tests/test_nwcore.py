import copy
import random

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


@pytest.mark.parametrize("table", ["0110101x", "0110101\u0661", "0110 101", "0110101"])
def test_tabular_table_must_be_bits(table):
    """int() would read an Arabic-Indic digit as a digit, and raise its own
    message on an "x"; the table is refused before either."""
    with pytest.raises(nw.NWError, match="^table must be 8 bits of 0 and 1$"):
        nw.builtin_base("tabular", 3, table=table)


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


def reference_values(spec, x):
    """(bit, witness) per block, each computed by the base's _forward on
    the seed bits at the positions block() gives, in output order."""
    table = [dg.block(spec.design, i) for i in range(1, spec.design.m + 1)]
    return [spec.base._forward("".join(x[j - 1] for j in J)) for J in table]


def tables_of(l):
    """One truth table per input width: bit r is the parity of r * 37 + l."""
    return "".join(str(bin(r * 37 + l).count("1") % 2) for r in range(1 << l))


def bases_for(q):
    names = ["parity", "tabular"] + ["toy-owp"] * (q % 2 == 0)
    return [nw.builtin_base(n, q, table=tables_of(q) if n == "tabular" else None)
            for n in names]


def every_seed(n):
    return [format(v, f"0{n}b") for v in range(1 << n)]


def seeded(n, count, seed):
    rng = random.Random(seed)
    return [format(rng.getrandbits(n), f"0{n}b") for _ in range(count)]


@pytest.mark.parametrize("q,d,seeds", [
    (2, 1, every_seed(4)), (2, 2, every_seed(4)),
    (3, 1, every_seed(9)), (3, 2, every_seed(9)), (3, 3, every_seed(9)),
    (4, 2, seeded(16, 60, 4)), (5, 2, seeded(25, 40, 5)), (5, 3, seeded(25, 20, 53)),
])
def test_generator_equals_the_per_block_reference(q, d, seeds):
    """nw_eval and ttable_from_seed read the seed through one gather and the
    base's table; both equal the base's _forward run block by block.  One
    base serves every seed, so later seeds read inputs earlier ones kept."""
    design = dg.poly_design(q, d)
    for base in bases_for(q):
        spec = nw.GeneratorSpec(design, base)
        for x in seeds:
            ref = reference_values(spec, x)
            bits = "".join(str(bit) for bit, _ in ref)
            assert nw.nw_eval(spec, x) == bits
            if design.m & (design.m - 1) == 0:  # ttable needs m = 2^k
                assert nw.ttable_from_seed(spec, x) == (bits, [w for _, w in ref])


def test_a_seed_that_is_not_a_string_reads_block_by_block():
    spec = parity_spec()
    for x in seeded(9, 20, 9):
        assert nw.nw_eval(spec, [int(c) for c in x]) == nw.nw_eval(spec, x)


def test_nonbinary_seed_error_names_the_first_block_reading_it():
    q4 = nw.GeneratorSpec(dg.poly_design(4, 2), nw.builtin_base("parity", 4))
    bad_bit = "seed bits must be 0 or 1, got "
    cases = [
        (lambda: nw.nw_eval(parity_spec(), "10001x001"), bad_bit + "'0x1' at positions [3, 6, 9]"),
        (lambda: nw.ttable_from_seed(q4, "1" * 15 + "2"),
         bad_bit + "'1112' at positions [4, 8, 12, 16]"),
        (lambda: nw.nw_eval(parity_spec(), [1, 0, 1, 1, 0, 0, 0, 2, 1]),
         bad_bit + "'002' at positions [2, 5, 8]"),
        (lambda: nw.nw_eval(parity_spec(), "10001001"), "seed must have 9 bits, got 8"),
        (lambda: nw.ttable_from_seed(q4, "0" * 17), "seed must have 16 bits, got 17"),
        (lambda: nw.nw_eval(parity_spec(), "1000x1001"), bad_bit + "'0x0' at positions [2, 5, 8]"),
        # a hand-made design whose second block is wider than l
        (lambda: nw.nw_eval(nw.GeneratorSpec(
            dg.DesignParams(n=4, m=2, l=2, d=1, tag="explicit", blocks=((1, 2), (2, 3, 4))),
            nw.builtin_base("parity", 2)), "0101"), "expected 2 input bits, got 3"),
    ]
    for call, message in cases:
        with pytest.raises(nw.NWError) as e:
            call()
        assert str(e.value) == message


def test_a_design_keeps_its_gather_and_is_not_hashed_again(monkeypatch):
    """An explicit design's hash walks its block table; the design keeps its
    gather, so evaluating it after the first time hashes it no more, and a
    used design equals, hashes and prints as a fresh one."""
    def make():
        return dg.explicit_design([dg.block(dg.poly_design(3, 2), i) for i in range(1, 10)], 9, 2)

    spec = nw.GeneratorSpec(make(), nw.builtin_base("parity", 3))
    calls, hash_of = [], dg.DesignParams.__hash__

    def counted(self):
        calls.append(self)
        return hash_of(self)

    monkeypatch.setattr(dg.DesignParams, "__hash__", counted)
    first = nw.nw_eval(spec, "110100101")
    calls.clear()
    for x in seeded(9, 20, 28):
        nw.nw_eval(spec, x)
    assert nw.nw_eval(spec, "110100101") == first
    assert calls == []
    fresh = make()
    assert spec.design == fresh and hash(spec.design) == hash(fresh)
    assert repr(spec.design) == repr(fresh)


def test_a_used_base_equals_hashes_and_prints_as_a_fresh_one():
    used, fresh = nw.builtin_base("toy-owp", 2), nw.builtin_base("toy-owp", 2)
    nw.full_range(nw.GeneratorSpec(dg.poly_design(2, 2), used))
    assert used._seen and not fresh._seen
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)


@pytest.mark.parametrize("name,q,d", [("parity", 3, 2), ("toy-owp", 2, 2), ("tabular", 2, 1)])
def test_the_base_table_holds_each_input_once(name, q, d):
    """After full_range the table holds each l-bit input the blocks read,
    at most 2^l of them, and _forward ran once per input; an input that is
    not binary is refused."""
    base = nw.builtin_base(name, q, table=tables_of(q) if name == "tabular" else None)
    calls = []

    def counted(u):
        calls.append(u)
        return base._forward(u)

    counting = nw.BaseFunction(base.name, base.l, base.witness_width, base.f0, base.f1, counted)
    spec = nw.GeneratorSpec(dg.poly_design(q, d), counting)
    assert nw.full_range(spec) == nw.full_range(nw.GeneratorSpec(spec.design, base))
    seen = counting._seen
    assert len(seen) <= 1 << q and sorted(calls) == sorted(seen)
    assert set(seen) == {"".join(x[j - 1] for j in J)
                         for x in every_seed(q * q) for J in dg.blocks(spec.design)}
    bad = "x" + "1" * (q - 1)
    with pytest.raises(nw.NWError, match=f"^input bits must be 0 or 1, got '{bad}'$"):
        counting.evaluate(bad)
    assert bad not in seen


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


def tau_specs():
    """(base, design, seeded b values): the q=3 tabular and parity
    generators on every b in a seeded order, and the q=4 parity and toy-owp
    ones on seeded b, half of them images of random seeds."""
    rng = random.Random(29)
    out = []
    for base in [nw.builtin_base("tabular", 3, table="01101011"), nw.builtin_base("parity", 3)]:
        b_values = [format(v, "09b") for v in range(512)]
        rng.shuffle(b_values)
        out.append(pytest.param(base, dg.poly_design(3, 2), b_values, id=f"q3-{base.name}"))
    for base in [nw.builtin_base("parity", 4), nw.builtin_base("toy-owp", 4)]:
        design = dg.poly_design(4, 2)
        spec = nw.GeneratorSpec(design, base)
        b_values = [nw.nw_eval(spec, format(rng.getrandbits(16), "016b")) if i % 2 else
                    format(rng.getrandbits(16), "016b") for i in range(24)]
        out.append(pytest.param(base, design, b_values, id=f"q4-{base.name}"))
    return out


@pytest.mark.parametrize("base, design, b_values", tau_specs())
def test_kept_pieces_give_each_tau_the_clauses_of_a_fresh_spec(base, design, b_values):
    """One long-lived spec, whose table of block pieces fills as b varies,
    gives every b the clause set and the DIMACS text of a spec made for
    that b alone; the table stays within m(m+1) pieces."""
    kept = nw.GeneratorSpec(design, base)
    m = design.m
    for b in b_values:
        tau = nw.tau_of(kept, b)
        fresh = nw.tau_of(nw.GeneratorSpec(design, base), b)
        assert tau.clauses == fresh.clauses, b
        assert tau.clauses.to_dimacs() == fresh.clauses.to_dimacs(), b
        assert len(kept._pieces) <= m * (m + 1), b
    if m == 9:
        # both q=3 bases have two checker sizes, and the sweep meets every
        # first variable each block can have
        assert len(kept._pieces) == m * (m + 1)


@pytest.mark.parametrize("base, design, b_values", tau_specs())
def test_editing_a_tau_changes_neither_the_table_nor_a_later_tau(base, design, b_values):
    spec = nw.GeneratorSpec(design, base)
    for b in b_values[:8]:
        first = nw.tau_of(spec, b)
        table = copy.deepcopy(spec._pieces)
        text = first.clauses.to_dimacs()
        for clause in first.clauses.clauses:
            clause[0] = -clause[0]
            clause.append(1)
        first.clauses.clauses[0].clear()
        assert spec._pieces == table, b
        again = nw.tau_of(spec, b)
        assert again.clauses.to_dimacs() == text, b
        assert again.clauses == nw.tau_of(nw.GeneratorSpec(design, base), b).clauses


def test_kept_pieces_are_outside_eq_hash_and_repr():
    used, fresh = parity_spec(), parity_spec()
    nw.tau_of(used, "101101101")
    assert used._pieces and not fresh._pieces
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)


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
