import random

import pytest
from hypothesis import given, settings, strategies as st

from nwtaut import circuits as cc
from nwtaut import formulas as fm
from nwtaut.cnf import ClauseSet


def xor_chain(n):
    b = cc.CircuitBuilder([("a", n)])
    out = b.inp("a", 1)
    for i in range(2, n + 1):
        out = b.XOR(out, b.inp("a", i))
    return b.build([out])


def test_eval_basic_gates():
    b = cc.CircuitBuilder([("p", 2)])
    g = b.AND(b.inp("p", 1), b.NOT(b.inp("p", 2)))
    circ = b.build([g])
    assert cc.eval_circuit(circ, {"p": "10"}) == "1"
    assert cc.eval_circuit(circ, {"p": "11"}) == "0"


@given(st.integers(2, 6), st.integers(0, 63))
def test_xor_chain_is_parity(n, v):
    bits = format(v % (1 << n), f"0{n}b")
    circ = xor_chain(n)
    assert cc.eval_circuit(circ, {"a": bits}) == str(bits.count("1") % 2)


def test_const_wire_is_constant():
    b = cc.CircuitBuilder([("a", 2)])
    circ = b.build([b.const(1), b.const(0)])
    for bits in ("00", "01", "10", "11"):
        assert cc.eval_circuit(circ, {"a": bits}) == "10"


def test_equals_const():
    b = cc.CircuitBuilder([("a", 3)])
    circ = b.build([b.equals_const([b.inp("a", i) for i in (1, 2, 3)], "101")])
    assert cc.eval_circuit(circ, {"a": "101"}) == "1"
    assert cc.eval_circuit(circ, {"a": "100"}) == "0"


def test_opaque_gate_needs_oracle():
    b = cc.CircuitBuilder([("a", 2)])
    g = b.opaque("maj", [b.inp("a", 1), b.inp("a", 2)])
    circ = b.build([g])
    with pytest.raises(cc.CircuitError):
        cc.eval_circuit(circ, {"a": "11"})
    assert cc.eval_circuit(circ, {"a": "11"}, {"maj": lambda t: sum(t) == 2}) == "1"


def test_serialize_round_trip():
    b = cc.CircuitBuilder([("a", 2), ("z", 1)])
    g = b.OR(b.XOR(b.inp("a", 1), b.inp("a", 2)), b.inp("z", 1))
    circ = b.build([g, b.NOT(g)])
    assert cc.parse_circuit(cc.serialize(circ)) == circ
    b.opaque("f", [g])
    with pytest.raises(cc.CircuitError, match="opaque"):
        cc.serialize(b.build([g]))


def test_parse_circuit_rejects_malformed():
    with pytest.raises(cc.CircuitError):
        cc.parse_circuit("group a 2\n")  # missing header
    with pytest.raises(cc.CircuitError):
        cc.parse_circuit("circuit\ngroup a 1\ng0 = FROB a:1\noutput g0\n")


# ---------------------------------------------------------------------------
# clause / formula translations

@given(st.integers(0, 15))
def test_circuit_clauses_match_evaluation(v):
    b = cc.CircuitBuilder([("a", 4)])
    g = b.OR(b.AND(b.inp("a", 1), b.inp("a", 2)), b.XOR(b.inp("a", 3), b.inp("a", 4)))
    circ = b.build([g])
    bits = format(v, "04b")
    cs, outs = cc.circuit_clauses(circ)
    from nwtaut.cnf import dpll_solve

    fixed = {i + 1: int(bits[i]) for i in range(4)}
    model = dpll_solve(cs, fixed=fixed)
    assert model is not None  # computation vars are forced, never blocked
    assert str(model[abs(outs[0])]) == cc.eval_circuit(circ, {"a": bits})


@given(st.integers(0, 15))
def test_circuit_to_formula_unique_computation(v):
    b = cc.CircuitBuilder([("a", 2)])
    g = b.XOR(b.inp("a", 1), b.inp("a", 2))
    circ = b.build([g])
    cf = cc.circuit_to_formula(circ, list(range(1, 3 + circ.size)))
    bits = format(v % 4, "02b")
    base = {i + 1: int(bits[i]) for i in range(2)}
    good = 0
    for m in range(1 << circ.size):
        a = dict(base)
        a.update({3 + i: (m >> i) & 1 for i in range(circ.size)})
        if fm.evaluate(cf.correct, a) == 1:
            good += 1
            assert str(a[cf.out_vars[0]]) == cc.eval_circuit(circ, {"a": bits})
    assert good == 1


def test_gate_formulas_exact_structure():
    b = cc.CircuitBuilder([("a", 1)])
    g = b.AND(b.inp("a", 1), b.NOT(b.inp("a", 1)))
    circ = b.build([g])
    out = cc.gate_formulas(circ, {0: ("var", 7)})
    assert out[2] == ("and", ("var", 7), ("not", ("var", 7)))


def test_sat_search_explicit_lex_least():
    b = cc.CircuitBuilder([("a", 3)])
    g = b.OR(b.AND(b.inp("a", 1), b.inp("a", 2)), b.inp("a", 3))
    circ = b.build([g])
    assert cc.sat_search(circ) == {"a": "001"}
    assert cc.sat_search(circ, fixed={"a": "110"}) == {}
    b2 = cc.CircuitBuilder([("a", 2)])
    unsat = b2.build([b2.AND(b2.inp("a", 1), b2.NOT(b2.inp("a", 1)))])
    assert cc.sat_search(unsat) is None


def test_sat_search_opaque_budget():
    b = cc.CircuitBuilder([("a", 25)])
    g = b.opaque("f", [b.inp("a", 1)])
    circ = b.build([g])
    with pytest.raises(fm.BudgetError):
        cc.sat_search(circ, oracles={"f": lambda t: True})


def test_sat_search_asks_an_opaque_circuit_once_whether_it_is_opaque(monkeypatch):
    """The circuit keeps None as its clause set, so the gate scan runs on
    its first search only."""
    b = cc.CircuitBuilder([("a", 2), ("b", 2)])
    circ = b.build([b.opaque("f", [b.inp("a", 1), b.inp("a", 2), b.inp("b", 2)])])
    oracles = {"f": lambda t: t == (1, 0, 1)}
    calls = []
    has_opaque = cc.Circuit.has_opaque
    monkeypatch.setattr(cc.Circuit, "has_opaque", lambda c: calls.append(c) or has_opaque(c))
    fixings = [{}, {"a": "10"}, {"a": "01"}, {"b": "11"}, {"b": "00"}, {"a": "10", "b": "01"}]
    answers = [cc.sat_search(circ, fixed, oracles=oracles) for fixed in fixings]
    assert answers == [{"a": "10", "b": "01"}, {"b": "01"}, None, {"a": "10"}, None, {}]
    assert calls == [circ]


def brute_sat(circ, fixed):
    """The lex-least completion of the free groups, by enumeration."""
    free = [(n, w) for n, w in circ.groups if n not in fixed]
    nfree = sum(w for _, w in free)
    for val in range(1 << nfree):
        bits = format(val, f"0{nfree}b") if nfree else ""
        completion, pos = {}, 0
        for n, w in free:
            completion[n], pos = bits[pos : pos + w], pos + w
        if cc.eval_circuit(circ, {**fixed, **completion}) == "1":
            return completion
    return None


def random_fixing(rng, circ):
    return {n: format(rng.randrange(1 << w), f"0{w}b") if w else ""
            for n, w in circ.groups if rng.random() < 0.5}


def test_sat_search_keeps_one_clause_set_per_circuit(monkeypatch):
    """Two parity chains over w + v in opposite orders must equal x1 and x2,
    so x = 01 or 10 is unsatisfiable and the solver learns before it says
    so.  Twenty searches translate the circuit once, hand the solver the same
    clause set each time, and leave it equal to a fresh translation."""
    b = cc.CircuitBuilder([("x", 2), ("w", 6), ("v", 3)])
    bits = [b.inp("w", j) for j in range(1, 7)] + [b.inp("v", j) for j in range(1, 4)]
    p1, p2 = bits[0], bits[-1]
    for a, c in zip(bits[1:], reversed(bits[:-1])):
        p1, p2 = b.XOR(p1, a), b.XOR(p2, c)
    agree1 = b.NOT(b.XOR(p1, b.inp("x", 1)))
    agree2 = b.NOT(b.XOR(p2, b.inp("x", 2)))
    circ = b.build([b.AND(agree1, agree2)])
    translate, solve = cc.circuit_clauses, cc.dpll_solve
    translated, solved, learned = [], [], []

    def counted_translate(c):
        translated.append(c)
        return translate(c)

    def logged_solve(cs, fixed=None, decision_order=None):
        solved.append(cs)
        lemmas: list[list[int]] = []
        model = solve(cs, fixed=fixed, decision_order=decision_order, lemmas=lemmas)
        learned.append(model is None and len(lemmas) > 1)
        return model

    monkeypatch.setattr(cc, "circuit_clauses", counted_translate)
    monkeypatch.setattr(cc, "dpll_solve", logged_solve)
    rng = random.Random(3)
    fixings = [{"x": "01"}, {"x": "10", "v": "110"}, {}, {"x": "11"}]
    fixings += [random_fixing(rng, circ) for _ in range(16)]
    for fixed in fixings:
        assert cc.sat_search(circ, fixed=fixed) == brute_sat(circ, fixed)
    assert len(translated) == 1 and len(solved) == 20
    assert all(cs is solved[0] for cs in solved)
    fresh, outs = translate(circ)
    assert solved[0] == ClauseSet((*fresh.clauses, (outs[0],)), fresh.nvars)
    assert learned[:2] == [True, True]


def random_predicate(rng):
    """A random single-output circuit over up to three groups, or None when
    the drawn groups have no inputs."""
    b = cc.CircuitBuilder(
        [(name, rng.randint(0, 3)) for name in "abc"[: rng.randint(1, 3)]]
    )
    if b.n_in == 0:
        return None
    for _ in range(rng.randint(1, 40)):
        top = b.n_in + len(b.gates)
        op = rng.choice(("NOT", "AND", "OR", "OR"))
        # mostly recent wires, so the circuit is deep as well as wide
        args = [max(0, top - 1 - int(rng.expovariate(0.3))) for _ in range(2)]
        getattr(b, op)(*args[: 1 if op == "NOT" else 2])
    return b.build([b.n_in + len(b.gates) - 1])


@pytest.mark.parametrize("seed", range(8))
def test_sat_search_is_lex_least_on_random_circuits(seed):
    rng = random.Random(100 + seed)
    for _ in range(5):
        circ = random_predicate(rng)
        if circ is None:
            continue
        for _ in range(6):
            fixed = random_fixing(rng, circ)
            assert cc.sat_search(circ, fixed=fixed) == brute_sat(circ, fixed)


def test_kept_clause_set_is_the_translation_plus_the_output_unit():
    rng = random.Random(7)
    searched = 0
    while searched < 12:
        circ = random_predicate(rng)
        if circ is None:
            continue
        cc.sat_search(circ, fixed=random_fixing(rng, circ))
        cs, outs = cc.circuit_clauses(circ)
        assert vars(circ)["_clauses"] == ClauseSet((*cs.clauses, (outs[0],)), cs.nvars)
        searched += 1


def test_kept_clause_set_is_outside_eq_hash_and_repr():
    circ = xor_chain(4)
    twin = cc.Circuit(circ.groups, circ.gates, circ.outputs)
    before = (hash(circ), repr(circ))
    assert cc.sat_search(circ) == {"a": "0001"}
    assert len(vars(circ)) == len(vars(twin)) + 1  # the kept set
    assert circ == twin and (hash(circ), repr(circ)) == before
    assert (hash(twin), repr(twin)) == before


def test_inline_composition():
    inner_b = cc.CircuitBuilder([("p", 2)])
    inner = inner_b.build([inner_b.AND(inner_b.inp("p", 1), inner_b.inp("p", 2))])
    b = cc.CircuitBuilder([("a", 2)])
    (w,) = cc.inline(b, inner, [b.inp("a", 2), b.inp("a", 1)])
    circ = b.build([w])
    assert cc.eval_circuit(circ, {"a": "11"}) == "1"
    assert cc.eval_circuit(circ, {"a": "10"}) == "0"


def random_circuit(rng):
    """An explicit NOT/AND/OR circuit over one to three input groups."""
    b = cc.CircuitBuilder([(name, rng.randint(1, 2)) for name in "abc"[: rng.randint(1, 3)]])
    for _ in range(rng.randint(1, 5)):
        top = b.n_in + len(b.gates)
        op = rng.choice(("NOT", "AND", "OR"))
        args = [rng.randrange(top) for _ in range(1 if op == "NOT" else 2)]
        getattr(b, op)(*args)
    top = b.n_in + len(b.gates)
    return b.build([rng.randrange(top) for _ in range(rng.randint(1, 2))])


@pytest.mark.parametrize("seed", range(25))
def test_circuit_rules_agree_with_evaluation(seed):
    rng = random.Random(seed)
    circ = random_circuit(rng)
    n_in, n = circ.n_inputs, circ.n_inputs + circ.size
    wire_vars = rng.sample(range(1, 3 * n + 1), n)
    cf = cc.circuit_to_formula(circ, wire_vars)
    assert cf.out_vars == tuple(wire_vars[o] for o in circ.outputs)
    gf = cc.gate_formulas(circ, {w: ("var", w + 1) for w in range(n_in)})
    # inlined behind a padding group and a gate, so every wire number moves
    b = cc.CircuitBuilder([("pad", 1), ("in", n_in)])
    b.NOT(b.inp("pad", 1))
    inlined = b.build(cc.inline(b, circ, [b.inp("in", j) for j in range(1, n_in + 1)]))
    for v in range(1 << n_in):
        bits = format(v, f"0{n_in}b")
        inputs, pos = {}, 0
        for name, w in circ.groups:
            inputs[name], pos = bits[pos : pos + w], pos + w
        vals = cc.wire_values(circ, inputs)
        assert cc.gate_bits(circ, inputs) == "".join(map(str, vals[n_in:]))
        inputs_a = {j + 1: vals[j] for j in range(n_in)}
        assert [fm.evaluate(gf[w], inputs_a) for w in range(n)] == vals
        models = []
        for m in range(1 << circ.size):
            a = dict(zip(wire_vars, vals[:n_in] + [(m >> i) & 1 for i in range(circ.size)]))
            if fm.evaluate(cf.correct, a) == 1:
                models.append([a[x] for x in wire_vars])
        assert models == [vals]
        out_bits = "".join(str(vals[o]) for o in circ.outputs)
        assert cc.eval_circuit(inlined, {"pad": "0", "in": bits}) == out_bits


@pytest.mark.parametrize("gate", [("and", 0), ("opaque", "f"), ("not", 0, 0), ("xor", 0, 0), ()])
def test_circuit_rejects_malformed_gates(gate):
    with pytest.raises(cc.CircuitError):
        cc.Circuit((("a", 1),), (gate,), (0,))


@pytest.mark.parametrize("groups, gates, outputs, msg", [
    ((("x", "3"),), (), (), "group x: width '3' is not an integer"),
    ((("x", True),), (), (), "group x: width True is not an integer"),
    ((("x", 2),), (("and", 0, "1"),), (), "gate 0: wire '1' is not an integer"),
    ((("x", 2),), (5,), (), "gate 0: malformed gate 5"),
    ((("x", 2),), (("opaque", "f", 0),), (), "gate 0: malformed gate ('opaque', 'f', 0)"),
    ((("x", 2),), (), (1.0,), "output wire 1.0 is not an integer"),
    ((("x",),), (), (), "malformed group ('x',)"),
    (((["x"], 2),), (), (), "malformed group (['x'], 2)"),
    (5, (), (), "groups 5 is not a tuple"),
    ((("x", 2),), 5, (), "gates 5 is not a tuple"),
    (((3, 1),), (("not", 0),), (1,), "malformed group (3, 1)"),
    ((("x", 2),), [("and", 0, 1)], [2], "gates [('and', 0, 1)] is not a tuple"),
], ids=["width-str", "width-bool", "operand-str", "gate-int", "opaque-args-int", "output-float",
        "group-short", "group-list-name", "groups-int", "gates-int", "group-int-name",
        "gates-list"])
def test_circuit_refuses_what_is_no_int_or_no_gate(groups, gates, outputs, msg):
    """Widths, operands and outputs are ints (a bool is none), a gate is a
    tuple, a group a (str, int) pair, and groups, gates and outputs tuples:
    anything else is a CircuitError when the circuit is built."""
    with pytest.raises(cc.CircuitError) as e:
        cc.Circuit(groups, gates, outputs)
    assert str(e.value) == msg


@pytest.mark.parametrize("groups, gates, outputs, msg", [
    ((("a", 1), ("a", 2)), (), (0,), "duplicate group name"),
    ((("a", 1), ("b", -1)), (), (0,), "negative width for group b"),
    ((("a", 1),), (("not", 1),), (0,), "gate 0: wire 1 not yet defined"),
    ((("a", 1),), (("and", 0, -1),), (0,), "gate 0: wire -1 not yet defined"),
    ((("a", 1),), (("not", 0),), (2,), "output wire 2 undefined"),
], ids=["duplicate-group", "negative-width", "gate-reads-itself", "gate-reads-minus-1",
        "undefined-output"])
def test_circuit_rejects_malformed_structure(groups, gates, outputs, msg):
    with pytest.raises(cc.CircuitError) as exc:
        cc.Circuit(groups, gates, outputs)
    assert str(exc.value) == msg


@pytest.mark.parametrize("inputs, msg", [
    ({"a": "1"}, "missing input group 'b'"),
    ({"a": "1", "b": "1"}, "group 'b': expected 2 bits, got 1"),
    ({"a": "1", "b": "1x"}, "group 'b': bits must be 0 or 1, got '1x'"),
], ids=["missing-group", "wrong-width", "non-binary"])
def test_wire_values_rejects_bad_inputs(inputs, msg):
    circ = cc.Circuit((("a", 1), ("b", 2)), (("and", 0, 2),), (3,))
    with pytest.raises(cc.CircuitError) as exc:
        cc.wire_values(circ, inputs)
    assert str(exc.value) == msg


@pytest.mark.parametrize("groups, build, msg", [
    ([], lambda b: b.const(1), "const wire needs at least one input"),
    ([("a", 1)], lambda b: b.and_list([]), "and_list of nothing"),
    ([("a", 1)], lambda b: b.or_list([]), "or_list of nothing"),
], ids=["const-without-input", "and_list-empty", "or_list-empty"])
def test_circuit_builder_refuses_what_has_no_wire(groups, build, msg):
    b = cc.CircuitBuilder(groups)
    with pytest.raises(cc.CircuitError) as exc:
        build(b)
    assert str(exc.value) == msg
    assert b.gates == []


@pytest.mark.parametrize("call, msg", [
    (lambda c, o: cc.circuit_clauses_mapped(o, [1, 2, 3]),
     "clause translation requires an explicit circuit"),
    (lambda c, o: cc.circuit_clauses_mapped(c, [1, 2]), "wire variable map has wrong length"),
    (lambda c, o: cc.circuit_to_formula(o, [1, 2, 3]),
     "circuit_to_formula requires an explicit circuit"),
    (lambda c, o: cc.circuit_to_formula(c, [1, 2]), "wire variable map has wrong length"),
    (lambda c, o: cc.inline(cc.CircuitBuilder([("z", 1)]), c, [0]),
     "inline: input wire count mismatch"),
    (lambda c, o: cc.sat_search(cc.Circuit((("a", 2),), (), (0, 1))),
     "sat_search needs a single-output circuit"),
    (lambda c, o: cc.sat_search(c, fixed={"a": "1x"}), "group 'a': expected 2 bits of 0 and 1"),
    (lambda c, o: cc.sat_search(o, fixed={"a": "12"}, oracles={"f": lambda t: True}),
     "group 'a': bits must be 0 or 1, got '12'"),
], ids=["clauses-opaque", "clauses-map-length", "formula-opaque", "formula-map-length",
        "inline-input-count", "search-two-outputs", "search-fixed-explicit",
        "search-fixed-opaque"])
def test_translations_and_search_name_what_they_refuse(call, msg):
    """c is an explicit and o an opaque circuit, each over a 2-bit group a."""
    c = cc.Circuit((("a", 2),), (("and", 0, 1),), (2,))
    o = cc.Circuit((("a", 2),), (("opaque", "f", (0,)),), (2,))
    with pytest.raises(cc.CircuitError) as exc:
        call(c, o)
    assert str(exc.value) == msg


@pytest.mark.parametrize("text, msg", [
    ("opaque f a:1 -> g1", "line 3: unrecognized line 'opaque f a:1 -> g1'"),
    ("g1 = NOT a:\u00b2", "line 3: bad wire reference 'a:\u00b2'"),
    ("g1 = NOT a:", "line 3: bad wire reference 'a:'"),
    ("g1 = NOT g\u00b2", "line 3: bad wire reference 'g\u00b2'"),
    ("g1 = NOT a:2", "line 3: bit 2 out of range for group a"),
    ("g1 = NOT b:1", "line 3: no group 'b'"),
    ("g1 = NOT g1", "line 3: undefined gate g1"),
    ("group x \u00b2", "line 3: bad group width '\u00b2'"),
    ("group x -1", "line 3: bad group width '-1'"),
    ("group x 1_0", "line 3: bad group width '1_0'"),
    ("g1 = NOT a:1\ngroup b 1", "line 4: group after gates"),
    ("group a 2", "line 3: duplicate group name 'a'"),
    ("g1 = NOT a:1 a:1", "line 3: NOT takes one wire"),
    ("g1 = XOR a:1 a:1", "line 3: unknown op 'XOR'"),
])
def test_parse_circuit_errors_name_their_line(text, msg):
    with pytest.raises(cc.CircuitError) as exc:
        cc.parse_circuit(f"circuit\ngroup a 1\n{text}\noutput a:1\n")
    assert str(exc.value) == msg


def test_parse_circuit_refuses_a_second_output_line():
    with pytest.raises(cc.CircuitError) as exc:
        cc.parse_circuit("circuit\ngroup a 2\ng1 = AND a:1 a:2\noutput g1\noutput a:1\n")
    assert str(exc.value) == "line 5: second output line"


# ---------------------------------------------------------------------------
# the universal evaluator

@pytest.mark.parametrize("k,trim", [(8, False), (8, True), (12, False)])
def test_universal_evaluator_contract(k, trim):
    E = cc.universal_evaluator(k, trim=trim)
    for f in fm.enumerate_fitting(k):
        code = fm.encode_k(f, k)
        for uv in (0, (1 << k) - 1, 0b0101 % (1 << k)):
            u = format(uv, f"0{k}b")
            a = {i + 1: int(u[i]) for i in range(k)}
            assert cc.eval_circuit(E, {"u": u, "x": code}) == str(fm.evaluate(f, a))


def test_universal_evaluator_code_determined_at_small_k():
    # no variable formula fits 10 code bits, so no gate may read u
    for k in (8, 9, 10):
        E = cc.universal_evaluator(k, trim=True)
        for g in E.gates:
            assert all(a >= k for a in g[1:])


def test_universal_evaluator_cap():
    with pytest.raises(fm.BudgetError):
        cc.universal_evaluator(21)
