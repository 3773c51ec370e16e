import itertools

import pytest

from nwtaut import circuits as cc
from nwtaut import formulas as fm
from nwtaut import frege as fr
from nwtaut import proofsys as ps


def tiny_checker(k=8):
    """A sound checker at width k: accept iff x4 = 1 (among valid codes at
    k <= 10 that singles out the code of the constant 1) and y = t = 1."""
    b = cc.CircuitBuilder([("x", k), ("y", 1), ("t", 1)])
    out = b.AND(b.inp("x", 4), b.AND(b.inp("y", 1), b.inp("t", 1)))
    return b.build([out])


def tiny_system(k=8):
    return ps.AdviceSystem(tiny_checker(k), schedule={k: "1"}, c=2)


def sat_enc(k, E):
    """SAT_k numbered u = 1..k, x = k+1..2k, v = 2k+1 onward."""
    return ps.sat_formula(k, E, tuple(range(1, k + 1)), tuple(range(k + 1, 2 * k + 1)),
                          tuple(range(2 * k + 1, 2 * k + 1 + len(E.gates))))


def mock_evaluator():
    """Two gates, one of which reads an assignment wire: exercises the
    free-computation-variables extraction route."""
    b = cc.CircuitBuilder([("u", 2), ("x", 2)])
    g0 = b.NOT(b.inp("u", 1))
    g1 = b.OR(b.inp("u", 1), g0)
    return b.build([g1])


# ---------------------------------------------------------------------------
# SAT_k

def test_sat_formula_default_numbering():
    E = cc.universal_evaluator(8, trim=True)
    enc = sat_enc(8, E)
    assert enc.u_vars == tuple(range(1, 9))
    assert enc.x_vars == tuple(range(9, 17))
    assert enc.v_vars == tuple(range(17, 17 + len(E.gates)))
    assert enc.formula == fm.Implies(enc.correct, enc.out_formula)


def test_sat_formula_truth_on_actual_runs():
    E = cc.universal_evaluator(8, trim=True)
    enc = sat_enc(8, E)
    for f in fm.enumerate_fitting(8):
        code = fm.encode_k(f, 8)
        for u in ("00000000", "11111111"):
            vals = cc.wire_values(E, {"u": u, "x": code})
            a = {}
            a.update({v: int(b) for v, b in zip(enc.u_vars, u)})
            a.update({v: int(b) for v, b in zip(enc.x_vars, code)})
            a.update({v: vals[16 + i] for i, v in enumerate(enc.v_vars)})
            out = int(cc.eval_circuit(E, {"u": u, "x": code}))
            assert fm.evaluate(enc.correct, a) == 1
            assert fm.evaluate(enc.out_formula, a) == out
            # CORRECT -> out: true on the actual run iff u satisfies f
            assert fm.evaluate(enc.formula, a) == out


def test_sat_formula_rejects_wrong_shape():
    with pytest.raises(fr.ProofError):
        sat_enc(9, cc.universal_evaluator(8, trim=True))


def test_evaluator_run_bits_constant_at_small_k():
    enc = sat_enc(8, cc.universal_evaluator(8, trim=True))
    code = fm.encode_k(("const", 1), 8)
    run = ps.evaluator_run_bits(enc, code)
    assert len(run) == len(enc.v_vars)
    # last bit is the output: the constant 1 evaluates to 1
    out_pos = enc.evaluator.outputs[0] - 16
    assert run[out_pos] == "1"


def test_evaluator_run_bits_refuses_u_dependent():
    enc = sat_enc(2, mock_evaluator())
    with pytest.raises(fr.ProofError):
        ps.evaluator_run_bits(enc, "00")


# ---------------------------------------------------------------------------
# D4, both routes

def test_d4_free_route_extracts_formula():
    enc = sat_enc(2, mock_evaluator())
    code = "01"
    xmap = {v: ("const", int(b)) for v, b in zip(enc.x_vars, code)}
    free_shape = fm.substitute(enc.formula, xmap)
    pi_sat = fr.prove_tautology(free_shape)
    # the out gate computes u1 | ~u1 regardless of the code
    phi = fm.Or(fm.Var(1), fm.Not(fm.Var(1)))
    out = ps.d4_from_sat(pi_sat, phi, enc, code)
    assert fr.check(fr.FREGE, phi, out)


def test_d4_free_route_with_bridge():
    enc = sat_enc(2, mock_evaluator())
    code = "10"
    xmap = {v: ("const", int(b)) for v, b in zip(enc.x_vars, code)}
    pi_sat = fr.prove_tautology(fm.substitute(enc.formula, xmap))
    phi = fm.parse("~x1 | (x1 | 1)")  # implied by u1 | ~u1, not equal to it
    out = ps.d4_from_sat(pi_sat, phi, enc, code)
    assert fr.check(fr.FREGE, phi, out)


def test_d4_const_route_extracts_constant_formula():
    enc = sat_enc(8, cc.universal_evaluator(8, trim=True))
    phi = ("const", 1)
    code = fm.encode_k(phi, 8)
    run = ps.evaluator_run_bits(enc, code)
    sub = {v: ("const", int(b)) for v, b in zip(enc.x_vars, code)}
    sub.update({v: ("const", int(b)) for v, b in zip(enc.v_vars, run)})
    sentence = fm.substitute(enc.formula, sub)
    pi_sat = fr.prove_true_sentence(sentence)
    out = ps.d4_from_sat(pi_sat, phi, enc, code)
    assert fr.check(fr.FREGE, phi, out)


def test_d4_rejects_wrong_conclusion():
    enc = sat_enc(8, cc.universal_evaluator(8, trim=True))
    code = fm.encode_k(("const", 1), 8)
    pi = fr.prove_true_sentence(("const", 1))
    with pytest.raises(fr.ProofError):
        ps.d4_from_sat(pi, ("const", 1), enc, code)


# ---------------------------------------------------------------------------
# P + alpha acceptance

def test_check_plus_alpha_zero_disjuncts():
    tau = fm.parse("x1 | ~x1")
    S = ps.PlusAlphaSystem(fr.FREGE, fm.parse("x1 | x2"))
    assert ps.check_plus_alpha(S, tau, fr.prove_tautology(tau))


def test_check_plus_alpha_peels_instances():
    alpha = fm.Or(fm.Var(1), fm.Var(2))
    S = ps.PlusAlphaSystem(fr.FREGE, alpha)
    tau = ("const", 1)
    inst = fm.Or(("const", 0), fm.Var(3))  # constants/variables only: legal
    goal = fm.Or(fm.Not(inst), tau)
    pi = fr.prove_tautology(goal)
    assert ps.check_plus_alpha(S, tau, pi)
    # the same shape with a compound substituted for a variable is not an
    # instance in the required sense
    bad = fm.Or(fm.And(fm.Var(1), fm.Var(2)), fm.Var(3))
    pi2 = fr.prove_tautology(fm.Or(fm.Not(bad), tau))
    assert not ps.check_plus_alpha(S, tau, pi2)


def test_check_plus_alpha_rejects_hypotheses_and_wrong_tail():
    alpha = ("const", 1)
    S = ps.PlusAlphaSystem(fr.FREGE, alpha)
    hyp = fr.Proof((fr.Line(("const", 1), ("hyp",)),))
    assert not ps.check_plus_alpha(S, ("const", 1), hyp)
    pi = fr.prove_tautology(fm.parse("1 | 0"))
    assert not ps.check_plus_alpha(S, ("const", 1), pi)


# ---------------------------------------------------------------------------
# advice systems

def test_check_advice_circuit_clause():
    QS = tiny_system()
    code1 = fm.encode_k(("const", 1), 8)
    code0 = fm.encode_k(("const", 0), 8)
    assert ps.check_advice(QS, code1, "1", "1")
    assert not ps.check_advice(QS, code0, "1", "1")  # x4 = 0
    assert not ps.check_advice(QS, code1, "0", "1")
    assert not ps.check_advice(QS, code1, "1", "0")
    # malformed inputs are rejections, never exceptions
    assert not ps.check_advice(QS, code1, "11", "1")   # wrong y width
    assert not ps.check_advice(QS, "0101", "1", "1")   # wrong x width
    assert not ps.check_advice(QS, "1111000x", "1", "1")
    assert not ps.check_advice(ps.AdviceSystem(None), code1, "1", "1")


def test_check_advice_empty_clause():
    QS = ps.AdviceSystem(None, c=2)
    phi = fm.parse("x1 | ~x1")
    code = next(c for c in (fm.encode_k(phi, k) for k in range(8, 64)) if c)
    b = fr.ProofBuilder()
    b.axiom("EM", {1: fm.Var(1)})
    y = fr.serialize_proof(b.proof())
    assert 8 * len(y.encode()) <= len(code) ** 2
    assert ps.check_advice(QS, code, y, "")
    assert not ps.check_advice(QS, code, "garbage", "")
    wrong = fr.serialize_proof(fr.prove_true_sentence(("const", 1)))
    assert not ps.check_advice(QS, code, wrong, "")
    # budget: k = 8 allows only 64 bits of proof text
    code1 = fm.encode_k(("const", 1), 8)
    long_y = fr.serialize_proof(fr.prove_true_sentence(("const", 1)))
    assert 8 * len(long_y.encode()) > 64
    assert not ps.check_advice(QS, code1, long_y, "")
    # empty or non-numeric substitution indices, non-ASCII digits, and
    # numerals with more digits than int() converts
    wide = fm.encode_k(("const", 1), 64)
    for bad in ["proof\n1 1 ; axiom T1 [:=x1]\n", "proof\n1 1 ; axiom T1 [a:=x1]\n",
                "proof\n\u00b2 1 ; axiom T1\n", "proof\n1 x\u00b2 ; hyp\n",
                "proof\n" + "1" * 5000 + " 1 ; axiom T1\n",
                "proof\n1 x" + "1" * 5000 + " ; hyp\n"]:
        assert not ps.check_advice(ps.AdviceSystem(None, c=3), wide, bad, "")


def test_check_advice_deep_proof_line_is_a_rejection():
    QS = ps.AdviceSystem(None, c=3)
    code = fm.encode_k(("const", 1), 64)
    y = "proof\n1 " + "~" * 3000 + "1 ; axiom T1\n"
    assert 8 * len(y.encode()) <= 64**3
    assert not ps.check_advice(QS, code, y, "")


def test_check_advice_long_code_is_a_rejection():
    # 2,000 NOT tokens: the code decodes to a formula nested 2,001 deep
    code = "0001" * 2000 + "1111" + "0000"
    QS = ps.AdviceSystem(None, c=2)
    assert not ps.check_advice(QS, code, "proof\n", "")
    assert not ps.check_advice(QS, code, "proof\n1 1 ; axiom T1\n", "")


# ---------------------------------------------------------------------------
# Prov_k and alpha_k encodings

def test_prov_formula_numbering_and_truth():
    QS = tiny_system()
    enc = ps.prov_formula(QS, 8)
    assert enc.x_vars == tuple(range(1, 9))
    assert enc.y_vars == (9,)
    assert enc.s_vars == tuple(range(10, 10 + len(QS.checker.gates)))
    assert enc.t_vars == (10 + len(QS.checker.gates),)
    code = fm.encode_k(("const", 1), 8)
    run = cc.gate_bits(QS.checker, {"x": code, "y": "1", "t": "1"})
    a = {v: int(b) for v, b in zip(enc.x_vars + enc.y_vars + enc.t_vars, code + "11")}
    a.update({v: int(b) for v, b in zip(enc.s_vars, run)})
    assert fm.evaluate(enc.formula, a) == 1
    a[enc.y_vars[0]] = 0
    assert fm.evaluate(enc.formula, a) == 0


def test_prov_formula_rejects_width_mismatch():
    with pytest.raises(fr.ProofError):
        ps.prov_formula(tiny_system(), 9)


def test_alpha_k_shape():
    QS = tiny_system()
    enc = ps.alpha_k(QS, "1", 8)
    assert enc.alpha == fm.Implies(enc.antecedent, enc.sat.formula)
    # Prov_k's numbering is kept, and SAT_k reads the shared x
    prov = ps.prov_formula(QS, 8)
    assert (enc.x_vars, enc.y_vars, enc.s_vars) == (prov.x_vars, prov.y_vars, prov.s_vars)
    assert enc.sat.x_vars == enc.x_vars
    groups = [enc.x_vars, enc.y_vars, enc.s_vars, enc.sat.u_vars, enc.sat.v_vars]
    flat = [v for g in groups for v in g]
    assert flat == list(range(1, len(flat) + 1))  # numbering is gapless and disjoint
    # the advice is baked in: no t variables remain
    assert set(fm.fvars(enc.antecedent)) <= set(enc.x_vars) | set(enc.y_vars) | set(enc.s_vars)


def test_alpha_k_rejects_wrong_advice_width():
    with pytest.raises(fr.ProofError):
        ps.alpha_k(tiny_system(), "11", 8)


def test_alpha_k_is_tautology_at_tiny_width():
    enc = ps.alpha_k(tiny_system(), "1", 8)
    assert fm.is_tautology(enc.alpha, "brute")


# ---------------------------------------------------------------------------
# the simulation pipeline

def test_simulate_nonempty_advice():
    QS = tiny_system()
    phi = ("const", 1)
    res = ps.simulate(QS, "1", phi, "1")
    assert res.alpha is not None
    S = ps.PlusAlphaSystem(fr.FREGE, res.alpha.alpha)
    assert ps.check_plus_alpha(S, phi, res.proof)
    assert set(res.stage_bits) == {"prov_d2", "sat_mp", "d4", "total"}
    assert res.stage_bits["total"] > 0


def test_simulate_reads_checker_inputs_by_group_name():
    # the same checker with its groups declared y, x, t: Prov_k numbers the
    # inputs by name, so the pipeline builds the same proof
    b = cc.CircuitBuilder([("y", 1), ("x", 8), ("t", 1)])
    out = b.AND(b.inp("x", 4), b.AND(b.inp("y", 1), b.inp("t", 1)))
    QS = ps.AdviceSystem(b.build([out]), schedule={8: "1"}, c=2)
    res = ps.simulate(QS, "1", ("const", 1), "1")
    ref = ps.simulate(tiny_system(), "1", ("const", 1), "1")
    assert res.alpha.alpha == ref.alpha.alpha
    assert fr.serialize_proof(res.proof) == fr.serialize_proof(ref.proof)


def test_simulate_rejects_tampered_proof():
    QS = tiny_system()
    with pytest.raises(fr.ProofError):
        ps.simulate(QS, "1", ("const", 1), "0")
    with pytest.raises(fr.ProofError):
        ps.simulate(QS, "1", ("const", 0), "1")  # checker never accepts code(0)
    with pytest.raises(fr.ProofError):
        ps.simulate(QS, "1", fm.Var(1), "1")  # does not fit 8 code bits


def test_simulate_empty_advice_short_circuit():
    QS = ps.AdviceSystem(None, c=2)
    phi = fm.parse("x1 | ~x1")
    b = fr.ProofBuilder()
    b.axiom("EM", {1: fm.Var(1)})
    y = fr.serialize_proof(b.proof())
    res = ps.simulate(QS, "", phi, y)
    assert res.alpha is None
    assert fr.check(fr.FREGE, phi, res.proof)
    assert res.stage_bits == {"total": fr.proof_size_bits(res.proof)}
    with pytest.raises(fr.ProofError):
        ps.simulate(QS, "", phi, "not a proof")


def test_simulate_empty_advice_parses_the_proof_once(monkeypatch):
    """The proof the checker accepted is the one returned, not a second parse."""
    calls = []

    def counted(text):
        calls.append(text)
        return fr.parse_proof(text)

    monkeypatch.setattr(ps, "parse_proof", counted)
    b = fr.ProofBuilder()
    b.axiom("EM", {1: fm.Var(1)})
    y = fr.serialize_proof(b.proof())
    res = ps.simulate(ps.AdviceSystem(None), "", fm.parse("x1 | ~x1"), y)
    assert calls == [y]
    assert fr.serialize_proof(res.proof) == y
    assert res.stage_bits == {"total": 8 * len(y)}


@pytest.mark.parametrize("v, width", [(5000, 4097), (5 * 10**9, (1 << 32) + 1)])
def test_simulate_empty_advice_beyond_a_4096_bit_code(monkeypatch, v, width):
    # x5000 needs a 13-bit index field, so phi's least code has 4,097 bits;
    # x5000000000 needs 33, and a code that wide is never built
    monkeypatch.setattr(fm, "encode_k", None)
    phi = fm.Or(fm.Var(v), fm.Not(fm.Var(v)))
    assert fm.code_width(phi) == width
    b = fr.ProofBuilder()
    b.axiom("EM", {1: fm.Var(v)})
    res = ps.simulate(ps.AdviceSystem(None, c=2), "", phi, fr.serialize_proof(b.proof()))
    assert fr.check(fr.FREGE, phi, res.proof)


def test_at_most_power_matches_the_power():
    for n, k, c in itertools.product(range(70), range(6), range(-2, 7)):
        if k or c >= 0:
            assert ps._at_most_power(n, k, c) == (n <= k**c), (n, k, c)
    # c = 10^9: the power itself would not fit in memory
    assert ps._at_most_power(10**6, 3, 10**9)
    assert not ps._at_most_power(2, 1, 10**9)
