import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from nwtaut import circuits as cc
from nwtaut import formulas as fm
from nwtaut import frege as fr
from nwtaut import proofsys as ps


def sentences(max_leaves=10):
    leaf = st.sampled_from([("const", 0), ("const", 1)])
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            sub.map(fm.Not),
            st.tuples(sub, sub).map(lambda p: fm.And(*p)),
            st.tuples(sub, sub).map(lambda p: fm.Or(*p)),
        ),
        max_leaves=max_leaves,
    )


def small_formulas(max_var=3, max_leaves=8):
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


# ---------------------------------------------------------------------------
# the kernel itself

def test_axiom_schemes_are_tautologies():
    for name, pattern in fr.AXIOM_SCHEMES.items():
        assert fm.is_tautology(pattern, "brute"), name


def test_check_accepts_a_hand_proof():
    # x1 -> x1 via P1 and P2
    p, q = fm.Var(1), fm.Var(1)
    b = fr.ProofBuilder()
    a1 = b.axiom("P1", {1: p, 2: fm.Implies(p, p)})
    a2 = b.axiom("P2", {1: p, 2: fm.Implies(p, p), 3: p})
    s = b.mp(a1, a2)
    a3 = b.axiom("P1", {1: p, 2: p})
    idx = b.mp(a3, s)
    proof = b.proof(idx)
    assert fr.check(fr.FREGE, fm.Implies(p, q), proof)


def test_check_rejects_tampered_lines():
    proof = fr.prove_true_sentence(fm.parse("1 | 0"))
    lines = list(proof.lines)
    # swap in a wrong formula on the last line
    lines[-1] = fr.Line(fm.parse("0"), lines[-1].just)
    assert not fr.check(fr.FREGE, fm.parse("0"), fr.Proof(tuple(lines)))


def test_check_rejects_hypotheses_and_forward_references():
    hyp = fr.Proof((fr.Line(fm.Var(1), ("hyp",)),))
    assert not fr.check(fr.FREGE, fm.Var(1), hyp)
    assert fr.check_derivation(fr.FREGE, hyp)
    bad = fr.Proof((fr.Line(fm.parse("1"), ("mp", 0, 1)),))
    assert not fr.check(fr.FREGE, fm.parse("1"), bad)


def test_check_rejects_unknown_scheme_and_bad_instance():
    bad = fr.Proof((fr.Line(fm.parse("1"), ("axiom", "Z9", {})),))
    assert not fr.check(fr.FREGE, fm.parse("1"), bad)
    wrong = fr.Proof((fr.Line(fm.parse("0"), ("axiom", "T1", {})),))
    assert not fr.check(fr.FREGE, fm.parse("0"), wrong)


def test_empty_proof_rejected():
    assert not fr.check(fr.FREGE, fm.parse("1"), fr.Proof(()))
    with pytest.raises(fr.ProofError):
        fr.Proof(()).conclusion


# ---------------------------------------------------------------------------
# D2: proofs of true sentences

@given(sentences())
@settings(max_examples=300)
def test_prove_true_sentence_matches_truth(psi):
    if fm.evaluate(psi, {}) == 1:
        proof = fr.prove_true_sentence(psi)
        assert fr.check(fr.FREGE, psi, proof)
    else:
        with pytest.raises(fr.ProofError):
            fr.prove_true_sentence(psi)


def test_prove_true_sentence_rejects_variables():
    with pytest.raises(fr.ProofError):
        fr.prove_true_sentence(fm.Var(1))


# ---------------------------------------------------------------------------
# D1: substitution closure

@given(sentences(max_leaves=6))
@settings(max_examples=100)
def test_subst_proof_stays_valid(psi):
    if fm.evaluate(psi, {}) != 1:
        return
    proof = fr.prove_true_sentence(psi)
    # substitution into a variable-free proof is trivial; exercise it on a
    # proof with variables instead
    tau = fm.Or(fm.Var(1), fm.Not(fm.Var(1)))
    pi = fr.prove_tautology(tau)
    sigma = {1: psi}
    out = fr.subst_proof(pi, sigma)
    assert fr.check(fr.FREGE, fm.substitute(tau, sigma), out)
    assert len(out) == len(pi)


def test_subst_proof_rejects_broken_input():
    bad = fr.Proof((fr.Line(fm.parse("0"), ("axiom", "T1", {})),))
    with pytest.raises(fr.ProofError):
        fr.subst_proof(bad, {})


# ---------------------------------------------------------------------------
# D3: modus ponens on proofs

def test_mp_combines_proofs():
    pi1 = fr.prove_true_sentence(fm.parse("1"))
    pi2 = fr.prove_true_sentence(fm.parse("~1 | ~0"))
    out = fr.mp(pi1, pi2)
    assert fr.check(fr.FREGE, fm.parse("~0"), out)


def test_mp_rejects_shape_mismatch():
    pi1 = fr.prove_true_sentence(fm.parse("1"))
    pi2 = fr.prove_true_sentence(fm.parse("~0 | 1"))
    with pytest.raises(fr.ProofError):
        fr.mp(pi1, pi2)


def test_append_proof_replays_premises_by_line_index():
    pi = fr.prove_true_sentence(fm.parse("~(0 & 1) | 0"))
    # lines the builder already holds are deduplicated, so premises move
    b = fr.ProofBuilder()
    b.axiom("F1", {})
    b.hyp(fm.Var(1))
    b.append_proof(fr.prove_true_sentence(fm.parse("~0")))
    idx = b.append_proof(pi)
    assert b.lines[idx].formula == pi.conclusion
    assert fr.check_derivation(fr.FREGE, b.proof(idx))
    # a premise that is not an earlier line is a ProofError, not an IndexError
    for premises in ((3, 5), (0, 0), (-1, 0)):
        bad = fr.Proof((fr.Line(fm.parse("1"), ("mp", *premises)),))
        with pytest.raises(fr.ProofError):
            fr.ProofBuilder().append_proof(bad)


# ---------------------------------------------------------------------------
# deduction theorem and the complete prover

def test_discharge_removes_one_hypothesis():
    H = fm.Var(1)
    b = fr.ProofBuilder()
    h = b.hyp(H)
    idx = b.imply(h, "D1", {1: H, 2: fm.Var(2)})
    der = b.proof(idx)
    out = fr.discharge(der, H)
    assert out.hypotheses() == []
    assert out.conclusion == fm.Implies(H, fm.Or(H, fm.Var(2)))
    assert fr.check(fr.FREGE, out.conclusion, out)


def test_discharge_keeps_other_hypotheses():
    b = fr.ProofBuilder()
    h1 = b.hyp(fm.Var(1))
    idx = b.imply(h1, "N4", {1: fm.Var(1)})
    der = b.proof(idx)
    out = fr.discharge(der, fm.Var(2))  # not among the hypotheses
    assert out.hypotheses() == [fm.Var(1)]
    assert fr.check_derivation(fr.FREGE, out)


TAUTOLOGY_BATCH = [
    "x1 | ~x1",
    "~x1 | x1",
    "~(x1 & x2) | (x2 & x1 | x3)",
    "~(x1 | x2) | (x2 | x1)",
    "~(x1 & (x2 | x3)) | (x1 & x2 | x1 & x3)",
    "~~x1 | ~x1",
    "1 | x1",
    "~(x1 & ~x1)",
]


@pytest.mark.parametrize("text", TAUTOLOGY_BATCH)
def test_prove_tautology_batch(text):
    tau = fm.parse(text)
    proof = fr.prove_tautology(tau)
    assert fr.check(fr.FREGE, tau, proof)


def test_prove_tautology_text_is_pinned():
    """The case-analysis prover is deterministic: its proof text for the
    batch above, concatenated in list order, has a fixed digest."""
    text = "".join(fr.serialize_proof(fr.prove_tautology(fm.parse(t))) for t in TAUTOLOGY_BATCH)
    assert len(text) == 687_782
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e701d98e6dcaeb7d599e10e77ef399b198ad16f8c0b3e2a4fc645abfe4f85bc1"
    )


@given(small_formulas())
@settings(max_examples=60, deadline=None)
def test_prove_tautology_agrees_with_oracle(f):
    if fm.is_tautology(f, "brute"):
        assert fr.check(fr.FREGE, f, fr.prove_tautology(f))
    else:
        with pytest.raises(fr.ProofError):
            fr.prove_tautology(f)


def test_prove_tautology_var_limit():
    f = fm.big_or([fm.Var(i) for i in range(1, 10)] + [fm.Not(fm.Var(1))])
    with pytest.raises(fm.BudgetError):
        fr.prove_tautology(f)


# ---------------------------------------------------------------------------
# serialization

@pytest.mark.parametrize("make", [
    lambda: fr.prove_true_sentence(fm.parse("~(0 & 1) | 1")),
    lambda: fr.prove_tautology(fm.parse("x1 | ~x1")),
])
def test_proof_text_round_trip(make):
    proof = make()
    text = fr.serialize_proof(proof)
    back = fr.parse_proof(text)
    assert back == proof
    assert fr.proof_size_bits(proof) == 8 * len(text.encode())


def test_proof_text_round_trip_with_hyp():
    b = fr.ProofBuilder()
    h = b.hyp(fm.Var(3))
    idx = b.imply(h, "N4", {1: fm.Var(3)})
    proof = b.proof(idx)
    back = fr.parse_proof(fr.serialize_proof(proof))
    assert back == proof


def assert_size_is_text_length(proof):
    assert fr.proof_size_bits(proof) == 8 * len(fr.serialize_proof(proof).encode())


@pytest.mark.parametrize("text", TAUTOLOGY_BATCH)
def test_proof_size_bits_counts_the_text_kalmar(text):
    proof = fr.prove_tautology(fm.parse(text))
    assert_size_is_text_length(proof)
    # a parsed proof shares no subterm objects
    assert_size_is_text_length(fr.parse_proof(fr.serialize_proof(proof)))


def test_proof_size_bits_counts_the_text_with_hyp():
    b = fr.ProofBuilder()
    h = b.hyp(fm.Var(3))
    idx = b.imply(h, "N4", {1: fm.Var(3)})
    assert_size_is_text_length(b.proof(idx))


def test_proof_size_bits_counts_the_text_pipeline(monkeypatch):
    """Every stage proof simulate sizes, and its final proof, on the
    pipeline corpus of the acceptance gate (checker: x4 and all y, t bits)."""
    sized = []

    def size_and_keep(proof):
        sized.append(proof)
        return fr.proof_size_bits(proof)

    monkeypatch.setattr(ps, "proof_size_bits", size_and_keep)
    for k in (8, 9, 10):
        for yw in (1, 2, 3):
            for tw in (1, 2):
                b = cc.CircuitBuilder([("x", k), ("y", yw), ("t", tw)])
                out = b.inp("x", 4)
                for i in range(yw):
                    out = b.AND(out, b.inp("y", i + 1))
                for i in range(tw):
                    out = b.AND(out, b.inp("t", i + 1))
                QS = ps.AdviceSystem(b.build([out]), {k: "1" * tw}, c=2)
                res = ps.simulate(QS, "1" * tw, ("const", 1), "1" * yw)
                assert res.stage_bits["total"] == 8 * len(fr.serialize_proof(res.proof))
    assert len(sized) == 4 * 18
    for proof in sized:
        assert_size_is_text_length(proof)


def test_shared_subterms_are_printed_and_sized_once():
    """f_0 = x1 and f_{i+1} = f_i | f_i: 2^i leaves over i + 1 objects."""
    dag = [fm.Var(1)]
    for _ in range(64):
        dag.append(("or", dag[-1], dag[-1]))
    for i, f in enumerate(dag[:13]):
        assert fm.parse(fm.to_text(f)) == f
        proof = fr.Proof((fr.Line(f, ("hyp",)),))
        assert_size_is_text_length(proof)
        if i >= 1:  # "proof\n1 " + 6 * 2^i - 5 characters + " ; hyp\n"
            assert fr.proof_size_bits(proof) == 8 * (6 * 2**i + 10)
    # far beyond any text that could be built; a bare int keeps a failure
    # report from printing the DAG
    size = fr.proof_size_bits(fr.Proof((fr.Line(dag[64], ("hyp",)),)))
    assert size == 8 * (6 * 2**64 + 10)


@pytest.mark.parametrize("bad", [
    "",
    "1 x1 ; hyp\n",                      # missing header
    "proof\n2 x1 ; hyp\n",               # wrong numbering
    "proof\n1 x1 hyp\n",                 # missing separator
    "proof\n1 x1 ; frob\n",              # unknown justification
    "proof\n1 x1 ; axiom\n",             # scheme name missing
    "proof\n1 1 ; mp one two\n",         # non-numeric premises
    "proof\n1 1 ; axiom T1 [:=x1]\n",    # empty substitution index
    "proof\n1 1 ; axiom T1 [a:=x1]\n",   # non-numeric substitution index
    "proof\n\u00b2 1 ; axiom T1\n",       # superscript-two line number
    "proof\n1 x\u00b2 ; hyp\n",           # superscript-two variable index
])
def test_parse_proof_rejects_malformed(bad):
    with pytest.raises((fr.ProofError, fm.ParseError)):
        fr.parse_proof(bad)
