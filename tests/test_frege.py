import hashlib
import random

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


MALFORMED_JUSTIFICATIONS = [
    ("mp",), ("mp", 0), ("axiom", "T1"), (), ("foo",), ("hyp", "x"),
    ("mp", "1", 0), ("axiom", "T1", None), ("mp", -5, 0),
]


@pytest.mark.parametrize("just", MALFORMED_JUSTIFICATIONS)
def test_check_rejects_malformed_justifications(just):
    """A justification of the wrong shape is rejected, not raised on."""
    one = fr.Line(fm.parse("1"), ("axiom", "T1", {}))
    bad = fr.Proof((one, fr.Line(fm.parse("1"), just)))
    assert not fr.check(fr.FREGE, fm.parse("1"), bad)
    assert not fr.check_derivation(fr.FREGE, bad)


@pytest.mark.parametrize("just", MALFORMED_JUSTIFICATIONS)
def test_printer_and_sizer_name_a_malformed_justification(just):
    one = fr.Line(fm.parse("1"), ("axiom", "T1", {}))
    bad = fr.Proof((one, fr.Line(fm.parse("1"), just)))
    # int mp premises are quoted as the proof text numbers lines, from 1
    int_mp = len(just) == 3 and just[0] == "mp" and type(just[1]) is type(just[2]) is int
    message = "line 2: malformed justification " + (
        f"mp {just[1] + 1} {just[2] + 1}" if int_mp else repr(just))
    for measure in (fr.serialize_proof, fr.proof_size_bits):
        with pytest.raises(fr.ProofError) as exc:
            measure(bad)
        assert str(exc.value) == message


def t1(sigma):
    return ("axiom", "T1", sigma)


@pytest.mark.parametrize("formula, just, part", [
    pytest.param(fm.parse("1"), t1({1: "x"}), "substitution", id="x"),
    pytest.param(fm.parse("1"), t1({1: 5}), "substitution", id="5"),
    pytest.param(fm.parse("1"), t1({1: fm.Var(1), "a": fm.Var(2)}), "substitution", id="str-key"),
    pytest.param(fm.parse("1"), t1({-1: fm.Var(1)}), "substitution", id="key-1"),
    pytest.param(fm.parse("1"), t1({0: fm.Var(1)}), "substitution", id="key0"),
    pytest.param(fm.parse("1"), t1({1: ("var", 0)}), "substitution", id="value-x0"),
    pytest.param(("x",), t1({}), "formula", id="formula"),
    pytest.param(("var", 0), ("hyp",), "formula", id="hyp-x0"),
    pytest.param(("const", 5), t1({}), "formula", id="const5"),
    pytest.param(("var", True), ("hyp",), "formula", id="hyp-xTrue"),
])
def test_printer_and_sizer_name_a_malformed_substitution(formula, just, part):
    """A T1 line is malformed when its sigma is no map from variable indices
    to formulas, even though T1 uses no variable, and a line is malformed
    when its formula, or a sigma value, has no formula root or a var or
    const root with a bad payload: check rejects it and the printer and
    sizer name it."""
    one = fr.Line(fm.parse("1"), ("axiom", "T1", {}))
    bad = fr.Proof((one, fr.Line(formula, just)))
    assert not fr.check(fr.FREGE, formula, bad)
    assert not fr.check_derivation(fr.FREGE, bad)
    for measure in (fr.serialize_proof, fr.proof_size_bits):
        with pytest.raises(fr.ProofError, match=rf"^line 2: malformed {part}"):
            measure(bad)


# shapes no reader accepts, and mp lines whose premises are not earlier lines
# ("fwd" and "neg" are drawn per proof)
KERNEL_API_SHAPES = MALFORMED_JUSTIFICATIONS + [("mp", 0.0, 0), None, "mp 1 1"]
KERNEL_API_PREMISES = ["fwd", "neg"]


@pytest.mark.parametrize("seed", range(4))
def test_kernel_api_rejects_malformed_lines(seed):
    """Each entry point of the kernel's public API, fed a derivation with
    one malformed line (line formulas all well formed), returns False or
    raises ProofError, never another exception."""
    rng = random.Random(seed)
    b = fr.ProofBuilder()
    h = b.hyp(fm.parse("x1 & x2"))
    b.append_proof(fr.prove_tautology(fm.parse(rng.choice(["x1 | ~x1", "~(x1 & ~x1)", "x2 | 1"]))))
    base = b.proof(b.imply(h, "C1", {1: fm.Var(1), 2: fm.Var(2)}))
    good = fr.prove_true_sentence(fm.parse("~0"))
    S = ps.PlusAlphaSystem(fr.FREGE, fm.parse("x1 | ~x1"))
    for just in KERNEL_API_SHAPES + KERNEL_API_PREMISES:
        lines = list(base.lines)
        i = rng.randrange(len(lines))
        shape = just not in KERNEL_API_PREMISES
        if not shape:
            stray = rng.randrange(i, len(lines) + 2) if just == "fwd" else -rng.randrange(1, 4)
            pair = [stray, rng.randrange(len(lines))]
            rng.shuffle(pair)
            just = ("mp", *pair)
        lines[i] = fr.Line(lines[i].formula, just)
        bad = fr.Proof(tuple(lines))
        tau = bad.conclusion
        assert fr.check(fr.FREGE, tau, bad) is False
        assert fr.check_derivation(fr.FREGE, bad) is False
        assert ps.check_plus_alpha(S, tau, bad) is False
        assert isinstance(bad.hypotheses(), list)
        for call in (lambda: fr.discharge(bad, fm.parse("x1 & x2")),
                     lambda: fr.ProofBuilder().append_proof(bad),
                     lambda: fr.subst_proof(bad, {1: fm.CONST1}),
                     lambda: fr.mp(bad, good),
                     lambda: fr.mp(good, bad)):
            with pytest.raises(fr.ProofError):
                call()
        for measure in (fr.serialize_proof, fr.proof_size_bits):
            with pytest.raises(fr.ProofError, match=f"^line {i + 1}: malformed"):
                measure(bad)


def test_append_proof_copies_no_malformed_line():
    b = fr.ProofBuilder()
    b.axiom("T1", {})
    for just in (("axiom", "T1"), ("hyp", "x"), ("mp", 0), None):
        bad = fr.Proof((fr.Line(fm.parse("~0"), just),))
        with pytest.raises(fr.ProofError, match=r"^line 1: malformed justification"):
            b.append_proof(bad)
        assert len(b.lines) == 1


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


def test_builder_mp_rejects_premise_indices_outside_the_lines():
    b = fr.ProofBuilder()
    p = b.hyp(fm.Var(1))
    q = b.hyp(fm.parse("~x1 | x2"))
    for i, j in ((p, 2), (2, q), (-2, q), (p, -1), (5, 5)):
        with pytest.raises(fr.ProofError):
            b.mp(i, j)
    assert b.lines[b.mp(p, q)].formula == fm.Var(2)


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


def test_discharge_rejects_malformed_input():
    one = fm.parse("1")
    for bad in (
        fr.Proof(()),
        fr.Proof((fr.Line(one, ("mp", 0, 1)),)),                          # a later line
        fr.Proof((fr.Line(one, ("axiom", "T1", {})), fr.Line(one, ("mp", 0, 7)))),  # missing
        fr.Proof((fr.Line(one, ("foo",)),)),
        fr.Proof((fr.Line(one, ("hyp", "x")),)),
    ):
        with pytest.raises(fr.ProofError):
            fr.discharge(bad, fm.Var(1))


def test_discharge_hashes_the_hypothesis_once():
    """Every discharged line contains H; hashing one reads H's kept hash
    instead of walking H again."""
    calls = []

    class Counted(tuple):
        def __hash__(self):
            calls.append(self)
            return tuple.__hash__(self)

    H = ("not", Counted(fm.parse("x1 & (x2 | ~x3)")))
    b = fr.ProofBuilder()
    b.hyp(H)
    for s in ("x2 | ~x2", "~x2 | x2 & x2"):
        idx = b.append_proof(fr.prove_tautology(fm.parse(s)))
    for s in ("~(0 | 0 & 1) & (1 | 0) & ~~1", "(~(0 & 1) | 0) & (1 | ~1) & ~(0 | 0)",
              "~(1 & 0) & (0 | ~0) | 0"):
        idx = b.append_proof(fr.prove_true_sentence(fm.parse(s)))
    der = b.proof(idx)
    assert len(der) >= 75
    calls.clear()
    out = fr.discharge(der, H)
    assert len(calls) <= 1
    assert out.hypotheses() == []
    assert fr.check_derivation(fr.FREGE, out)
    assert out.conclusion == fm.Implies(H, der.conclusion)


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
    # x1 | x2 | ... | x9 | ~x1, nested to the right
    f = fm.Not(fm.Var(1))
    for i in range(9, 0, -1):
        f = fm.Or(fm.Var(i), f)
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


def test_print_then_parse_is_the_identity_on_well_formed_lines():
    """Every well-formed line, whether or not it follows from the lines
    before it, prints as text that parse_proof reads back as that line, and
    the sizer counts that text: every scheme, sigma keys in 1..2^20 that the
    scheme may ignore, mp premises on any earlier line, 0 included, and
    hypotheses."""
    rng = random.Random(23)

    def formula(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([fm.parse(rng.choice("01")), fm.Var(rng.randint(1, 2**20))])
        op = rng.choice([fm.Not, fm.And, fm.Or])
        return op(formula(depth - 1)) if op is fm.Not else op(formula(depth - 1), formula(depth - 1))

    schemes = set()
    for _ in range(200):
        lines = []
        for i in range(rng.randint(1, 8)):
            kind = rng.choice(["axiom", "axiom", "hyp"] + ["mp"] * (i > 0))
            if kind == "axiom":
                name = rng.choice(sorted(fr.AXIOM_SCHEMES))
                keys = rng.sample(range(1, 4), rng.randint(0, 3)) + [
                    rng.randint(1, 2**20) for _ in range(rng.randint(0, 2))
                ]
                just = ("axiom", name, {m: formula(3) for m in keys})
                schemes.add(name)
            elif kind == "mp":
                just = ("mp", rng.randrange(i), rng.randrange(i))
            else:
                just = ("hyp",)
            lines.append(fr.Line(formula(4), just))
        proof = fr.Proof(tuple(lines))
        text = fr.serialize_proof(proof)
        assert fr.parse_proof(text) == proof
        assert fr.proof_size_bits(proof) == 8 * len(text.encode())
    assert schemes == set(fr.AXIOM_SCHEMES)


def assert_size_is_text_length(proof):
    assert fr.proof_size_bits(proof) == 8 * len(fr.serialize_proof(proof).encode())


@pytest.mark.parametrize("text", TAUTOLOGY_BATCH)
def test_proof_size_bits_counts_the_text_kalmar(text):
    proof = fr.prove_tautology(fm.parse(text))
    assert_size_is_text_length(proof)
    # a parsed proof, whose lines share subterm objects
    assert_size_is_text_length(fr.parse_proof(fr.serialize_proof(proof)))


def test_proof_size_bits_counts_the_text_with_hyp():
    b = fr.ProofBuilder()
    h = b.hyp(fm.Var(3))
    idx = b.imply(h, "N4", {1: fm.Var(3)})
    assert_size_is_text_length(b.proof(idx))


def test_proof_size_bits_counts_the_text_pipeline(monkeypatch):
    """Every stage proof simulate sizes, and its final proof, on the
    pipeline corpus of the acceptance gate (checker: x4 and all y, t bits).
    simulate prints its four stages through one shared text memo and sizes
    each by its text."""
    sized = []

    def print_and_keep(proof, memo):
        text = fr._serialize(proof, memo)
        sized.append((proof, memo, 8 * len(text.encode())))
        return text

    monkeypatch.setattr(ps, "_serialize", print_and_keep)
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
                stages = sized[-4:]
                assert len({id(memo) for _, memo, _ in stages}) == 1
                assert [bits for _, _, bits in stages] == [
                    res.stage_bits[s] for s in ("prov_d2", "sat_mp", "d4", "total")
                ]
    assert len(sized) == 4 * 18
    for proof, _, bits in sized:
        assert_size_is_text_length(proof)
        assert bits == fr.proof_size_bits(proof)


def test_serialize_proof_keeps_its_text():
    """A proof is printed once: a second call returns the kept text, a fresh
    proof over the same lines prints the same text, and the kept text leaves
    ==, hash and repr alone."""
    proof = fr.prove_tautology(fm.parse("x1 | ~x1"))
    before = repr(proof)
    text = fr.serialize_proof(proof)
    assert fr.serialize_proof(proof) is text
    twin = fr.Proof(proof.lines)
    assert fr.serialize_proof(twin) == text
    assert twin == proof and repr(proof) == before
    assert fr.parse_proof(text) == proof
    # a proof without axiom lines (whose sigma dicts do not hash) hashes
    b = fr.ProofBuilder()
    idx = b.mp(b.hyp(fm.Var(1)), b.hyp(fm.parse("~x1 | x2")))
    plain = b.proof(idx)
    before = (hash(plain), repr(plain))
    fr.serialize_proof(plain)
    assert (hash(plain), repr(plain)) == before
    assert plain == fr.Proof(plain.lines) and hash(plain) == hash(fr.Proof(plain.lines))


def test_proof_builder_hashes_each_pushed_formula_once():
    """A new line and a dedup hit each cost one hash of the line formula;
    an equal but distinct formula lands on the earlier line."""
    calls = []

    class Counted(tuple):
        def __hash__(self):
            calls.append(self)
            return tuple.__hash__(self)

    f = Counted(("or", ("var", 1), ("not", ("var", 2))))
    b = fr.ProofBuilder()
    b.hyp(fm.Var(3))
    assert b.hyp(f) == 1 and len(calls) == 1
    assert b.hyp(f) == 1 and len(calls) == 2
    twin = Counted(("or", ("var", 1), ("not", ("var", 2))))
    assert twin is not f
    assert b.hyp(twin) == 1 and len(calls) == 3
    assert len(b.lines) == 2 and b.lines[1].formula is f


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


# ---------------------------------------------------------------------------
# parse_proof against the reader that parsed every line in full

def _reference_parse_proof(text: str) -> fr.Proof:
    """parse_proof as it was before it read lines through their
    justifications, kept verbatim as the reference."""
    lines: list[fr.Line] = []
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        if s == "proof":
            saw_header = True
            continue
        if ";" not in s:
            raise fr.ProofError(f"line {lineno}: missing justification separator")
        head, _, just = s.partition(";")
        head = head.strip()
        num, _, ftext = head.partition(" ")
        if fr._decimal(num) != len(lines) + 1:
            raise fr.ProofError(f"line {lineno}: expected line number {len(lines) + 1}")
        f = fm.parse(ftext.strip())
        jtoks = just.strip().split(None, 1)
        if not jtoks:
            raise fr.ProofError(f"line {lineno}: empty justification")
        if jtoks[0] == "axiom":
            if len(jtoks) < 2:
                raise fr.ProofError(f"line {lineno}: axiom needs a scheme name")
            rest = jtoks[1].split(None, 1)
            name = rest[0]
            sigma: dict[int, fm.Formula] = {}
            if len(rest) > 1:
                for part in rest[1].split("]"):
                    part = part.strip()
                    if not part:
                        continue
                    key, sep, val = part[1:].partition(":=")
                    m = fr._decimal(key)
                    if not part.startswith("[") or not sep or m is None:
                        raise fr.ProofError(f"line {lineno}: bad substitution {part!r}")
                    sigma[m] = fm.parse(val)
            lines.append(fr.Line(f, ("axiom", name, sigma)))
        elif jtoks[0] == "mp":
            refs = [fr._decimal(t) for t in jtoks[1].split()] if len(jtoks) > 1 else []
            if len(refs) != 2 or None in refs:
                raise fr.ProofError(f"line {lineno}: mp needs two line numbers")
            a, b = refs
            lines.append(fr.Line(f, ("mp", a - 1, b - 1)))
        elif jtoks[0] == "hyp":
            lines.append(fr.Line(f, ("hyp",)))
        else:
            raise fr.ProofError(f"line {lineno}: unknown justification {jtoks[0]!r}")
    if not saw_header:
        raise fr.ProofError("missing 'proof' header")
    if not lines:
        raise fr.ProofError("empty proof")
    return fr.Proof(tuple(lines))


def _outcome(read, text):
    try:
        return read(text)
    except Exception as e:  # the exception is the outcome being compared
        return type(e), str(e)


def _hyp_proof_text():
    b = fr.ProofBuilder()
    idx = b.imply(b.hyp(fm.Var(3)), "N4", {1: fm.Var(3)})
    return fr.serialize_proof(b.proof(idx))


@pytest.mark.parametrize("text", TAUTOLOGY_BATCH)
def test_parse_proof_agrees_with_reference_on_the_batch(text):
    proof_text = fr.serialize_proof(fr.prove_tautology(fm.parse(text)))
    assert fr.parse_proof(proof_text) == _reference_parse_proof(proof_text)


def test_parse_proof_agrees_with_reference_on_mutants():
    """Seeded one-character edits of short texts, some spelled otherwise
    than the printer spells them: equal proofs, or equal exceptions."""
    texts = [
        fr.serialize_proof(fr.prove_tautology(fm.parse("x1 | ~x1"))),
        fr.serialize_proof(fr.prove_true_sentence(fm.parse("~(0 & 1) | 1"))),
        _hyp_proof_text(),
        "proof\n# spelled by hand\n1 x3;hyp\n2 ~x3|~~x3 ; axiom N4 [1:=(x3)]\n"
        "3 ~~(x3) ; mp 1 2\n4 ~(~x3 & x1) | ~~x3 ; axiom N2 [1:=~x3] [2:= x3]\n",
    ]
    # a formula error comes before a justification error on the same line
    for text in ["proof\n1 x1 | ; axiom ID [1:=(]\n", "proof\n1 x1 | ; mp one two\n",
                 "proof\n1 ~x1 | x1 ; axiom ID [1:=(]\n", "proof\n1 ( ; frob\n"]:
        assert _outcome(fr.parse_proof, text) == _outcome(_reference_parse_proof, text), text
    alphabet = "0123456789x~|&() ;[]:=\n#aimpNT"
    rng = random.Random(20261018)
    for _ in range(3000):
        text = rng.choice(texts)
        i = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:i] + rng.choice(alphabet) + text[i:]
        elif edit == 1:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(alphabet) + text[i + 1:]
        assert _outcome(fr.parse_proof, text) == _outcome(_reference_parse_proof, text), text


def _same_tree(f, g) -> bool:
    """f == g without recursion, for chains deeper than tuple == allows."""
    stack = [(f, g)]
    while stack:
        a, b = stack.pop()
        if a[0] != b[0] or len(a) != len(b):
            return False
        if a[0] in ("const", "var"):
            if a != b:
                return False
        else:
            stack.extend(zip(a[1:], b[1:]))
    return True


@pytest.mark.parametrize("text", [
    # line 3's formula is line 2's right disjunct, too deep to print
    "proof\n1 x2 ; hyp\n2 ~x2 | " + "~" * 5000 + "x1 ; hyp\n3 " + "~" * 5000 + "x1 ; mp 1 2\n",
    "proof\n1 " + "~" * 5001 + "x1 | " + "~" * 5000 + "x1 ; axiom ID [1:=" + "~" * 5000 + "x1]\n",
], ids=["mp", "axiom"])
def test_parse_proof_reads_deep_lines_the_printer_cannot_print(text):
    got, want = fr.parse_proof(text), _reference_parse_proof(text)
    assert len(got) == len(want)
    for a, b in zip(got.lines, want.lines):
        assert _same_tree(a.formula, b.formula)
        assert a.just[:2] == b.just[:2]
        if a.just[0] == "axiom":
            assert a.just[2].keys() == b.just[2].keys()
            assert all(_same_tree(a.just[2][m], b.just[2][m]) for m in a.just[2])


def test_parse_proof_keeps_rejected_candidates_alive():
    """Odd lines spell their axiom instance otherwise, so it is rejected;
    the next line's instance may take a freed subterm's id, and a stale
    printed text for ~x_i would read ~x_(i+1) | x_(i+1) as ~x_i | x_(i+1)."""
    lines = ["proof"]
    for i in range(1, 60):
        lines.append(f"{2 * i - 1} (~x{i}) | x{i} ; axiom ID [1:=x{i}]")
        lines.append(f"{2 * i} ~x{i} | x{i + 1} ; axiom ID [1:=x{i + 1}]")
    text = "\n".join(lines) + "\n"
    assert fr.parse_proof(text) == _reference_parse_proof(text)


def test_parse_proof_reads_an_mp_line_through_its_premise():
    proof = fr.parse_proof(_hyp_proof_text())
    assert [ln.just[0] for ln in proof.lines] == ["hyp", "axiom", "mp"]
    assert proof.lines[2].formula is proof.lines[1].formula[2]


# ---------------------------------------------------------------------------
# the shortest proof text

def _spells_a_proof(raw: bytes) -> bool:
    """Whether raw reads as a kernel proof of its own conclusion."""
    try:
        proof = fr.parse_proof(raw.decode("utf-8"))
    except (UnicodeDecodeError, fr.ProofError, fm.ParseError):
        return False
    return fr.check(fr.FREGE, proof.conclusion, proof)


def test_shortest_proof_text_has_min_proof_bits():
    text = "proof\n1 1;axiom T1"
    assert _spells_a_proof(text.encode())
    assert 8 * len(text.encode()) == fr.MIN_PROOF_BITS == 144
    for i in range(len(text)):
        assert not _spells_a_proof((text[:i] + text[i + 1:]).encode()), i


def test_no_byte_string_of_at_most_two_bytes_spells_a_proof():
    # the byte sweep that sound Find verification once ran below 22 bits
    for n in range(3):
        for v in range(1 << (8 * n)):
            assert not _spells_a_proof(v.to_bytes(n, "big"))
