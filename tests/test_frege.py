import hashlib
import itertools
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


@given(st.dictionaries(st.integers(1, 4), small_formulas()))
@settings(max_examples=60, deadline=None)
def test_compiled_schemes_are_substitution(sigma):
    """Each scheme's compiled instance function builds what substituting
    into the scheme builds, sigma partial or with keys the scheme lacks."""
    assert set(fr._INSTANCE) == set(fr.AXIOM_SCHEMES)
    for name, pattern in fr.AXIOM_SCHEMES.items():
        assert fr._INSTANCE[name](sigma) == fm.substitute(pattern, sigma), name


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
    # a forward reference is refused when the proof is built
    with pytest.raises(fr.ProofError, match=r"^line 1: malformed justification mp 1 2$"):
        fr.Proof((fr.Line(fm.parse("1"), ("mp", 0, 1)),))


def test_parse_proof_refuses_a_forward_reference():
    """The reader builds the Proof, which names the line that cites a later
    one, with its premises numbered as the text numbers them."""
    with pytest.raises(fr.ProofError) as exc:
        fr.parse_proof("proof\n1 1 ; axiom T1\n2 1 ; mp 3 1\n")
    assert str(exc.value) == "line 2: malformed justification mp 3 1"


def test_check_rejects_unknown_scheme_and_bad_instance():
    with pytest.raises(fr.ProofError) as exc:
        fr.Proof((fr.Line(fm.parse("1"), ("axiom", "Z9", {})),))
    assert str(exc.value) == "line 1: malformed justification ('axiom', 'Z9', {})"
    wrong = fr.Proof((fr.Line(fm.parse("0"), ("axiom", "T1", {})),))
    assert not fr.check(fr.FREGE, fm.parse("0"), wrong)


MALFORMED_JUSTIFICATIONS = [
    ("mp",), ("mp", 0), ("axiom", "T1"), (), ("foo",), ("hyp", "x"),
    ("mp", "1", 0), ("axiom", "T1", None), ("mp", -5, 0),
]


@pytest.mark.parametrize("just", MALFORMED_JUSTIFICATIONS)
def test_check_rejects_malformed_justifications(just):
    """A justification of the wrong shape is refused when the proof is
    built, so no checker meets it; the line before it builds and checks."""
    one = fr.Line(fm.parse("1"), ("axiom", "T1", {}))
    assert fr.check(fr.FREGE, fm.parse("1"), fr.Proof((one,)))
    with pytest.raises(fr.ProofError, match=r"^line 2: malformed justification "):
        fr.Proof((one, fr.Line(fm.parse("1"), just)))


@pytest.mark.parametrize("just", MALFORMED_JUSTIFICATIONS)
def test_printer_and_sizer_name_a_malformed_justification(just):
    """The printer and sizer never meet a malformed justification: Proof
    refuses it when it is built, naming the line as the text numbers it."""
    one = fr.Line(fm.parse("1"), ("axiom", "T1", {}))
    # int mp premises are quoted as the proof text numbers lines, from 1
    int_mp = len(just) == 3 and just[0] == "mp" and type(just[1]) is type(just[2]) is int
    message = "line 2: malformed justification " + (
        f"mp {just[1] + 1} {just[2] + 1}" if int_mp else repr(just))
    with pytest.raises(fr.ProofError) as exc:
        fr.Proof((one, fr.Line(fm.parse("1"), just)))
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
    # below the root, where only the printer reads
    pytest.param(("not", ("var", 0)), ("hyp",), "formula", id="deep-x0"),
    pytest.param(("or", fm.Var(1), ("var", True)), ("hyp",), "formula", id="deep-xTrue"),
    pytest.param(("not", ("const", 2)), t1({}), "formula", id="deep-const2"),
    pytest.param(fm.parse("1"), t1({1: ("not", ("const", True))}), "formula",
                 id="deep-constTrue-in-sigma"),
    pytest.param(("not", ("or", fm.Var(1), fm.Var(2), fm.Var(3))), ("hyp",), "formula",
                 id="deep-or3"),
    pytest.param(fm.parse("1"), t1({1: ("or", ("not",), fm.Var(1))}), "formula",
                 id="deep-not0-in-sigma"),
    pytest.param(("and", ("var", 1, 2), fm.Var(1)), ("hyp",), "formula", id="deep-var2"),
    pytest.param(("and", fm.Var(1), ("y", fm.Var(1))), ("hyp",), "formula", id="deep-tag"),
])
def test_printer_and_sizer_name_a_malformed_substitution(formula, just, part, request):
    """A T1 line is malformed when its sigma is no map from variable indices
    to formulas, even though T1 uses no variable, and a line is malformed
    when its formula, or a sigma value, has no formula root or a var or
    const root with a bad payload: Proof refuses it when it is built,
    naming it.  A malformed node below the root (a bad leaf payload, an
    unknown tag or the wrong number of operands) is not read by the shape
    rule, so the proof builds; the printer and sizer name the line, and
    check, which reads through the printer, rejects it."""
    one = fr.Line(fm.parse("1"), ("axiom", "T1", {}))
    lines = (one, fr.Line(formula, just))
    if not request.node.callspec.id.startswith("deep-"):
        with pytest.raises(fr.ProofError, match=rf"^line 2: malformed {part}"):
            fr.Proof(lines)
        return
    bad = fr.Proof(lines)
    assert not fr.check(fr.FREGE, formula, bad)
    for measure in (fr.serialize_proof, fr.proof_size_bits):
        with pytest.raises(fr.ProofError, match=rf"^line 2: malformed {part}"):
            measure(bad)


# shapes no reader accepts, and mp lines whose premises are not earlier lines
# ("fwd" and "neg" are drawn per proof)
KERNEL_API_SHAPES = MALFORMED_JUSTIFICATIONS + [("mp", 0.0, 0), None, "mp 1 1"]
KERNEL_API_PREMISES = ["fwd", "neg"]


@pytest.mark.parametrize("seed", range(4))
def test_kernel_api_rejects_malformed_lines(seed):
    """A derivation with one malformed line (line formulas all well formed)
    is refused with ProofError naming the line when it is built, so no
    entry point of the kernel's public API meets one."""
    rng = random.Random(seed)
    b = fr.ProofBuilder()
    h = b.hyp(fm.parse("x1 & x2"))
    b.append_proof(fr.prove_tautology(fm.parse(rng.choice(["x1 | ~x1", "~(x1 & ~x1)", "x2 | 1"]))))
    base = b.proof(b.imply(h, "C1", {1: fm.Var(1), 2: fm.Var(2)}))
    assert fr.check_derivation(fr.FREGE, base)
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
        with pytest.raises(fr.ProofError, match=f"^line {i + 1}: malformed"):
            fr.Proof(tuple(lines))


NOT0 = ("not", ())  # a not node without its operand


@pytest.mark.parametrize("bad", [
    fr.Proof((fr.Line(("not", ("bogus",)), ("hyp",)),)),
    fr.Proof((fr.Line(("or", ("not", NOT0), NOT0), ("axiom", "ID", {1: NOT0})),)),
], ids=["hyp-unknown-tag", "ID-sigma-not0"])
def test_kernel_api_survives_formulas_malformed_below_the_root(bad):
    """The shape rule reads only roots, so check_derivation may accept these
    lines, while check, which reads through the printer, rejects them; each
    entry point returns, or raises ProofError naming the line."""
    assert fr.check(fr.FREGE, bad.conclusion, bad) is False
    fr.check_derivation(fr.FREGE, bad)
    fr.discharge(bad, fm.Var(1))
    assert not ps.check_plus_alpha(ps.PlusAlphaSystem(fr.FREGE, fm.Not(fm.Var(1))), NOT0, bad)
    for call in (fr.serialize_proof, lambda p: fr.subst_proof(p, {1: fm.CONST1})):
        with pytest.raises(fr.ProofError, match=r"^line 1: malformed formula$"):
            call(bad)


UNHASHABLE = ("not", ["x"])  # a list below the root: no hash, so no builder index


@pytest.mark.parametrize("call", [
    lambda bad, good: fr.ProofBuilder().append_proof(bad),
    lambda bad, good: fr.discharge(bad, fm.Var(1)),
    lambda bad, good: fr.mp(bad, good),
    lambda bad, good: fr.ProofBuilder().hyp(UNHASHABLE),
    lambda bad, good: fr.ProofBuilder().axiom("ID", {1: UNHASHABLE}),
    lambda bad, good: fr.discharge(good, UNHASHABLE),
], ids=["append_proof", "discharge", "mp", "hyp", "axiom", "discharge-hypothesis"])
def test_kernel_entry_points_name_an_unhashable_node(call):
    """The shape rule reads roots only, so an unhashable node below one
    reaches the builder's index, which raises ProofError, not TypeError."""
    bad = fr.Proof((fr.Line(UNHASHABLE, ("hyp",)),))
    good = fr.prove_true_sentence(fm.parse("1"))
    with pytest.raises(fr.ProofError, match="^malformed"):
        call(bad, good)


def test_append_proof_copies_no_malformed_line():
    b = fr.ProofBuilder()
    b.axiom("T1", {})
    for just in (("axiom", "T1"), ("hyp", "x"), ("mp", 0), None):
        with pytest.raises(fr.ProofError, match=r"^line 1: malformed justification"):
            b.append_proof(fr.Proof((fr.Line(fm.parse("~0"), just),)))
        assert len(b.lines) == 1


def test_empty_proof_rejected():
    for build in (lambda: fr.Proof(()),
                  lambda: fr.ProofBuilder().proof(),
                  lambda: fr.parse_proof("proof\n# no lines\n")):
        with pytest.raises(fr.ProofError) as exc:
            build()
        assert str(exc.value) == "empty proof"


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
    # a premise that is not an earlier line is refused when the proof is built
    for a, c in ((3, 5), (0, 0), (-1, 0)):
        with pytest.raises(fr.ProofError) as exc:
            fr.Proof((fr.Line(fm.parse("1"), ("mp", a, c)),))
        assert str(exc.value) == f"line 1: malformed justification mp {a + 1} {c + 1}"


def test_builder_mp_rejects_premise_indices_outside_the_lines():
    b = fr.ProofBuilder()
    p = b.hyp(fm.Var(1))
    q = b.hyp(fm.parse("~x1 | x2"))
    for i, j in ((p, 2), (2, q), (-2, q), (p, -1), (5, 5), (0.0, q), ("0", q), (True, q)):
        with pytest.raises(fr.ProofError):
            b.mp(i, j)
    assert b.lines[b.mp(p, q)].formula == fm.Var(2)
    # a second premise whose formula is an "or" without operands
    short = b.hyp(("or",))
    with pytest.raises(fr.ProofError):
        b.mp(p, short)


@pytest.mark.parametrize("hypothesis", [5, None, "x1"])
def test_builder_rejects_a_hypothesis_that_is_not_a_formula(hypothesis):
    b = fr.ProofBuilder()
    with pytest.raises(fr.ProofError, match=r"^malformed hypothesis "):
        b.hyp(hypothesis)
    assert b.lines == []


def test_builder_rejects_a_substitution_that_is_no_dict_and_a_stray_conclusion():
    b = fr.ProofBuilder()
    with pytest.raises(fr.ProofError):
        b.proof(True)
    for sigma in (None, [1]):
        with pytest.raises(fr.ProofError, match="^axiom P1: the substitution is no dict$"):
            b.axiom("P1", sigma)
    one = b.axiom("T1", {})
    b.hyp(fm.Var(1))
    for index in (5, 2, -1, True, 1.0):
        with pytest.raises(fr.ProofError, match=r"^conclusion .*: not a line of 2$"):
            b.proof(index)
    assert len(b.lines) == 2
    assert b.proof(one).lines == (b.lines[0], b.lines[1], b.lines[0])


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
    """discharge never meets a malformed proof: Proof refuses it first."""
    one = fm.parse("1")
    for lines, why in (
        ((), "empty proof"),
        ((fr.Line(one, ("mp", 0, 1)),), "line 1: malformed justification mp 1 2"),  # a later line
        ((fr.Line(one, ("axiom", "T1", {})), fr.Line(one, ("mp", 0, 7))),
         "line 2: malformed justification mp 1 8"),                                    # missing
        ((fr.Line(one, ("foo",)),), "line 1: malformed justification ('foo',)"),
        ((fr.Line(one, ("hyp", "x")),), "line 1: malformed justification ('hyp', 'x')"),
    ):
        with pytest.raises(fr.ProofError) as exc:
            fr.discharge(fr.Proof(lines), fm.Var(1))
        assert str(exc.value) == why


@pytest.mark.parametrize("hypothesis", [5, None, "x1", ("var", 0)])
def test_discharge_rejects_a_hypothesis_that_is_not_a_formula(hypothesis):
    b = fr.ProofBuilder()
    der = b.proof(b.imply(b.hyp(fm.Var(1)), "N4", {1: fm.Var(1)}))
    with pytest.raises(fr.ProofError, match="hypothesis"):
        fr.discharge(der, hypothesis)


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


def seeded_formula(rng, leaves, max_var=5):
    """A formula with the given number of leaves, each a variable among
    x1..x{max_var} or, one time in ten, a constant (always, when max_var
    is 0)."""
    if leaves == 1:
        if max_var == 0 or rng.random() < 0.1:
            return ("const", rng.randrange(2))
        return fm.Var(rng.randint(1, max_var))
    if rng.random() < 0.25:
        return fm.Not(seeded_formula(rng, leaves, max_var))
    left = rng.randint(1, leaves - 1)
    op = rng.choice((fm.And, fm.Or))
    return op(seeded_formula(rng, left, max_var), seeded_formula(rng, leaves - left, max_var))


def test_prove_tautology_text_is_pinned_on_a_seeded_corpus():
    """The prover's text over 40 seeded tautologies of up to four variables,
    concatenated in draw order, has a fixed digest; their two case branches
    share many lines, so the builder's dedup decides much of the text."""
    rng = random.Random(25)
    taus = []
    while len(taus) < 40:
        f = seeded_formula(rng, rng.randint(2, 6))
        if fm.is_tautology(f, "brute"):
            taus.append(f)
    assert max(len(fm.fvars(f)) for f in taus) == 4
    text = hashlib.sha256()
    for f in taus:
        text.update(fr.serialize_proof(fr.prove_tautology(f)).encode())
    assert text.hexdigest() == (
        "feeffc8cdc84486640a3762ea18e6fa0a6c9767a462c02e84a962e36d5ad8abe"
    )


def test_mp_text_is_pinned_on_seeded_d2_pairs():
    """D3 on 30 seeded pairs of D2 proofs (of psi and of psi -> eta, both
    sentences true) gives texts whose concatenation has a fixed digest."""
    rng = random.Random(25)
    text = hashlib.sha256()
    pairs = 0
    while pairs < 30:
        psi, eta = (seeded_formula(rng, rng.randint(1, 8), max_var=0) for _ in range(2))
        if fm.evaluate(psi, {}) == fm.evaluate(eta, {}) == 1:
            pi1 = fr.prove_true_sentence(psi)
            pi2 = fr.prove_true_sentence(fm.Implies(psi, eta))
            text.update(fr.serialize_proof(fr.mp(pi1, pi2)).encode())
            pairs += 1
    assert text.hexdigest() == (
        "d29d29df992d7e86fde15bbf405d34c3b1cd3ecef3b4b46594ea96eb7aa184a9"
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

@pytest.mark.parametrize("make", [  # a proof and its pinned size in bits
    lambda: (fr.prove_true_sentence(fm.parse("~(0 & 1) | 1")), 1336),
    lambda: (fr.prove_tautology(fm.parse("x1 | ~x1")), 7600),
])
def test_proof_text_round_trip(make):
    proof, bits = make()
    text = fr.serialize_proof(proof)
    back = fr.parse_proof(text)
    assert back == proof
    assert fr.proof_size_bits(proof) == bits


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
        assert_size_is_spelled_length(proof)
    assert schemes == set(fr.AXIOM_SCHEMES)


def spelled_text(proof):
    """The proof's text spelled here, line by line, from fm.to_text of each
    formula and the line grammar: "N formula ; hyp", "N formula ; mp A B"
    with premises numbered from 1, or "N formula ; axiom NAME" followed by
    " [m:=formula]" for each sigma key in increasing order."""
    out = "proof\n"
    for n, ln in enumerate(proof.lines, 1):
        just = ln.just
        if just[0] == "axiom":
            just = f"axiom {just[1]}" + "".join(
                f" [{m}:={fm.to_text(just[2][m])}]" for m in sorted(just[2]))
        elif just[0] == "mp":
            just = f"mp {just[1] + 1} {just[2] + 1}"
        else:
            just = "hyp"
        out += f"{n} {fm.to_text(ln.formula)} ; {just}\n"
    return out


def assert_size_is_spelled_length(proof):
    assert fr.proof_size_bits(proof) == 8 * len(spelled_text(proof).encode())


@pytest.mark.parametrize("text", TAUTOLOGY_BATCH)
def test_proof_size_bits_counts_the_text_kalmar(text):
    proof = fr.prove_tautology(fm.parse(text))
    assert_size_is_spelled_length(proof)
    # a parsed proof, whose lines share subterm objects
    assert_size_is_spelled_length(fr.parse_proof(fr.serialize_proof(proof)))


def test_proof_size_bits_counts_the_text_with_hyp():
    b = fr.ProofBuilder()
    h = b.hyp(fm.Var(3))
    idx = b.imply(h, "N4", {1: fm.Var(3)})
    # "proof\n1 x3 ; hyp\n2 ~x3 | ~~x3 ; axiom N4 [1:=x3]\n3 ~~x3 ; mp 1 2\n"
    assert fr.proof_size_bits(b.proof(idx)) == 8 * 65


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
        assert bits == fr.proof_size_bits(proof) == 8 * len(spelled_text(proof).encode())


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
    for _ in range(12):
        dag.append(("or", dag[-1], dag[-1]))
    for i, f in enumerate(dag):
        assert fm.parse(fm.to_text(f)) == f
        proof = fr.Proof((fr.Line(f, ("hyp",)),))
        assert_size_is_spelled_length(proof)
        if i >= 1:  # "proof\n1 " + 6 * 2^i - 5 characters + " ; hyp\n"
            assert fr.proof_size_bits(proof) == 8 * (6 * 2**i + 10)


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


@pytest.mark.parametrize("text, message", [
    ("proof\n1 1 ; axiom T1 [1:=x1] [1:=x2]\n", "line 2: variable 1 substituted twice"),
    ("proof\n1 1 ; axiom T1 [0:=x1]\n", "line 2: bad substitution '[0:=x1'"),
])
def test_parse_proof_refuses_a_repeated_or_zero_substitution_index(text, message):
    with pytest.raises(fr.ProofError) as e:
        fr.parse_proof(text)
    assert str(e.value) == message


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


def _printed_corpus():
    """Seeded kernel proofs of every kind the toolkit prints: D1 (substitution
    into an axiom line, sigma keys the scheme ignores included), D2, D3,
    case-analysis proofs and simulate's P+alpha output."""
    rng = random.Random(28)
    proofs = []
    for name in sorted(fr.AXIOM_SCHEMES):
        b = fr.ProofBuilder()
        base = b.proof(b.axiom(name, {m: seeded_formula(rng, rng.randint(1, 4), 3)
                                      for m in (1, 2, 3)}))
        proofs.append(fr.subst_proof(base, {v: seeded_formula(rng, rng.randint(1, 5), 2)
                                            for v in (1, 2, 3)}))
    sentences = []
    while len(sentences) < 12:
        psi = seeded_formula(rng, rng.randint(1, 8), max_var=0)
        if fm.evaluate(psi, {}) == 1:
            sentences.append(psi)
    proofs += [fr.prove_true_sentence(psi) for psi in sentences]
    proofs += [fr.mp(fr.prove_true_sentence(psi), fr.prove_true_sentence(fm.Implies(psi, eta)))
               for psi, eta in zip(sentences[::2], sentences[1::2])]
    taus = []
    while len(taus) < 6:
        f = seeded_formula(rng, rng.randint(2, 5), max_var=3)
        if fm.is_tautology(f, "brute"):
            taus.append(f)
    proofs += [fr.prove_tautology(f) for f in taus]
    b = cc.CircuitBuilder([("x", 8), ("y", 1), ("t", 1)])
    QS = ps.AdviceSystem(b.build([b.AND(b.inp("x", 4), b.AND(b.inp("y", 1), b.inp("t", 1)))]),
                         {8: "1"}, c=2)
    proofs.append(ps.simulate(QS, "1", ("const", 1), "1").proof)
    return proofs


def test_parse_proof_reads_printed_text_without_printing(monkeypatch):
    """The printer's text of every line is read by comparing texts the reader
    holds: once the schemes' patterns are printed (the first read), reading
    the corpus again calls fm._text zero times, and gives the proofs and
    the reference reader's result."""
    proofs = _printed_corpus()
    texts = [fr.serialize_proof(p) for p in proofs]
    for text in texts:
        fr.parse_proof(text)
    calls, text_of = [], fm._text

    def counted(f, memo):
        calls.append(f)
        return text_of(f, memo)

    monkeypatch.setattr(fm, "_text", counted)
    for proof, text in zip(proofs, texts):
        back = fr.parse_proof(text)
        assert back == proof == _reference_parse_proof(text)
    assert calls == []


@pytest.mark.parametrize("name", sorted(fr.AXIOM_SCHEMES))
def test_axiom_patterns_are_the_printers_spelling(name):
    """For every root tag of each metavariable's value, the unbound one too,
    the scheme's pattern filled with the values' texts is fm.to_text of the
    instance, on seeded values."""
    rng = random.Random(name)
    ms = fr._METAVARS[name]

    def rooted(tag):
        while True:
            f = seeded_formula(rng, rng.randint(1, 6), 3)
            if f[0] == tag:
                return f

    for tags in itertools.product(("or", "and", "not", "var", "const", None), repeat=len(ms)):
        for _ in range(3):
            sigma = {m: rooted(tag) for m, tag in zip(ms, tags) if tag is not None}
            pattern = fr._axiom_pattern(name, *tags)
            filled = pattern.format(*[fm.to_text(sigma[m]) if m in sigma else "" for m in ms])
            assert filled == fm.to_text(fr._INSTANCE[name](sigma)), (tags, sigma)


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
