import hashlib
import random

import pytest

from nwtaut import circuits as cc
from nwtaut import designs as dg
from nwtaut import formulas as fm
from nwtaut import frege as fr
from nwtaut import nwcore as nw
from nwtaut import tasks as tk


def const_decider(k, bit):
    """D(x, y) that ignores its inputs and outputs the given constant."""
    b = cc.CircuitBuilder([("x", k), ("y", 1)])
    out = b.const(1) if bit else b.AND(b.inp("y", 1), b.NOT(b.inp("y", 1)))
    return b.build([out])


def taut_oracle_instance(k=8):
    """The honest decider: an opaque block answering the tautology question."""
    b = cc.CircuitBuilder([("x", k), ("y", 1)])
    out = b.opaque("taut", [b.inp("x", i + 1) for i in range(k)])
    D = b.build([out])

    def oracle(bits):
        phi = fm.decode_k("".join(str(v) for v in bits))
        return phi is not None and fm.is_tautology(phi, mode="auto")

    return tk.CertInstance(k, 2, D, oracles={"taut": oracle})


def four_block_spec():
    design = dg.explicit_design([[1, 2], [2, 3], [1, 3], [1, 4]], 4, 2)
    return nw.GeneratorSpec(design, nw.builtin_base("parity", 2))


def has_witness(tri, a, x, w):
    """Whether F_a(x, ., w) accepts some witness, by sweeping every y."""
    yw = dict(tri.f0.groups)["y"]
    return any(tri.accepts(a, x, format(v, f"0{yw}b") if yw else "", w) for v in range(1 << yw))


def err_instance(seed="1010", w=None):
    spec = four_block_spec()
    tri = nw.err_triple(spec)
    L, wits = nw.ttable_from_seed(spec, seed)
    return tk.ErrInstance(tri, 2, L, seed, wits, w if w is not None else seed)


# ---------------------------------------------------------------------------
# Cert

def test_cert_instance_validates_shape():
    b = cc.CircuitBuilder([("x", 7), ("y", 1)])
    D = b.build([b.inp("y", 1)])
    with pytest.raises(tk.TaskError):
        tk.CertInstance(8, 2, D)
    with pytest.raises(tk.TaskError):
        tk.CertSolution("frobnicated", "11110000")


def test_cert_reject_all_decider():
    inst = tk.CertInstance(8, 2, const_decider(8, 0))
    sol = tk.solve_cert(inst)
    # the constant-1 code is a tautology the decider wrongly rejects
    assert sol == tk.CertSolution("tautology-rejected", "11110000")
    assert tk.verify_cert(inst, sol) is True


def test_cert_accept_all_decider():
    inst = tk.CertInstance(8, 2, const_decider(8, 1))
    sol = tk.solve_cert(inst)
    # the constant-0 code is falsifiable yet accepted
    assert sol == tk.CertSolution("falsifiable-accepted", "11100000")
    assert tk.verify_cert(inst, sol) is True
    # cross-checks: wrong kind, wrong code, non-code
    assert tk.verify_cert(inst, tk.CertSolution("tautology-rejected", "11110000")) is False
    assert tk.verify_cert(inst, tk.CertSolution("falsifiable-accepted", "00000000")) is False


def test_cert_honest_oracle_has_no_solution():
    inst = taut_oracle_instance()
    assert tk.solve_cert(inst) is None


def random_decider(rng, k, decodable):
    """An explicit D(x, y) with a 2-bit y: a random OR of ANDs of literals,
    or one that accepts exactly the tautology codes except for a few random
    decodable codes whose verdict it flips."""
    b = cc.CircuitBuilder([("x", k), ("y", 2)])
    xs = [b.inp("x", i + 1) for i in range(k)]
    if rng.random() < 0.5:
        wires = xs + [b.inp("y", 1), b.inp("y", 2)]
        terms = [b.and_list([w if rng.random() < 0.5 else b.NOT(w)
                             for w in rng.sample(wires, rng.randint(1, 4))])
                 for _ in range(rng.randint(1, 4))]
        return b.build([b.or_list(terms)])
    taut = {s for s in decodable if fm.is_tautology(fm.decode_k(s), "brute")}
    accepted = taut ^ set(rng.sample(decodable, rng.randint(0, 2)))
    out = b.or_list([b.equals_const(xs, s) for s in sorted(accepted)] + [b.const(0)])
    return b.build([out])


def test_solve_cert_agrees_with_a_sweep_of_all_strings():
    rng = random.Random(5)
    seen = set()
    for k in range(8, 14):
        strings = [format(v, f"0{k}b") for v in range(1 << k)]
        decodable = [s for s in strings if fm.decode_k(s) is not None]
        for _ in range(8):
            inst = tk.CertInstance(k, 2, random_decider(rng, k, decodable))
            expected = None
            for s in decodable:
                accepted = any(cc.eval_circuit(inst.D, {"x": s, "y": y}) == "1"
                               for y in ("00", "01", "10", "11"))
                if accepted != fm.is_tautology(fm.decode_k(s), "brute"):
                    kind = "falsifiable-accepted" if accepted else "tautology-rejected"
                    expected = tk.CertSolution(kind, s)
                    break
            assert tk.solve_cert(inst) == expected
            seen.add(expected and (expected.kind, expected.code[:4]))
    # the deciders are honest, accept a falsifiable code or reject a
    # tautology, with the least witness among the leaves or under a connective
    assert None in seen and {kind for kind, _ in seen - {None}} == {
        "falsifiable-accepted", "tautology-rejected"}
    assert {head for _, head in seen - {None}} > {"1110", "1111"}


def test_cert_budget_guards():
    with pytest.raises(fm.BudgetError):
        tk.solve_cert(tk.CertInstance(16, 2, const_decider(16, 0)))
    # opaque enumeration over 30 free y bits exceeds the verification budget
    b = cc.CircuitBuilder([("x", 8), ("y", 30)])
    out = b.opaque("f", [b.inp("y", i + 1) for i in range(30)])
    inst = tk.CertInstance(8, 2, b.build([out]), oracles={"f": lambda t: False})
    got = tk.verify_cert(inst, tk.CertSolution("tautology-rejected", "11110000"))
    assert got is tk.UNKNOWN


# ---------------------------------------------------------------------------
# Find

def find_instance():
    return tk.FindInstance(fr.FREGE, fm.parse("x1 | ~x1"), 8, 2, 1)


def test_find_instance_promise():
    find_instance()
    with pytest.raises(tk.TaskError):
        tk.FindInstance(fr.FREGE, fm.parse("x1 | x2"), 8, 2, 1)
    with pytest.raises(tk.TaskError):
        tk.FindInstance(fr.FREGE, fm.parse("1"), 2, 2, 1)


def test_find_sound_verification():
    inst = find_instance()
    # 8 bits of proof text can spell no proof at all, so any size-8
    # tautology code is a sound answer; only the constant 1 qualifies
    assert tk.verify_find_candidate(inst, ("const", 1), "sound") == "accepted"
    assert tk.verify_find_candidate(inst, ("const", 0), "sound") == "rejected"
    assert tk.verify_find_candidate(inst, fm.parse("x1 | ~x1"), "sound") == "rejected"


def test_find_heuristic_and_modes():
    inst = find_instance()
    assert tk.verify_find_candidate(inst, ("const", 1), "heuristic") == "unverified"
    assert tk.verify_find_candidate(inst, ("const", 0), "heuristic") == "rejected"
    with pytest.raises(tk.TaskError):
        tk.verify_find_candidate(inst, ("const", 1), "frob")


def test_find_sound_budget_guard():
    inst = tk.FindInstance(fr.FREGE, fm.parse("x1 | ~x1"), 8, 2, 3)
    with pytest.raises(fm.BudgetError):
        tk.verify_find_candidate(inst, ("const", 1), "sound")


@pytest.mark.parametrize("k, c1, decided", [(12, 2, True), (13, 2, False)])
def test_find_sound_mode_is_decided_up_to_the_proof_text_floor(k, c1, decided):
    # 12^2 = 144 bits admits no proof text; 13^2 = 169 bits admits
    # "proof\n1 1;axiom T1"
    inst = tk.FindInstance(fr.FREGE, fm.parse("x1 | ~x1"), k, 2, c1)
    if decided:
        assert tk.verify_find_candidate(inst, ("const", 1), "sound") == "accepted"
    else:
        with pytest.raises(fm.BudgetError, match="144-bit floor"):
            tk.verify_find_candidate(inst, ("const", 1), "sound")



def test_find_size_gate_builds_no_code():
    # a k-bit code at k = 10^10 would take 10 GB
    inst = tk.FindInstance(fr.FREGE, fm.parse("x1 | ~x1"), 10**10, 1, 1)
    assert tk.verify_find_candidate(inst, ("const", 1), "heuristic") == "unverified"
    # index width 34: x_(2^34) fits, x_(2^34 + 1) does not
    for i, verdict in ((2**34, "unverified"), (2**34 + 1, "rejected")):
        beta = fm.Or(fm.Var(i), fm.Not(fm.Var(i)))
        assert tk.verify_find_candidate(inst, beta, "heuristic") == verdict


def test_find_size_gate_agrees_with_encode_k():
    inst_k = {k: tk.FindInstance(fr.FREGE, fm.parse("1"), k, 1, 1) for k in range(8, 41)}
    for text in ["1", "~0", "x1 | ~x1", "x2 | ~x2", "x3 | ~x3", "~(x1 & ~x1)", "0 | 1"]:
        beta = fm.parse(text)
        for k, inst in inst_k.items():
            fits = fm.encode_k(beta, k) is not None and fm.is_tautology(beta)
            want = "unverified" if fits else "rejected"
            assert tk.verify_find_candidate(inst, beta, "heuristic") == want, (text, k)

def test_reduce_find_to_cert_round_trip():
    inst = find_instance()
    cert = tk.reduce_find_to_cert(inst)
    assert cert.k == 8 and cert.y_width == 8
    sol = tk.solve_cert(cert)
    assert sol == tk.CertSolution("tautology-rejected", "11110000")
    assert tk.verify_cert(cert, sol) is True
    # the Cert solution is exactly a sound Find answer
    beta = fm.decode_k(sol.code)
    assert tk.verify_find_candidate(inst, beta, "sound") == "accepted"


def test_reduction_oracle_soundness_sweep():
    """The reduction's decider accepts (x, y) exactly when y spells a proof;
    with an 8-bit y slot that never happens, for any x."""
    cert = tk.reduce_find_to_cert(find_instance())
    oracle = cert.oracles["provable"]
    code = [int(ch) for ch in "11110000"]
    for v in range(256):
        y = [(v >> (7 - j)) & 1 for j in range(8)]
        assert not oracle(tuple(code + y))


# ---------------------------------------------------------------------------
# Err

def test_err_instance_validation():
    spec = four_block_spec()
    tri = nw.err_triple(spec)
    L, wits = nw.ttable_from_seed(spec, "1010")
    with pytest.raises(tk.TaskError):
        tk.ErrInstance(tri, 2, L + "0", "1010", wits, "1010")
    with pytest.raises(tk.TaskError):
        tk.ErrInstance(tri, 2, L, "1010", wits, "101")
    flipped = ("1" if L[0] == "0" else "0") + L[1:]
    with pytest.raises(tk.TaskError):
        tk.ErrInstance(tri, 2, flipped, "1010", wits, "1010")


@pytest.mark.parametrize("w", ["101x", "10\u0661\u0660", "1 10"])
def test_err_instance_refuses_advice_that_is_not_bits(w):
    """The passthrough circuit would read a junk character of w as 0."""
    spec = four_block_spec()
    L, wits = nw.ttable_from_seed(spec, "1010")
    with pytest.raises(tk.TaskError, match="^advice w must be a string of 0 and 1$"):
        tk.ErrInstance(nw.err_triple(spec), 2, L, "1010", wits, w)


def test_err_instance_rejects_a_non_binary_table():
    tri = nw.err_triple(four_block_spec())
    _, wits = nw.ttable_from_seed(four_block_spec(), "1010")
    with pytest.raises(tk.TaskError, match="truth table L"):
        tk.ErrInstance(tri, 2, "1x01", "1010", wits, "1010")


def test_err_true_seed_has_no_error():
    inst = err_instance()
    assert tk.solve_err(inst) is None
    for v in range(4):
        assert tk.verify_err(inst, format(v, "02b")) is False


def test_err_wrong_advice_is_caught():
    inst = err_instance(seed="1010", w="1101")
    spec = four_block_spec()
    truth = nw.nw_eval(spec, "1010")
    wrong = nw.nw_eval(spec, "1101")
    assert truth != wrong  # otherwise the advice would be equivalent
    x = tk.solve_err(inst)
    assert x is not None
    # the solver's answer is the least disagreeing index
    expected = min(i for i in range(4) if truth[i] != wrong[i])
    assert x == format(expected, "02b")
    assert tk.verify_err(inst, x) is True


def test_err_rejects_bad_index():
    inst = err_instance()
    with pytest.raises(tk.TaskError):
        tk.verify_err(inst, "012")


# ---------------------------------------------------------------------------
# Pair

def test_pair_instance_validation():
    inst = err_instance()
    pair = tk.pair_from_err(inst)
    with pytest.raises(tk.TaskError):
        tk.PairInstance("1111", "1000", pair.triple, pair.C)  # intersect
    with pytest.raises(tk.TaskError):
        tk.PairInstance("000", "111", pair.triple, pair.C)
    for A, B in (("1x0?", "0000"), ("0000", "01 0")):
        with pytest.raises(tk.TaskError, match="strings of 0 and 1"):
            tk.PairInstance(A, B, pair.triple, pair.C)


def test_pair_from_err_consistency_true_seed():
    inst = err_instance()
    pair = tk.pair_from_err(inst)
    assert tk.solve_pair(pair) is None


def test_pair_from_err_consistency_wrong_advice():
    inst = err_instance(seed="1010", w="1101")
    pair = tk.pair_from_err(inst)
    assert tk.solve_pair(pair) == tk.solve_err(inst)
    u = tk.solve_pair(pair)
    assert tk.verify_pair(pair, u) is True
    # indices outside A and B can never be counterexamples
    assert all(
        tk.verify_pair(pair, format(v, "02b")) in (True, False) for v in range(4)
    )


def test_passthrough_circuit_is_identity_plus_advice():
    C = tk.passthrough_circuit(2, "10")
    assert cc.eval_circuit(C, {"u": "01"}) == "0110"
    assert cc.eval_circuit(C, {"u": "11"}) == "1110"


# ---------------------------------------------------------------------------
# envelopes

def test_envelope_round_trip():
    text = tk.envelope_text(
        "find", {"k": "8", "c1": "1"},
        [("alpha", "alpha.txt", "x1 | ~x1"), ("out", "cert.circ", "circuit\n")],
    )
    # params in order, then each file's role, name and content hash
    alpha, circ = (hashlib.sha256(t).hexdigest() for t in (b"x1 | ~x1", b"circuit\n"))
    assert text == ("envelope find\nparam k 8\nparam c1 1\n"
                    f"file alpha alpha.txt {alpha}\nfile out cert.circ {circ}\n")


# ---------------------------------------------------------------------------
# the shared rules against brute force

@pytest.mark.parametrize("make", [
    lambda: tk.CertInstance(8, 2, const_decider(8, 0)),
    lambda: tk.CertInstance(8, 2, const_decider(8, 1)),
    taut_oracle_instance,
])
def test_verify_cert_matches_brute_force(make):
    inst = make()
    yw = inst.y_width
    for v in range(256):
        code = format(v, "08b")
        phi = fm.decode_k(code)
        accepted = any(
            cc.eval_circuit(inst.D, {"x": code, "y": format(y, f"0{yw}b")}, inst.oracles) == "1"
            for y in range(1 << yw)
        )
        for kind in ("falsifiable-accepted", "tautology-rejected"):
            if phi is None:
                expected = False
            elif fm.is_tautology(phi, "brute"):
                expected = kind == "tautology-rejected" and not accepted
            else:
                expected = kind == "falsifiable-accepted" and accepted
            assert tk.verify_cert(inst, tk.CertSolution(kind, code)) is expected, (code, kind)


def test_verify_err_matches_has_witness():
    spec = four_block_spec()
    tri = nw.err_triple(spec)
    for s in range(16):
        seed = format(s, "04b")
        L, wits = nw.ttable_from_seed(spec, seed)
        for w in (format(v, "04b") for v in range(16)):
            inst = tk.ErrInstance(tri, 2, L, seed, wits, w)
            for v in range(4):
                x = format(v, "02b")
                assert tk.verify_err(inst, x) is not has_witness(tri, int(L[v]), x, w)


def test_verify_pair_matches_has_witness_off_the_passthrough():
    spec = four_block_spec()
    tri = nw.err_triple(spec)
    # C(u) = (complement of u, fixed advice 1011)
    b = cc.CircuitBuilder([("u", 2)])
    one = b.const(1)
    zero = b.NOT(one)
    C = b.build([b.NOT(b.inp("u", 1)), b.NOT(b.inp("u", 2)), one, zero, one, one])
    for s in range(16):
        L, _ = nw.ttable_from_seed(spec, format(s, "04b"))
        A = "".join("1" if ch == "0" else "0" for ch in L)
        for B in (L, "0000"):
            pair = tk.PairInstance(A, B, tri, C)
            for v in range(4):
                u = format(v, "02b")
                if A[v] == "0" and B[v] == "0":
                    expected = False
                else:
                    expected = not has_witness(tri, int(B[v]), format(3 - v, "02b"), "1011")
                assert tk.verify_pair(pair, u) is expected


@pytest.mark.parametrize("k, c1, accepted", [(12, 2, False), (152, 1, True)])
def test_reduction_oracle_reads_proofs_of_fewer_than_k_c1_bits(k, c1, accepted):
    proof = b"proof\n1 1;axiom T1"
    assert 8 * len(proof) == 144  # exactly 12^2 bits, fewer than 152
    cert = tk.reduce_find_to_cert(tk.FindInstance(fr.FREGE, fm.parse("x1 | ~x1"), k, 2, c1))
    y = [int(bit) for byte in proof for bit in format(byte, "08b")]
    y += [0] * (cert.y_width - len(y))
    code = [int(ch) for ch in fm.encode_k(fm.parse("1"), k)]
    assert cert.oracles["provable"](tuple(code + y)) == accepted


def test_reduction_oracle_rejects_a_deep_proof_text():
    # a 3,630-byte text whose formulas nest 1,201 deep: comparing them
    # recurses past the interpreter's limit, which the oracle reads as False
    cert = tk.reduce_find_to_cert(tk.FindInstance(fr.FREGE, fm.parse("x1 | ~x1"), 8, 2, 5))
    d = "~" * 1200 + "1"
    text = f"proof\n1 ~({d})|{d};axiom ID [1:={d}]".encode()
    assert len(text) == 3630 and cert.y_width == 32768
    y = "".join(format(byte, "08b") for byte in text)
    y += "0" * (cert.y_width - len(y))
    code = fm.encode_k(fm.parse("1"), 8)
    assert cc.eval_circuit(cert.D, {"x": code, "y": y}, cert.oracles) == "0"


def test_reduction_rejects_a_y_slot_above_the_limit():
    with pytest.raises(tk.TaskError, match="8\\^9"):
        tk.reduce_find_to_cert(tk.FindInstance(fr.FREGE, fm.parse("1"), 8, 2, 9))
