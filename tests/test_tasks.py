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
    inst = find_instance()
    assert inst.promise_checked
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
    inst = tk.FindInstance(fr.FREGE, fm.parse("x1 | ~x1"), 8, 2, 2)
    with pytest.raises(fm.BudgetError):
        tk.verify_find_candidate(inst, ("const", 1), "sound")


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
        tk.PairInstance("1111", "1000", pair.triple, pair.C, pair.c)  # intersect
    with pytest.raises(tk.TaskError):
        tk.PairInstance("000", "111", pair.triple, pair.C, pair.c)


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
    env = tk.parse_envelope(text)
    assert env.task == "find"
    assert env.params == {"k": "8", "c1": "1"}
    assert env.files[0][:2] == ("alpha", "alpha.txt")
    assert env.files[0][2] == tk.sha256_hex("x1 | ~x1")


def test_envelope_rejects_malformed():
    with pytest.raises(tk.TaskError):
        tk.parse_envelope("param k 8\n")
    with pytest.raises(tk.TaskError):
        tk.parse_envelope("envelope find\nbogus line here and more\n")


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
                assert tk.verify_err(inst, x) is not tri.has_witness(int(L[v]), x, w)


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
            pair = tk.PairInstance(A, B, tri, C, tri.c)
            for v in range(4):
                u = format(v, "02b")
                if A[v] == "0" and B[v] == "0":
                    expected = False
                else:
                    expected = not tri.has_witness(int(B[v]), format(3 - v, "02b"), "1011")
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


def test_reduction_rejects_a_y_slot_above_the_limit():
    with pytest.raises(tk.TaskError, match="8\\^9"):
        tk.reduce_find_to_cert(tk.FindInstance(fr.FREGE, fm.parse("1"), 8, 2, 9))
