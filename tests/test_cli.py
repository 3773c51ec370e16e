import argparse
import hashlib
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nwtaut
from nwtaut import circuits as cc
from nwtaut import designs as dg
from nwtaut import formulas as fm
from nwtaut import frege as fr
from nwtaut import cli
from nwtaut.cli import EXIT_ERROR, EXIT_NONE, EXIT_SOLUTION, EXIT_UNKNOWN, MODES, REQUIRED, main


def run(*argv):
    return main(list(argv))


def tiny_checker_text(k=8):
    b = cc.CircuitBuilder([("x", k), ("y", 1), ("t", 1)])
    out = b.AND(b.inp("x", 4), b.AND(b.inp("y", 1), b.inp("t", 1)))
    return cc.serialize(b.build([out]))


def em_proof_text():
    b = fr.ProofBuilder()
    b.axiom("EM", {1: fm.Var(1)})
    return fr.serialize_proof(b.proof())


# ---------------------------------------------------------------------------
# design

def test_design_poly_writes_file_and_manifest(tmp_path, capsys):
    out = str(tmp_path / "d.design")
    assert run("design", "--poly", "--q", "3", "--d", "2", "--out", out) == EXIT_SOLUTION
    params = dg.parse_design(Path(out).read_text())
    assert (params.n, params.m) == (9, 9)
    manifest = Path(out + ".manifest").read_text()
    assert manifest.startswith("manifest\ncommand design\n")
    assert "output d.design" in manifest
    assert run("design", "--verify", out) == EXIT_SOLUTION
    assert "ok" in capsys.readouterr().out


def test_design_requires_a_mode(capsys):
    assert run("design") == EXIT_ERROR


def test_design_bad_params():
    assert run("design", "--poly", "--q", "6") == EXIT_ERROR


def test_design_canonical_writes_parameter_record(tmp_path, capsys):
    # m = 2^16 blocks of 16 do not fit into [4096]: the file is the header alone
    out = str(tmp_path / "c.design")
    assert run("design", "--canonical", "--n", "4096", "--out", out) == EXIT_SOLUTION
    assert Path(out).read_text() == "design 4096 65536 16 16 canonical\n"
    assert "verified" not in capsys.readouterr().out
    params = dg.parse_design(Path(out).read_text())
    assert (params.m, params.blocks) == (2**16, None)
    # the largest d the preset allows: m = 2^8192 has 2,467 digits
    assert run("design", "--canonical", "--n", str(2**39), "--out", out) == EXIT_SOLUTION
    assert dg.parse_design(Path(out).read_text()).m == 2**8192


def test_design_canonical_names_an_oversized_d(capsys):
    argv = ["design", "--canonical", "--n", "281474976710656", "--delta", "1/3"]
    assert run(*argv) == EXIT_ERROR
    assert "d=65536 exceeds the limit 8192" in capsys.readouterr().err


def test_design_verify_checks_a_parameter_record(tmp_path, capsys):
    out = str(tmp_path / "c.design")
    assert run("design", "--canonical", "--n", "4096", "--out", out) == EXIT_SOLUTION
    capsys.readouterr()
    assert run("design", "--verify", out) == EXIT_SOLUTION
    assert capsys.readouterr().out == (
        "design n=4096 m=65536 l=16 d=16: header ok, no blocks to scan\n"
    )
    bad = tmp_path / "bad.design"
    for header, relation in [("4096 16 15 4", "l^3 = n"), ("4096 65535 16 16", "m = 2^d")]:
        bad.write_text(f"design {header} canonical\n")
        assert run("design", "--verify", str(bad)) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and relation in err


@pytest.mark.parametrize("header, relation", [
    ("27 8 4 3", "l^3 = n"), ("27 9 3 3", "m = 2^d"),
])
def test_design_readers_reject_a_bad_canonical_header_alike(tmp_path, capsys, header, relation):
    """gen-tau --design and solve --design read a canonical record through
    the check design --verify makes, and fail with its one-line message."""
    bad = tmp_path / "bad.design"
    bad.write_text(f"design {header} canonical\n")
    errs = []
    for argv in (["design", "--verify", str(bad)],
                 ["gen-tau", "--design", str(bad), "--base", "parity", "--b", "000",
                  "--outdir", str(tmp_path / "t")],
                 ["solve", "--task", "err", "--design", str(bad), "--base", "parity",
                  "--seed", "000", "--w", "000"]):
        assert run(*argv) == EXIT_ERROR
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == errs[2]
    assert errs[0].startswith("error: canonical record fails ") and errs[0].count("\n") == 1
    assert relation in errs[0]


@pytest.mark.parametrize("text, msg", [
    ("design 4 4 1 1 explicit\ndesign 9 9 3 2 poly\npoly 3 2\n", "line 2: second design header"),
    ("design 9 9 3 2 poly\npoly 3 2\npoly 3 2\n", "line 3: second poly line"),
    ("design 9 9 3 2 poly\npoly 3 2\nblock 1 2 3\n", "line 3: block line in a poly design"),
    ("design 9 9 3 2 poly\nblock 1 2 3\npoly 3 2\n",
     "line 3: poly line in a design with block lines"),
    ("design 27 8 3 3 canonical\npoly 3 2\n", "line 2: poly line in a design tagged 'canonical'"),
    ("design 4 2 2 1 foo\nblock 1 2\nblock 3 4\n", "line 1: unknown design tag 'foo'"),
], ids=["second-header", "second-poly", "block-after-poly", "poly-after-block",
        "poly-under-canonical", "unknown-tag"])
def test_design_reader_refuses_a_repeated_singleton(tmp_path, capsys, text, msg):
    """A design file has one header with a known tag and either one poly line
    (tag poly) or block lines; the reader names the line that breaks this,
    as the other readers do."""
    path = tmp_path / "twice.design"
    path.write_text(text)
    assert run("design", "--verify", str(path)) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {msg}\n"


# ---------------------------------------------------------------------------
# gen-tau

def test_gen_tau_explicit_b(tmp_path, capsys):
    outdir = str(tmp_path / "taus")
    rc = run(
        "gen-tau", "--q", "3", "--d", "2", "--base", "parity",
        "--b", "111111111,000000000", "--verdict", "--outdir", outdir,
    )
    assert rc == EXIT_SOLUTION
    files = sorted(os.listdir(outdir))
    assert "tau_111111111.cnf" in files and "gen-tau.manifest" in files
    out = capsys.readouterr().out
    assert "b=000000000" in out and "tautologies" in out
    # the all-zero string is in the range (zero seed), so it is falsifiable
    assert "b=000000000: falsifiable (SAT)" in out


@pytest.mark.parametrize("table", ["0110101x", "0110101\u0661"])
def test_gen_tau_refuses_a_table_that_is_not_bits(table, capsys):
    rc = run("gen-tau", "--q", "3", "--d", "2", "--base", "tabular", "--table", table,
             "--b", "000000000")
    assert rc == EXIT_ERROR
    assert capsys.readouterr().err == "error: table must be 8 bits of 0 and 1\n"


def test_gen_tau_bad_later_b_writes_nothing(tmp_path):
    outdir = tmp_path / "t2"
    outdir.mkdir()
    rc = run(
        "gen-tau", "--q", "3", "--d", "2", "--base", "parity",
        "--b", "000000000,20000000x", "--outdir", str(outdir),
    )
    assert rc == EXIT_ERROR
    assert os.listdir(outdir) == []


def test_gen_tau_names_a_long_b_by_its_digest(tmp_path):
    """At q=7, d=3, tau_<b>.cnf.tmp would take 355 bytes, over NAME_MAX."""
    b = "1" * 343
    rc = run("gen-tau", "--q", "7", "--d", "3", "--base", "parity", "--b", b,
             "--outdir", str(tmp_path))
    assert rc == EXIT_SOLUTION
    name = f"tau_sha256_{hashlib.sha256(b.encode()).hexdigest()}.cnf"
    assert sorted(os.listdir(tmp_path)) == ["gen-tau.manifest", name]
    assert f"\nc b={b}\n" in (tmp_path / name).read_text()
    manifest = (tmp_path / "gen-tau.manifest").read_text()
    assert f" --b {b} " in manifest and f"\noutput {name} " in manifest


def test_gen_tau_needs_b_or_sweep(tmp_path):
    assert run("gen-tau", "--outdir", str(tmp_path)) == EXIT_ERROR


# ---------------------------------------------------------------------------
# check-proof

def test_check_proof_accepts_and_rejects(tmp_path):
    path = str(tmp_path / "em.proof")
    with open(path, "w") as fh:
        fh.write(em_proof_text())
    assert run("check-proof", "--tau", "x1 | ~x1", "--proof", path) == EXIT_SOLUTION
    assert run("check-proof", "--tau", "x1 | x2", "--proof", path) == EXIT_ERROR
    assert run(
        "check-proof", "--tau", "x1 | ~x1", "--proof", path, "--alpha", "1"
    ) == EXIT_SOLUTION


def test_check_proof_names_a_malformed_line(tmp_path, capsys):
    """A line that is not well formed (sigma key 0 names no variable) is
    refused as it is read, not sized: the error names the file's line."""
    path = tmp_path / "k0.proof"
    path.write_text("proof\n1 1 ; axiom T1 [0:=x1]\n")
    assert run("check-proof", "--tau", "1", "--proof", str(path)) == EXIT_ERROR
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: line 2: bad substitution '[0:=x1'\n"


def test_check_proof_quotes_mp_premises_as_the_text_numbers_lines(tmp_path, capsys):
    path = tmp_path / "fwd.proof"
    path.write_text("proof\n1 1 ; axiom T1\n2 1 ; mp 5 1\n")
    assert run("check-proof", "--tau", "1", "--proof", str(path)) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "mp 5 1" in err and "('mp', 4, 0)" not in err


def test_check_proof_refuses_a_forward_reference_as_it_is_read(tmp_path, capsys):
    path = tmp_path / "fwd.proof"
    path.write_text("proof\n1 1 ; axiom T1\n2 1 ; mp 3 1\n")
    assert cli.main(["check-proof", "--tau", "1", "--proof", str(path)]) == EXIT_ERROR
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: line 2: malformed justification mp 3 1\n"


# the README's hand-spelled dn.proof, a fuzz source: line 2, the mp premise
# of line 3, has extra parentheses and its sigma value spaces, so the reader
# parses line 2 and the mp line after it
HAND_SPELLED = (
    "proof\n1 x1 | ~x1 ; axiom EM [1:=x1]\n"
    "2 ~((x1 | ~x1)) | ~~(x1 | ~x1) ; axiom N4 [1:= x1 | ~x1 ]\n3 ~~(x1 | ~x1) ; mp 1 2\n"
)


def test_check_proof_survives_mutated_proofs(tmp_path, capsys):
    """A fixed-seed fuzz of the proof reader behind check-proof: mutants of a
    printed and a hand-spelled proof (deletions, insertions, splices and
    non-ASCII digits) exit 0, 2, 3 or 4 without an escaping exception, write
    at most one stderr line and never pass on int()'s "invalid literal"."""
    sources = [
        (fr.serialize_proof(fr.prove_tautology(fm.parse("x1 | ~x1"))), "x1 | ~x1"),
        (HAND_SPELLED, "~~(x1 | ~x1)"),
    ]
    alphabet = "0123456789x~|&() ;[]:=\n#aimpyhNTEM²٣ "
    rng = random.Random(2028)
    path = tmp_path / "mutant.proof"
    codes = set()
    for _ in range(400):
        text, tau = rng.choice(sources)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            edit = rng.randrange(4)
            if edit == 0:
                text = text[:i] + text[i + rng.randint(1, 8):]
            elif edit == 1:
                text = text[:i] + rng.choice(alphabet) + text[i:]
            elif edit == 2:
                j = rng.randrange(len(text) + 1)
                text = text[:i] + text[j:j + rng.randint(1, 24)] + text[i:]
            else:
                text = text[:i] + rng.choice("²٣১１") + text[i + 1:]
        path.write_text(text, encoding="utf-8")
        code = run("check-proof", "--tau", tau, "--proof", str(path))
        err = capsys.readouterr().err
        assert code in (EXIT_SOLUTION, EXIT_ERROR, EXIT_NONE, EXIT_UNKNOWN), text
        assert err.count("\n") <= 1 and "invalid literal" not in err, (text, err)
        codes.add(code)
    assert codes == {EXIT_SOLUTION, EXIT_ERROR}


def test_check_proof_missing_file(tmp_path):
    assert run("check-proof", "--tau", "1", "--proof", str(tmp_path / "no")) == EXIT_ERROR


@pytest.mark.parametrize("depth", [600, 10**4])
def test_check_proof_accepts_deeply_parenthesized_line(tmp_path, capsys, depth):
    path = tmp_path / "deep.proof"
    path.write_text("proof\n1 " + "(" * depth + "1" + ")" * depth + " ; axiom T1\n")
    assert run("check-proof", "--tau", "1", "--proof", str(path)) == EXIT_SOLUTION
    assert "ACCEPTED" in capsys.readouterr().out


def test_check_proof_unclosed_deep_line_is_one_error(tmp_path, capsys):
    path = tmp_path / "deep.proof"
    path.write_text("proof\n1 " + "(" * 10**5 + "1 ; axiom T1\n")
    assert run("check-proof", "--tau", "1", "--proof", str(path)) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: expected ')'") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# simulate

def test_simulate_checker_pipeline(tmp_path, capsys):
    checker = str(tmp_path / "q.circ")
    with open(checker, "w") as fh:
        fh.write(tiny_checker_text())
    out = str(tmp_path / "phi.proof")
    rc = run(
        "simulate", "--phi", "1", "--checker", checker,
        "--w", "1", "--y", "1", "--out", out,
    )
    assert rc == EXIT_SOLUTION
    stdout = capsys.readouterr().out
    assert "stage total" in stdout and "P+alpha proof written" in stdout
    proof = fr.parse_proof(Path(out).read_text())
    assert len(proof) > 0
    assert os.path.exists(out + ".manifest")


def test_simulate_empty_advice(tmp_path):
    kernel = str(tmp_path / "em.proof")
    with open(kernel, "w") as fh:
        fh.write(em_proof_text())
    out = str(tmp_path / "out.proof")
    rc = run(
        "simulate", "--phi", "x1 | ~x1",
        "--proof", kernel, "--out", out,
    )
    assert rc == EXIT_SOLUTION
    assert fr.parse_proof(Path(out).read_text()).conclusion == fm.parse("x1 | ~x1")


def test_simulate_rejected_proof(tmp_path):
    checker = str(tmp_path / "q.circ")
    with open(checker, "w") as fh:
        fh.write(tiny_checker_text())
    rc = run(
        "simulate", "--phi", "1", "--checker", checker,
        "--w", "1", "--y", "0", "--out", str(tmp_path / "x"),
    )
    assert rc == EXIT_ERROR


# ---------------------------------------------------------------------------
# solve

def reject_all_circuit_text(k=8):
    b = cc.CircuitBuilder([("x", k), ("y", 1)])
    out = b.AND(b.inp("y", 1), b.NOT(b.inp("y", 1)))
    return cc.serialize(b.build([out]))


def test_solve_cert_solution_and_exit_code(tmp_path, capsys):
    circ = str(tmp_path / "d.circ")
    with open(circ, "w") as fh:
        fh.write(reject_all_circuit_text())
    out = str(tmp_path / "sol.txt")
    rc = run("solve", "--task", "cert", "--circuit", circ, "--out", out)
    assert rc == EXIT_SOLUTION
    text = Path(out).read_text()
    assert "kind tautology-rejected" in text and "code 11110000" in text
    assert os.path.exists(out + ".manifest")


def test_solve_cert_budget_exit_code(tmp_path):
    circ = str(tmp_path / "d.circ")
    with open(circ, "w") as fh:
        fh.write(reject_all_circuit_text(16))
    rc = run("solve", "--task", "cert", "--k", "16", "--circuit", circ)
    assert rc == EXIT_UNKNOWN


def write_four_block_design(tmp_path):
    params = dg.explicit_design([[1, 2], [2, 3], [1, 3], [1, 4]], 4, 2)
    path = str(tmp_path / "fb.design")
    with open(path, "w") as fh:
        fh.write(dg.serialize_design(params))
    return path


def test_solve_err_true_seed_none(tmp_path, capsys):
    design = write_four_block_design(tmp_path)
    rc = run(
        "solve", "--task", "err", "--design", design,
        "--seed", "1010", "--w", "1010",
    )
    assert rc == EXIT_NONE
    assert "verdict none" in capsys.readouterr().out


def test_solve_err_and_pair_agree_on_wrong_advice(tmp_path, capsys):
    design = write_four_block_design(tmp_path)
    rc = run(
        "solve", "--task", "err", "--design", design,
        "--seed", "1010", "--w", "1101",
    )
    assert rc == EXIT_SOLUTION
    err_out = capsys.readouterr().out
    rc = run(
        "solve", "--task", "pair", "--design", design,
        "--seed", "1010", "--w", "1101",
    )
    assert rc == EXIT_SOLUTION
    pair_out = capsys.readouterr().out
    get = lambda s: next(l.split()[1] for l in s.splitlines() if l.startswith("index"))
    assert get(err_out) == get(pair_out)


@pytest.mark.parametrize("task", ["err", "pair"])
def test_solve_refuses_advice_that_is_not_bits(tmp_path, capsys, task):
    """pair's passthrough circuit would read the x as 0 and name an index."""
    design = write_four_block_design(tmp_path)
    rc = run("solve", "--task", task, "--design", design, "--seed", "1010", "--w", "101x")
    assert rc == EXIT_ERROR
    out = capsys.readouterr()
    assert out.err == "error: advice w must be a string of 0 and 1\n"
    assert "index" not in out.out


def test_solve_find_verify(capsys):
    rc = run(
        "solve", "--task", "find-verify", "--alpha", "x1 | ~x1",
        "--beta", "1", "--mode", "sound",
    )
    assert rc == EXIT_SOLUTION
    rc = run(
        "solve", "--task", "find-verify", "--alpha", "x1 | ~x1",
        "--beta", "0", "--mode", "sound",
    )
    assert rc == EXIT_NONE


def test_find_promise_is_checked_for_every_alpha(capsys):
    """alpha must be a tautology however many variables it has: a conjunction
    of 21 variables is refused as one of 20 is."""
    for n in (20, 21):
        alpha = " & ".join(f"x{i}" for i in range(1, n + 1))
        rc = run("solve", "--task", "find-verify", "--alpha", alpha, "--beta", "x1 | ~x1",
                 "--k", "30", "--c0", "2", "--c1", "1")
        assert rc == EXIT_ERROR, n
        assert capsys.readouterr().err == "error: alpha is not a tautology\n"


def test_find_above_the_brute_force_limit(capsys):
    """A 25-variable alpha that is no tautology: the promise is decided by
    DPLL, not brute force (the README runs an accepted one)."""
    disjuncts = " | ".join(f"x{i}" for i in range(2, 26))
    assert run("reduce", "--alpha", f"x1 | {disjuncts}", "--k", "8", "--c0", "4") == EXIT_ERROR
    assert capsys.readouterr().err == "error: alpha is not a tautology\n"


def test_solve_find_verify_at_a_huge_k_builds_no_code():
    """k = 10^9 under a 1.5 GB address-space limit: a size gate that built
    the k-bit code would end in a MemoryError."""
    limit = 1_500_000 * 1024
    src = str(Path(nwtaut.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from nwtaut.cli import main; sys.exit(main(sys.argv[1:]))",
         "solve", "--task", "find-verify", "--k", "1000000000", "--alpha", "x1 | ~x1",
         "--beta", "1", "--mode", "heuristic", "--c0", "1", "--c1", "1"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stdout) == (EXIT_NONE, "candidate: unverified\n"), proc.stderr

# ---------------------------------------------------------------------------
# inputs that must end in exit 2 with a one-line message, not a traceback

# an option that the mode does not read, a table outside the tabular base,
# an empty --w and a missing option, each named on the one error line
NAMED_ERRORS = {
    ("design", "--verify", "{q3d2}", "--out", "{tmp}/o.design"):
        "design: --out not read with --verify",
    ("solve", "--task", "find-verify", "--alpha", "x1|~x1", "--beta", "1", "--out", "{tmp}/fv"):
        "solve: --out not read with --task find-verify",
    ("gen-tau", "--b", "000000000", "--sweep", "--outdir", "{tmp}/t"):
        "gen-tau: --sweep not read with --b",
    ("design", "--poly", "--canonical"): "design: --canonical not read with --poly",
    ("design", "--poly", "--n", "64", "--delta", "1/2"):
        "design: --n, --delta not read with --poly",
    ("gen-tau", "--design", "{q3d2}", "--q", "5", "--d", "3", "--b", "000000000",
     "--outdir", "{tmp}/t"): "gen-tau: --q, --d not read with --design and --b",
    ("gen-tau", "--base", "parity", "--table", "0110", "--b", "000000000", "--outdir", "{tmp}/t"):
        "parity base takes no truth table",
    ("solve", "--task", "err", "--design", "{design}", "--base", "toy-owp", "--table", "0110",
     "--seed", "1010", "--w", "10"): "toy-owp base takes no truth table",
    ("solve", "--task", "find-verify", "--alpha", "x1|~x1", "--beta", "1", "--seed", "01",
     "--design", "{tmp}/nofile"): "solve: --design, --seed not read with --task find-verify",
    ("simulate", "--phi", "1", "--w", "", "--checker", "{checker}", "--proof", "{one}",
     "--out", "{tmp}/o"): "simulate: --checker, --w not read with empty advice",
    ("simulate", "--phi", "1", "--w", "", "--checker", "{checker}", "--y", "1", "--out", "{tmp}/o"):
        "simulate: --w is empty; empty advice leaves --w out",
    ("gen-tau", "--design", "{q3d2}", "--outdir", "{tmp}/t"): "gen-tau: missing --b or --sweep",
    ("solve",): "solve: missing --task, --circuit",
    # an empty --out, refused before anything is written
    ("design", "--poly", "--out", ""): "design: --out is empty",
    ("reduce", "--alpha", "x1|~x1", "--out", ""): "reduce: --out is empty",
    ("simulate", "--phi", "1", "--proof", "{one}", "--out", ""): "simulate: --out is empty",
    ("solve", "--task", "cert", "--circuit", "{checker}", "--out", ""): "solve: --out is empty",
    ("gen-tau", "--b", "000000000", "--outdir", ""): "gen-tau: --outdir is empty",
    # a failed rename, which removes the temp file
    ("design", "--poly", "--out", "{tmp}/dir"):
        "[Errno 21] Is a directory: '{tmp}/dir.tmp' -> '{tmp}/dir'",
}


@pytest.mark.parametrize("argv", [
    ["simulate", "--phi", "1", "--out", "{tmp}/o"],
    ["simulate", "--phi", "1", "--checker", "{no_x}", "--w", "1", "--y", "1", "--out", "{tmp}/o"],
    ["solve", "--task", "cert"],
    ["solve", "--task", "err", "--design", "{design}", "--w", "1010"],
    ["solve", "--task", "pair", "--design", "{design}", "--seed", "1010"],
    ["solve", "--task", "err", "--design", "{design}", "--seed", "01", "--w", "1010"],
    ["solve", "--task", "find-verify", "--beta", "1"],
    ["solve", "--task", "find-verify", "--alpha", "1"],
    ["check-proof", "--tau", "1", "--proof", "{deep}"],
    ["solve", "--task", "err", "--design", "{design}", "--seed", "10x0", "--w", "1010"],
    ["solve", "--task", "err", "--design", "{design}", "--seed", "1010", "--w", "10x0"],
    ["gen-tau", "--q", "3", "--d", "2", "--base", "parity", "--b", "200000000",
     "--verdict", "--outdir", "{tmp}/t"],
    ["reduce", "--alpha", "1", "--k", "2"],
    ["design", "--canonical", "--n", "-8"],
    ["design", "--canonical", "--n", "27", "--delta", "1/0"],
    ["reduce", "--alpha", "x1|~x1", "--k", "8", "--c1", "-1"],
    ["solve", "--task", "find-verify", "--alpha", "x1|~x1", "--beta", "1", "--c1", "-1"],
    ["design", "--canonical", "--n", str(10**400)],
    ["design", "--canonical", "--n", "27", "--delta", "1/1000000000000"],
    ["design", "--canonical", "--n", str(10**30), "--delta", "1/3"],
    ["reduce", "--alpha", "1", "--k", "8", "--c1", "9"],
    ["reduce", "--alpha", "x1000000000 | ~x1000000000", "--k", "100", "--c0", "4"],
    # no --w is empty advice, which needs --proof whatever --checker says
    ["simulate", "--phi", "1", "--checker", "{no_x}", "--out", "{tmp}/o"],
    # each advice mode refuses the options only the other one reads
    ["simulate", "--phi", "1", "--checker", "{checker}", "--proof", "{one}", "--c", "3",
     "--out", "{tmp}/o"],
    ["simulate", "--phi", "1", "--checker", "{checker}", "--w", "1", "--y", "1",
     "--proof", "{one}", "--out", "{tmp}/o"],
    ["design"],
    ["gen-tau", "--outdir", "{tmp}/t"],
    ["gen-tau", "--q", "5", "--d", "2", "--sweep", "--outdir", "{tmp}/t"],
    ["solve", "--task", "err", "--design", "{q3d2}", "--seed", "000000000", "--w", "000"],
    ["gen-tau", "--design", "{header_only}", "--b", "00000000", "--outdir", "{tmp}/t"],
    *map(list, NAMED_ERRORS),
])
def test_bad_input_exits_with_one_line_error(tmp_path, capsys, monkeypatch, argv):
    """Exit 2 with one error line, and no temp file left, in the output's
    directory or the working one."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    deep = tmp_path / "deep.proof"
    deep.write_text("proof\n1 " + "(" * 10**5 + "1 ; axiom T1\n")
    one = tmp_path / "one.proof"
    one.write_text("proof\n1 1 ; axiom T1\n")
    no_x = tmp_path / "no_x.circ"
    b = cc.CircuitBuilder([("z", 8), ("y", 1), ("t", 1)])
    no_x.write_text(cc.serialize(b.build([b.AND(b.inp("y", 1), b.inp("t", 1))])))
    checker = tmp_path / "q.circ"
    checker.write_text(tiny_checker_text())
    q3d2 = tmp_path / "q3d2.design"
    q3d2.write_text(dg.serialize_design(dg.poly_design(3, 2)))
    header_only = tmp_path / "header.design"
    header_only.write_text("design 27 8 3 3 canonical\n")
    fields = {"tmp": tmp_path, "design": write_four_block_design(tmp_path),
              "deep": deep, "one": one, "no_x": no_x, "checker": checker, "q3d2": q3d2,
              "header_only": header_only}
    assert run(*(a.format(**fields) for a in argv)) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if tuple(argv) in NAMED_ERRORS:
        assert err == f"error: {NAMED_ERRORS[tuple(argv)].format(**fields)}\n"
    assert not list(tmp_path.rglob("*.tmp"))


def subcommands() -> dict[str, argparse.ArgumentParser]:
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_the_modes_name_every_option_of_the_parser():
    commands = subcommands()
    assert set(commands) == set(MODES)
    for command, parser in commands.items():
        options = {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}
        assert options == {name for row in MODES[command].values() for name in row}, command


def help_entries(text: str) -> dict[str, str]:
    """Each option of an argparse help text, by its first option string,
    with its metavar and help, whitespace removed (the help wraps lines,
    and may break a line after a hyphen)."""
    entries: dict[str, str] = {}
    for line in text.splitlines():
        start = re.match(r"  (-[-\w]+)", line)
        if start:
            option = start.group(1)
            entries[option] = ""
        elif not line.startswith("   ") or not entries:
            continue
        entries[option] += "".join(line.split())
    return entries


@pytest.mark.parametrize("command", MODES)
def test_help_names_each_option_and_the_modes_that_read_it(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run(command, "--help")
    assert exc.value.code == 0
    entries = help_entries(capsys.readouterr().out)
    modes = MODES[command]
    for name in {name for row in modes.values() for name in row}:
        readers = [label for label, row in modes.items() if name in row]
        entry = entries["--" + name]
        if len(readers) < len(modes):
            named = [label for label in modes if "".join(label.split()) in entry]
            assert named == readers, (name, entry)
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0 and capsys.readouterr().out == nwtaut.__version__ + "\n"


def required(row) -> list[str]:
    return [name for name, v in row.items() if v is REQUIRED]


def unread_option_cases():
    """(command, mode, option) for each option that the mode does not read,
    unless another mode reads that option and the first mode's required ones
    and requires no more."""
    for command, modes in MODES.items():
        options = dict.fromkeys(name for row in modes.values() for name in row)
        for label, row in modes.items():
            for option in (name for name in options if name not in row):
                given = {*required(row), option}
                if not any(set(required(r)) <= given <= set(r) for r in modes.values()):
                    yield pytest.param(command, label, option, id=f"{command}-{label}-{option}")


@pytest.mark.parametrize("command, label, option", unread_option_cases())
def test_each_mode_refuses_an_option_that_it_does_not_read(tmp_path, monkeypatch, capsys,
                                                           command, label, option):
    """The mode's required options and one option that it does not read,
    each with a value that parses: one error line names that option, and
    no file is read or written."""
    def no_read(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(cli, "_read", no_read)
    monkeypatch.chdir(tmp_path)
    actions = {a.dest: a for a in subcommands()[command]._actions}
    argv = [command]
    for name in [*required(MODES[command][label]), option]:
        action = actions[name]
        argv.append(action.option_strings[0])
        if name == "task":
            argv.append(label.removeprefix("with --task "))
        elif action.nargs != 0:
            argv.append(action.choices[0] if action.choices else "1")
    assert run(*argv) == EXIT_ERROR, argv
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}: ") and err.count("\n") == 1, err
    assert actions[option].option_strings[0] in re.findall(r"--[\w-]+", err), err
    assert not any(tmp_path.iterdir())


def test_large_exponents_form_no_power(tmp_path, capsys):
    # k^c with c = 10^9 does not fit in memory; no path may compute it
    proof = tmp_path / "one.proof"
    proof.write_text("proof\n1 1 ; axiom T1\n")
    outs = []
    for c in ("3", "1000000000"):
        out = tmp_path / f"c{c}.proof"
        argv = ["simulate", "--phi", "1", "--proof", str(proof), "--c", c]
        assert run(*argv, "--out", str(out)) == EXIT_SOLUTION
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    capsys.readouterr()
    rc = run("solve", "--task", "find-verify", "--alpha", "x1|~x1", "--beta", "1",
             "--c1", "1000000000")
    assert rc == EXIT_UNKNOWN
    assert capsys.readouterr().err.count("\n") == 1
    assert run("reduce", "--alpha", "x1 | ~x1", "--k", "8", "--c0", "1000000000") == EXIT_SOLUTION


def test_alpha_fitting_is_decided_per_index_width(capsys):
    # x1000000000 first fits a code at about 5 * 10^8 bits: 100^5 allows it,
    # 100^4 does not
    alpha = "x1000000000 | ~x1000000000"
    t0 = time.perf_counter()
    assert run("reduce", "--alpha", alpha, "--k", "100", "--c0", "5") == EXIT_SOLUTION
    assert time.perf_counter() - t0 < 1
    assert run("reduce", "--alpha", alpha, "--k", "100", "--c0", "4") == EXIT_ERROR
    assert "alpha does not fit" in capsys.readouterr().err


def xy_circuit_text():
    b = cc.CircuitBuilder([("x", 8), ("y", 1)])
    g = b.OR(b.inp("x", 1), b.inp("y", 1))
    return cc.serialize(b.build([b.AND(g, b.NOT(b.inp("x", 8)))]))


@pytest.mark.parametrize("text, argv", [
    (dg.serialize_design(dg.poly_design(3, 2)), ["design", "--verify", "{file}"]),
    (dg.serialize_design(dg.explicit_design([[1, 2], [2, 3], [1, 3], [1, 4]], 4, 2)),
     ["design", "--verify", "{file}"]),
    (xy_circuit_text(), ["solve", "--task", "cert", "--circuit", "{file}"]),
], ids=["poly-design", "explicit-design", "xy-circuit"])
def test_truncated_input_lines_end_in_an_exit_code(tmp_path, text, argv):
    """Every line of a valid file, cut after each of its tokens in turn."""
    lines = text.splitlines()
    path = tmp_path / "input"
    for i, line in enumerate(lines):
        toks = line.split()
        for n in range(len(toks) - 1, -1, -1):
            path.write_text("\n".join(lines[:i] + [" ".join(toks[:n])] + lines[i + 1:]) + "\n")
            rc = run(*(a.format(file=path) for a in argv))
            assert rc in (EXIT_SOLUTION, EXIT_ERROR, EXIT_NONE, EXIT_UNKNOWN), (i, n)


@pytest.mark.parametrize("text, argv, msg", [
    ("circuit\ngroup x \u00b2\noutput x:1\n", ["solve", "--task", "cert", "--circuit", "{file}"],
     "line 2: bad group width '\u00b2'"),
    ("circuit\ngroup x -1\noutput x:1\n", ["solve", "--task", "cert", "--circuit", "{file}"],
     "line 2: bad group width '-1'"),
    ("design 9 9 3 2 poly\npoly 3 x\n", ["design", "--verify", "{file}"], "line 2: bad number 'x'"),
    ("design 9 9 three 2 poly\npoly 3 2\n", ["design", "--verify", "{file}"],
     "line 1: bad number 'three'"),
    ("design 4 2 2 1 explicit\nblock 1 2\nblock 1 a\n", ["design", "--verify", "{file}"],
     "line 3: bad number 'a'"),
], ids=["width-superscript", "width-negative", "poly-q-d", "design-header", "block"])
def test_bad_numbers_in_input_files_name_their_line(tmp_path, capsys, text, argv, msg):
    path = tmp_path / "input"
    path.write_text(text)
    assert run(*(a.format(file=path) for a in argv)) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {msg}\n"


@pytest.mark.parametrize("text, argv, msg", [
    ("proof\n1 1 ; axiom T1 [1:=x1] [1:=x2]\n", ["check-proof", "--tau", "1", "--proof", "{file}"],
     "line 2: variable 1 substituted twice"),
    ("circuit\ngroup x 1\noutput x:1\noutput x:1\n",
     ["solve", "--task", "cert", "--k", "1", "--circuit", "{file}"], "line 4: second output line"),
], ids=["sigma", "output"])
def test_a_repeated_singleton_in_an_input_file_names_its_line(tmp_path, capsys, text, argv, msg):
    path = tmp_path / "input"
    path.write_text(text)
    assert run(*(a.format(file=path) for a in argv)) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {msg}\n"


def test_deeply_nested_formula_is_one_named_error(tmp_path, capsys):
    proof = tmp_path / "one.proof"
    proof.write_text("proof\n1 1 ; axiom T1\n")
    assert run("check-proof", "--tau", "~" * 3000 + "1", "--proof", str(proof)) == EXIT_ERROR
    assert capsys.readouterr().err == "error: the input formula is nested too deeply\n"


# ---------------------------------------------------------------------------
# reduce

def test_reduce_writes_envelope(tmp_path, capsys):
    out = str(tmp_path / "cert.envelope")
    rc = run("reduce", "--alpha", "x1 | ~x1", "--out", out)
    assert rc == EXIT_SOLUTION
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "envelope cert"
    assert "param y-width 8" in lines
    assert lines[-1] == "file alpha alpha.txt " + hashlib.sha256(b"x1 | ~x1").hexdigest()


# ---------------------------------------------------------------------------
# manifest reproducibility

def test_manifest_output_hashes_reproduce(tmp_path):
    argv = ["design", "--poly", "--q", "5", "--d", "3"]
    out1, out2 = str(tmp_path / "a.design"), str(tmp_path / "b.design")
    assert run(*argv, "--out", out1) == EXIT_SOLUTION
    assert run(*argv, "--out", out2) == EXIT_SOLUTION

    def hashes(path):
        return [
            line.split()[2]
            for line in Path(path + ".manifest").read_text().splitlines()
            if line.startswith(("input ", "output "))
        ]

    assert hashes(out1) == hashes(out2)
    assert Path(out1).read_text() == Path(out2).read_text()


def test_manifest_records_argv_and_params(tmp_path):
    out = str(tmp_path / "c.design")
    run("design", "--poly", "--q", "3", "--d", "2", "--out", out)
    lines = Path(out + ".manifest").read_text().splitlines()
    assert any(l.startswith("argv design --poly") for l in lines)
    assert "param tag poly" in lines
    assert any(l.startswith("wallclock ") for l in lines)
