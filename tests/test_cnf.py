import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from nwtaut.cnf import ClauseSet, CnfError, check_rup, dpll_solve, parse_dimacs


def brute_models(cs: ClauseSet):
    out = []
    for m in range(1 << cs.nvars):
        a = {v: (m >> (v - 1)) & 1 for v in range(1, cs.nvars + 1)}
        if all(any(a[abs(l)] == (1 if l > 0 else 0) for l in cl) for cl in cs.clauses):
            out.append(a)
    return out


def clause_sets(max_vars=5, max_clauses=8):
    def build(data):
        nvars, cls = data
        return ClauseSet([list(c) for c in cls], nvars)

    return st.integers(1, max_vars).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(
                    st.integers(1, n).flatmap(
                        lambda v: st.sampled_from([v, -v])
                    ),
                    min_size=1, max_size=4, unique_by=abs,
                ),
                max_size=max_clauses,
            ),
        ).map(build)
    )


@given(clause_sets())
def test_dpll_agrees_with_brute_force(cs):
    models = brute_models(cs)
    got = dpll_solve(cs)
    if not models:
        assert got is None
    else:
        # lexicographically least: compare as bit strings v1..vn
        least = min(models, key=lambda a: [a[v] for v in sorted(a)])
        assert got == least


@given(clause_sets(), st.data())
def test_dpll_least_model_over_order_and_fixing(cs, data):
    order = data.draw(st.permutations(range(1, cs.nvars + 1)))
    fixed = data.draw(st.dictionaries(st.integers(1, cs.nvars), st.integers(0, 1)))
    models = [
        a for a in brute_models(cs) if all(a[v] == val for v, val in fixed.items())
    ]
    got = dpll_solve(cs, fixed=fixed, decision_order=order)
    if not models:
        assert got is None
    else:
        assert got == min(models, key=lambda a: [a[v] for v in order])


@given(clause_sets(), st.data())
def test_dpll_partial_order_is_completed_by_index(cs, data):
    perm = data.draw(st.permutations(range(1, cs.nvars + 1)))
    order = perm[:data.draw(st.integers(0, cs.nvars))]
    full = order + [v for v in range(1, cs.nvars + 1) if v not in order]
    models = brute_models(cs)
    got = dpll_solve(cs, decision_order=order)
    if not models:
        assert got is None
    else:
        assert got == min(models, key=lambda a: [a[v] for v in full])


def test_dpll_learning_agrees_with_brute_force():
    """Random 3-CNFs near the threshold (12-14 variables, 4.3 clauses per
    variable) make the solver learn and backjump, which the small
    hypothesis instances rarely do.  Models must still be the least over a
    random full order under random fixings, refutations must check, and the
    input clauses must be left as they were (sat_search hands the solver the
    clause set a circuit keeps for all its searches)."""
    rng = random.Random(12)
    learned = 0
    for _ in range(30):
        n = rng.randint(12, 14)
        clauses = [
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
            for _ in range(round(4.3 * n))
        ]
        cs = ClauseSet([list(c) for c in clauses], n)  # clauses stays the original
        order = rng.sample(range(1, n + 1), n)
        fixed = {v: rng.randint(0, 1) for v in rng.sample(range(1, n + 1), rng.randint(0, 2))}
        models = [
            a for a in brute_models(cs) if all(a[v] == bit for v, bit in fixed.items())
        ]
        lemmas: list[list[int]] = []
        got = dpll_solve(cs, fixed=fixed, decision_order=order, lemmas=lemmas)
        assert cs.clauses == tuple(map(tuple, clauses)) and cs.nvars == n
        learned += any(lemmas)
        if models:
            assert got == min(models, key=lambda a: [a[v] for v in order])
        else:
            assert got is None and check_rup(cs, lemmas, fixed)
    assert learned >= 20


def random_3cnf(rng, n, ratio=4.3):
    return [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
        for _ in range(round(ratio * n))
    ]


def solve_logged(cs, **kwargs):
    lemmas: list[list[int]] = []
    return dpll_solve(cs, lemmas=lemmas, **kwargs), lemmas


def test_kept_index_gives_each_solve_the_answer_of_a_fresh_set():
    """One clause set solved again and again, under random fixings and
    decision orders (full, partial or default), answers each call with the
    model and lemma log of a fresh copy solved once.  The 3-CNFs are near
    the threshold, so calls learn, and a lemma that leaked from one call's
    search into the kept index would change a later call's log or, under
    other fixings, its model.  The digest pins the answers themselves, so
    the order in which propagation visits input and learned clauses, which
    decides the lemmas, cannot change unnoticed."""
    rng = random.Random(22)
    learned = refuted = 0
    digest = hashlib.sha256()
    for _ in range(16):
        n = rng.randint(20, 30)
        clauses = random_3cnf(rng, n, rng.choice((4.0, 4.3, 4.6)))
        clauses += [[rng.choice((1, -1)) * rng.randint(1, n)] for _ in range(rng.randint(0, 1))]
        kept = ClauseSet([list(c) for c in clauses], n)
        for _ in range(6):
            fixed = {v: rng.randint(0, 1) for v in rng.sample(range(1, n + 1), rng.randint(0, 3))}
            order = rng.choice((None, rng.sample(range(1, n + 1), n), rng.sample(range(1, n + 1), n // 2)))
            got = solve_logged(kept, fixed=fixed, decision_order=order)
            fresh = ClauseSet([list(c) for c in clauses], n)
            assert got == solve_logged(fresh, fixed=fixed, decision_order=order)
            digest.update(repr(got).encode())
            learned += len(got[1]) > 1
            refuted += got[0] is None and len(got[1]) > 1
        assert kept.clauses == tuple(map(tuple, clauses))
    assert learned >= 40 and refuted >= 10
    assert digest.hexdigest() == "ec0e94200b7bebbb8d453b7afabbe7fbc26c602918da99d5569db048229b7af2"


def test_repeated_refutation_logs_the_same_lemmas():
    rng = random.Random(5)
    logs = []
    while len(logs) < 5:
        cs = ClauseSet(random_3cnf(rng, 14, 5.0), 14)
        first = solve_logged(cs)
        if first[0] is None and len(first[1]) > 3:
            assert solve_logged(cs) == solve_logged(cs) == first
            assert check_rup(cs, first[1])
            logs.append(first[1])


def test_clauses_appended_after_a_solve_are_seen():
    """A set grown from a solved one, by clauses or by variables, is built
    anew: its solves see the growth, and the solved set still answers for
    its own clauses."""
    cs = ClauseSet([[1, 2], [-1, 2]], 2)
    assert dpll_solve(cs) == {1: 0, 2: 1}
    assert solve_logged(ClauseSet((*cs.clauses, (-2,)), 2)) == (None, [[]])
    assert dpll_solve(cs) == {1: 0, 2: 1}
    assert solve_logged(ClauseSet((*cs.clauses, ()), 2)) == (None, [[]])
    assert dpll_solve(dataclasses.replace(cs, nvars=5)) == {1: 0, 2: 1, 3: 0, 4: 0, 5: 0}
    assert dpll_solve(cs) == {1: 0, 2: 1}
    # random sets: blocking each model found moves the next solve on to the
    # next least model, as a fresh copy of the grown set finds it
    rng = random.Random(9)
    for _ in range(8):
        n = rng.randint(8, 12)
        cs = ClauseSet(random_3cnf(rng, n, 3.8), n)
        model = dpll_solve(cs)
        while model is not None:
            cs = ClauseSet((*cs.clauses, [-v if model[v] else v for v in range(1, n + 1)]), n)
            got = solve_logged(cs)
            assert got == solve_logged(ClauseSet([list(c) for c in cs.clauses], n))
            assert got[0] != model
            model = got[0]


def test_kept_index_is_outside_eq_and_repr():
    clauses = random_3cnf(random.Random(3), 10)
    solved = ClauseSet([list(c) for c in clauses], 10, ["solved"])
    twin = ClauseSet([list(c) for c in clauses], 10, ["solved"])
    dpll_solve(solved, lemmas=[])
    assert solved == twin and repr(solved) == repr(twin)
    assert solved.to_dimacs() == twin.to_dimacs()


def test_a_solved_set_cannot_be_edited():
    """The kept index needs no check that the clauses it indexed are still
    the set's: no clause, no clause tuple and no field can be replaced."""
    for clauses, edit, answer in [([[1], [2]], [-1], {1: 1, 2: 1}), ([[1], [-1]], [2], None)]:
        cs = ClauseSet(clauses, 2)
        assert dpll_solve(cs) == answer
        with pytest.raises(TypeError):
            cs.clauses[1] = edit
        with pytest.raises(TypeError):
            cs.clauses[1][0] = edit[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            cs.clauses = ((1,), tuple(edit))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cs.nvars = 3
        assert dpll_solve(cs) == answer == dpll_solve(ClauseSet(clauses, 2))
        assert hash(cs) == hash(ClauseSet(clauses, 2))


def test_clause_set_keeps_clause_tuples_and_converts_lists():
    given = ((1, -2), (2,), ())
    cs = ClauseSet(given, 2, ("c",))
    assert all(kept is clause for kept, clause in zip(cs.clauses, given, strict=True))
    assert cs.comments == ("c",)
    listed = ClauseSet([[1, -2], [2], []], 2, ["c"])
    assert listed == cs and listed.clauses == given and listed.comments == ("c",)


@pytest.mark.parametrize("nvars", ["2", 1.5, None, True, -1])
def test_clause_set_refuses_a_bad_nvars_when_built(nvars):
    """Before, the solver and checker raised a bare TypeError on these,
    True was solved as nvars=1, and to_dimacs wrote "p cnf 1.5 1"."""
    with pytest.raises(CnfError, match=f"^nvars {nvars!r} is not a nonnegative integer$"):
        ClauseSet([[1]], nvars)


@pytest.mark.parametrize("clauses, nvars, message", [
    ([[3]], 1, "clause 0: literal 3 exceeds nvars=1"),
    ([[-4, 2], [-2]], 3, "clause 0: literal -4 exceeds nvars=3"),
    ([[1, "2"]], 2, "clause 0: literal '2' is not an integer"),
    # the solver once answered these: a literal 0 or one in nvars+1..2*nvars
    # read another literal's value, and True read as the literal 1
    ([[2]], 1, "clause 0: literal 2 exceeds nvars=1"),
    ([[0]], 1, "clause 0: zero literal"),
    ([[True]], 1, "clause 0: literal True is not an integer"),
    ([[1, -3], [-1], [-2]], 2, "clause 0: literal -3 exceeds nvars=2"),
])
def test_solver_raises_the_validate_error_for_a_set_it_cannot_search(clauses, nvars, message):
    """A set the solver cannot search is refused when it is built, by an
    error that names the clause, so no solve or RUP check reads it."""
    with pytest.raises(CnfError) as e:
        ClauseSet(clauses, nvars)
    assert str(e.value) == message


def test_check_rup_refuses_a_set_that_validate_refuses():
    """With x3 declared, x3 = 0 satisfies the set, so no log may certify it
    unsatisfiable while x3 is out of range: the set is refused when built,
    before check_rup could read it."""
    clauses = [[1, -3], [-1], [-2]]
    with pytest.raises(CnfError) as e:
        ClauseSet(clauses, 2)
    assert str(e.value) == "clause 0: literal -3 exceeds nvars=2"
    cs = ClauseSet(clauses, 3)
    assert dpll_solve(cs) == {1: 0, 2: 0, 3: 0}
    assert not check_rup(cs, [[]])


def test_check_rup_rejects_what_unit_propagation_does_not_imply():
    cs = ClauseSet([[1, 2], [1, -2], [-1, 3], [-1, -3]], 3)
    lemmas: list[list[int]] = []
    assert dpll_solve(cs, lemmas=lemmas) is None
    assert lemmas[-1] == [] and check_rup(cs, lemmas)
    assert not check_rup(cs, [])
    assert not check_rup(cs, [[]])
    assert not check_rup(cs, lemmas[:-1])
    assert check_rup(cs, [[1], []])
    # a unit lemma and an empty one stay in force for the lemmas after them
    assert check_rup(cs, [[1], [3], [-2, 3], []])
    assert check_rup(cs, [[1], [], [-1], []])
    assert not check_rup(cs, [[4], [1], []])
    # [1] follows from [1, 2] and [1, -2], but the clauses are satisfiable,
    # so no log ends in an implied empty clause; the fixing 1 = 0 refutes them
    sat = ClauseSet([[1, 2], [1, -2]], 2)
    assert not check_rup(sat, [[1], []])
    assert check_rup(sat, [[]], fixed={1: 0})


@pytest.mark.parametrize("function, kwargs, outcome", [
    (dpll_solve, {"decision_order": [1.0]}, "decision order entry 1.0 is not an integer"),
    (dpll_solve, {"decision_order": ["1"]}, "decision order entry '1' is not an integer"),
    (dpll_solve, {"fixed": {"1": 1}}, "fixed variable '1' is not an integer"),
    (dpll_solve, {"fixed": {1.0: 1}}, "fixed variable 1.0 is not an integer"),
    (check_rup, {"lemmas": [[]], "fixed": {"1": 1}}, "fixed variable '1' is not an integer"),
    (check_rup, {"lemmas": [["1"], []]}, False),
    (check_rup, {"lemmas": [[1.0], []]}, False),
    (check_rup, {"lemmas": [5, []]}, False),
    (check_rup, {"lemmas": [[True], []]}, False),
    (dpll_solve, {"decision_order": [2, "x"]}, "decision order entry 'x' is not an integer"),
    (dpll_solve, {"fixed": {1: 0, "x": 1}}, "fixed variable 'x' is not an integer"),
], ids=["order-float", "order-str", "fixed-str", "fixed-float", "rup-fixed-str",
        "lemma-str", "lemma-float", "lemma-int", "lemma-bool", "order-str-after-an-int",
        "fixed-str-after-an-int"])
def test_arguments_that_are_not_integers_raise_cnf_error_or_fail_the_check(
    function, kwargs, outcome
):
    """A fixed variable or decision order entry that is not an int raises
    CnfError naming it; a lemma that is not a sequence of ints fails the
    check.  The check_rup set is refuted by [[1], []], so a lemma read as
    the literal 1 would pass."""
    if function is dpll_solve:
        cs = ClauseSet([[1, 2], [-1]], 2)
    else:
        cs = ClauseSet([[1, 2], [1, -2], [-1, 2], [-1, -2]], 2)
        assert check_rup(cs, [[1], []])
    if outcome is False:
        assert function(cs, **kwargs) is False
    else:
        with pytest.raises(CnfError) as e:
            function(cs, **kwargs)
        assert str(e.value) == outcome


def test_a_bool_is_no_variable():
    """bool is an int subclass, but True names no variable, as it is no
    literal when a set is built."""
    with pytest.raises(CnfError, match=r"^fixed variable True is not an integer$"):
        dpll_solve(ClauseSet([[1, 2]], 2), fixed={True: 0})
    with pytest.raises(CnfError, match=r"^decision order entry True is not an integer$"):
        dpll_solve(ClauseSet([[1, 2]], 2), decision_order=[True, 2])
    with pytest.raises(CnfError, match=r"^fixed variable True is not an integer$"):
        check_rup(ClauseSet([[1]], 1), [[]], fixed={True: 0})


def test_dpll_partial_order_returns_models():
    assert dpll_solve(ClauseSet([[1], [-1]], 2), decision_order=[2]) is None
    assert dpll_solve(ClauseSet([[1, 2], [-1]], 2), decision_order=[]) == {1: 0, 2: 1}


def test_dpll_fixed_assumptions():
    cs = ClauseSet([[1, 2]], 2)
    assert dpll_solve(cs, fixed={1: 0}) == {1: 0, 2: 1}
    assert dpll_solve(cs, fixed={1: 0, 2: 0}) is None


def test_level0_units_are_propagated_before_the_first_decision():
    """Input unit clauses and fixings sit at level 0, so a conflict among
    their consequences is refuted by the empty clause alone."""
    cs = ClauseSet([[1], [-1, 2], [-2]], 2)
    lemmas: list[list[int]] = []
    assert dpll_solve(cs, lemmas=lemmas) is None
    assert lemmas == [[]] and check_rup(cs, lemmas)
    cs = ClauseSet([[1, 2], [-2, 1], [2]], 2)
    lemmas = []
    assert dpll_solve(cs, fixed={1: 0}, lemmas=lemmas) is None
    assert lemmas == [[]] and check_rup(cs, lemmas, fixed={1: 0})
    assert dpll_solve(cs, fixed={1: "1"}) == {1: 1, 2: 1}


@pytest.mark.parametrize("kwargs, message", [
    ({"decision_order": [3]}, "decision order entry 3 out of range"),
    ({"decision_order": [5]}, "decision order entry 5 out of range"),
    ({"decision_order": [0]}, "decision order entry 0 out of range"),
    ({"decision_order": [2, -1]}, "decision order entry -1 out of range"),
    ({"fixed": {1: "x"}}, "fixed variable 1: bit 'x' is not 0 or 1"),
    ({"fixed": {1: 2}}, "fixed variable 1: bit 2 is not 0 or 1"),
    ({"fixed": {2: "01"}}, "fixed variable 2: bit '01' is not 0 or 1"),
    ({"fixed": {3: 0}}, "fixed variable 3 out of range"),
])
def test_solver_and_checker_reject_bad_arguments(kwargs, message):
    cs = ClauseSet([[1, 2]], 2)
    with pytest.raises(CnfError) as e:
        dpll_solve(cs, **kwargs)
    assert str(e.value) == message
    if "fixed" in kwargs:
        with pytest.raises(CnfError) as e:
            check_rup(cs, [[]], **kwargs)
        assert str(e.value) == message


def test_dimacs_round_trip():
    cs = ClauseSet([[1, -2], [2, 3], [-1]], 3, comments=["meta x=1"])
    back = parse_dimacs(cs.to_dimacs())
    assert back.clauses == cs.clauses
    assert back.nvars == 3
    assert back.comments == ("meta x=1",)


def reference_dimacs(cs: ClauseSet) -> str:
    """The DIMACS text, clause by clause."""
    lines = [f"c {c}" for c in cs.comments] + [f"p cnf {cs.nvars} {len(cs.clauses)}"]
    lines += [" ".join(str(lit) for lit in clause) + " 0" for clause in cs.clauses]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("clauses", [
    [], [[]], [[], [1]], [[1], []], [[], []], [[1]], [[-1, 2], [], [-2, 1, 3]],
])
@pytest.mark.parametrize("comments", [[], ["tau", "b=101"]])
def test_dimacs_matches_the_clause_by_clause_text(clauses, comments):
    cs = ClauseSet(clauses, 3, comments)
    assert cs.to_dimacs() == reference_dimacs(cs)
    back = parse_dimacs(cs.to_dimacs())
    assert (back.clauses, back.comments) == (tuple(map(tuple, clauses)), tuple(comments))


def random_clauses(rng: random.Random) -> list[list[int]]:
    """A seeded clause list: widths 0-12 and literals up to +-10^7 (within
    a clause, distinct variables), with empty clauses first, in the middle
    and last."""
    clauses = []
    for _ in range(rng.randrange(1, 40)):
        width = rng.randrange(13)
        variables = rng.sample(range(1, 10**7 + 1), width)
        clauses.append([v if rng.getrandbits(1) else -v for v in variables])
    for at in (0, rng.randrange(len(clauses) + 1), len(clauses) + 1):
        clauses.insert(at, [])
    return clauses


def test_dimacs_matches_the_clause_by_clause_text_on_random_clause_sets():
    rng = random.Random(29)
    widths = set()
    for i in range(200):
        clauses = random_clauses(rng)
        widths.update(map(len, clauses))
        comments = [f"family {i}"] if i % 2 else []
        cs = ClauseSet(clauses, 10**7, comments)
        text = cs.to_dimacs()
        assert text == reference_dimacs(cs), i
        back = parse_dimacs(text)
        assert (back.clauses, back.comments) == (tuple(map(tuple, clauses)), tuple(comments)), i
    assert widths == set(range(13))
    assert ClauseSet([[9999999, -(10**7)]], 10**7).to_dimacs() == "p cnf 10000000 1\n9999999 -10000000 0\n"


def test_dimacs_rejects_malformed():
    with pytest.raises(CnfError):
        parse_dimacs("p cnf 2\n1 0\n")
    with pytest.raises(CnfError):
        parse_dimacs("1 -2 0\n")  # missing header


@pytest.mark.parametrize("text, message", [
    ("p cnf x 1\n1 0\n", "line 1: bad count in header 'p cnf x 1'"),
    ("c meta\np cnf 1 1\na 0\n", "line 3: bad literal 'a'"),
    ("p cnf 1 1\n1.0 0\n", "line 2: bad literal '1.0'"),
    ("p cnf 1 1\n+1 0\n", "line 2: bad literal '+1'"),
    ("p cnf 1 1\n\u0661 0\n", "line 2: bad literal '\u0661'"),  # Arabic-Indic one
    ("p cnf 1 1\n1 -0\n", "line 2: bad literal '-0'"),  # -0 does not end a clause
])
def test_dimacs_bad_numbers_name_their_line(text, message):
    with pytest.raises(CnfError) as e:
        parse_dimacs(text)
    assert str(e.value) == message


def test_dimacs_refuses_a_second_header():
    with pytest.raises(CnfError) as e:
        parse_dimacs("p cnf 1 1\np cnf 2 1\n1 0\n")
    assert str(e.value) == "line 2: second header 'p cnf 2 1'"


@pytest.mark.parametrize("call, message", [
    (lambda: parse_dimacs("p cnf 1 1\n1\n"), "unterminated clause at end of file"),
    (lambda: parse_dimacs("p cnf 1 2\n1 0\n"), "header declares 2 clauses, found 1"),
    (lambda: ClauseSet([[2, 1, -2]], 2), "clause 0: contains both -2 and 2"),
], ids=["unterminated-clause", "clause-count", "complementary-literals"])
def test_reader_and_validate_name_what_they_refuse(call, message):
    with pytest.raises(CnfError) as e:
        call()
    assert str(e.value) == message


@pytest.mark.parametrize("clauses, message", [
    ([[1.5]], "clause 0: literal 1.5 is not an integer"),
    ([[1], [True, -2]], "clause 1: literal True is not an integer"),
    ([[-2, "1"]], "clause 0: literal '1' is not an integer"),
    ([[1], [2], [None]], "clause 2: literal None is not an integer"),
])
def test_validate_rejects_literals_that_are_not_integers(clauses, message):
    """DIMACS would print 1.5 or True as is, and parse_dimacs refuses both."""
    with pytest.raises(CnfError) as e:
        ClauseSet(clauses, 2)
    assert str(e.value) == message


@pytest.mark.parametrize("comment", ["two\nlines", "end\r", "a\u2028b", "\x0c", "\x85x"])
def test_validate_rejects_a_comment_with_a_line_break(comment):
    """to_dimacs would write the comment's tail as a line of its own."""
    with pytest.raises(CnfError) as e:
        ClauseSet([[1]], 1, ["fine", comment])
    assert str(e.value) == "comment 1: contains a line break"


def test_validate_accepts_comments_on_one_line():
    cs = ClauseSet([[1]], 1, ["", "tau b=01 \t tabs"])
    assert parse_dimacs(cs.to_dimacs()).clauses == ((1,),)


def test_validate_rejects_out_of_range():
    with pytest.raises(CnfError):
        ClauseSet([[3]], 2)
    with pytest.raises(CnfError):
        ClauseSet([[0]], 2)


def test_join_checks_what_its_parts_do_not_guarantee():
    """join shares its parts' clause tuples, and refuses a part that is not
    a clause set or that has more variables than the join, bad comments and
    a bad nvars, as the constructor does."""
    a = ClauseSet([[1, -2], [2]], 2)
    b = ClauseSet([[-3], [3, 4]], 4)
    joined = ClauseSet.join([a, b], 5, ["joined"])
    assert joined == ClauseSet([*a.clauses, *b.clauses], 5, ["joined"])
    assert all(x is y for x, y in zip(joined.clauses, (*a.clauses, *b.clauses), strict=True))
    assert dpll_solve(joined) == {1: 1, 2: 1, 3: 0, 4: 1, 5: 0}
    assert ClauseSet.join([], 0) == ClauseSet([], 0)
    for args, message in [
        (([a, b], 3), "part 1: nvars=4 exceeds nvars=3"),
        (([a, [[1]]], 4), "part 1 is not a ClauseSet"),
        (([a], 2, ["two\nlines"]), "comment 0: contains a line break"),
        (([a], True), "nvars True is not a nonnegative integer"),
    ]:
        with pytest.raises(CnfError) as e:
            ClauseSet.join(*args)
        assert str(e.value) == message


NON_ASCII_DIGITS = "١٣１²১"  # Arabic-Indic, fullwidth, superscript, Bengali


def mutate(rng: random.Random, text: str, nvars: int) -> tuple[str, bool]:
    """One mutant of a DIMACS text, and whether it must be refused: it has
    a span deleted, characters inserted, a span copied elsewhere, a digit
    outside the comments made non-ASCII, or a clause literal moved into
    nvars+1..2*nvars."""
    kind = rng.randrange(5)
    at = rng.randrange(len(text))
    if kind == 0:
        return text[:at] + text[at + rng.randint(1, 8):], False
    if kind == 1:
        alphabet = "0123456789 -\n\tcp" + NON_ASCII_DIGITS
        return text[:at] + "".join(rng.choices(alphabet, k=rng.randint(1, 4))) + text[at:], False
    if kind == 2:
        start = rng.randrange(len(text))
        return text[:at] + text[start:start + rng.randint(1, 30)] + text[at:], False
    if kind == 3:
        # a digit of the header or a clause line; a comment may hold any
        header = text.index("\np ") + 1
        digits = [i for i, ch in enumerate(text) if ch.isdigit() and i > header]
        i = rng.choice(digits)
        return text[:i] + rng.choice(NON_ASCII_DIGITS) + text[i + 1:], True
    lines = text.split("\n")
    body = [i for i, line in enumerate(lines) if line[:1] not in ("", "c", "p")]
    i = rng.choice(body)
    tokens = lines[i].split()
    j = rng.randrange(len(tokens) - 1)  # the last token is the 0 that ends the clause
    tokens[j] = str(rng.choice((1, -1)) * rng.randint(nvars + 1, 2 * nvars))
    lines[i] = " ".join(tokens)
    return "\n".join(lines), True


def test_dimacs_reader_fuzz_refuses_or_gives_a_set_the_solver_answers():
    """Each mutant of a q=3 tau's DIMACS is refused by the reader with a
    CnfError, or read as a set that the solver answers without error (a
    model it gives satisfies every clause); a non-ASCII digit or a literal
    out of range is always refused."""
    from nwtaut import designs as dg
    from nwtaut import nwcore as nw

    spec = nw.GeneratorSpec(dg.poly_design(3, 2), nw.builtin_base("parity", 3))
    tau = nw.tau_of(spec, "101100111").clauses
    text = tau.to_dimacs()
    rng = random.Random(37)
    read = refused = 0
    for trial in range(500):
        mutant, must_refuse = mutate(rng, text, tau.nvars)
        try:
            cs = parse_dimacs(mutant)
        except CnfError:
            refused += 1
            continue
        assert not must_refuse, (trial, mutant)
        read += 1
        model = dpll_solve(cs)
        if model is not None:
            assert all(any(model[abs(lit)] == (lit > 0) for lit in c) for c in cs.clauses), trial
    assert read >= 50 and refused >= 250, (read, refused)
