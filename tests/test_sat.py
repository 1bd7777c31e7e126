"""CNF encodings, DIMACS plumbing, and solver drivers."""

import dataclasses
import hashlib
import itertools
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import redblue
from redblue.algebra import ALGEBRA_ONE_BLUE, ALGEBRA_TWO_BLUE, AlgebraSpec, blue, needs_of, red
from redblue.repcheck import EdgeColoring, check_representation
from redblue.sat import cdcl, dimacs
from redblue.sat.cdcl import Cdcl
from redblue.sat.dimacs import formula_from_dimacs, parse_dimacs, to_dimacs
from redblue.sat.encode import (
    ClauseGroup,
    CnfFormula,
    VarMap,
    all_edges_formula,
    build_formula,
    decode_model,
    exactly_one_clauses,
    free_edge_clauses,
    need_clauses,
)
from redblue.sat.proof import check_hints, check_rup
from redblue.sat.solve import (
    SAT,
    SOLVER_ENV_VAR,
    UNKNOWN,
    UNSAT,
    SolverUnavailableError,
    _parse_solver_output,
    default_solver,
    dpll,
    enumerate_models,
    solve,
)


def tiny_formula():
    """Exactly-one over K3 with two colors; satisfiable, 6 variables."""
    vm = VarMap(3, 2)
    return CnfFormula(
        points=3,
        colors=2,
        variant="exactly-one",
        spec=ALGEBRA_ONE_BLUE,
        num_vars=vm.num_vars,
        groups=(exactly_one_clauses(vm),),
    )


def fake_solver(tmp_path, body):
    path = tmp_path / "fakesolver"
    path.write_text("#!/bin/sh\n" + body + "\n")
    path.chmod(0o755)
    return str(path)


# ---------------------------------------------------------------------------
# variable numbering
# ---------------------------------------------------------------------------


def test_varmap_layout():
    vm = VarMap(17, 3)
    assert vm.num_base == 3 * 17 * 16 // 2 == 408
    assert vm.var(0, 1, 0) == 1
    assert vm.var(0, 1, 2) == 3
    assert vm.var(0, 2, 0) == 4
    assert vm.var(1, 0, 0) == vm.var(0, 1, 0)
    assert vm.decode(408) == (15, 16, 2)
    aux = vm.new_aux()
    assert aux == 409 and vm.num_vars == 409


def test_varmap_rejects_bad_input():
    with pytest.raises(ValueError):
        VarMap(1)
    with pytest.raises(ValueError):
        VarMap(3, 1)
    vm = VarMap(4, 3)
    with pytest.raises(ValueError):
        vm.var(0, 0, 0)
    with pytest.raises(ValueError):
        vm.var(0, 4, 0)
    with pytest.raises(ValueError):
        vm.var(0, 1, 3)
    with pytest.raises(ValueError):
        vm.decode(0)
    with pytest.raises(ValueError):
        vm.decode(vm.num_base + 1)


@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=2, max_value=6),
    st.data(),
)
def test_varmap_bijection(V, t, data):
    vm = VarMap(V, t)
    var = data.draw(st.integers(min_value=1, max_value=vm.num_base))
    i, j, c = vm.decode(var)
    assert 0 <= i < j < V and 0 <= c < t
    assert vm.var(i, j, c) == var


# ---------------------------------------------------------------------------
# clause family shapes
# ---------------------------------------------------------------------------


def test_exactly_one_census():
    vm = VarMap(3, 3)
    group = exactly_one_clauses(vm)
    assert group.tag == "exactly-one"
    assert len(group.clauses) == 12  # 3 edges x (1 cover + 3 exclusions)
    f = CnfFormula(
        points=3, colors=3, variant="exactly-one", spec=ALGEBRA_TWO_BLUE,
        num_vars=vm.num_vars, groups=(group,),
    )
    assert "p cnf 9 12" in to_dimacs(f).splitlines()


def test_need_clause_shape_single_candidate():
    # at V = 3 each need has one candidate: 1 witness aux, 4 clauses
    vm = VarMap(3, 2)
    group = need_clauses(vm, [(0, 1, red(0))], ALGEBRA_ONE_BLUE, "red-needs")
    assert len(group.clauses) == 4 * 4  # four needs of a red edge
    assert vm.num_vars - vm.num_base == 4
    with pytest.raises(ValueError):
        need_clauses(VarMap(2, 2), [(0, 1, red(0))], ALGEBRA_ONE_BLUE, "x")


def test_basic_formula_census():
    f = build_formula(17, "basic")
    assert f.num_base_vars == 408
    assert f.num_vars == 408 + 27 * 9 * 15 == 4053
    assert f.num_clauses == 544 + 39 + 11178 == 11761
    assert [g.tag for g in f.groups] == ["exactly-one", "precolor", "red-needs"]
    assert [len(g.clauses) for g in f.groups] == [544, 39, 11178]


def test_triangles_formula_census():
    f = build_formula(18, "triangles")
    tags = [g.tag for g in f.groups]
    assert tags == [
        "exactly-one", "precolor", "red-needs",
        "precolor-clique", "triangle", "red-needs-clique",
    ]
    sizes = dict(zip(tags, (len(g.clauses) for g in f.groups)))
    assert sizes["triangle"] == 816  # C(18, 3)
    assert sizes["precolor-clique"] == 9
    assert sizes["red-needs-clique"] == 9 * 9 * 49
    assert sizes["red-needs"] == 27 * 9 * 49


def test_full_formula_group_order():
    f = build_formula(12, "full")
    assert [g.tag for g in f.groups] == [
        "exactly-one", "precolor", "red-needs", "precolor-clique",
        "triangle", "red-needs-clique", "blue-needs-b1", "blue-needs-b2",
        "free-needs",
    ]
    sizes = {g.tag: len(g.clauses) for g in f.groups}
    # 6 edges of each blue color, 5 needs each, 10 candidates apiece
    assert sizes["blue-needs-b1"] == sizes["blue-needs-b2"] == 6 * 5 * 31
    assert f.full_check is False


def test_variant_clause_monotonicity():
    fb = build_formula(12, "basic")
    ft = build_formula(12, "triangles")
    ff = build_formula(12, "full")
    cb, ct, cf = list(fb.clauses()), list(ft.clauses()), list(ff.clauses())
    assert ct[: len(cb)] == cb  # identical shared prefix
    assert set(cb) <= set(ct) <= set(cf)
    assert fb.num_vars <= ft.num_vars <= ff.num_vars


def test_formula_construction_errors():
    with pytest.raises(ValueError):
        build_formula(12, "bogus")
    with pytest.raises(ValueError):
        build_formula(9, "basic")  # cannot hold the 10-vertex configuration
    with pytest.raises(ValueError):
        build_formula(11, "triangles")  # clique extension needs 12
    assert build_formula(11, "triangles", k6=False).points == 11
    with pytest.raises(ValueError):
        build_formula(12, "basic", spec=AlgebraSpec(2, 2))
    with pytest.raises(ValueError):
        build_formula(20, "triangles", spec=AlgebraSpec(1, 3), k6=True)
    with pytest.raises(ValueError):
        all_edges_formula(5, AlgebraSpec(2, 1))


def test_formula_validate_catches_garbage():
    bad = CnfFormula(
        points=3, colors=2, variant="x", spec=ALGEBRA_ONE_BLUE,
        num_vars=6, groups=(ClauseGroup("x", ((),)),),
    )
    with pytest.raises(ValueError):
        bad.validate()
    out_of_range = CnfFormula(
        points=3, colors=2, variant="x", spec=ALGEBRA_ONE_BLUE,
        num_vars=6, groups=(ClauseGroup("x", ((7,),)),),
    )
    with pytest.raises(ValueError):
        out_of_range.validate()


@pytest.mark.parametrize(
    "groups, bad",
    [
        ((ClauseGroup("x", ((1, 2), (3, 0, -4))),), (3, 0, -4)),  # zero literal
        ((ClauseGroup("x", ((1,), (-7, 2))),), (-7, 2)),  # below -num_vars
        ((ClauseGroup("x", ((1, -2),)), ClauseGroup("y", ((6,), (-1, 7)))), (-1, 7)),
    ],
)
def test_formula_validate_names_the_bad_clause(groups, bad):
    formula = CnfFormula(
        points=3, colors=2, variant="x", spec=ALGEBRA_ONE_BLUE,
        num_vars=6, groups=groups,
    )
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        formula.validate()


def _validate_by_clause(formula):
    """The error message the per-clause check gives first, or None."""
    for group in formula.groups:
        for clause in group.clauses:
            if not clause:
                return f"empty clause in group {group.tag}"
            if any(lit == 0 or abs(lit) > formula.num_vars for lit in clause):
                return f"literal out of range in {clause}"
    return None


@pytest.mark.parametrize("bad", [None, "empty", "zero", "above", "below"])
@pytest.mark.parametrize("where", [[(0, 0)], [(1, -1)], [(2, 7)], [(2, 3), (0, 5)], [(1, 0), (1, 4)]])
def test_formula_validate_matches_the_clause_loop(bad, where):
    # a bad clause, or an empty one, put at each (group, position) of an
    # all-edges formula; the first one in group order is the one named
    formula = all_edges_formula(5)
    n = formula.num_vars
    bad_clause = {None: (1, -2), "empty": (), "zero": (3, 0, -4),
                  "above": (-1, n + 1), "below": (-(n + 1), 2)}[bad]
    groups = [list(group.clauses) for group in formula.groups]
    for gi, at in where:
        groups[gi].insert(at, bad_clause[:1] + (gi + 1,) + bad_clause[1:] if bad_clause else ())
    formula = dataclasses.replace(formula, groups=tuple(
        ClauseGroup(group.tag, tuple(clauses)) for group, clauses in zip(formula.groups, groups)))
    expected = _validate_by_clause(formula)
    assert (expected is None) == (bad is None)
    if expected is None:
        formula.validate()
        return
    with pytest.raises(ValueError) as raised:
        formula.validate()
    assert str(raised.value) == expected


# ---------------------------------------------------------------------------
# encoding semantics against the brute-force checker
# ---------------------------------------------------------------------------


def _pin_coloring(vm, spec, bits, V):
    """Coloring number `bits` of K_V (bit per edge: 0 red, 1 blue) + units."""
    coloring = EdgeColoring(V)
    units = []
    for idx, (i, j) in enumerate((i, j) for j in range(V) for i in range(j)):
        color = blue(0) if (bits >> idx) & 1 else red(0)
        coloring.set_color(i, j, color)
        units.append((vm.var(i, j, spec.color_index(color)),))
    return coloring, units


def _needs_witnessed(coloring, spec, i, j, color):
    for need in needs_of(spec, color):
        if not any(
            k not in (i, j)
            and coloring.color_of(i, k) == need.first
            and coloring.color_of(k, j) == need.second
            for k in range(coloring.V)
        ):
            return False
    return True


def test_free_edge_clauses_match_brute_force():
    # pin all 2^10 colorings of K5; the encoding must accept exactly those
    # where edge (0, 1) carries the needs of its own color
    spec = ALGEBRA_ONE_BLUE
    vm = VarMap(5, 2)
    groups = [exactly_one_clauses(vm), free_edge_clauses(vm, [(0, 1)], spec)]
    clauses = [c for g in groups for c in g.clauses]
    outcomes = set()
    for bits in range(1024):
        coloring, units = _pin_coloring(vm, spec, bits, 5)
        sat, _ = dpll(vm.num_vars, clauses + units)
        expect = _needs_witnessed(coloring, spec, 0, 1, coloring.color_of(0, 1))
        assert sat == expect, f"coloring {bits:010b}"
        outcomes.add(expect)
    assert outcomes == {True, False}  # both behaviors exercised


def test_need_clauses_match_brute_force():
    # needs of a fixed color, independent of the edge's own pinned color
    spec = ALGEBRA_ONE_BLUE
    vm = VarMap(5, 2)
    groups = [
        exactly_one_clauses(vm),
        need_clauses(vm, [(0, 1, blue(0))], spec, "blue-needs-b1"),
    ]
    clauses = [c for g in groups for c in g.clauses]
    outcomes = set()
    for bits in range(0, 1024, 2):
        coloring, units = _pin_coloring(vm, spec, bits, 5)
        sat, _ = dpll(vm.num_vars, clauses + units)
        expect = _needs_witnessed(coloring, spec, 0, 1, blue(0))
        assert sat == expect, f"coloring {bits:010b}"
        outcomes.add(expect)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# DIMACS
# ---------------------------------------------------------------------------


def test_dimacs_deterministic_and_round_trips():
    a = to_dimacs(build_formula(12, "basic"))
    b = to_dimacs(build_formula(12, "basic"))
    assert a == b
    f = build_formula(12, "basic")
    num_vars, clauses = parse_dimacs(a)
    assert num_vars == f.num_vars
    assert clauses == list(f.clauses())
    assert a.splitlines()[0].startswith("c variant=basic V=12 t=3")


def test_formula_from_dimacs_reads_own_metadata():
    written = all_edges_formula(6, ALGEBRA_TWO_BLUE)
    back = formula_from_dimacs(to_dimacs(written), "x.cnf")
    assert (back.points, back.colors, back.variant) == (6, 3, "all-edges")
    assert back.full_check and back.num_vars == written.num_vars
    assert list(back.clauses()) == list(written.clauses())
    assert back.comments == ("parsed from x.cnf",)
    foreign = formula_from_dimacs("p cnf 2 1\n1 -2 0\n", "f.cnf")
    assert (foreign.points, foreign.variant, foreign.full_check) == (0, "parsed", False)


def test_dimacs_parse_errors():
    with pytest.raises(ValueError):
        parse_dimacs("1 2 0\n")  # clause before problem line
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 1\n3 0\n")  # literal above declared count
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 1\n1 2\n")  # dangling clause
    with pytest.raises(ValueError):
        parse_dimacs("c only a comment\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 2\n1 0\n")  # count mismatch
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 1\n1 x 0\n")  # non-integer token
    with pytest.raises(ValueError, match="literal -3"):
        parse_dimacs("p cnf 2 1\n-3 0\n")  # literal below -num_vars
    with pytest.raises(ValueError, match="second problem line"):
        parse_dimacs("p cnf 2 2\n1 0\np cnf 2 2\n2 0\n")
    with pytest.raises(ValueError, match="bad problem line"):
        parse_dimacs("p cnf -1 0\n")


# line-split variants: a clause over several lines, two clauses on one
# line, a comment between clause lines, blank lines, CRLF endings and a last
# line without a newline
SPLIT_DIMACS = (
    "c header\np cnf 4 3\n1 -2\n3 0 -4 2 0\nc mid\n\n4\n-1 0",
    "c header\r\np cnf 4 3\r\n1 -2\r\n3 0 -4 2 0\r\nc mid\r\n\r\n4\r\n-1 0\r\n",
)


def _parse_tokens(text):
    """(num_vars, clauses) straight from the token stream of each line."""
    lines = [ln.strip() for ln in text.splitlines()]
    body = [ln for ln in lines if ln and not ln.startswith(("c", "p"))]
    num_vars = int(next(ln for ln in lines if ln.startswith("p")).split()[2])
    clauses, pending = [], []
    for tok in " ".join(body).split():
        if tok == "0":
            clauses.append(tuple(pending))
            pending = []
        else:
            pending.append(int(tok))
    return num_vars, clauses


@pytest.mark.parametrize("text", SPLIT_DIMACS)
@pytest.mark.parametrize("slice_chars", [1, 2, 3, 5, 8, 13, 1 << 20])
def test_parse_dimacs_across_slices(monkeypatch, text, slice_chars):
    monkeypatch.setattr(dimacs, "SLICE_CHARS", slice_chars)
    assert parse_dimacs(text) == _parse_tokens(text) == (4, [(1, -2, 3), (-4, 2), (4, -1)])
    written = to_dimacs(all_edges_formula(5, ALGEBRA_ONE_BLUE))
    assert parse_dimacs(written) == _parse_tokens(written)


@pytest.mark.parametrize("slice_chars", [1, 3])
def test_dimacs_parse_errors_across_slices(monkeypatch, slice_chars):
    monkeypatch.setattr(dimacs, "SLICE_CHARS", slice_chars)
    test_dimacs_parse_errors()


def reference_dimacs(formula):
    """The emitter as it was before the word table, frozen."""
    lines = [f"c {comment}\n" for comment in formula.comments]
    lines.append(
        "c varmap: var(i,j,c) = t*(j*(j-1)/2 + i) + c + 1 for 0<=i<j<V, "
        "colors red-first; auxiliaries above\n"
    )
    lines += [f"c group {g.tag}: {len(g.clauses)} clauses\n" for g in formula.groups]
    lines.append(f"p cnf {formula.num_vars} {formula.num_clauses}\n")
    lines += [" ".join(map(str, clause)) + " 0\n" for clause in formula.clauses()]
    return "".join(lines)


# CNFs over 0-8 variables with empty and unit clauses, in up to three groups
DIMACS_CNFS = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(
                st.lists(
                    st.integers(min_value=1, max_value=max(n, 1)).flatmap(
                        lambda v: st.sampled_from([v, -v])
                    ),
                    max_size=4 if n else 0,
                ).map(tuple),
                max_size=10,
            ),
            max_size=3,
        ),
    )
)


@settings(max_examples=150, deadline=None)
@given(
    DIMACS_CNFS,
    st.sampled_from([1, 2, 3, 7, 1 << 20]),
    st.sampled_from([1, 2, 5, 1 << 14]),
)
@example((0, []), 1, 1)
@example((3, [[(), (1,), ()], [(-3, 2)]]), 3, 2)
def test_to_dimacs_matches_reference_and_round_trips(cnf, slice_chars, block):
    num_vars, groups = cnf
    formula = CnfFormula(
        points=0, colors=2, variant="parsed", spec=ALGEBRA_ONE_BLUE,
        num_vars=num_vars,
        groups=tuple(ClauseGroup(f"g{i}", tuple(g)) for i, g in enumerate(groups)),
        comments=("hypothesis",),
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimacs, "SLICE_CHARS", slice_chars)
        mp.setattr(dimacs, "BLOCK_CLAUSES", block)
        text = to_dimacs(formula)
        assert text == reference_dimacs(formula)
        assert parse_dimacs(text) == (num_vars, list(formula.clauses()))


def test_to_dimacs_keeps_bytes_of_clauses_outside_the_table():
    # an empty clause is written " 0"; a zero literal or one above the
    # declared count is written as it is, as before the word table
    parsed = formula_from_dimacs("p cnf 2 3\n1 0\n0\n-2 1 0\n", "e.cnf")
    assert to_dimacs(parsed).endswith("p cnf 2 3\n1 0\n 0\n-2 1 0\n")
    assert to_dimacs(parsed) == reference_dimacs(parsed)
    zero = parsed_formula(2, [(1, 0, 2), (2,)])
    assert to_dimacs(zero).endswith("p cnf 2 2\n1 0 2 0\n2 0\n")
    above = parsed_formula(2, [(2,), (3, 1)])
    assert to_dimacs(above).endswith("p cnf 2 2\n2 0\n3 1 0\n")
    below = parsed_formula(2, [(-3,), (2,)])
    assert to_dimacs(below).endswith("p cnf 2 2\n-3 0\n2 0\n")


# ---------------------------------------------------------------------------
# the builtin solver
# ---------------------------------------------------------------------------


# random CNFs over variables 1..6
SMALL_CNFS = st.lists(
    st.lists(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        min_size=1,
        max_size=4,
    ).map(tuple),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(SMALL_CNFS)
def test_dpll_agrees_with_truth_table(clauses):
    sat, assignment = dpll(6, clauses)
    brute = any(
        all(any((bits >> (abs(l) - 1)) & 1 == (l > 0) for l in cl) for cl in clauses)
        for bits in range(64)
    )
    assert sat == brute
    if sat:
        for cl in clauses:
            assert any(assignment[abs(l)] == (l > 0) for l in cl)


def _dpll_reference(num_vars, clauses):
    """The builtin DPLL as it was before watched literals, frozen as an oracle:
    a dict copied at every branch and every clause rescanned per pass."""

    def propagate(assign):
        changed = True
        while changed:
            changed = False
            for clause in clauses:
                unassigned = []
                satisfied = False
                for lit in clause:
                    val = assign.get(abs(lit))
                    if val is None:
                        unassigned.append(lit)
                    elif val == (lit > 0):
                        satisfied = True
                        break
                if satisfied:
                    continue
                if not unassigned:
                    return None
                if len(unassigned) == 1:
                    lit = unassigned[0]
                    assign[abs(lit)] = lit > 0
                    changed = True
        return assign

    stack = [{}]
    while stack:
        assign = propagate(stack.pop())
        if assign is None:
            continue
        var = next((v for v in range(1, num_vars + 1) if v not in assign), None)
        if var is None:
            return True, assign
        for value in (False, True):
            branch = dict(assign)
            branch[var] = value
            stack.append(branch)
    return False, {}


# CNFs over 0..8 variables: empty formulas, empty and unit clauses,
# duplicate literals and tautologies all occur
REFERENCE_CNFS = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(
                st.integers(min_value=1, max_value=max(n, 1)).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                max_size=5 if n else 0,
            ).map(tuple),
            max_size=24,
        ),
    )
)


@settings(max_examples=400, deadline=None)
@given(REFERENCE_CNFS)
@example((0, []))
@example((0, [()]))
@example((3, []))
@example((3, [(1, 2), ()]))
@example((2, [(2, 2), (-1, -2)]))
@example((2, [(1, -1), (2, 1, -1)]))
@example((3, [(2,), (-2,)]))
@example((3, [(-1, -1), (1, 2, 2), (-2, 3, -3)]))
def test_dpll_matches_reference(case):
    num_vars, clauses = case
    assert dpll(num_vars, clauses) == _dpll_reference(num_vars, clauses)


# sha256 of repr(sorted(model.items())) for all-edges V=8 with one blue,
# recorded with the reference DPLL
ALL_EDGES_V8_MODEL_SHA = "07c34ba9500f7c8544b8cedd9fa93919bbd27338ae123ba136207ad2bdce9dc4"


def test_dpll_all_edges_models_frozen():
    f = all_edges_formula(8, ALGEBRA_ONE_BLUE)
    sat, model = dpll(f.num_vars, list(f.clauses()))
    assert sat and sorted(model) == list(range(1, f.num_vars + 1))
    digest = hashlib.sha256(repr(sorted(model.items())).encode()).hexdigest()
    assert digest == ALL_EDGES_V8_MODEL_SHA
    f = all_edges_formula(5, ALGEBRA_TWO_BLUE)
    assert dpll(f.num_vars, list(f.clauses())) == (False, {})


def test_dpll_rejects_literals_outside_range():
    for clause in [(3,), (1, -3), (0,)]:
        with pytest.raises(ValueError):
            dpll(2, [clause])


def test_builtin_solves_tiny_formula(monkeypatch):
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
    outcome = solve(tiny_formula())
    assert outcome.status == SAT and outcome.solver == "builtin-cdcl"
    assert outcome.coloring.is_total


def test_builtin_refutes_basic_ten_points(monkeypatch):
    # V=10 leaves no vertex for the (b2, b2) need of a bb-bb edge, so unit
    # propagation alone refutes the basic encoding
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
    f = build_formula(10, "basic")
    outcome = solve(f)
    assert outcome.status == UNSAT


def test_builtin_refutes_basic_ladder_with_checked_proofs(monkeypatch):
    # each proof is accepted by the hint checker and by the reference RUP replay
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
    checked = []
    real_check = cdcl.check_hints

    def spy(num_vars, clauses, proof):
        steps = list(proof)
        checked.append((real_check(num_vars, clauses, steps), check_rup(num_vars, clauses, steps)))
        return checked[-1][0]

    monkeypatch.setattr(cdcl, "check_hints", spy)
    formulas = [build_formula(v, "basic") for v in range(10, 15)]
    formulas.append(all_edges_formula(6, ALGEBRA_TWO_BLUE))
    for f in formulas:
        outcome = solve(f)
        assert outcome.status == UNSAT and outcome.solver == "builtin-cdcl"
        assert outcome.stats["proof steps"] >= 1
        assert outcome.stats["proof hints"] >= outcome.stats["conflicts"]
    assert checked == [(True, True)] * 6


def test_builtin_rejected_proof_is_unknown(monkeypatch):
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
    monkeypatch.setattr(cdcl, "check_hints", lambda n, clauses, proof: check_hints(n, clauses, []))
    outcome = solve(parsed_formula(4, RUP_FORMULA))
    assert outcome.status == UNKNOWN
    assert "proof check failed" in outcome.detail


def test_builtin_sat_answer_is_certified(monkeypatch):
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
    certified = []

    def spy(coloring, spec):
        certified.append(check_representation(coloring, spec))
        return certified[-1]

    monkeypatch.setattr("redblue.sat.solve.check_representation", spy)
    f = all_edges_formula(8, ALGEBRA_ONE_BLUE)
    outcome = solve(f)
    assert outcome.status == SAT and outcome.solver == "builtin-cdcl"
    assert [r.ok for r in certified] == [True]
    assert decode_model(f, outcome.model) == outcome.coloring


def test_builtin_timeout_surfaces_as_unknown(monkeypatch):
    # basic V=17 takes seconds to refute; the search stops at the deadline
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
    outcome = solve(build_formula(17, "basic"), timeout=0.2)
    assert outcome.status == UNKNOWN and outcome.detail == "timeout after 0.2s"
    assert outcome.seconds < 3
    assert "proof steps" not in outcome.stats


def test_builtin_timeout_holds_during_the_proof_check(monkeypatch):
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)

    def slow_check(num_vars, clauses, proof):
        time.sleep(0.3)
        return check_hints(num_vars, clauses, proof)

    monkeypatch.setattr(cdcl, "check_hints", slow_check)
    outcome = solve(parsed_formula(4, RUP_FORMULA), timeout=0.2)
    assert outcome.status == UNKNOWN and "timeout" in outcome.detail
    assert outcome.stats["proof check seconds"] >= 0.2


def test_env_solver_must_exist(monkeypatch):
    monkeypatch.setenv(SOLVER_ENV_VAR, "no-such-solver-binary-xyz")
    with pytest.raises(SolverUnavailableError):
        default_solver()


# ---------------------------------------------------------------------------
# the external bridge, driven by scripted solvers
# ---------------------------------------------------------------------------


def test_bogus_model_is_rejected(tmp_path):
    path = fake_solver(tmp_path, 'echo "s SATISFIABLE"; echo "v -1 0"')
    with pytest.raises(RuntimeError, match="unsatisfied"):
        solve(tiny_formula(), solver=path)


def test_model_missing_a_needed_variable_is_rejected(tmp_path):
    # variables 5 and 6 are left out: neither clause on the third edge holds
    path = fake_solver(tmp_path, 'echo "s SATISFIABLE"; echo "v 1 -2 3 -4 0"')
    with pytest.raises(RuntimeError, match="unsatisfied"):
        solve(tiny_formula(), solver=path)


def test_exit_codes_honored_without_status_line(tmp_path):
    unsat = fake_solver(tmp_path, "exit 20")
    assert solve(tiny_formula(), solver=unsat).status == UNSAT
    model = "v 1 -2 3 -4 5 -6 0"
    sat = fake_solver(tmp_path, f'echo "{model}"; exit 10')
    outcome = solve(tiny_formula(), solver=sat)
    assert outcome.status == SAT
    assert set(outcome.coloring.colors.values()) == {red(0)}


def test_timeout_surfaces_as_unknown(tmp_path):
    path = fake_solver(tmp_path, "sleep 5")
    outcome = solve(tiny_formula(), solver=path, timeout=0.2)
    assert outcome.status == UNKNOWN
    assert "timeout" in outcome.detail


def test_garbage_output_surfaces_as_unknown(tmp_path):
    path = fake_solver(tmp_path, "echo nonsense; exit 0")
    outcome = solve(tiny_formula(), solver=path)
    assert outcome.status == UNKNOWN
    assert "unrecognized" in outcome.detail


def test_non_integer_model_token_surfaces_as_unknown(tmp_path):
    path = fake_solver(tmp_path, 'echo "s SATISFIABLE"; echo "v 1 -2 x 0"; exit 10')
    outcome = solve(tiny_formula(), solver=path)
    assert outcome.status == UNKNOWN
    assert "unrecognized" in outcome.detail and "v 1 -2 x 0" in outcome.detail


def test_unknown_status_line_surfaces_as_unknown(tmp_path):
    path = fake_solver(tmp_path, 'echo "s UNKNOWN"')
    outcome = solve(tiny_formula(), solver=path)
    assert outcome.status == UNKNOWN
    assert "answered UNKNOWN" in outcome.detail
    assert "unrecognized" not in outcome.detail


def test_missing_binary_surfaces_as_unknown(tmp_path):
    outcome = solve(tiny_formula(), solver=str(tmp_path / "nope"))
    assert outcome.status == UNKNOWN
    assert outcome.detail


# ---------------------------------------------------------------------------
# model decoding
# ---------------------------------------------------------------------------


def test_decode_model_round_trip():
    f = tiny_formula()
    model = {1: True, 2: False, 3: False, 4: True, 5: True, 6: False}
    coloring = decode_model(f, model)
    assert coloring.color_of(0, 1) == red(0)
    assert coloring.color_of(0, 2) == blue(0)
    assert coloring.color_of(1, 2) == red(0)


def test_sat_without_geometry_skips_decoding(monkeypatch):
    # foreign instances (points unknown) must solve without a coloring
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
    f = CnfFormula(
        points=0, colors=2, variant="parsed", spec=ALGEBRA_ONE_BLUE,
        num_vars=2, groups=(ClauseGroup("parsed", ((1,), (-1, 2))),),
    )
    outcome = solve(f)
    assert outcome.status == SAT
    assert outcome.coloring is None
    assert outcome.model == {1: True, 2: True}


def test_decode_model_errors():
    f = tiny_formula()
    with pytest.raises(ValueError):
        decode_model(f, {})
    with pytest.raises(ValueError):
        decode_model(f, {1: True, 2: True, 3: True, 5: True})


# ---------------------------------------------------------------------------
# external solver end-to-end
# ---------------------------------------------------------------------------


def test_external_finds_eight_point_representation(solver):
    outcome = solve(all_edges_formula(8, ALGEBRA_ONE_BLUE), solver=solver)
    assert outcome.status == SAT
    assert check_representation(outcome.coloring, ALGEBRA_ONE_BLUE).ok


def test_external_refutes_seven_points(solver):
    # agreeing with the exhaustive scan of all 2^21 colorings
    outcome = solve(all_edges_formula(7, ALGEBRA_ONE_BLUE), solver=solver)
    assert outcome.status == UNSAT


def test_enumerate_models_distinct_and_valid(solver):
    f = all_edges_formula(8, ALGEBRA_ONE_BLUE)
    models = enumerate_models(f, limit=3, solver=solver)
    assert len(models) == 3
    seen = {tuple(sorted(m.colors.items())) for m in models}
    assert len(seen) == 3
    for m in models:
        assert check_representation(m, ALGEBRA_ONE_BLUE).ok


def test_enumerate_models_empty_on_unsat(solver):
    f = all_edges_formula(7, ALGEBRA_ONE_BLUE)
    assert enumerate_models(f, limit=2, solver=solver) == []


# ---------------------------------------------------------------------------
# in-repo CDCL solver and its proof checker
# ---------------------------------------------------------------------------

CDCL_LAUNCHER = Path(__file__).resolve().parent.parent / "bin" / "redblue-cdcl"

# Unsatisfiable.  No lemma of the refutation [(1), (3), ()] can be dropped,
# and (1) flipped to (-1) is no longer implied by unit propagation.
RUP_FORMULA = [(1, 2), (1, -2), (-1, 3, 4), (-1, 3, -4), (-1, -3, 4), (-1, -3, -4)]
RUP_PROOF = [("a", (1,)), ("a", (3,)), ("a", ())]


def parsed_formula(num_vars, clauses):
    return CnfFormula(
        points=0, colors=2, variant="parsed", spec=ALGEBRA_ONE_BLUE,
        num_vars=num_vars, groups=(ClauseGroup("parsed", tuple(clauses)),),
    )


def write_cnf(path, num_vars, clauses):
    path.write_text(to_dimacs(parsed_formula(num_vars, clauses)))
    return str(path)


def assert_cdcl_verdict(num_vars, clauses):
    """Solve with Cdcl; check the model, or the refutation with both checkers."""
    solver = Cdcl(num_vars, clauses)
    sat = solver.solve()
    if sat:
        model = solver.model()
        for cl in clauses:
            assert any(model[abs(l)] == (l > 0) for l in cl)
    else:
        assert check_hints(num_vars, clauses, solver.proof)
        assert check_rup(num_vars, clauses, solver.proof)
    return sat


@settings(max_examples=60, deadline=None)
@given(SMALL_CNFS)
def test_cdcl_agrees_with_dpll(clauses):
    assert assert_cdcl_verdict(6, clauses) == dpll(6, clauses)[0]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_cdcl_agrees_with_dpll_random_3sat(seed):
    # near the 3-SAT threshold, so searches learn, backjump and restart
    rng = random.Random(seed)
    clauses = [
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 21), 3))
        for _ in range(86)
    ]
    assert assert_cdcl_verdict(20, clauses) == dpll(20, clauses)[0]


def test_cdcl_refutation_with_deletions_checks():
    f = all_edges_formula(7, ALGEBRA_ONE_BLUE)
    clauses = list(f.clauses())
    solver = Cdcl(f.num_vars, clauses)
    solver.max_learnts = 20
    assert not solver.solve()
    assert solver.stats["deleted"] > 0
    assert any(step[0] == "d" for step in solver.proof)
    assert check_hints(f.num_vars, clauses, solver.proof)
    assert check_rup(f.num_vars, clauses, solver.proof)


def test_check_rup_accepts_refutation():
    assert check_rup(4, RUP_FORMULA, RUP_PROOF)
    # the closing empty clause may be left implicit
    assert check_rup(4, RUP_FORMULA, RUP_PROOF[:2])


@pytest.mark.parametrize(
    "proof",
    [
        RUP_PROOF[1:],
        [RUP_PROOF[0], RUP_PROOF[2]],
        [("a", (-1,))] + RUP_PROOF[1:],
        [("d", (2, 1))] + RUP_PROOF,
        [("a", (5,))] + RUP_PROOF,
        [],
    ],
    ids=["first-dropped", "second-dropped", "literal-flipped",
         "needed-clause-deleted", "unknown-variable", "empty"],
)
def test_check_rup_rejects_tampered_refutation(proof):
    assert not check_rup(4, RUP_FORMULA, proof)


# Clause IDs 1..5.  (1) is a unit lemma citing input 1, (2) one citing
# input 2, which needs (1) at top level, and the empty clause walks 3, 4, 5,
# each unit only after the one before it.
CHAIN_FORMULA = [(1,), (-1, 2), (-2, 3), (-3, 4), (-4,)]
CHAIN_PROOF = [("a", (1,), (1,)), ("a", (2,), (2,)), ("a", (), (3, 4, 5))]
HINT_PROOF = [("a", (1,), (1, 2)), ("a", (3,), (3, 4)), ("a", (), (5, 6))]


def test_check_hints_accepts_refutations():
    assert check_hints(4, RUP_FORMULA, HINT_PROOF)
    assert check_hints(4, CHAIN_FORMULA, CHAIN_PROOF)
    # deletions are not read; steps after the empty clause are not either
    assert check_hints(4, CHAIN_FORMULA, [("d", (-1, 2))] + CHAIN_PROOF + [("x", ())])
    # a repeated literal, and a tautology no hint cites
    assert check_hints(4, [(1, 1)] + CHAIN_FORMULA[1:], CHAIN_PROOF)
    assert check_hints(4, CHAIN_FORMULA + [(2, -2, 3)], CHAIN_PROOF)
    # the reference checker reads the same steps and ignores their hints
    assert check_rup(4, RUP_FORMULA, HINT_PROOF)
    assert check_rup(4, CHAIN_FORMULA, CHAIN_PROOF)


@pytest.mark.parametrize(
    "proof",
    [
        CHAIN_PROOF[:2] + [("a", (), (3, 5))],
        CHAIN_PROOF[:2] + [("a", (), (4, 3, 5))],
        CHAIN_PROOF[:2] + [("a", (), (3, 4, 5, 2))],
        [CHAIN_PROOF[0], ("a", (2,), (1, 2))] + CHAIN_PROOF[2:],
        [CHAIN_PROOF[0], ("a", (2,), (8,))] + CHAIN_PROOF[2:],
        CHAIN_PROOF[:2] + [("a", (), (0, 3, 4, 5))],
        CHAIN_PROOF[:2] + [("a", (), (3, 4, 9))],
        [CHAIN_PROOF[0], ("a", (-2,), (2,))] + CHAIN_PROOF[2:],
        CHAIN_PROOF[1:],
        CHAIN_PROOF[:2] + [("a", (), ())],
        CHAIN_PROOF[:2],
        [("a", (1,))] + CHAIN_PROOF[1:],
        [("a", (5,), (1,))] + CHAIN_PROOF[1:],
    ],
    ids=["hint-dropped", "hints-swapped", "hint-after-conflict", "satisfied-hint",
         "later-lemma", "id-zero", "past-the-end", "literal-flipped",
         "unit-lemma-missing", "empty-clause-unhinted", "no-empty-clause",
         "lemma-unhinted", "unknown-variable"],
)
def test_check_hints_rejects_tampered_refutation(proof):
    assert not check_hints(4, CHAIN_FORMULA, proof)


def test_check_hints_rejects_a_solver_proof_missing_any_hint():
    f = all_edges_formula(6, ALGEBRA_TWO_BLUE)
    clauses = list(f.clauses())
    solver = Cdcl(f.num_vars, clauses)
    assert not solver.solve()
    proof = solver.proof
    hinted = [i for i, step in enumerate(proof) if step[0] == "a" and len(step[2]) > 2]
    assert len(hinted) >= 10
    for i in hinted[:: len(hinted) // 10]:
        op, lemma, hints = proof[i]
        for j in (0, len(hints) // 2, len(hints) - 1):
            tampered = (op, lemma, hints[:j] + hints[j + 1 :])
            assert not check_hints(f.num_vars, clauses, proof[:i] + [tampered] + proof[i + 1 :])


def test_check_hints_reads_only_hinted_input_clauses():
    # an out-of-range literal is an error only in a clause a hint names
    assert check_hints(4, CHAIN_FORMULA + [(7,)], CHAIN_PROOF)
    with pytest.raises(ValueError):
        check_hints(4, [(1, 7)] + CHAIN_FORMULA[1:], CHAIN_PROOF)


def test_cdcl_main_verdicts(tmp_path, capsys):
    assert cdcl.main([write_cnf(tmp_path / "unsat.cnf", 4, RUP_FORMULA)]) == 20
    out = capsys.readouterr().out
    assert "s UNSATISFIABLE" in out and "c proof check seconds" in out

    assert cdcl.main([write_cnf(tmp_path / "sat.cnf", 4, RUP_FORMULA[1:])]) == 10
    out = capsys.readouterr().out
    assert "s SATISFIABLE" in out
    literals = [int(tok) for line in out.splitlines() if line.startswith("v ")
                for tok in line.split()[1:]]
    assert literals[-1] == 0 and sorted(map(abs, literals[:-1])) == [1, 2, 3, 4]
    assert all(any(l in literals for l in cl) for cl in RUP_FORMULA[1:])

    assert cdcl.main([str(tmp_path / "missing.cnf")]) == 2


def test_cdcl_rejected_proof_is_unknown(tmp_path, capsys, monkeypatch):
    # the checker is handed the log with every lemma dropped, which it rejects
    cnf = write_cnf(tmp_path / "unsat.cnf", 4, RUP_FORMULA)
    monkeypatch.setattr(cdcl, "check_hints", lambda n, clauses, proof: check_hints(n, clauses, []))
    assert cdcl.main([cnf]) == 0
    out = capsys.readouterr().out
    assert "s UNKNOWN" in out and "UNSATISFIABLE" not in out

    src = Path(redblue.__file__).resolve().parent.parent
    launcher = tmp_path / "tampering-cdcl"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from redblue.sat import cdcl, proof\n"
        "cdcl.check_hints = lambda n, clauses, steps: proof.check_hints(n, clauses, [])\n"
        "sys.exit(cdcl.main())\n"
    )
    launcher.chmod(0o755)
    outcome = solve(parsed_formula(4, RUP_FORMULA), solver=str(launcher))
    assert outcome.status == UNKNOWN


def test_cdcl_launcher_through_bridge():
    outcome = solve(all_edges_formula(8, ALGEBRA_ONE_BLUE), solver=str(CDCL_LAUNCHER))
    assert outcome.status == SAT
    assert check_representation(outcome.coloring, ALGEBRA_ONE_BLUE).ok
    outcome = solve(all_edges_formula(7, ALGEBRA_ONE_BLUE), solver=str(CDCL_LAUNCHER))
    assert outcome.status == UNSAT


def test_solver_stats_in_process_and_from_the_launcher(monkeypatch):
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
    f = all_edges_formula(7, ALGEBRA_ONE_BLUE)
    inside = solve(f)
    outside = solve(f, solver=str(CDCL_LAUNCHER))
    assert inside.status == outside.status == UNSAT
    assert set(inside.stats) == set(outside.stats) == {
        "conflicts", "decisions", "propagations", "learned", "deleted", "restarts",
        "solve seconds", "proof steps", "proof hints", "proof check seconds",
    }
    # the search is deterministic, so both routes count the same
    for name in ("conflicts", "decisions", "propagations", "learned", "proof steps",
                 "proof hints"):
        assert inside.stats[name] == outside.stats[name] > 0
    assert isinstance(outside.stats["proof check seconds"], float)


def test_parse_solver_output_reads_only_numeric_counters():
    stdout = (
        "c conflicts: 12\nc proof hints: 40\nc proof check seconds: 0.031\n"
        "c rate: 12 per second\nc proof check failed: refutation not accepted\n"
        "c plain comment\ns UNSATISFIABLE\n"
    )
    status, literals, stats = _parse_solver_output(stdout, 20)
    assert (status, literals) == (UNSAT, [])
    assert stats == {"conflicts": 12, "proof hints": 40, "proof check seconds": 0.031}


def test_sat_modules_import_without_numpy():
    # every solve launches the solver afresh; numpy would double its start-up
    src = Path(redblue.__file__).resolve().parent.parent
    probe = (
        "import sys, redblue.sat.encode, redblue.sat.dimacs, redblue.sat.solve, "
        "redblue.sat.cdcl, redblue.sat.proof, redblue.repcheck; "
        "sys.exit('numpy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
