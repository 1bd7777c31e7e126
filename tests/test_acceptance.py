"""Acceptance battery: one test per headline claim of the artifact.

Each test prints a single `criterion N [slug]: PASS|FAIL` verdict line
(visible under `pytest -s`; under plain `pytest -v` the per-test report
line carries the same information).  Criteria 5 and 6 run on the solver
that `conftest.find_solver` picks: an installed external CDCL solver if
there is one, else the in-repo `bin/redblue-cdcl`, which reports UNSAT only
after its learned-clause log passes the hint check (`check_hints`).  They
fail, rather than skip, when no solver at all can be run.
The V >= 20 full-variant battery is opt-in via REDBLUE_EXTENDED=1 because
it runs for hours.
"""

import math
import os
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

import conftest
from redblue.algebra import (
    ALGEBRA_ONE_BLUE,
    ALGEBRA_TWO_BLUE,
    AlgebraSpec,
    blue,
    bound_table,
    lower_bound_points,
    red,
    threshold_check,
    union_bound_failure,
)
from redblue.cube import (
    CubeSubset,
    embedded_split_1024,
    layer_partition,
    pair_counts,
    pair_counts_naive,
    singleton,
    sumset,
    verify_group_representation,
    witness_minima,
)
from redblue.repcheck import (
    check_representation,
    mandatory_configuration,
    needs_deficit,
)
from redblue.sat.encode import all_edges_formula, build_formula
from redblue.sat.solve import UNSAT, enumerate_models, solve
from redblue.search import (
    hill_climb,
    monte_carlo,
    random_split,
    violations,
    violations_naive,
)

SOLVER_TIMEOUT = 3600.0


@contextmanager
def criterion(num, slug):
    """Print one verdict line per criterion, whatever the failure mode."""
    try:
        yield
    except BaseException:
        print(f"criterion {num} [{slug}]: FAIL")
        raise
    print(f"criterion {num} [{slug}]: PASS")


def require_solver(num, slug):
    """CDCL solver path from `conftest.find_solver`; none is a red criterion.

    The in-repo proof-checking solver is the last candidate, so this fails
    only where not even `bin/redblue-cdcl` can be run.
    """
    path = conftest.find_solver()
    if path is None:
        print(f"criterion {num} [{slug}]: FAIL")
        pytest.fail(
            "CDCL solver required (set REDBLUE_SOLVER, or keep bin/redblue-cdcl "
            "runnable); without one this criterion cannot be certified"
        )
    return path


def test_criterion_1_embedded_1024_identities():
    with criterion(1, "1024-point identities"):
        start = time.perf_counter()
        coloring = embedded_split_1024()
        m = coloring.m
        a = coloring.part(red(0))
        b = coloring.part(blue(0))
        c = coloring.part(blue(1))
        everything = CubeSubset.full(m)
        diversity = everything.without_zero()
        a_zero = a | singleton(m, 0)

        # the four composition identities, as exact subset equalities
        assert sumset(a, a) == everything
        assert sumset(a, b) == diversity
        assert sumset(a, c) == diversity
        assert sumset(b, b) == a_zero
        assert sumset(c, c) == a_zero
        assert sumset(b, c) == a

        # same verdict from the general checker, fine and coarse
        assert verify_group_representation(coloring, ALGEBRA_TWO_BLUE).ok
        merged = coloring.merged({red(0): (red(0),), blue(0): (blue(0), blue(1))})
        assert verify_group_representation(merged, ALGEBRA_ONE_BLUE).ok

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"identity checks took {elapsed:.3f}s, budget 1s"


def test_criterion_2_witness_floors():
    with criterion(2, "witness floors"):
        start = time.perf_counter()
        for k in (1, 2, 3):
            floor = 1 << k
            minima = witness_minima(layer_partition(k))
            assert len(minima) == 5
            for label, stat in minima.items():
                assert stat.min_count >= floor, (
                    f"k={k} case {label}: min {stat.min_count} < {floor}"
                )

        # the transform path must agree entrywise with direct enumeration
        rng = random.Random(0xACCE97)
        for _ in range(100):
            m = rng.randint(1, 10)
            x = CubeSubset(m, rng.getrandbits(1 << m))
            y = CubeSubset(m, rng.getrandbits(1 << m))
            assert np.array_equal(pair_counts(x, y), pair_counts_naive(x, y))

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"witness floors took {elapsed:.1f}s, budget 30s"


def test_criterion_3_bound_formulas():
    with criterion(3, "bound formulas"):
        assert lower_bound_points(2) == 17

        row2 = bound_table(2)[0]
        assert (row2.lower, row2.lower_certified) == (26, True)
        assert (row2.upper, row2.log2_upper) == (1024, 10)
        uncert = bound_table(2, sat_certified=False)[0]
        assert (uncert.lower, uncert.lower_certified) == (17, False)

        for n in range(1, 65):
            assert threshold_check(n) == (n >= 14)

        big = union_bound_failure(14, 14)
        small = union_bound_failure(2, 3)
        assert big.value < 1.0 and big.log2_value < 0.0
        assert small.value > 1.0 and small.log2_value > 0.0

        # log-domain evaluation against an independent formula path
        for probe in (big, small):
            n, k = probe.n, probe.k
            ref = (
                (3 * k + 1)
                + math.log(3 * n * n) / math.log(2.0)
                + (1 << k) * math.log1p(-1.0 / (n * n)) / math.log(2.0)
            )
            assert math.isclose(probe.log2_value, ref, rel_tol=1e-9)


def test_criterion_4_forced_configuration():
    with criterion(4, "forced configuration"):
        config = mandatory_configuration(2)
        assert config.coloring.V == 10
        assert len(config.coloring.colored_edges()) == 39
        assert len(config.coloring.uncolored_edges()) == 6

        probe = (config.bb_vertex(1, 1), config.bb_vertex(2, 2))
        deficit = needs_deficit(config, *probe)
        assert len(deficit.unsatisfied) == 7
        assert len(deficit.unsatisfied) + len(deficit.satisfied) == 9


def test_criterion_5_sat_lower_bounds():
    slug = "sat lower bounds"
    path = require_solver(5, slug)
    with criterion(5, slug):
        for variant, sizes in (("basic", (12, 14, 17)), ("triangles", (18, 19))):
            for v in sizes:
                outcome = solve(
                    build_formula(v, variant), solver=path, timeout=SOLVER_TIMEOUT
                )
                assert outcome.status == UNSAT, (
                    f"V={v} {variant}: {outcome.status}"
                    + (f" ({outcome.detail})" if outcome.detail else "")
                )


@pytest.mark.skipif(
    not os.environ.get("REDBLUE_EXTENDED"),
    reason="hours-long full-variant battery; set REDBLUE_EXTENDED=1 to run",
)
def test_criterion_5_extended_full_battery():
    slug = "sat lower bounds, extended"
    path = require_solver(5, slug)
    # V=23 already outruns the default hour on one core; let a patient run
    # raise the ceiling instead of failing on the clock
    timeout = float(os.environ.get("REDBLUE_EXTENDED_TIMEOUT", SOLVER_TIMEOUT))
    with criterion(5, slug):
        for v in range(20, 26):
            outcome = solve(build_formula(v, "full"), solver=path, timeout=timeout)
            assert outcome.status == UNSAT, (
                f"V={v} full: {outcome.status}"
                + (f" ({outcome.detail})" if outcome.detail else "")
            )


def test_criterion_6_model_roundtrip():
    slug = "model round-trip"
    path = require_solver(6, slug)
    with criterion(6, slug):
        # two blues: every model must decode to a checker-approved coloring;
        # at these sizes the encoding is unsatisfiable, so also pin that no
        # model exists (a model here would contradict the 26-point floor)
        for v in (5, 6, 7, 8):
            models = enumerate_models(all_edges_formula(v), limit=3, solver=path)
            for coloring in models:
                assert check_representation(coloring, ALGEBRA_TWO_BLUE).ok
            assert models == [], f"two-blue V={v} unexpectedly satisfiable"

        # one blue keeps the agreement non-vacuous: 7 points impossible,
        # 8 points realizable, and every returned model passes the checker
        one_blue = AlgebraSpec(1, 1)
        assert enumerate_models(all_edges_formula(7, one_blue), limit=1, solver=path) == []
        models = enumerate_models(all_edges_formula(8, one_blue), limit=3, solver=path)
        assert len(models) == 3
        for coloring in models:
            assert coloring.is_total
            assert check_representation(coloring, one_blue).ok

        outcome = solve(build_formula(16, "basic"), solver=path, timeout=SOLVER_TIMEOUT)
        assert outcome.status == UNSAT, f"V=16 basic: {outcome.status}"


def test_criterion_7_search_determinism():
    with criterion(7, "search determinism"):
        part = layer_partition(3)
        spec = AlgebraSpec(1, 2)

        # identical seeds, identical splits and counts
        for seed in (7, 2024):
            s1 = random_split(part, 1, 2, seed)
            s2 = random_split(part, 1, 2, seed)
            assert (s1.red_assign, s1.blue_assign) == (s2.red_assign, s2.blue_assign)
            assert violations(s1, spec).count == violations(s2, spec).count

        # a split the climber reports solved is violation-free by the
        # independent naive counter
        start_state = random_split(part, 1, 2, 5)
        solved_state, trace = hill_climb(start_state, spec, budget=200_000, seed=5)
        assert violations_naive(solved_state, spec).count == 0
        assert trace, "climb was expected to need at least one move"

        start = time.perf_counter()
        result = monte_carlo(part, 1, 2, trials=1000, seed=2024)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"1000 trials took {elapsed:.1f}s, budget 300s"
        assert result.trials == 1000
        assert result.prediction is not None
        # informational: raw success count next to the union-bound prediction
        print(
            f"criterion 7 monte-carlo: {result.successes}/1000 clean splits, "
            f"union bound {result.prediction.value:.3g}"
        )
        rerun = monte_carlo(part, 1, 2, trials=1000, seed=2024)
        assert rerun.rows == result.rows
