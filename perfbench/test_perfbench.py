"""Tests of the benchmark itself: every output check fires on a wrong
expectation, a failed check makes failed_frac non-zero, tracing changes no
output, the speed gauge keeps its own time off the clock, and the runner
refuses to run without the library.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import refspeed
from run import run_rounds, traced_replay
from tracing import layer_metrics
from workloads import HillK4, Instance, MonteCarloK4, SatCertify, VerifyK5, import_redblue

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def rb():
    return import_redblue()


def test_mc_check_fires_when_a_verdict_is_flipped(rb):
    w = MonteCarloK4(trials=2)
    w.setup(rb, 5)
    op = w.round(0)[0]
    out = op.call()
    assert w.check(op, out) is None
    row = out.rows[0]
    flipped = dataclasses.replace(
        out,
        rows=(row._replace(solved=not row.solved),) + out.rows[1:],
        successes=out.successes + (-1 if row.solved else 1),
    )
    w.verified = {True: 0, False: 0}
    assert "verify_group_representation says" in w.check(op, flipped)


def test_hill_check_fires_when_the_repair_is_cut_short(rb):
    w = HillK4(budget=0)
    w.setup(rb, 5)
    op = w.round(0)[0]
    assert "violations" in w.check(op, op.call())


def test_verify_check_fires_on_a_wrong_verdict(rb):
    w = VerifyK5()
    w.setup(rb, 5)
    labels = [label for label, *_ in w.cases]
    assert labels == ["k5-n2", "k5-n3", "k5-n2-mutated", "embedded-1024"]
    assert [expect for *_, expect in w.cases] == [True, True, False, True]
    op = w.round(0)[3]
    out = op.call()
    assert w.check(op, out) is None
    wrong = dataclasses.replace(op, case=not op.case)
    assert "expected False" in w.check(wrong, out)


def _sat_workload(rb, *instances):
    w = SatCertify(instances=instances)
    w.setup(rb, 0)
    return w


def test_sat_check_fires_on_a_wrong_verdict(rb):
    w = _sat_workload(rb, Instance("all-edges", 4, 1, "UNSAT"))
    op = w.round(0)[0]
    out = op.call()
    assert w.check(op, out) is None
    wrong = dataclasses.replace(op, case=Instance("all-edges", 4, 1, "SAT"))
    assert "expected SAT" in w.check(wrong, out)


def test_sat_check_fires_when_parsing_loses_a_clause(rb):
    w = _sat_workload(rb, Instance("basic", 10, 2, None))
    op = w.round(0)[0]
    formula, text, (num_vars, clauses), outcome = op.call()
    assert w.check(op, (formula, text, (num_vars, clauses), outcome)) is None
    broken = (formula, text, (num_vars, clauses[:-1]), outcome)
    assert "differs" in w.check(op, broken)


def test_sat_check_fires_when_the_model_decodes_to_a_non_representation(rb):
    inst = Instance("all-edges", 3, 1, "SAT")
    w = _sat_workload(rb, inst)
    op = w.round(0)[0]
    formula = rb.encode.all_edges_formula(3, rb.algebra.AlgebraSpec(1, 1))
    vm = rb.encode.VarMap(3, formula.colors)
    all_red = {
        v: vm.decode(v)[2] == 0 for v in range(1, formula.num_base_vars + 1)
    }
    outcome = rb.solve.SolveOutcome("SAT", all_red, None, "test", 0.0)
    text = rb.dimacs.to_dimacs(formula)
    out = (formula, text, rb.dimacs.parse_dimacs(text), outcome)
    assert "decoded model rejected" in w.check(op, out)


def test_wrong_expectation_makes_failed_frac_non_zero(rb):
    w = _sat_workload(
        rb,
        Instance("all-edges", 4, 1, "UNSAT"),
        Instance("all-edges", 4, 2, "SAT"),  # really UNSAT
        Instance("no-such-variant", 10, 2, None),  # raises
    )
    p = run_rounds(w, seconds=0)
    assert p.rounds == 1 and len(p.latencies) == 3
    assert sorted(p.failures) == [1, 2]
    assert len(p.failures) / len(p.latencies) > 0


def test_tracing_changes_no_output_and_yields_every_layer_metric(rb):
    w = _sat_workload(
        rb, Instance("all-edges", 4, 1, "UNSAT"), Instance("basic", 10, 2, None)
    )
    original = rb.solve.dpll
    plain, traced, tracer = traced_replay(w, rb, 0)
    assert rb.solve.dpll is original
    assert plain.rounds == traced.rounds == w.trace_rounds == 1
    assert traced.summaries == plain.summaries and not plain.failures

    metrics = layer_metrics(tracer.spans)
    assert metrics["sat.solve.unsat"] == 1 and metrics["sat.solve.decided_ratio"] == 1
    assert metrics["sat.encode.vars"] == sum(s[0] for s in plain.summaries)
    assert metrics["sat.dimacs.bytes"] == sum(s[2] for s in plain.summaries)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    assert names == set(metrics) | {"trace.overhead_frac"}


def test_traced_counts_repeat_for_a_seed(rb):
    """A traced run replays a fixed round count, so its counts do not follow timing."""
    counts = []
    for _ in range(2):
        w = MonteCarloK4(trials=2, trace_rounds=3)
        w.setup(rb, 7)
        _plain, traced, tracer = traced_replay(w, rb, 7)
        assert traced.rounds == 3
        metrics = layer_metrics(tracer.spans)
        counts.append({k: v for k, v in metrics.items() if not k.endswith(".s")})
    assert counts[0] == counts[1]
    assert counts[0]["search.random_split.calls"] == 6
    assert counts[0]["search.random_split.elements"] == 6 * ((1 << 13) - 1)


def test_gauge_samples_while_on_and_keeps_its_time_off_the_clock():
    previous = signal.getsignal(signal.SIGALRM)
    with refspeed.Gauge() as gauge:
        c0, w0 = refspeed.clock(), perf_counter()
        while perf_counter() - w0 < 4 * refspeed.PERIOD_S:
            pass
        c1, w1 = refspeed.clock(), perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(gauge.samples) >= 2
    assert (w1 - w0) - (c1 - c0) >= sum(gauge.samples[:-1])  # the last may follow w1
    first_two = 1 / gauge.samples[0] + 1 / gauge.samples[1]
    assert gauge.scale(0, 0) == pytest.approx(refspeed.NOMINAL_S / gauge.samples[0])
    assert gauge.scale(1, 1) == pytest.approx(refspeed.NOMINAL_S * first_two / 2)


def test_runner_exits_non_zero_without_the_library():
    bare = ROOT / "perfbench" / "out" / "bare-checkout"  # BENCHMARK.json and perfbench only
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-k4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
