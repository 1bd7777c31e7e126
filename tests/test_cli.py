"""End-to-end command line behavior: exit codes, artifacts, formats."""

import argparse
import json
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

from redblue.algebra import ALGEBRA_ONE_BLUE, blue, red
from redblue import cli, cube, search
from redblue.cli import main
from redblue.cube import ResourceLimitError, parse_split
from redblue.repcheck import EdgeColoring, write_coloring
from redblue.sat.solve import SOLVER_ENV_VAR


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def kn_file(tmp_path, blue_edges, V, name="coloring.txt"):
    c = EdgeColoring(V)
    blues = {tuple(sorted(e)) for e in blue_edges}
    for j in range(V):
        for i in range(j):
            c.set_color(i, j, blue(0) if (i, j) in blues else red(0))
    path = tmp_path / name
    path.write_text(write_coloring(c, ALGEBRA_ONE_BLUE))
    return str(path)


EIGHT_POINT_BLUE = [
    (0, 1), (0, 5), (0, 7), (1, 4), (1, 6), (2, 5),
    (2, 6), (2, 7), (3, 4), (3, 6), (3, 7), (4, 5),
]


# ---------------------------------------------------------------------------
# verify-1024
# ---------------------------------------------------------------------------


def test_verify_clean(capsys):
    code, out = run(capsys, "verify-1024")
    assert code == 0
    assert "verdict: PASS" in out


def test_verify_json_payload(capsys):
    code, payload = run_json(capsys, "verify-1024")
    assert code == 0
    assert payload["ok"] is True
    assert payload["points"] == 1024
    assert payload["part_sizes"] == {"r": 847, "b1": 88, "b2": 88}
    assert all(payload["identity_checks"].values())
    assert payload["fine_ok"] and payload["coarse_merge_ok"]


def test_verify_mutation_detected(capsys):
    code, payload = run_json(capsys, "verify-1024", "--mutate", "127:b->c")
    assert code == 1
    assert payload["ok"] is False
    assert payload["identity_checks"]["s(b1,b1) == r+{0}"] is False
    assert payload["fine_ok"] is False
    assert payload["coarse_merge_ok"] is True  # the merge undoes the move


@pytest.mark.parametrize(
    "mutation",
    ["127:b", "x:b->c", "127:z->c", "127:b->b1", "4:b->c"],
)
def test_verify_mutation_usage_errors(capsys, mutation):
    code, _ = run(capsys, "verify-1024", "--mutate", mutation)
    assert code == 2


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def test_witnesses_small_case(capsys):
    code, payload = run_json(capsys, "witnesses", "--k", "1")
    assert code == 0
    assert payload["ok"] is True
    assert payload["floor"] == 2 and payload["m"] == 4
    assert len(payload["cases"]) == 5
    assert all(case["pass"] for case in payload["cases"])


def test_witnesses_rejects_bad_k(capsys):
    code, _ = run(capsys, "witnesses", "--k", "0")
    assert code == 2


def test_witnesses_memory_cap(capsys):
    code, _ = run(capsys, "witnesses", "--k", "8", "--memory-cap-mb", "1")
    assert code == 3


def test_search_logs_its_trial_shares(capsys, tmp_path):
    # the share count follows the machine, so it stays out of stdout
    log = tmp_path / "run.log"
    code, out = run(capsys, "search", "--k", "2", "--trials", "5", "--log", str(log),
                    "--format", "json")
    assert code == 0 and "share" not in out
    (line,) = [line for line in log.read_text().splitlines() if "share(s)" in line]
    assert " INFO 5 trials ran in " in line


@pytest.mark.parametrize("cpus", [3, 64])
def test_memory_cap_limits_the_trial_shares(capsys, monkeypatch, cpus):
    # a cap with room for two k = 5 shares, not three, runs two; a cap
    # below one share refuses the run; with no cap the usable CPUs, up to
    # TRIAL_SHARE_CAP, decide.  No trial is dealt, so no process starts.
    share = cli._search_words(1, 2) * 8 * (1 << 16) + cli.FIXED_BYTES
    monkeypatch.setattr(cube, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(search, "START_AFTER_S", float("inf"))
    with mock.patch.object(cli, "iter_trials", wraps=search.iter_trials) as trials:
        for cap, code, shares in ((2.5, 0, 2), (0.9, 3, None),
                                  (None, 0, min(cpus, search.TRIAL_SHARE_CAP))):
            cap_args = [] if cap is None else ["--memory-cap-mb", str(int(cap * share / 2**20))]
            argv = ["search", "--k", "5", "--trials", "9", *cap_args]
            assert run(capsys, *argv)[0] == code
            if shares is not None:
                assert trials.call_args.args[-1] == shares
            else:
                assert not trials.called
            trials.reset_mock()


@pytest.mark.parametrize("k", [2, 4, 5])
@pytest.mark.parametrize("command", ["witnesses", "1,2", "1,2,hill", "1,3,hill", "2,2,hill", "3,3,hill"])
def test_memory_estimate_covers_traced_peak(capsys, k, command):
    if command == "witnesses":
        argv = ["witnesses", "--k", str(k)]
        words = cli.PARTITION_WORDS + cli.TRANSFORM_WORDS
    else:
        p, q, *hill = command.split(",")
        argv = ["search", "--k", str(k), "--p", p, "--q", q, "--trials", "2", "--seed", "5"]
        if hill:
            argv += ["--hill", "--budget", "200"]
        words = cli._search_words(int(p), int(q))
    # every sum with blocks to deal deals them to SHARE_CAP shares, each with
    # its own gather blocks; tracemalloc traces the helper threads too, but
    # not worker processes, so the trials run in one share
    with mock.patch.object(cube, "usable_cpus", return_value=cube.SHARE_CAP), \
            mock.patch.object(search, "TRIAL_SHARE_CAP", 1), \
            mock.patch.object(cube, "_share_pool", wraps=cube._share_pool) as helpers:
        tracemalloc.start()
        try:
            assert run(capsys, *argv)[0] in (0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    if k == 5 and command == "1,2,hill":
        # both trials are solved, and their re-checks deal sums to every share
        assert helpers.call_count >= 2 * (cube.SHARE_CAP - 1)
    # a cap at the traced peak must refuse the work: the estimate is above it
    with pytest.raises(ResourceLimitError):
        cli._check_memory(argparse.Namespace(memory_cap_mb=peak / 2**20), 3 * k + 1, words, "")


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_two_blues(capsys):
    code, out = run(capsys, "bounds", "--n", "2")
    assert code == 0
    assert "lower bound: 26 points (solver-certified" in out
    assert "upper bound: 1024 = 2^10 points (explicit-split)" in out
    assert "k = 6 is the smallest" in out


def test_bounds_formula_only(capsys):
    code, payload = run_json(capsys, "bounds", "--n", "2", "--no-sat-certified")
    assert code == 0
    assert payload["lower"] == 17 and payload["lower_certified"] is False


def test_bounds_union_bound_pin(capsys):
    code, out = run(capsys, "bounds", "--n", "2", "--k", "1")
    assert code == 0
    assert "strict value = 108" in out


def test_bounds_large_n_json(capsys):
    code, payload = run_json(capsys, "bounds", "--n", "14")
    assert code == 0
    assert payload["upper"] == 2**43 and payload["log2_upper"] == 43
    assert payload["upper_source"] == "layer-theorem"
    assert payload["threshold_5n3_lt_2n"] is True
    assert payload["scan_smallest_k"] == 13


def test_bounds_table_csv(capsys):
    code, out = run(capsys, "bounds", "--table", "--n-max", "4")
    assert code == 0
    assert out == "n,lower,upper,log2_upper\n2,26,1024,10\n3,31,,\n4,49,,\n"
    again = run(capsys, "bounds", "--table", "--n-max", "4")[1]
    assert again == out


def test_bounds_table_to_file(capsys, tmp_path):
    path = tmp_path / "bounds.csv"
    code, out = run(capsys, "bounds", "--table", "--n-max", "3", "--out", str(path))
    assert code == 0 and "wrote" in out
    assert path.read_text() == "n,lower,upper,log2_upper\n2,26,1024,10\n3,31,,\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds",),
        ("bounds", "--n", "0"),
        ("bounds", "--n", "1", "--k", "2"),
    ],
)
def test_bounds_usage_errors(capsys, argv):
    code, _ = run(capsys, *argv)
    assert code == 2


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_random_trials(capsys, tmp_path):
    path = tmp_path / "trials.csv"
    code, payload = run_json(
        capsys, "search", "--k", "1", "--trials", "5", "--seed", "3",
        "--out", str(path),
    )
    assert code == 0
    assert payload["trials"] == 5 and payload["mode"] == "random"
    assert payload["prediction"]["n"] == 2 and payload["prediction"]["k"] == 1
    lines = path.read_text().splitlines()
    assert lines[0] == "trial,seed,violations,solved"
    assert len(lines) == 6
    first = path.read_bytes()
    run(capsys, "search", "--k", "1", "--trials", "5", "--seed", "3", "--out", str(path))
    assert path.read_bytes() == first  # bit-identical rerun


def test_search_unsplit_has_no_prediction(capsys):
    code, payload = run_json(capsys, "search", "--k", "1", "--q", "1", "--trials", "3")
    assert code == 0
    assert payload["prediction"] is None
    assert payload["solved"] == 3  # the plain layer pair always works


def test_search_hill_saves_solved_split(capsys, tmp_path):
    out_dir = tmp_path / "solved"
    code, payload = run_json(
        capsys, "search", "--k", "3", "--trials", "1", "--hill",
        "--budget", "200000", "--seed", "42", "--save-solved", str(out_dir),
    )
    assert code == 0
    assert payload["solved"] == 1
    assert payload["mode"].startswith("hill")
    saved = payload["saved_splits"]
    assert saved == [str(out_dir / "solved-k3-p1q2-trial00000.txt")]
    code, out = run(capsys, "check-rep", saved[0])
    assert code == 0 and "verdict: PASS" in out


def test_search_random_saves_every_solved_split(capsys, tmp_path):
    out_dir = tmp_path / "solved"
    code, payload = run_json(
        capsys, "search", "--k", "1", "--q", "1", "--trials", "3",
        "--save-solved", str(out_dir),
    )
    assert code == 0 and payload["mode"] == "random" and payload["solved"] == 3
    saved = payload["saved_splits"]
    assert saved == [str(out_dir / f"solved-k1-p1q1-trial{t:05d}.txt") for t in range(3)]
    for path in saved:
        code, out = run(capsys, "check-rep", path)
        assert code == 0 and "verdict: PASS" in out


def test_parse_split_peak_on_a_k5_saved_split(capsys, tmp_path):
    # 58,651 red elements: a token string and an int per element took
    # 6.21 MiB; one int64 array per color line takes 1.33 MiB
    out_dir = tmp_path / "solved"
    code, payload = run_json(capsys, "search", "--k", "5", "--trials", "3", "--seed", "1",
                             "--save-solved", str(out_dir))
    assert code == 0 and payload["saved_splits"]
    text = Path(payload["saved_splits"][0]).read_text()
    tracemalloc.start()
    try:
        parsed = parse_split(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert cube.write_split(parsed) == text


def test_search_saves_nothing_when_nothing_solves(capsys, tmp_path):
    out_dir = tmp_path / "solved"
    code, payload = run_json(
        capsys, "search", "--k", "1", "--trials", "3", "--seed", "3",
        "--save-solved", str(out_dir),
    )
    assert code == 0
    assert payload["solved"] == 0 and payload["saved_splits"] == []
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--k", "0"),
        ("search", "--k", "1", "--trials", "0"),
        ("search", "--k", "1", "--p", "0"),
        ("search", "--k", "1", "--trials", "100001"),
    ],
)
def test_search_usage_errors(capsys, argv):
    code, _ = run(capsys, *argv)
    assert code == 2


# ---------------------------------------------------------------------------
# check-rep
# ---------------------------------------------------------------------------


def test_check_rep_accepts_witness(capsys, tmp_path):
    path = kn_file(tmp_path, EIGHT_POINT_BLUE, 8)
    code, payload = run_json(capsys, "check-rep", path)
    assert code == 0
    assert payload["ok"] is True
    assert payload["kind"] == "edge-coloring" and payload["points"] == 8


def test_check_rep_rejects_seven_cycle(capsys, tmp_path):
    path = kn_file(tmp_path, [(i, (i + 1) % 7) for i in range(7)], 7)
    code, payload = run_json(capsys, "check-rep", path)
    assert code == 1
    assert payload["ok"] is False
    assert len(payload["violations"]) == 7


def test_check_rep_rejects_one_point_file(capsys, tmp_path):
    path = tmp_path / "one-point.txt"
    path.write_text("kn V=1 colors=2\n")
    code, payload = run_json(capsys, "check-rep", str(path))
    assert code == 1
    assert payload["ok"] is False
    assert payload["violations"] == [
        "[missing-color] no edge realizes color r",
        "[missing-color] no edge realizes color b1",
    ]


def test_check_rep_cube_part_outside_algebra_is_usage_error(capsys, tmp_path):
    # a second red part cannot belong to the one-red algebra the header implies
    path = tmp_path / "foreign.txt"
    path.write_text("cube m=2 colors=2\nr2: 1 2\nb1: 3\n")
    assert run(capsys, "check-rep", str(path))[0] == 2


def test_check_rep_usage_errors(capsys, tmp_path):
    partial = tmp_path / "partial.txt"
    partial.write_text("kn V=4 colors=2\n0 1 r\n")
    assert run(capsys, "check-rep", str(partial))[0] == 2

    bad_header = tmp_path / "bad.txt"
    bad_header.write_text("graph V=4\n")
    assert run(capsys, "check-rep", str(bad_header))[0] == 2

    wrong_q = kn_file(tmp_path, EIGHT_POINT_BLUE, 8, "w.txt")
    assert run(capsys, "check-rep", wrong_q, "--q", "3")[0] == 2

    assert run(capsys, "check-rep", str(tmp_path / "missing.txt"))[0] == 2


@pytest.mark.parametrize("token", ["0", "8", "-1", "2.5", "x", str(1 << 64), str(-(1 << 70))])
def test_check_rep_bad_split_element_is_usage_error(capsys, tmp_path, token):
    # element 0, elements outside [0, 2^m) at any size, and non-integers
    # are each a ValueError, never an OverflowError
    text = f"cube m=3 colors=2\nr: 1 2 4 {token}\nb1: 3 5 6 7\n"
    with pytest.raises(ValueError):
        parse_split(text)
    path = tmp_path / "split.txt"
    path.write_text(text)
    assert run(capsys, "check-rep", str(path))[0] == 2


@pytest.mark.parametrize(
    "header",
    [
        "kn V=5",
        "kn V=5 x=2",
        "kn colors=2 x=5",
        "kn V=five colors=2",
        "cube m=3 x=2",
        "cube colors=2 y=3",
        "cube m=3",
    ],
)
def test_check_rep_malformed_header_is_usage_error(capsys, tmp_path, header):
    path = tmp_path / "bad.txt"
    path.write_text(header + "\n")
    assert run(capsys, "check-rep", str(path))[0] == 2


# ---------------------------------------------------------------------------
# encode / solve
# ---------------------------------------------------------------------------


def test_encode_census_json(capsys):
    code, payload = run_json(capsys, "encode", "--points", "10", "--variant", "basic")
    assert code == 0
    assert payload["vars"] == 2079 and payload["clauses"] == 6294
    assert payload["groups"] == {
        "exactly-one": 180, "precolor": 39, "red-needs": 6075,
    }


def test_encode_writes_self_describing_file(capsys, tmp_path):
    path = tmp_path / "instance.cnf"
    code, out = run(
        capsys, "encode", "--points", "10", "--variant", "basic", "--out", str(path)
    )
    assert code == 0 and "wrote" in out
    first = path.read_text().splitlines()[0]
    assert first.startswith("c variant=basic V=10 t=3")


def test_encode_usage_errors(capsys):
    assert run(capsys, "encode", "--points", "2")[0] == 2
    assert run(capsys, "encode", "--points", "9", "--variant", "basic")[0] == 2
    # encodings take one red color, so encode has no red count to set
    assert "p" not in vars(cli.build_parser().parse_args(["encode", "--points", "10"]))


def test_solve_builtin_round_trip(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
    path = tmp_path / "ae4.cnf"
    run(capsys, "encode", "--points", "4", "--variant", "all-edges",
        "--q", "1", "--out", str(path))
    code, payload = run_json(capsys, "solve", "--cnf", str(path))
    assert code == 0 and payload["status"] == "UNSAT"
    assert payload["solver"] == "builtin-cdcl"
    assert payload["stats"]["proof steps"] >= 1 and payload["stats"]["proof hints"] >= 1
    assert run(capsys, "solve", "--cnf", str(path), "--expect", "unsat")[0] == 0
    assert run(capsys, "solve", "--cnf", str(path), "--expect", "sat")[0] == 1


def test_solve_foreign_instance(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
    path = tmp_path / "foreign.cnf"
    path.write_text("p cnf 2 2\n1 0\n-1 2 0\n")
    code, out = run(capsys, "solve", "--cnf", str(path))
    assert code == 0
    assert "status: SAT" in out
    assert "model decodes" not in out  # no geometry to decode


def test_solve_input_errors(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
    corrupt = tmp_path / "corrupt.cnf"
    corrupt.write_text("p cnf 1 1\n2 0\n")
    assert run(capsys, "solve", "--cnf", str(corrupt))[0] == 2
    assert run(capsys, "solve", "--cnf", str(tmp_path / "gone.cnf"))[0] == 2


def test_solve_unrecognized_model_exits_resource(capsys, tmp_path):
    solver = tmp_path / "fakesolver"
    solver.write_text('#!/bin/sh\necho "s SATISFIABLE"\necho "v 1 -2 x 0"\nexit 10\n')
    solver.chmod(0o755)
    path = tmp_path / "foreign.cnf"
    path.write_text("p cnf 2 2\n1 0\n-1 2 0\n")
    code, out = run(capsys, "solve", "--cnf", str(path), "--solver", str(solver))
    assert code == 3
    assert "status: UNKNOWN" in out and "unrecognized solver output" in out


def test_solve_builtin_refutes_basic_ten(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
    path = tmp_path / "big.cnf"
    run(capsys, "encode", "--points", "10", "--variant", "basic", "--out", str(path))
    code, out = run(capsys, "solve", "--cnf", str(path))
    assert code == 0 and "status: UNSAT (builtin-cdcl" in out


def test_solve_external_sat_decodes(capsys, tmp_path, solver):
    path = tmp_path / "ae8.cnf"
    run(capsys, "encode", "--points", "8", "--variant", "all-edges",
        "--q", "1", "--out", str(path))
    code, payload = run_json(
        capsys, "solve", "--cnf", str(path), "--solver", solver, "--expect", "sat"
    )
    assert code == 0 and payload["status"] == "SAT"
    assert len(payload["coloring"]) == 28  # all edges of K8 decoded


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def test_pipeline_usage_errors(capsys, tmp_path):
    base = ("pipeline", "--out-dir", str(tmp_path))
    assert run(capsys, *base, "--from", "10", "--to", "20")[0] == 2
    assert run(capsys, *base, "--from", "12", "--to", "10")[0] == 2
    assert run(capsys, *base, "--from", "2", "--to", "10")[0] == 2


def test_pipeline_builtin_refutes_basic_ten(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
    code, _ = run(
        capsys, "pipeline", "--from", "10", "--to", "10",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    summary = (tmp_path / "summary.csv").read_text()
    assert summary == "points,variant,status\n10,basic,UNSAT\n"
    record = (tmp_path / "lb-V10-basic.log").read_text()
    assert "status=UNSAT" in record and "conflicts=0 proof_steps=" in record
    assert "proof_check_seconds=" in record

    # the JSON results carry the solver counters; the CSV stays the same bytes
    code, payload = run_json(
        capsys, "pipeline", "--from", "10", "--to", "10", "--out-dir", str(tmp_path)
    )
    assert code == 0
    [result] = payload["results"]
    assert result["status"] == "UNSAT" and result["stats"]["conflicts"] == 0
    assert result["stats"]["proof steps"] >= 1 and "proof check seconds" in result["stats"]
    assert (tmp_path / "summary.csv").read_text() == summary


def test_pipeline_artifacts(capsys, tmp_path, solver):
    out_dir = tmp_path / "artifacts"
    code, _ = run(
        capsys, "pipeline", "--from", "10", "--to", "11",
        "--solver", solver, "--out-dir", str(out_dir),
    )
    assert code == 0
    summary = (out_dir / "summary.csv").read_text()
    assert summary == "points,variant,status\n10,basic,UNSAT\n11,basic,UNSAT\n"
    assert (out_dir / "lb-V10-basic.cnf").exists()
    assert "status=UNSAT" in (out_dir / "lb-V10-basic.log").read_text()
    # rerun with two usable CPUs, two rungs side by side; the deterministic
    # artifact is byte-identical
    first = (out_dir / "summary.csv").read_bytes()
    with mock.patch.object(cube, "usable_cpus", return_value=2):
        run(
            capsys, "pipeline", "--from", "10", "--to", "11",
            "--solver", solver, "--out-dir", str(out_dir),
        )
    assert (out_dir / "summary.csv").read_bytes() == first


@pytest.mark.parametrize("cpus", [1, 3])
def test_pipeline_threads_follow_the_solver_and_cpus(capsys, tmp_path, monkeypatch, cpus):
    # in-process rungs share one interpreter and run one at a time; an
    # external solver's rungs get one thread per usable CPU, at most one
    # per rung.  The spy's pool runs nothing, so no rung is solved.
    sizes = []

    class Spy(cli.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

        def map(self, fn, items):
            return iter(())

    monkeypatch.setattr(cli, "ThreadPoolExecutor", Spy)
    monkeypatch.setattr(cube, "usable_cpus", lambda: cpus)
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
    base = ("pipeline", "--from", "10", "--to", "11", "--out-dir", str(tmp_path))
    assert run(capsys, *base)[0] == 0
    assert run(capsys, *base, "--solver", "/no/such/solver")[0] == 0
    monkeypatch.setenv(SOLVER_ENV_VAR, "sh")
    assert run(capsys, *base)[0] == 0
    assert sizes == [1, min(cpus, 2), min(cpus, 2)]
    # a REDBLUE_SOLVER that cannot run fails once the CNF files are written
    monkeypatch.setenv(SOLVER_ENV_VAR, str(tmp_path / "gone"))
    (tmp_path / "lb-V11-basic.cnf").unlink()
    assert run(capsys, *base)[0] == 3
    assert (tmp_path / "lb-V11-basic.cnf").exists() and len(sizes) == 3


def test_pipeline_expect_mismatch(capsys, tmp_path, solver):
    code, _ = run(
        capsys, "pipeline", "--from", "10", "--to", "10",
        "--solver", solver, "--out-dir", str(tmp_path), "--expect", "sat",
    )
    assert code == 1


# ---------------------------------------------------------------------------
# logging and run records
# ---------------------------------------------------------------------------


def test_log_file_records_run(capsys, tmp_path):
    path = tmp_path / "run.log"
    code, _ = run(capsys, "witnesses", "--k", "1", "--log", str(path))
    assert code == 0
    content = path.read_text()
    assert '"version"' in content and '"config"' in content
    assert "INFO run " in content
    assert "INFO exit 0" in content


# ---------------------------------------------------------------------------
# flag scoping and exit codes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-1024", "--seed", "1"],
        ["verify-1024", "--out", "x.txt"],
        ["witnesses", "--k", "1", "--seed", "1"],
        ["pipeline", "--from", "10", "--to", "10", "--threads", "2"],
        ["bounds", "--n", "2", "--extended"],
        ["solve", "--cnf", "x.cnf", "--memory-cap-mb", "1"],
        # no prefix of a flag stands for it
        ["encode", "--points", "10", "--p", "2"],
        ["encode", "--p", "2", "--points", "10"],
    ],
)
def test_flags_only_where_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("mutation", ["127:b3->c", "127:1'->c", "127:r2->c"])
def test_verify_mutation_rejects_other_colors(capsys, mutation):
    code, _ = run(capsys, "verify-1024", "--mutate", mutation)
    assert code == 2


@pytest.mark.parametrize("error", [RuntimeError("certificate rejected"), MemoryError()])
def test_runtime_and_memory_errors_exit_resource(capsys, monkeypatch, caplog, error):
    import redblue.cli as cli

    def boom(args):
        raise error

    monkeypatch.setattr(cli, "cmd_witnesses", boom)
    code, _ = run(capsys, "witnesses", "--k", "1")
    assert code == 3
    assert (str(error) or "MemoryError") in caplog.text
