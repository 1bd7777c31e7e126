"""Command line front end tying the toolkit together.

Subcommands cover the whole workflow: verifying the embedded 1024-point
coloring, tabulating witness floors for the layer partitions, evaluating
size bounds, running randomized split searches, checking coloring files,
and encoding/solving the propositional lower-bound instances.

Every run appends a line-delimited record of its resolved configuration
and the package version to the log target; identical configurations give
identical primary outputs (wall times appear in reports and logs but
never in written artifacts).

Exit codes: 0 success or verified, 1 violation found or an outcome
contradicting --expect, 2 usage error, 3 resource or solver failure
(any RuntimeError or MemoryError, logged rather than raised).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, cube
from .algebra import (
    ALGEBRA_ONE_BLUE,
    ALGEBRA_TWO_BLUE,
    IDENTITY,
    AlgebraSpec,
    ColorId,
    blue,
    bound_row,
    bound_table,
    iter_bound_csv,
    lower_bound_points,
    parse_color_name,
    red,
    threshold_check,
    union_bound_at,
)
from .cube import (
    GATHER_BLOCK_WORDS,
    SHARE_CAP,
    CubeSubset,
    GroupColoring,
    ResourceLimitError,
    embedded_split_1024,
    layer_partition,
    parse_split,
    singleton,
    sumset,
    verify_group_representation,
    witness_minima,
    write_split,
)
from .repcheck import check_representation, coloring_header, parse_coloring
from .sat.dimacs import formula_from_dimacs, to_dimacs
from .sat.encode import VARIANTS, CnfFormula, all_edges_formula, build_formula
from .sat.solve import SAT, UNKNOWN, default_solver, solve
from .search import (
    MonteCarloResult,
    SplitState,
    TrialResult,
    iter_trial_csv,
    iter_trials,
    trial_shares,
)

log = logging.getLogger("redblue")

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# long-running regimes stay behind an explicit opt-in
EXTENDED_POINTS = 20
EXTENDED_TRIALS = 100_000


class UsageError(ValueError):
    """Bad flag combination or malformed argument value."""


# --mutate takes the color names of split files and these sumset letters
_SUMSET_LETTERS: dict[str, ColorId] = {"a": red(0), "b": blue(0), "c": blue(1)}


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _emit(text: str, out: str | None) -> None:
    """Write the primary artifact to --out when given, stdout otherwise."""
    if out:
        Path(out).write_text(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=False, default=str))


# Memory estimates, in int64 words per cube element: a layer partition holds
# 5.25 (two transforms, three count rows, two bool indicators), a running
# transform 3 more.
# FIXED_BYTES covers what does not grow with m: the gather blocks of a
# sumset, an int64 index and a uint64 gather block for each of its at most
# SHARE_CAP shares, which also covers the blocks of positions a climb's
# first tally is judged in and its reaches are added in.  A sumset's
# translate table (one word per element) lives only while a success is
# re-checked, after the climb has freed its count rows.
PARTITION_WORDS = 5.25
TRANSFORM_WORDS = 3
FIXED_BYTES = SHARE_CAP * 16 * GATHER_BLOCK_WORDS


def _search_words(p: int, q: int) -> float:
    """Peak words per cube element of a split search: beside the
    partition, a split's labels and masks (one word) and n(n+1)/2 count
    rows, n = p + q, plus n forward transforms and a running one while
    the rows are computed, or three bool vectors per row while they are
    judged.  A climb that recounts its rows holds the transforms beside a
    tally (three), one reach per movable layer (at most n - 1, at most
    two), labels and members (one) and the layers' elements (one): at
    most n + 3 words more."""
    n = p + q
    rows = n * (n + 1) // 2
    return PARTITION_WORDS + 1 + rows + max(n + TRANSFORM_WORDS + (n + 3), 3 * rows / 8)


def _estimate_bytes(m: int, words: float) -> int:
    """What one process holding `words` per cube element needs."""
    return int(words * 8 * (1 << m)) + FIXED_BYTES


def _check_memory(args: argparse.Namespace, m: int, words: float, what: str) -> None:
    cap = getattr(args, "memory_cap_mb", None)
    estimate_bytes = _estimate_bytes(m, words)
    if cap is not None and estimate_bytes > cap * 2**20:
        raise ResourceLimitError(
            f"{what} needs about {estimate_bytes / 2**20:.0f} MiB, "
            f"above the {cap} MiB cap"
        )


# ---------------------------------------------------------------------------
# verify-1024
# ---------------------------------------------------------------------------


def _parse_mutation(text: str) -> tuple[int, ColorId, ColorId]:
    """Parse ELEM:FROM->TO, e.g. 127:b->c or 127:b1->b2."""
    head, colon, rest = text.partition(":")
    src, arrow, dst = rest.partition("->")
    if not colon or not arrow:
        raise UsageError(f"mutation must look like ELEM:FROM->TO, got {text!r}")
    try:
        elem = int(head)
    except ValueError:
        raise UsageError(f"bad element {head!r} in mutation") from None
    src, dst = (_mutation_part(name.strip().lower()) for name in (src, dst))
    if src == dst:
        raise UsageError("mutation source and destination coincide")
    return elem, src, dst


def _mutation_part(name: str) -> ColorId:
    try:
        color = _SUMSET_LETTERS.get(name) or parse_color_name(name)
    except ValueError:
        color = IDENTITY
    if color not in ALGEBRA_TWO_BLUE.diversity_colors():
        raise UsageError(f"unknown part {name!r}; use a, b, c, r, b1 or b2")
    return color


def _apply_mutation(
    coloring: GroupColoring, elem: int, src: ColorId, dst: ColorId
) -> GroupColoring:
    parts = dict(coloring.parts)
    if elem not in parts[src]:
        raise UsageError(f"element {elem} is not in the source part")
    point = singleton(coloring.m, elem)
    parts[src] = parts[src] - point
    parts[dst] = parts[dst] | point
    return GroupColoring(coloring.m, parts)


def cmd_verify_1024(args: argparse.Namespace) -> int:
    coloring = embedded_split_1024()
    if args.mutate:
        coloring = _apply_mutation(coloring, *_parse_mutation(args.mutate))
    m = coloring.m
    a = coloring.part(red(0))
    b = coloring.part(blue(0))
    c = coloring.part(blue(1))
    everything = CubeSubset.full(m)
    diversity = everything.without_zero()
    a_zero = a | singleton(m, 0)
    identity_checks = [
        ("s(r,r) == G", sumset(a, a) == everything),
        ("s(r,b1) == G-{0}", sumset(a, b) == diversity),
        ("s(r,b2) == G-{0}", sumset(a, c) == diversity),
        ("s(b1,b1) == r+{0}", sumset(b, b) == a_zero),
        ("s(b2,b2) == r+{0}", sumset(c, c) == a_zero),
        ("s(b1,b2) == r", sumset(b, c) == a),
    ]
    fine = verify_group_representation(coloring, ALGEBRA_TWO_BLUE, collect_all=True)
    merged = coloring.merged({red(0): (red(0),), blue(0): (blue(0), blue(1))})
    coarse = verify_group_representation(merged, ALGEBRA_ONE_BLUE, collect_all=True)
    ok = all(v for _, v in identity_checks) and fine.ok and coarse.ok

    if args.format == "json":
        _print_json(
            {
                "points": 1 << m,
                "m": m,
                "part_sizes": {"r": len(a), "b1": len(b), "b2": len(c)},
                "mutation": args.mutate,
                "identity_checks": dict(identity_checks),
                "fine_ok": fine.ok,
                "fine_violations": [str(v) for v in fine.violations],
                "coarse_merge_ok": coarse.ok,
                "coarse_violations": [str(v) for v in coarse.violations],
                "ok": ok,
            }
        )
    else:
        print(f"points: {1 << m} (m={m})")
        print(f"part sizes: r={len(a)} b1={len(b)} b2={len(c)}")
        if args.mutate:
            print(f"mutation applied: {args.mutate}")
        for label, value in identity_checks:
            print(f"{label:<20}: {value}")
        _print_verify("fine split (r,b1,b2)", fine)
        _print_verify("coarse merge (r,b)", coarse)
        print(f"verdict: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VIOLATION


def _print_verify(label: str, result) -> None:
    if result.ok:
        print(f"{label:<20}: ok")
        return
    print(f"{label:<20}: {len(result.violations)} violation(s)")
    for v in result.violations[:10]:
        print(f"  {v}")
    if len(result.violations) > 10:
        print(f"  ... and {len(result.violations) - 10} more")


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def cmd_witnesses(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    m = 3 * args.k + 1
    _check_memory(args, m, PARTITION_WORDS + TRANSFORM_WORDS, f"transforms at m={m}")
    part = layer_partition(args.k)
    stats = witness_minima(part)
    floor = 1 << args.k
    all_pass = all(st.min_count >= floor for st in stats.values())

    if args.format == "json":
        _print_json(
            {
                "k": args.k,
                "m": m,
                "floor": floor,
                "cases": [
                    {
                        "case": label,
                        "min_witnesses": st.min_count,
                        "at_element": st.argmin,
                        "pass": st.min_count >= floor,
                    }
                    for label, st in stats.items()
                ],
                "ok": all_pass,
            }
        )
    else:
        print(f"layer partition k={args.k} (m={m}, {1 << m} points), floor 2^k = {floor}")
        print(f"{'case':<10} {'minimum':>8} {'at':>6}  status")
        for label, st in stats.items():
            verdict = "pass" if st.min_count >= floor else "FAIL"
            print(f"{label:<10} {st.min_count:>8} {st.argmin:>6}  {verdict}")
        print(f"verdict: {'PASS' if all_pass else 'FAIL'}")
    return EXIT_OK if all_pass else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.table:
        rows = bound_table(args.n_max, sat_certified=args.sat_certified)
        if args.format == "json":
            _print_json({"rows": [dataclasses.asdict(r) for r in rows]})
        else:
            _emit("\n".join(iter_bound_csv(rows)) + "\n", args.out)
        return EXIT_OK

    if args.n is None:
        raise UsageError("--n is required unless --table is used")
    n = args.n
    if n < 1:
        raise UsageError("--n must be >= 1")
    if args.k is not None and n < 2:
        raise UsageError("union bounds need n >= 2")

    row = bound_row(n, args.sat_certified)
    lower = lower_bound_points(n)
    scan = union_bound_at(n, None)
    scan_k = None if scan is None else scan.k
    union = scan if args.k is None else union_bound_at(n, args.k)
    evals = [] if union is None else [union]

    if args.format == "json":
        _print_json(
            {
                "n": n,
                "lower": row.lower,
                "lower_formula": lower,
                "lower_certified": row.lower_certified,
                "upper": row.upper,
                "log2_upper": row.log2_upper,
                "upper_source": row.upper_source or None,
                "threshold_5n3_lt_2n": threshold_check(n),
                "scan_smallest_k": scan_k,
                "union_bounds": [
                    {
                        "k": ev.k,
                        "log2_strict": ev.log2_value,
                        "log2_relaxed": ev.log2_relaxed,
                        "strict": ev.value,
                        "certifies_success": ev.certifies_success,
                    }
                    for ev in evals
                ],
            }
        )
    else:
        print(f"n = {n}")
        if row.lower_certified:
            print(f"lower bound: {row.lower} points (solver-certified; counting formula gives {lower})")
        else:
            print(f"lower bound: {lower} points (2n^2 + 4n + 1)")
        if row.upper is not None:
            print(f"upper bound: {row.upper} = 2^{row.log2_upper} points ({row.upper_source})")
        else:
            print("upper bound: none proven in this regime")
        if scan_k is not None:
            print(
                f"union-bound scan: k = {scan_k} is the smallest with failure "
                f"probability below 1 (2^{3 * scan_k + 1} points)"
            )
        print(f"threshold 5n^3 < 2^n: {threshold_check(n)}")
        for ev in evals:
            linear = f"{ev.value:.6g}" if ev.log2_value < 1000 else "overflows"
            print(
                f"union bound at k={ev.k}: log2 strict = {ev.log2_value:+.4f}, "
                f"relaxed = {ev.log2_relaxed:+.4f}, strict value = {linear}"
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def cmd_search(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    if args.p < 1 or args.q < 1:
        raise UsageError("--p and --q must be >= 1")
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if args.trials > EXTENDED_TRIALS and not args.extended:
        raise UsageError(
            f"more than {EXTENDED_TRIALS} trials is a long-running regime; "
            "pass --extended to confirm"
        )
    m = 3 * args.k + 1
    words = _search_words(args.p, args.q)
    _check_memory(args, m, words, f"split search at m={m}")
    shares = trial_shares(args.trials)
    if args.memory_cap_mb is not None:  # as many shares as fit, at least one (checked above)
        shares = min(shares, args.memory_cap_mb * 2**20 // _estimate_bytes(m, words))
    part = layer_partition(args.k)
    saved = []

    def save(trial: TrialResult, state: SplitState) -> TrialResult:
        """Write a solved split to --save-solved as soon as it is found."""
        if trial.solved and args.save_solved:
            directory = Path(args.save_solved)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"solved-k{args.k}-p{args.p}q{args.q}-trial{trial.trial:05d}.txt"
            path.write_text(write_split(state.to_coloring()))
            saved.append(str(path))
        return trial

    budget = args.budget if args.hill else None
    trials = iter_trials(part, args.p, args.q, args.trials, args.seed, budget, args.anneal,
                         shares)
    rows = (save(trial, state) for trial, state in trials)
    result = MonteCarloResult.from_rows(part, args.p, args.q, rows)
    if args.hill:
        mode = f"hill (budget {args.budget}{', anneal' if args.anneal else ''})"
    else:
        mode = "random"

    if args.out:
        Path(args.out).write_text("\n".join(iter_trial_csv(result)) + "\n")

    prediction = result.prediction
    if args.format == "json":
        _print_json(
            {
                "k": args.k,
                "p": args.p,
                "q": args.q,
                "trials": args.trials,
                "seed": args.seed,
                "mode": mode,
                "solved": result.successes,
                "rate": result.rate,
                "prediction": None
                if prediction is None
                else {
                    "n": prediction.n,
                    "k": prediction.k,
                    "log2_strict": prediction.log2_value,
                    "log2_relaxed": prediction.log2_relaxed,
                },
                "csv": args.out,
                "saved_splits": saved,
            }
        )
    else:
        print(
            f"k={args.k} p={args.p} q={args.q} trials={args.trials} "
            f"seed={args.seed} mode={mode}"
        )
        print(f"solved: {result.successes}/{args.trials} (rate {result.rate:.4g})")
        if prediction is None:
            print("union-bound prediction: not applicable (single part per layer)")
        else:
            print(
                f"union-bound prediction (n={prediction.n}, k={prediction.k}): "
                f"log2 strict = {prediction.log2_value:+.4f}"
            )
        if args.out:
            print(f"wrote {args.out}")
        for path in saved:
            print(f"saved solved split: {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check-rep
# ---------------------------------------------------------------------------


def _spec_for_colors(args: argparse.Namespace, t: int) -> AlgebraSpec:
    p = args.p
    q = args.q if args.q is not None else t - p
    if q < 1:
        raise UsageError(f"file has {t} colors; cannot split them as p={p}, q={q}")
    if p + q != t:
        raise UsageError(f"p + q = {p + q} does not match the file's {t} colors")
    return AlgebraSpec(p, q)


def cmd_check_rep(args: argparse.Namespace) -> int:
    text = Path(args.file).read_text()
    head = text.split(None, 1)[0] if text.strip() else ""

    if head == "cube":
        coloring = parse_split(text)
        spec = _spec_for_colors(args, len(coloring.parts))
        result = verify_group_representation(coloring, spec, collect_all=True)
        points = 1 << coloring.m
        summary = {
            "file": args.file,
            "kind": "cube-split",
            "points": points,
            "colors": spec.num_diversity,
        }
    elif head == "kn":
        spec = _spec_for_colors(args, coloring_header(text)[1])
        coloring = parse_coloring(text, spec)
        if not coloring.is_total:
            raise UsageError(
                f"coloring is partial ({len(coloring.uncolored_edges())} uncolored "
                "edges); only total colorings can be verified"
            )
        result = check_representation(coloring, spec)
        summary = {
            "file": args.file,
            "kind": "edge-coloring",
            "points": coloring.V,
            "colors": spec.num_diversity,
        }
    else:
        raise UsageError(f"unrecognized file header {head!r}; expected 'kn' or 'cube'")

    if args.format == "json":
        summary.update(
            ok=result.ok, violations=[str(v) for v in result.violations]
        )
        _print_json(summary)
    else:
        print(
            f"{summary['kind']} on {summary['points']} points, "
            f"{summary['colors']} colors"
        )
        _print_verify("representation", result)
        print(f"verdict: {'PASS' if result.ok else 'FAIL'}")
    return EXIT_OK if result.ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# encode / solve / pipeline
# ---------------------------------------------------------------------------


def _build_cli_formula(args: argparse.Namespace) -> CnfFormula:
    spec = AlgebraSpec(1, args.q)  # encodings are defined for one red only
    if args.variant == "all-edges":
        return all_edges_formula(args.points, spec)
    return build_formula(args.points, args.variant, spec, k6=args.k6)


def cmd_encode(args: argparse.Namespace) -> int:
    if args.points < 3:
        raise UsageError("--points must be >= 3 (need witness candidates)")
    formula = _build_cli_formula(args)
    text = to_dimacs(formula)
    if args.out:
        Path(args.out).write_text(text)
    if args.format == "json":
        _print_json(
            {
                "points": formula.points,
                "variant": formula.variant,
                "colors": formula.colors,
                "vars": formula.num_vars,
                "clauses": formula.num_clauses,
                "groups": {g.tag: len(g.clauses) for g in formula.groups},
                "out": args.out,
            }
        )
    elif args.out:
        print(
            f"wrote {args.out}: V={formula.points} variant={formula.variant} "
            f"vars={formula.num_vars} clauses={formula.num_clauses}"
        )
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _report_outcome(args: argparse.Namespace, outcome, formula: CnfFormula) -> None:
    if args.format == "json":
        payload = {
            "cnf": getattr(args, "cnf", None),
            "status": outcome.status,
            "solver": outcome.solver,
            "seconds": round(outcome.seconds, 3),
            "detail": outcome.detail or None,
            "stats": dict(outcome.stats),
        }
        if outcome.coloring is not None and formula.points:
            spec = formula.spec
            payload["coloring"] = {
                f"{i},{j}": spec.color_name(c)
                for (i, j), c in sorted(outcome.coloring.colors.items())
            }
        _print_json(payload)
        return
    print(f"status: {outcome.status} ({outcome.solver}, {outcome.seconds:.2f}s)")
    if outcome.detail:
        print(f"detail: {outcome.detail}")
    if outcome.status == SAT and outcome.coloring is not None and formula.points:
        note = "recheck enforced" if formula.full_check else "clause check only"
        print(
            f"model decodes to a total coloring on {formula.points} points ({note})"
        )


def _expect_exit(status: str, expect: str | None) -> int:
    if status == UNKNOWN:
        return EXIT_RESOURCE
    if expect and status.lower() != expect:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    formula = formula_from_dimacs(Path(args.cnf).read_text(), args.cnf)
    outcome = solve(formula, solver=args.solver, timeout=args.timeout)
    _report_outcome(args, outcome, formula)
    return _expect_exit(outcome.status, args.expect)


def cmd_pipeline(args: argparse.Namespace) -> int:
    if args.v_from > args.v_to:
        raise UsageError("--from must be <= --to")
    if args.v_from < 3:
        raise UsageError("--from must be >= 3")
    if args.v_to >= EXTENDED_POINTS and not args.extended:
        raise UsageError(
            f"instances at {EXTENDED_POINTS}+ points can run for hours; "
            "pass --extended to confirm"
        )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    instances = []
    for v in range(args.v_from, args.v_to + 1):
        formula = build_formula(v, args.variant, k6=args.k6)
        path = out_dir / f"lb-V{v:02d}-{args.variant}.cnf"
        path.write_text(to_dimacs(formula))
        log.info("encoded %s (%d vars, %d clauses)", path, formula.num_vars, formula.num_clauses)
        instances.append((v, formula))

    # in-process rungs share one interpreter: only an external solver runs them side by side
    solver = args.solver or default_solver()

    def run_one(item):
        v, formula = item
        outcome = solve(formula, solver=solver, timeout=args.timeout)
        log_path = out_dir / f"lb-V{v:02d}-{args.variant}.log"
        record = (
            f"{_now_iso()} V={v} variant={args.variant} solver={outcome.solver} "
            f"status={outcome.status} seconds={outcome.seconds:.2f}"
        )
        for name in ("conflicts", "proof steps", "proof check seconds"):
            value = outcome.stats.get(name)
            if value is not None:
                value = f"{value:.3f}" if isinstance(value, float) else value
                record += f" {name.replace(' ', '_')}={value}"
        if outcome.detail:
            record += f" detail={outcome.detail}"
        with log_path.open("a") as fh:
            fh.write(record + "\n")
        return v, outcome

    workers = min(cube.usable_cpus(), len(instances)) if solver else 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        outcomes = list(pool.map(run_one, instances))
    outcomes.sort()

    # status CSV is the deterministic artifact; timings live in the logs
    csv_lines = ["points,variant,status"] + [
        f"{v},{args.variant},{outcome.status}" for v, outcome in outcomes
    ]
    (out_dir / "summary.csv").write_text("\n".join(csv_lines) + "\n")

    worst = EXIT_OK
    if args.format == "json":
        _print_json(
            {
                "variant": args.variant,
                "out_dir": str(out_dir),
                "results": [
                    {
                        "points": v,
                        "status": o.status,
                        "seconds": round(o.seconds, 2),
                        "solver": o.solver,
                        "stats": dict(o.stats),
                    }
                    for v, o in outcomes
                ],
            }
        )
    else:
        print(f"{'V':>4} {'variant':<10} {'status':<8} {'seconds':>9}")
        for v, o in outcomes:
            print(f"{v:>4} {args.variant:<10} {o.status:<8} {o.seconds:>9.2f}")
        print(f"summary: {out_dir / 'summary.csv'}")
    for _, o in outcomes:
        worst = max(worst, _expect_exit(o.status, args.expect))
    return worst


# ---------------------------------------------------------------------------
# parser assembly and dispatch
# ---------------------------------------------------------------------------


def _flag(*names: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag, for the commands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--log", metavar="PATH", default=None,
        help="append line-delimited timestamped records to this file",
    )
    common.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default="warning", help="console log verbosity",
    )
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    # flags only some commands read, each defined once
    seed = _flag("--seed", type=int, default=0, help="base seed for randomized work")
    memory = _flag(
        "--memory-cap-mb", type=int, default=None, metavar="MIB",
        help="refuse work estimated above this many MiB",
    )
    out = _flag(
        "--out", metavar="PATH", default=None,
        help="write the primary artifact here instead of stdout",
    )
    extended = _flag(
        "--extended", action="store_true",
        help="allow long-running regimes (large V solves, huge trial counts)",
    )
    k6 = _flag(
        "--k6", action=argparse.BooleanOptionalAction, default=None,
        help="include the red-clique extension of the precoloring",
    )
    solver = _flag(
        "--solver", default=None, help="path to a CDCL solver, e.g. bin/redblue-cdcl"
    )
    timeout = _flag("--timeout", type=float, default=3600.0, help="seconds per instance")

    parser = argparse.ArgumentParser(
        prog="redblue",
        description=(
            "Representations of the one-red/n-blue relation algebra family: "
            "cube verification, witness counting, size bounds, randomized "
            "split search, and propositional lower-bound certification."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "verify-1024", parents=[common],
        help="verify the embedded 1024-point coloring, optionally mutated",
    )
    p.add_argument(
        "--mutate", metavar="ELEM:FROM->TO", default=None,
        help="move one element between parts first (e.g. 127:b->c)",
    )
    p.set_defaults(func=cmd_verify_1024)

    p = sub.add_parser(
        "witnesses", parents=[common, memory],
        help="minimum witness multiplicities of the layer partition vs the 2^k floor",
    )
    p.add_argument("--k", type=int, required=True, help="layer parameter (m = 3k+1)")
    p.set_defaults(func=cmd_witnesses)

    p = sub.add_parser(
        "bounds", parents=[common, out],
        help="lower/upper bounds on representation size and union-bound evaluations",
    )
    p.add_argument("--n", type=int, default=None, help="blue color count")
    p.add_argument("--k", type=int, default=None, help="evaluate the union bound at this k")
    p.add_argument("--table", action="store_true", help="emit the bound table as CSV")
    p.add_argument("--n-max", type=int, default=40, help="last row of the table")
    p.add_argument(
        "--no-sat-certified", dest="sat_certified", action="store_false",
        help="report the counting lower bound even where a solver result is stronger",
    )
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser(
        "search", parents=[common, seed, memory, out, extended],
        help="random splits of the layer partition, optionally with local-search repair",
    )
    p.add_argument("--k", type=int, required=True, help="layer parameter (m = 3k+1)")
    p.add_argument("--p", type=int, default=1, help="red part count")
    p.add_argument("--q", type=int, default=2, help="blue part count")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--hill", action="store_true", help="repair each trial by local search")
    p.add_argument("--budget", type=int, default=100_000, help="moves per repair")
    p.add_argument("--anneal", action="store_true", help="allow uphill moves on a cooling schedule")
    p.add_argument(
        "--save-solved", metavar="DIR", default=None,
        help="write every violation-free split into this directory",
    )
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "check-rep", parents=[common],
        help="check a coloring file (kn or cube split format) against the algebra",
    )
    p.add_argument("file", help="coloring file path")
    p.add_argument("--p", type=int, default=1, help="red color count")
    p.add_argument("--q", type=int, default=None, help="blue color count (default: from file)")
    p.set_defaults(func=cmd_check_rep)

    p = sub.add_parser(
        "encode", parents=[common, out, k6], help="emit a DIMACS instance"
    )
    p.add_argument("--points", type=int, required=True)
    p.add_argument(
        "--variant", choices=VARIANTS + ("all-edges",), default="basic"
    )
    p.add_argument("--q", type=int, default=2, help="blue color count")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser(
        "solve", parents=[common, solver, timeout], help="decide a DIMACS instance and certify the result"
    )
    p.add_argument("--cnf", required=True, metavar="FILE")
    p.add_argument(
        "--expect", choices=("sat", "unsat"), default=None,
        help="exit 1 when the outcome contradicts this",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "pipeline", parents=[common, extended, k6, solver, timeout],
        help="encode and solve a range of lower-bound instances, persisting artifacts",
    )
    p.add_argument("--from", dest="v_from", type=int, required=True, metavar="V")
    p.add_argument("--to", dest="v_to", type=int, required=True, metavar="V")
    p.add_argument("--variant", choices=VARIANTS, default="basic")
    p.add_argument(
        "--expect", choices=("sat", "unsat"), default="unsat",
        help="exit 1 when any outcome contradicts this (default unsat)",
    )
    p.add_argument("--out-dir", default="lb-artifacts", metavar="DIR")
    p.set_defaults(func=cmd_pipeline)

    return parser


def _setup_logging(args: argparse.Namespace) -> None:
    log.setLevel(logging.DEBUG)
    for handler in log.handlers:
        handler.close()
    log.handlers.clear()
    console = logging.StreamHandler(sys.stderr)
    console.setLevel(getattr(logging, args.log_level.upper()))
    console.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    log.addHandler(console)
    if args.log:
        record = logging.FileHandler(args.log, mode="a")
        record.setLevel(logging.INFO)
        record.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(message)s"))
        log.addHandler(record)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _setup_logging(args)
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    log.info(
        "run %s",
        json.dumps({"version": __version__, "config": config}, default=str, sort_keys=True),
    )
    try:
        code = args.func(args)
    except UsageError as exc:
        log.error("%s", exc)
        code = EXIT_USAGE
    except (RuntimeError, MemoryError) as exc:
        # resource caps, solver failures, rejected certificates, exhausted memory
        log.error("%s", str(exc) or type(exc).__name__)
        log.debug("traceback", exc_info=True)
        code = EXIT_RESOURCE
    except (OSError, ValueError) as exc:
        log.error("%s", exc)
        code = EXIT_USAGE
    log.info("exit %d", code)
    return code


if __name__ == "__main__":
    sys.exit(main())
