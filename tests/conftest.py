"""Shared fixtures: CDCL solver discovery and reusable layer partitions."""

import os
import shutil
from pathlib import Path

import pytest

from redblue.cube import LayerPartition, layer_partition

_SOLVER_CANDIDATES = (
    "varisat",
    "/opt/cargo/bin/varisat",
    "cadical",
    "kissat",
    "minisat",
    # the in-repo solver comes last, so an installed external one wins
    str(Path(__file__).resolve().parent.parent / "bin" / "redblue-cdcl"),
    "redblue-cdcl",
)


def find_solver() -> str | None:
    """Path of a runnable CDCL solver, or None.

    REDBLUE_SOLVER wins when set.  Otherwise the first installed external
    solver is used, and failing that the in-repo `redblue-cdcl` (the
    checkout's `bin/` launcher, then the console script), whose UNSAT
    verdicts are checked along their logged hints (`check_hints`) before
    it prints them.
    """
    env = os.environ.get("REDBLUE_SOLVER")
    if env:
        return shutil.which(env)
    for candidate in _SOLVER_CANDIDATES:
        found = shutil.which(candidate)
        if found:
            return found
    return None


@pytest.fixture(scope="session")
def solver() -> str:
    """CDCL solver path from `find_solver`; unit tests skip when none can run."""
    path = find_solver()
    if path is None:
        pytest.skip("no CDCL solver found (set REDBLUE_SOLVER)")
    return path


@pytest.fixture(scope="session")
def part1() -> LayerPartition:
    return layer_partition(1)


@pytest.fixture(scope="session")
def part2() -> LayerPartition:
    return layer_partition(2)


@pytest.fixture(scope="session")
def part3() -> LayerPartition:
    return layer_partition(3)


@pytest.fixture(scope="session")
def part4() -> LayerPartition:
    return layer_partition(4)


@pytest.fixture(scope="session")
def part5() -> LayerPartition:
    return layer_partition(5)
