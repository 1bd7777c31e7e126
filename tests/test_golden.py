"""Golden outputs: sha256 of deterministic CLI stdout and DIMACS text.

A refactor that claims to leave results unchanged must leave every digest
here unchanged.  The values were recorded before the violation predicate,
the witness block and the color-name parsing were each merged into one
implementation, and they pin those merges to the earlier output bytes.
"""

import contextlib
import hashlib
import io

import pytest

from redblue.algebra import ALGEBRA_ONE_BLUE, ALGEBRA_TWO_BLUE
from redblue.cli import main
from redblue.sat.dimacs import to_dimacs
from redblue.sat.encode import all_edges_formula, build_formula


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_digest(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, _sha256(buf.getvalue())


CLI_GOLDEN = [
    ("verify-1024", 0,
     "13b20bddb758de1dbca7dbc6c71e8dcd0cfd931ec10e8de0cb79515edc601765"),
    ("verify-1024 --format json", 0,
     "39f0eb80043b0b9d378d1e7c39a1285976e0f231c1f465c596041597dff85723"),
    ("verify-1024 --mutate 127:b->c", 1,
     "6e644637a88c9b22a314abd0a4bb0921dedfaee93b6dba80c2fb6639c7c5ed80"),
    ("verify-1024 --mutate 127:b1->r", 1,
     "b2de853f4966becfd3a7c1a1202b731e2af1f987a29517599f54a6b2f44a48d1"),
    ("witnesses --k 2", 0,
     "486c962cf9c6f63e9406f6032df8e90338f452fd7ae2d9214e4afe382f29957a"),
    ("witnesses --k 2 --format json", 0,
     "c36363a778b3bc51c3662825e97fe6f414faff9746e524fc098ed323b408f1c4"),
    ("bounds --n 2", 0,
     "cf025fd577ea6743feefb7aa9ac974cb6605723311515add2cd6ab892e184f87"),
    ("bounds --n 20 --format json", 0,
     "256f1e3abc0f0d0f3b5fca0c02632c91ab62feab94c70b229cd2cbe1a762fcda"),
    ("bounds --table", 0,
     "410ad8a122a2737a4f9de3bc41569692a22c784147571f2afa635511bf59daeb"),
    ("search --k 2 --trials 20 --seed 5", 0,
     "0e8eadaf9bd8f80f2bf48b043f1fa9a90b7709be9bf711d9d26a738c69eff755"),
    ("search --k 2 --trials 20 --seed 5 --format json", 0,
     "8fc701c5c79a33909b4b03032a164443c804ff91a8a30d70b24b600c919d0d60"),
    ("search --k 2 --p 1 --q 3 --hill --trials 2 --seed 5 --budget 3000", 0,
     "55d0514c18c262caa38ac7215f3ed7d7dedac076f921affad1693c55d573c855"),
    ("search --k 2 --p 2 --q 2 --hill --anneal --trials 2 --seed 5 --budget 2000", 0,
     "eae39e28249e5a10d6ce8e9ad7667e9b8f7c1f44d9812d872acce8872499024d"),
    ("encode --points 12", 0,
     "c14b066c3cd08b9f30b6f4a28e54262975868537c8fa32c0234f5d10c6d39d63"),
    ("encode --points 14 --variant full --format json", 0,
     "c01d956f03de98f1097f666595d223061bf13cd72da7c6e96b4818b40536e7e7"),
]


@pytest.mark.parametrize(
    "argv,code,digest", CLI_GOLDEN, ids=[argv for argv, _, _ in CLI_GOLDEN]
)
def test_cli_golden(argv, code, digest):
    assert _cli_digest(argv.split()) == (code, digest)


def test_cli_golden_full_budget_hill():
    # two unsolved trials that each spend the default budget of 100,000 moves
    argv = "search --k 2 --p 1 --q 3 --hill --trials 2 --seed 5".split()
    assert _cli_digest(argv) == (
        0, "ee3527e3025117fd319865b4cbe354d3499ae7867a8778a7e5d6d901c932c79d"
    )


DIMACS_GOLDEN = [
    ("basic V=12", lambda: build_formula(12, "basic"),
     "c14b066c3cd08b9f30b6f4a28e54262975868537c8fa32c0234f5d10c6d39d63"),
    ("triangles V=18", lambda: build_formula(18, "triangles"),
     "eeaa3a5bb0060c8d73a624856ba5a67a12c5d3dd97ee5457cace509b5020a342"),
    ("full V=14", lambda: build_formula(14, "full"),
     "7e36043314927675195328d59737b27bc39762dcf1c248338b309d150572a485"),
    ("full V=22", lambda: build_formula(22, "full"),
     "8e565384459d4b7bbb54287333cc0f1d25371e592ee8ac22b6a753949fd54bc5"),
    ("all-edges V=6 two blues", lambda: all_edges_formula(6, ALGEBRA_TWO_BLUE),
     "97ad032fc8e58a2024cecc6b20748e6b50012975ba019c4f17f6b4629d55137c"),
    ("all-edges V=8 one blue", lambda: all_edges_formula(8, ALGEBRA_ONE_BLUE),
     "3b266d35eae6659b0f0561b7a48667d04fc4207939c1b4d53cdd9620e4e4eb61"),
]


@pytest.mark.parametrize(
    "build,digest",
    [(build, digest) for _, build, digest in DIMACS_GOLDEN],
    ids=[name for name, _, _ in DIMACS_GOLDEN],
)
def test_dimacs_golden(build, digest):
    assert _sha256(to_dimacs(build())) == digest
