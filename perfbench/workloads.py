"""The benchmark's workloads: fixed lists of `netsheaf` CLI cases.

Every input document is a deterministic construction.  The only input that
the run's seed feeds is the `valuations --seed` option, which drives the
program's own valuation sampling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Case:
    """One CLI invocation: `netsheaf <command> <document> [args] --json`.

    ``kind`` and ``params`` tell the oracle what the document is, so it can
    check the envelope without calling netsheaf.
    """

    name: str
    command: str
    kind: str
    params: dict
    document: dict
    args: tuple = ()
    seeded: bool = False
    expect_failure: bool = False

    def argv(self, document_path: Path, seed: int) -> list[str]:
        argv = [self.command, str(document_path), *self.args]
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv + ["--json"]


# -- partition documents ---------------------------------------------------------

def _grid_points(p: int, q: int) -> list[str]:
    return [f"x{i}y{j}" for i in range(p) for j in range(q)]


def grid_document(p: int, q: int) -> dict:
    """A on the first coordinate, B on the second, over a four-region net
    whose bottom region carries the scalars and whose top carries everything."""
    points = _grid_points(p, q)
    return {
        "ambient": points,
        "algebras": {
            "triv": [points],
            "A": [[f"x{i}y{j}" for j in range(q)] for i in range(p)],
            "B": [[f"x{i}y{j}" for i in range(p)] for j in range(q)],
            "full": [[pt] for pt in points],
        },
        "pair": {"left": "A", "right": "B"},
        "net": _square_net({"bottom": "triv", "O1": "A", "O2": "B", "top": "full"}),
    }


def discrete_document(n: int) -> dict:
    """The full function algebra on n points paired with itself; its net
    gives every region the full algebra."""
    points = [f"p{i}" for i in range(n)]
    return {
        "ambient": points,
        "algebras": {"full": [[pt] for pt in points]},
        "pair": {"left": "full", "right": "full"},
        "net": _square_net({r: "full" for r in ("bottom", "O1", "O2", "top")}),
    }


def _square_net(assignment: dict) -> dict:
    return {
        "regions": ["bottom", "O1", "O2", "top"],
        "leq": [["bottom", "O1"], ["bottom", "O2"], ["O1", "top"], ["O2", "top"]],
        "spacelike": [["O1", "O2"]],
        "assignment": assignment,
    }


# -- matrix documents ------------------------------------------------------------

def unit(n: int, i: int, j: int) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    m[i][j] = 1
    return m


def kron(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    na, nb = len(a), len(b)
    return [
        [a[i // nb][j // nb] * b[i % nb][j % nb] for j in range(na * nb)]
        for i in range(na * nb)
    ]


def eye(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matrix_document(n: int, left: list, right: list) -> dict:
    return {
        "algebras": {
            "L": {"dimension": n, "generators": left},
            "R": {"dimension": n, "generators": right},
        },
        "pair": {"left": "L", "right": "R"},
    }


def full_matrix_generators(n: int) -> list:
    """E_{i,i+1}: with their adjoints they generate all of M_n."""
    return [unit(n, i, i + 1) for i in range(n - 1)]


def tensor_document(p: int, q: int) -> dict:
    """M_p (x) 1_q against 1_p (x) M_q inside M_pq."""
    left = [kron(unit(p, i, i + 1), eye(q)) for i in range(p - 1)]
    right = [kron(eye(p), unit(q, i, i + 1)) for i in range(q - 1)]
    return matrix_document(p * q, left, right)


def block_diagonal_document() -> dict:
    """M_2 on the first summand of M_2 (+) M_2 against M_2 on the second."""
    upper = [unit(4, i, j) for i in range(2) for j in range(2)]
    lower = [unit(4, i, j) for i in range(2, 4) for j in range(2, 4)]
    return matrix_document(4, upper, lower)


PAULI_DOCUMENT = matrix_document(2, [[[1, 0], [0, -1]]], [[[0, 1], [1, 0]]])


# -- the workloads ---------------------------------------------------------------

def _join_lattice() -> list[Case]:
    grid23, grid24 = grid_document(2, 3), grid_document(2, 4)
    return [
        Case("descent:grid2x3", "descent", "grid", {"p": 2, "q": 3}, grid23),
        Case("check-pair:grid2x4", "check-pair", "grid", {"p": 2, "q": 4}, grid24),
        Case("check-net:grid2x4", "check-net", "grid", {"p": 2, "q": 4}, grid24),
        Case("contexts:full7", "contexts", "contexts", {"n": 7}, discrete_document(7),
             ("--algebra", "full")),
    ]


def _pair_sweep() -> list[Case]:
    discrete5 = discrete_document(5)
    return [
        Case("check-net:const7", "check-net", "discrete", {"n": 7}, discrete_document(7)),
        Case("valuations:discrete5", "valuations", "discrete", {"n": 5}, discrete5,
             seeded=True),
        Case("descent:discrete5", "descent", "discrete", {"n": 5}, discrete5),
        Case("check-pair:discrete6", "check-pair", "discrete", {"n": 6}, discrete_document(6)),
    ]


def _matrix() -> list[Case]:
    return [
        Case("check-pair:M4-scalars", "check-pair", "full-vs-scalars", {"n": 4},
             matrix_document(4, full_matrix_generators(4), [])),
        Case("check-pair:M2xM2", "check-pair", "tensor", {"p": 2, "q": 2},
             tensor_document(2, 2)),
        Case("check-pair:pauli", "check-pair", "pauli", {}, PAULI_DOCUMENT),
        Case("check-pair:block-diagonal", "check-pair", "block-diagonal", {},
             block_diagonal_document(), expect_failure=True),
    ]


WORKLOADS = {
    "join-lattice": _join_lattice,
    "pair-sweep": _pair_sweep,
    "matrix": _matrix,
}


def cases_for(workload: str) -> list[Case]:
    return WORKLOADS[workload]()


def write_documents(cases: list[Case], directory: Path) -> dict[str, Path]:
    """Write each case's document once; cases sharing a document share a file."""
    directory.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    by_text: dict[str, Path] = {}
    for case in cases:
        text = json.dumps(case.document, sort_keys=True)
        if text not in by_text:
            path = directory / f"doc{len(by_text)}.json"
            path.write_text(text, encoding="utf-8")
            by_text[text] = path
        paths[case.name] = by_text[text]
    return paths
