"""Byte-identity of the CLI on the large partition workloads: the sha256 of
stdout, in text and --json, for `descent` on grids 2x3, 2x4 and 3x3 (a
Bell(9) join with three blocks on each side: 22,379 covering-stability
violations), `check-net` on grids 2x4 and 3x3, `contexts` on the full
7-point algebra, `descent` on the discrete 5-point self-pair, `check-net`
on the discrete 7-point self-pair, `check-pair` on a 9-point pair whose
unit-law witnesses take the sweep over C_{A v B} (`sweep_document`), and
`check-pair` on a dense, complex, non-commuting matrix pair, whose
commutator witness prints fractions and i terms.

The documents are built here, written as ``json.dumps(document,
sort_keys=True)`` (the input digest in every envelope reads those bytes),
and each command runs in process.  A digest changes only when an output is
meant to change.  The --json runs of the partition cases also must not
build the contexts of A v B, of A or of B as Partitions.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction

import pytest

from netsheaf.cli import main
from netsheaf.contexts import Contexts
from netsheaf.partitions import bell_number, overlap_join


def square_net(assignment: dict) -> dict:
    return {
        "regions": ["bottom", "O1", "O2", "top"],
        "leq": [["bottom", "O1"], ["bottom", "O2"], ["O1", "top"], ["O2", "top"]],
        "spacelike": [["O1", "O2"]],
        "assignment": assignment,
    }


def grid_document(p: int, q: int) -> dict:
    """A on the first coordinate of a p x q grid, B on the second, over a
    net whose bottom region carries the scalars and whose top everything."""
    points = [f"x{i}y{j}" for i in range(p) for j in range(q)]
    return {
        "ambient": points,
        "algebras": {
            "triv": [points],
            "A": [[f"x{i}y{j}" for j in range(q)] for i in range(p)],
            "B": [[f"x{i}y{j}" for i in range(p)] for j in range(q)],
            "full": [[pt] for pt in points],
        },
        "pair": {"left": "A", "right": "B"},
        "net": square_net({"bottom": "triv", "O1": "A", "O2": "B", "top": "full"}),
    }


def discrete_document(n: int) -> dict:
    """The full function algebra on n points, paired with itself and given
    to every region of the net."""
    points = [f"p{i}" for i in range(n)]
    return {
        "ambient": points,
        "algebras": {"full": [[pt] for pt in points]},
        "pair": {"left": "full", "right": "full"},
        "net": square_net({r: "full" for r in ("bottom", "O1", "O2", "top")}),
    }


def sweep_document(n: int) -> dict:
    """{p0,p1}{p2}...{p(n-1)} against {p0}{p1,p2}{p3}...{p(n-1)}: the join is
    the full algebra on n points, and Bell(n - 1)^2 > Bell(n), so the unit
    law's witnesses come from the sweep over C_{A v B}."""
    points = [f"p{i}" for i in range(n)]
    return {
        "ambient": points,
        "algebras": {
            "A": [points[:2]] + [[pt] for pt in points[2:]],
            "B": [points[:1], points[1:3]] + [[pt] for pt in points[3:]],
        },
        "pair": {"left": "A", "right": "B"},
    }


def _times(a: list, b: list) -> list:
    """Product of square matrices whose entries are (re, im) Fraction pairs."""
    return [
        [
            (
                sum(x[0] * y[0] - x[1] * y[1] for x, y in zip(row, col)),
                sum(x[0] * y[1] + x[1] * y[0] for x, y in zip(row, col)),
            )
            for col in zip(*b)
        ]
        for row in a
    ]


def _entry(x: tuple) -> dict:
    out = {"re": [x[0].numerator, x[0].denominator]}
    if x[1]:
        out["im"] = [x[1].numerator, x[1].denominator]
    return out


def dense_matrix_document() -> dict:
    """U E_01 U* in M_3 against the algebra of a Gaussian-rational hermitian
    H, with U the product of two Cayley rotations (I - iK)(I + iK)^-1 of
    K = (E_{k,k+1} + E_{k+1,k}) / 2, that is [[3/5, -4/5 i], [-4/5 i, 3/5]] on
    coordinates k, k+1.  Both bases are dense and complex; [U E_01 U*, H]
    is not zero."""
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))

    def rotation(k: int) -> list:
        m = [[one if i == j else zero for j in range(3)] for i in range(3)]
        m[k][k] = m[k + 1][k + 1] = (Fraction(3, 5), Fraction(0))
        m[k][k + 1] = m[k + 1][k] = (Fraction(0), Fraction(-4, 5))
        return m

    u = _times(rotation(0), rotation(1))
    u_star = [[(x[0], -x[1]) for x in col] for col in zip(*u)]
    e01 = [[one if (i, j) == (0, 1) else zero for j in range(3)] for i in range(3)]
    left = _times(_times(u, e01), u_star)
    f = Fraction
    right = [
        [(f(1), f(0)), (f(0), f(1, 2)), (f(0), f(0))],
        [(f(0), f(-1, 2)), (f(2), f(0)), (f(1, 3), f(0))],
        [(f(0), f(0)), (f(1, 3), f(0)), (f(-1), f(0))],
    ]
    return {
        "algebras": {
            name: {"dimension": 3, "generators": [[[_entry(x) for x in row] for row in m]]}
            for name, m in (("L", left), ("R", right))
        },
        "pair": {"left": "L", "right": "R"},
    }


# case -> (document, argv after the document, sha256 of text stdout, of --json stdout)
CASES = {
    "descent:grid2x3": (
        lambda: grid_document(2, 3), ["descent"],
        "0ccd21f64d6e6bbe0c1c2bae54f7f27619c7ec6336871b3bf292124be6ed181d",
        "4e1dadbeee68a99ad1db0197cc4b760beebd50b8f548c1ad1ed77d2ceef8811e",
    ),
    "descent:grid2x4": (
        lambda: grid_document(2, 4), ["descent"],
        "07e3b36ccc618c08e266584016e40e1f791aa168b9a8561c233f41489b4a1b09",
        "73b886435b7bb878eebb898b30c35cf6f0eba6135e553e9b182f54732f4d4cef",
    ),
    "descent:grid3x3": (
        lambda: grid_document(3, 3), ["descent"],
        "2bb3323768d012e31999aaf21fe3caec987d243fda358c5c9b24b6d8b4705ac4",
        "30d29d65c2f5e405d658b62f76bfc56eb28082864ea01b14c6cfb5f92683c375",
    ),
    "check-net:grid2x4": (
        lambda: grid_document(2, 4), ["check-net"],
        "67e9585350ec315aa61c2a517921f3c681ce70e462787f7098d03f71b25272c7",
        "4530e3768119f2e30e11f95543a068e87c6360dd4676a97ce6afda645f445e75",
    ),
    "check-net:grid3x3": (
        lambda: grid_document(3, 3), ["check-net"],
        "fd3766c2336d6d9a0b2d968321fcf85a9c7e09deae2ecf2343081c74529d3818",
        "17aa5f6261dce163829e5f7ff4d53788dd0dcb68d8b47a27b9e63aec03013658",
    ),
    "contexts:full7": (
        lambda: discrete_document(7), ["contexts", "--algebra", "full"],
        "3732b33deccc9d5ab161150b7f6d1021249e88e29fd862b66b2061067b65097e",
        "32bd692c0c9a881f76be380abdc5ae781a30dab5a8ae440ef100557b809b854e",
    ),
    "descent:discrete5": (
        lambda: discrete_document(5), ["descent"],
        "a5e123b930df327065d8d48b9a08658b10c18ead77a00d2e705d8eccadbe4c85",
        "6043550ee49d6851489caf0efe073161bc9d5707c4adfc15613409ccb3acdb29",
    ),
    "check-net:const7": (
        lambda: discrete_document(7), ["check-net"],
        "70b3e5300880618d340815673c4fe91caa57c1ff30f551fcf7da83e963d80c13",
        "c2c7b3080ffcdee4be66d0ce2231d5b0d8b3289126eb897e8c3a8b1754f511cd",
    ),
    "check-pair:sweep9": (
        lambda: sweep_document(9), ["check-pair"],
        "49f3465396356ad3b2f72479f08d8995b29ed9c08a97e910166219604f709683",
        "63fc214eece4f08e4de7d9fd91462d0ad6bff6138019c9baa21565dbbc24eac9",
    ),
    "check-pair:dense3": (
        dense_matrix_document, ["check-pair"],
        "51292f21dbe98108330c5cedc2c2bc4fd77db53fbcfc6c0445cfc6d11802965b",
        "4c7f92f477b17d1928de48bf5040e4cc440400b898352ff118ec6f9c3436e966",
    ),
}


def test_dense_matrix_witness_prints_fractions_and_i_terms(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dense_matrix_document(), sort_keys=True), encoding="utf-8")
    assert main(["check-pair", str(path)]) == 0
    witness = next(line for line in capsys.readouterr().out.splitlines() if "commutator" in line)
    assert "/" in witness and "i" in witness.split('"commutator"')[1]


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_workload_stdout_digest(case, as_json, tmp_path, capsys):
    build, argv, text_digest, json_digest = CASES[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(build(), sort_keys=True), encoding="utf-8")
    code = main([argv[0], str(path), *argv[1:], *(["--json"] if as_json else [])])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        json_digest if as_json else text_digest
    )


@pytest.mark.parametrize("case", [
    "check-net:const7", "descent:discrete5", "descent:grid2x3", "descent:grid2x4",
    "check-net:grid2x4",
])
def test_json_runs_build_no_partition_per_context_of_the_join(case, tmp_path, capsys,
                                                             monkeypatch):
    # no context of A v B, of A or of B is built as a Partition: every module
    # that binds `coarsenings` has it refuse, and the fibered product leaves
    # no overlap join per context (at most the pair's meet and its own)
    def no_enumeration(*_):
        raise AssertionError("contexts built as Partitions")

    for module in [m for name, m in sys.modules.items() if name.startswith("netsheaf")]:
        if hasattr(module, "coarsenings"):
            monkeypatch.setattr(module, "coarsenings", no_enumeration)
    build, argv, _, json_digest = CASES[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(build(), sort_keys=True), encoding="utf-8")
    overlap_join.cache_clear()
    assert main([argv[0], str(path), *argv[1:], "--json"]) == 0
    assert overlap_join.cache_info().currsize <= 3
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == json_digest


def test_passing_check_net_takes_no_union_find_per_context_of_the_join(tmp_path, capsys,
                                                                       monkeypatch):
    # h is certified by counting: on grid 2x4, with Bell(8) = 4,140 contexts
    # of A v B, the one union-find is an overlap join in `analyze_net`; the
    # bound also admits one per context of A and of B, which the fibered
    # product's restrictions to M took before they came from the restriction
    # kernel
    calls = []
    for module in [m for name, m in sys.modules.items() if name.startswith("netsheaf")]:
        if hasattr(module, "_overlap_rgs"):
            original = module._overlap_rgs
            monkeypatch.setattr(module, "_overlap_rgs",
                                lambda *args, f=original: calls.append(args) or f(*args))
    build, argv, _, json_digest = CASES["check-net:grid2x4"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(build(), sort_keys=True), encoding="utf-8")
    assert main([argv[0], str(path), *argv[1:], "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == json_digest
    assert len(calls) <= bell_number(2) + bell_number(4) + 1 == 18


def test_descent_json_labels_each_context_set_once(tmp_path, capsys, monkeypatch):
    # C_{A v B}, C_A and C_B are labelled once each: the report's JSON and
    # the covering-stability rows read the same labels
    labelled = []
    labels = Contexts.labels
    monkeypatch.setattr(Contexts, "labels",
                        lambda self: labelled.append(str(self.algebra)) or labels(self))
    build, argv, _, json_digest = CASES["descent:grid2x3"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(build(), sort_keys=True), encoding="utf-8")
    assert main([argv[0], str(path), *argv[1:], "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == json_digest
    assert sorted(labelled) == [
        "{x0y0,x0y1,x0y2}{x1y0,x1y1,x1y2}",
        "{x0y0,x1y0}{x0y1,x1y1}{x0y2,x1y2}",
        "{x0y0}{x0y1}{x0y2}{x1y0}{x1y1}{x1y2}",
    ]
