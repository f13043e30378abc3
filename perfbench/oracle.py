"""Checks of netsheaf's output that never call netsheaf.

Partitions are restricted-growth tuples over the ambient points (point i is
in block ``rgs[i]``, blocks numbered by first occurrence), built and
combined here by routes of their own: enumeration by recursive insertion,
Bell numbers by the binomial recurrence, meet and join by transitive
closure over point pairs.  Matrices are lists of rows of Gaussian
rationals, held as (re, im) pairs of ``Fraction``.

``expectations`` computes, once per case kind and size, what a correct
envelope must say; ``check`` compares one envelope against it and returns
the list of mismatches.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import comb

# -- partitions ----------------------------------------------------------------------


def bell(n: int) -> int:
    """Bell numbers by B(m+1) = sum_k C(m, k) B(k)."""
    values = [1]
    for m in range(n):
        values.append(sum(comb(m, k) * values[k] for k in range(m + 1)))
    return values[n]


def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind by inclusion-exclusion."""
    total = sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))
    factorial = 1
    for i in range(2, k + 1):
        factorial *= i
    return total // factorial


def hasse_edges(n: int) -> int:
    """Covers in the partition lattice: each k-block partition covers one
    partition per pair of its blocks merged."""
    return sum(stirling2(n, k) * comb(k, 2) for k in range(1, n + 1))


def canonical(labels) -> tuple:
    seen: dict = {}
    return tuple(seen.setdefault(x, len(seen)) for x in labels)


def all_partitions(n: int) -> list[tuple]:
    """Every partition of n points, by inserting the last point into each
    block of a partition of the others or into a block of its own."""
    def rec(k: int):
        if k == 0:
            yield []
            return
        for smaller in rec(k - 1):
            yield smaller + [[k - 1]]
            for i in range(len(smaller)):
                yield smaller[:i] + [smaller[i] + [k - 1]] + smaller[i + 1:]

    out = []
    for blocks in rec(n):
        labels = [0] * n
        for b, block in enumerate(blocks):
            for point in block:
                labels[point] = b
        out.append(canonical(labels))
    return out


def closure(n: int, related) -> tuple:
    """The partition generated by a relation on points: merge the classes of
    every related pair."""
    label = list(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if related(i, j) and label[i] != label[j]:
                old, new = label[j], label[i]
                label = [new if x == old else x for x in label]
    return canonical(label)


def meet(p: tuple, q: tuple) -> tuple:
    """The intersection algebra: points stay together along any chain of
    p-steps and q-steps."""
    return closure(len(p), lambda i, j: p[i] == p[j] or q[i] == q[j])


def join(p: tuple, q: tuple) -> tuple:
    """The generated algebra: two points stay together iff both partitions
    keep them together."""
    return closure(len(p), lambda i, j: p[i] == p[j] and q[i] == q[j])


def coarser(p: tuple, q: tuple) -> bool:
    """p <= q: whenever q keeps two points together, so does p."""
    n = len(p)
    return all(p[i] == p[j] for i in range(n) for j in range(i + 1, n) if q[i] == q[j])


def blocks(p: tuple) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(max(p) + 1)]
    for i, b in enumerate(p):
        out[b].append(i)
    return out


def render(p: tuple, points: list[str]) -> str:
    return "".join("{" + ",".join(points[i] for i in b) + "}" for b in blocks(p))


def parse(text: str, index: dict) -> tuple:
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a partition: {text!r}")
    labels = [None] * len(index)
    for b, block in enumerate(text[1:-1].split("}{")):
        for point in block.split(","):
            labels[index[point]] = b
    if None in labels:
        raise ValueError(f"partition misses points: {text!r}")
    return canonical(labels)


def from_blocks(block_lists: list[list[str]], index: dict) -> tuple:
    labels = [0] * len(index)
    for b, block in enumerate(block_lists):
        for point in block:
            labels[index[point]] = b
    return canonical(labels)


# -- Gaussian rationals ----------------------------------------------------------------

def gauss(x) -> tuple:
    return (Fraction(x), Fraction(0))


def gmul(a: tuple, b: tuple) -> tuple:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def matmul(a: list, b: list) -> list:
    n, m = len(b), len(b[0])
    out = []
    for row in a:
        new = []
        for j in range(m):
            re = im = Fraction(0)
            for k in range(n):
                x = gmul(row[k], b[k][j])
                re += x[0]
                im += x[1]
            new.append((re, im))
        out.append(new)
    return out


def matsub(a: list, b: list) -> list:
    return [[(x[0] - y[0], x[1] - y[1]) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def is_zero(a: list) -> bool:
    return all(x == (0, 0) for row in a for x in row)


def gmatrix(rows: list) -> list:
    return [[gauss(x) for x in row] for row in rows]


def gauss_str(x: tuple) -> str:
    re, im = x
    if not im:
        return str(re)
    imag = "i" if im == 1 else ("-i" if im == -1 else f"{im}i")
    if not re:
        return imag
    return f"{re}{'+' if im > 0 else ''}{imag}"


def matrix_str(a: list) -> str:
    return "[" + ", ".join("[" + ", ".join(gauss_str(x) for x in row) + "]" for row in a) + "]"


def _row_reduce(vectors: list) -> list:
    """Reduced echelon rows (unit pivots) of flattened Gaussian matrices."""
    work = [list(v) for v in vectors]
    out: list = []
    pivots: list = []
    for v in work:
        for row, p in zip(out, pivots):
            c = v[p]
            if c != (0, 0):
                v = [(x[0] - (c[0] * y[0] - c[1] * y[1]), x[1] - (c[0] * y[1] + c[1] * y[0]))
                     for x, y in zip(v, row)]
        lead = next((k for k, x in enumerate(v) if x != (0, 0)), None)
        if lead is None:
            continue
        re, im = v[lead]
        norm = re * re + im * im
        inv = (re / norm, -im / norm)
        v = [gmul(inv, x) for x in v]
        for r, row in enumerate(out):
            c = row[lead]
            if c != (0, 0):
                out[r] = [(y[0] - (c[0] * x[0] - c[1] * x[1]), y[1] - (c[0] * x[1] + c[1] * x[0]))
                          for y, x in zip(row, v)]
        out.append(v)
        pivots.append(lead)
    order = sorted(range(len(out)), key=lambda r: pivots[r])
    return [out[r] for r in order]


def star_basis(n: int, generators: list) -> list:
    """Canonical basis of the unital *-algebra generated by the matrices:
    close the span under products and adjoints, then reduce."""
    def adjoint(a):
        return [[(a[j][i][0], -a[j][i][1]) for j in range(n)] for i in range(n)]

    def flat(a):
        return [x for row in a for x in row]

    def unflat(v):
        return [v[i * n:(i + 1) * n] for i in range(n)]

    identity = gmatrix([[int(i == j) for j in range(n)] for i in range(n)])
    mats = [identity] + [m for g in generators for m in (g, adjoint(g))]
    rows = _row_reduce([flat(m) for m in mats])
    while True:
        basis = [unflat(v) for v in rows]
        grown = _row_reduce(rows + [flat(matmul(a, b)) for a in basis for b in basis])
        if len(grown) == len(rows):
            return [unflat(v) for v in grown]
        rows = grown


# -- expectations ------------------------------------------------------------------------

def _partition_setup(document: dict) -> tuple[list, dict, dict]:
    points = document["ambient"]
    index = {p: i for i, p in enumerate(points)}
    algebras = {name: from_blocks(spec, index) for name, spec in document["algebras"].items()}
    return points, index, algebras


def _contexts_of(p: tuple, partitions: list) -> list:
    return [c for c in partitions if coarser(c, p)]


def unit_law_failures(a: tuple, b: tuple, partitions: list) -> int:
    """Contexts C of A v B with (C ^ A) v (C ^ B) != C."""
    return sum(
        1 for c in _contexts_of(join(a, b), partitions) if join(meet(c, a), meet(c, b)) != c
    )


def stability_violations(a: tuple, b: tuple, partitions: list) -> int:
    """Triples E <= C v D with E != (E ^ C) v (E ^ D), E a context of A v B,
    C of A, D of B."""
    left, right = _contexts_of(a, partitions), _contexts_of(b, partitions)
    sources = _contexts_of(join(a, b), partitions)
    joins = {(c, d): join(c, d) for c in left for d in right}
    meets: dict = {}

    def cached_meet(e, c):
        key = (e, c)
        if key not in meets:
            meets[key] = meet(e, c)
        return meets[key]

    count = 0
    for e in sources:
        for (c, d), cd in joins.items():
            if coarser(e, cd) and join(cached_meet(e, c), cached_meet(e, d)) != e:
                count += 1
    return count


def _descent_expectation(a, b, points, partitions, target_size: int, *, stability: bool) -> dict:
    sources = _contexts_of(join(a, b), partitions)
    out = {
        "source_size": bell(max(join(a, b)) + 1),
        "target_size": target_size,
        "table": {
            render(c, points): [render(meet(c, a), points), render(meet(c, b), points)]
            for c in sources
        },
    }
    if stability:
        out["stability_violations"] = stability_violations(a, b, partitions)
    return out


def expectations(case) -> dict:
    """What a correct envelope must say for this case, computed here."""
    doc = case.document
    if case.kind in ("grid", "discrete", "contexts"):
        points, index, algebras = _partition_setup(doc)
        n = len(points)
        partitions = all_partitions(n)
        out = {"points": points, "index": index}
        if case.kind == "contexts":
            out["contexts"] = {render(p, points) for p in partitions}
            return out
        a, b = algebras[doc["pair"]["left"]], algebras[doc["pair"]["right"]]
        out["a"], out["b"] = a, b
        if case.command in ("descent", "check-net"):
            # the net's spacelike pair meets in the bottom region
            m = meet(a, b) if case.command == "descent" else algebras[
                doc["net"]["assignment"]["bottom"]]
            out["meet"] = m
            # A grid pair meets in the scalars, so its fibered product is all
            # of C_A x C_B; a discrete self-pair meets in everything, so only
            # the diagonal pairs agree on it.
            target_size = (
                bell(case.params["p"]) * bell(case.params["q"])
                if case.kind == "grid"
                else bell(n)
            )
            out["descent"] = _descent_expectation(
                a, b, points, partitions, target_size, stability=case.command == "descent"
            )
        if case.command in ("check-pair", "check-net"):
            out["unit_law_failures"] = unit_law_failures(a, b, partitions)
        return out
    algebras = doc["algebras"]
    gens = {name: [gmatrix(g) for g in spec["generators"]] for name, spec in algebras.items()}
    n = algebras["L"]["dimension"]
    out = {}
    if case.kind == "pauli":
        left, right = star_basis(n, gens["L"]), star_basis(n, gens["R"])
        out["commutator"] = next(
            (i, j, matrix_str(matsub(matmul(x, y), matmul(y, x))))
            for i, x in enumerate(left)
            for j, y in enumerate(right)
            if not is_zero(matsub(matmul(x, y), matmul(y, x)))
        )
        out["dims"] = (len(left), len(right))
    elif case.kind == "block-diagonal":
        e00, e22 = gens["L"][0], gens["R"][0]
        out["zero_product"] = is_zero(matmul(e00, e22)) and not is_zero(e00) and not is_zero(e22)
    else:
        out["commute"] = all(
            is_zero(matsub(matmul(x, y), matmul(y, x))) for x in gens["L"] for y in gens["R"]
        )
    return out


# -- checks ---------------------------------------------------------------------------------

class Mismatches(list):
    def expect(self, what: str, actual, expected):
        if actual != expected:
            self.append(f"{what}: got {actual!r}, expected {expected!r}")


def check(case, stdout: str, status: int, document_bytes: bytes, exp: dict) -> list[str]:
    """Every mismatch between one command's envelope and the expectations."""
    bad = Mismatches()
    try:
        envelope = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not one JSON envelope: {exc}"]
    bad.expect("exit status", status, 0)
    bad.expect("envelope exit_status", envelope.get("exit_status"), 0)
    bad.expect("tool", envelope.get("tool", {}).get("name"), "netsheaf")
    bad.expect("command", envelope.get("command"), case.command)
    bad.expect("input_digest", envelope.get("input_digest"),
               "sha256:" + hashlib.sha256(document_bytes).hexdigest())
    result = envelope.get("result", {})
    try:
        CHECKS[case.kind](case, result, exp, bad)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        bad.append(f"envelope lacks an expected field: {exc!r}")
    return bad


def _check_contexts(case, result, exp, bad):
    n = case.params["n"]
    bad.expect("count", result["count"], bell(n))
    bad.expect("bell", result["bell"], bell(n))
    bad.expect("contexts are distinct", len(set(result["contexts"])), len(result["contexts"]))
    bad.expect("contexts", set(result["contexts"]) == exp["contexts"], True)
    bad.expect("hasse_edges", result["hasse_edges"], hasse_edges(n))


def _check_hierarchy(h, expected: dict, bad, prefix="hierarchy"):
    for name, value in expected.items():
        bad.expect(f"{prefix}.{name}", h[name], value)


def _check_descent(d, exp, bad, verdicts: dict, *, iso: bool):
    want = exp["descent"]
    h = d["h"]
    bad.expect("h.source_size", h["source_size"], want["source_size"])
    bad.expect("h.target_size", h["target_size"], want["target_size"])
    bad.expect("h.table", h["table"] == want["table"], True)
    bad.expect("h.injective", h["injective"], want["source_size"] == want["target_size"])
    bad.expect("h.surjective", h["surjective"], True)
    adj = d["adjunction"]
    bad.expect("adjunction.is_coreflector", adj["is_coreflector"], True)
    bad.expect("adjunction.is_iso", adj["is_iso"], iso)
    points, index = exp["points"], exp["index"]
    wrong = 0
    for key, value in (adj["adjoint"] or {}).items():
        c1, c2 = key[1:-1].split(", ")
        if parse(value, index) != join(parse(c1, index), parse(c2, index)):
            wrong += 1
    bad.expect("left adjoint entries that are not the join", wrong, 0)
    bad.expect("left adjoint size", len(adj["adjoint"] or {}), want["target_size"])
    # a surjection is a coreflector exactly when its fibre minima form a
    # monotone section
    bad.expect("thickening.overall", d["thickening"]["overall"], adj["is_coreflector"])
    unit = verdicts["unit_law"]
    bad.expect("strong_locality", d["strong_locality"], verdicts["strong_locality"])
    bad.expect("unit_law", d["unit_law"], unit)
    bad.expect("sheaf", d["sheaf"], iso and unit)
    # C*-independence plus the unit law, which decides the sheaf condition
    # only under extended locality
    bad.expect("sheaf_by_characterization", d["sheaf_by_characterization"],
               verdicts["cstar_independent"] and unit)


def _partition_verdicts(case) -> dict:
    """The hierarchy the method must give: grid pairs are independent in
    every sense except the unit law; discrete self-pairs the reverse."""
    if case.kind == "grid":
        return {
            "microcausality": True, "extended_locality": True, "schlieder": True,
            "cstar_independent": True, "product_sense": True, "strong_locality": True,
            "unit_law": False,
        }
    return {
        "microcausality": True, "extended_locality": False, "schlieder": False,
        "cstar_independent": False, "product_sense": False, "strong_locality": False,
        "unit_law": True,
    }


def _check_partition_hierarchy(case, h, exp, bad, prefix="hierarchy"):
    _check_hierarchy(h, _partition_verdicts(case), bad, prefix)
    witnesses = h["witnesses"]
    failures = exp["unit_law_failures"]
    if failures:
        bad.expect(f"{prefix}.unit_law witness count", witnesses["unit_law"]["count"], failures)
    if h["schlieder"] is False:
        index = exp["index"]
        w = witnesses["schlieder"]
        left = {index[x] for x in w["left_block"][1:-1].split(",")}
        right = {index[x] for x in w["right_block"][1:-1].split(",")}
        bad.expect("schlieder witness blocks are disjoint", left.isdisjoint(right), True)


def _check_grid_or_discrete(case, result, exp, bad):
    grid = case.kind == "grid"
    verdicts = _partition_verdicts(case)
    if case.command == "check-pair":
        _check_partition_hierarchy(case, result["hierarchy"], exp, bad)
    elif case.command == "descent":
        _check_descent(result["descent"], exp, bad, verdicts, iso=not grid)
        bad.expect("covering_stability.count", result["covering_stability"]["count"],
                   exp["descent"]["stability_violations"])
    elif case.command == "check-net":
        bad.expect("validation.ok", result["validation"]["ok"], True)
        bad.expect("spacelike pairs", len(result["pairs"]), 1)
        pair = result["pairs"][0]
        points = exp["points"]
        bad.expect("meet_region", pair["meet_region"], "bottom")
        bad.expect("meet_algebra", pair["meet_algebra"], render(exp["meet"], points))
        bad.expect("intersection", pair["intersection"], render(meet(exp["a"], exp["b"]), points))
        _check_partition_hierarchy(case, pair["hierarchy"], exp, bad, "pair.hierarchy")
        # over the net's meet algebra h is a coreflector on both kinds of pair,
        # so the pair-level strong locality of a discrete pair does not carry over
        _check_descent(pair["descent"], exp, bad, verdicts, iso=not grid)
        bad.expect("summary", result["summary"], {
            "strongly_local_net": True,
            "sheaf_net": not grid,
            "cstar_independent_net": grid,
        })
    elif case.command == "valuations":
        n = case.params["n"]
        points, index = exp["points"], exp["index"]
        full = render(exp["a"], points)
        bad.expect("context_left", result["context_left"], full)
        bad.expect("context_right", result["context_right"], full)
        bad.expect("mu1", result["mu1"], {"{" + p + "}": [1, n] for p in points})
        extension = result["product_extension"]
        bad.expect("product_extension.exists", extension["exists"], False)
        left, right = extension["witness"]
        bad.expect("witness blocks differ", left != right, True)
        bad.expect("witness_mass", extension["witness_mass"], [1, n * n])
        bad.expect("valuation_independence", result["valuation_independence"], False)


MATRIX_INDEPENDENT = {
    "microcausality": True, "extended_locality": True, "schlieder": True,
    "cstar_independent": True, "product_sense": True,
    # context-quantified conditions are partition-engine only
    "strong_locality": "undetermined", "unit_law": "undetermined",
}


def _check_matrix(case, result, exp, bad):
    h = result["hierarchy"]
    pair = result["pair"]
    bad.expect("engine", h["engine"], "matrix")
    kind, params = case.kind, case.params
    if kind == "full-vs-scalars":
        bad.expect("generators commute", exp["commute"], True)
        bad.expect("left dim", pair["left"], {"n": params["n"], "dim": params["n"] ** 2})
        bad.expect("right dim", pair["right"], {"n": params["n"], "dim": 1})
        _check_hierarchy(h, MATRIX_INDEPENDENT, bad)
    elif kind == "tensor":
        p, q = params["p"], params["q"]
        bad.expect("generators commute", exp["commute"], True)
        bad.expect("left dim", pair["left"], {"n": p * q, "dim": p * p})
        bad.expect("right dim", pair["right"], {"n": p * q, "dim": q * q})
        _check_hierarchy(h, MATRIX_INDEPENDENT, bad)
    elif kind == "pauli":
        bad.expect("dims", (pair["left"]["dim"], pair["right"]["dim"]), exp["dims"])
        bad.expect("microcausality", h["microcausality"], False)
        w = h["witnesses"]["microcausality"]
        bad.expect("commutator witness",
                   (w["left_basis_index"], w["right_basis_index"], w["commutator"]),
                   exp["commutator"])
        bad.expect("cstar_independent", h["cstar_independent"], False)
        bad.expect("product_sense", h["product_sense"], False)
        bad.expect("schlieder is not false", h["schlieder"] is not False, True)
    elif kind == "block-diagonal":
        # M_2 (+) C and C (+) M_2: dimension 5 each, meeting in the 2-dim
        # centre; they generate M_2 (+) M_2, so the kernel has 25 - 8 = 17
        bad.expect("E00 E22 = 0 with both factors nonzero", exp["zero_product"], True)
        bad.expect("left dim", pair["left"]["dim"], 5)
        bad.expect("microcausality", h["microcausality"], True)
        bad.expect("extended_locality", h["extended_locality"], False)
        bad.expect("intersection_dim", h["witnesses"]["extended_locality"]["intersection_dim"], 2)
        bad.expect("product_sense", h["product_sense"], False)
        bad.expect("kernel dim", h["witnesses"]["product_sense"]["multiplication_kernel_dim"], 17)
        bad.expect("schlieder", h["schlieder"], False)
        bad.expect("cstar_independent", h["cstar_independent"], False)


CHECKS = {
    "contexts": _check_contexts,
    "grid": _check_grid_or_discrete,
    "discrete": _check_grid_or_discrete,
    "full-vs-scalars": _check_matrix,
    "tensor": _check_matrix,
    "pauli": _check_matrix,
    "block-diagonal": _check_matrix,
}

# The fault the block-diagonal case exposes: the matrix route of Schlieder
# knows only the sufficient injectivity condition.
KNOWN_FAULT = (
    "schlieder: got 'undetermined', expected False",
    "cstar_independent: got 'undetermined', expected False",
)
