"""Parsing of the declarative JSON input documents consumed by the CLI.

One schema covers everything: an ambient set, named algebras (partitions as
lists of label blocks, matrix algebras as exact-rational generator lists),
an optional pair section, an optional net section, and option overrides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .contexts import DEFAULT_MAX_BELL
from .errors import InputError, guard
from .independence import AlgebraPair
from .net import NetSpec, SpacetimePoset
from .partitions import AmbientSet, Partition
from .scalars import scalar_from_json
from .staralg import StarAlgebra, generated_star_algebra

# Set when a dense conjugate of full M_8 against the scalars took over 100 s.
# On the Gaussian-integer kernels a dense conjugate of full M_n takes 0.53 s
# at n = 8 and 2.0 s / 23 MB at n = 10, and full M_10 in matrix units 0.31 s
# (2 vCPUs), so each of these fits 60 s / 2 GB up to n = 10; the guard
# stays at 7 because raising it changes which inputs exit 1.
DEFAULT_MAX_DIM = 7


@dataclass
class Options:
    max_bell: int = DEFAULT_MAX_BELL
    max_dim: int = DEFAULT_MAX_DIM
    seed: int = 0
    samples: int = 3
    max_denominator: int = 12


@dataclass
class PairSection:
    left: str
    right: str
    meet_algebra: Optional[str] = None


@dataclass
class InputDocument:
    ambient: Optional[AmbientSet]
    algebras: dict[str, object] = field(default_factory=dict)
    pair: Optional[PairSection] = None
    net: Optional[NetSpec] = None
    options: Options = field(default_factory=Options)

    def algebra(self, name: str):
        if name not in self.algebras:
            raise InputError(
                f"unknown algebra name {name!r}; defined: {sorted(self.algebras)}"
            )
        return self.algebras[name]

    def partition(self, name: str) -> Partition:
        alg = self.algebra(name)
        if not isinstance(alg, Partition):
            raise InputError(f"algebra {name!r} is a matrix algebra, not a partition")
        return alg

    def build_pair(self) -> AlgebraPair:
        if self.pair is None:
            raise InputError("input document has no pair section")
        left = self.algebra(self.pair.left)
        right = self.algebra(self.pair.right)
        meet = None
        if self.pair.meet_algebra is not None:
            meet = self.partition(self.pair.meet_algebra)
        return AlgebraPair(left, right, meet_algebra=meet)


def _expect(condition: bool, message: str):
    if not condition:
        raise InputError(message)


def _parse_options(data) -> Options:
    opts = Options()
    if data is None:
        return opts
    _expect(isinstance(data, dict), "options section must be an object")
    known = {f for f in vars(opts)}
    for key, value in data.items():
        _expect(key in known, f"unknown option {key!r}; known: {sorted(known)}")
        _expect(
            isinstance(value, int) and not isinstance(value, bool),
            f"option {key!r} must be an integer",
        )
        setattr(opts, key, value)
    return opts


def _parse_matrix_algebra(name: str, data: dict, max_dim: int) -> StarAlgebra:
    _expect(
        set(data) <= {"dimension", "generators"} and "dimension" in data,
        f'matrix algebra {name!r} must be {{"dimension": n, "generators": [...]}}',
    )
    n = data["dimension"]
    _expect(
        isinstance(n, int) and not isinstance(n, bool) and n >= 1,
        f"matrix algebra {name!r} needs a positive integer dimension",
    )
    guard(n, max_dim, lambda: f"matrix algebra {name!r} has dimension {n}")
    generators = []
    for g in data.get("generators", ()):
        _expect(
            isinstance(g, list) and len(g) == n and all(
                isinstance(row, list) and len(row) == n for row in g
            ),
            f"matrix algebra {name!r}: each generator must be an {n}x{n} entry grid",
        )
        generators.append([[scalar_from_json(x) for x in row] for row in g])
    return generated_star_algebra(n, generators)


def _parse_pair(data) -> PairSection:
    _expect(isinstance(data, dict), "pair section must be an object")
    _expect(
        set(data) <= {"left", "right", "meet_algebra"}
        and {"left", "right"} <= set(data),
        'pair section must be {"left": name, "right": name, "meet_algebra"?: name}',
    )
    for key in ("left", "right"):
        _expect(isinstance(data[key], str), f"pair {key!r} must be an algebra name")
    meet = data.get("meet_algebra")
    _expect(
        meet is None or isinstance(meet, str), "pair meet_algebra must be an algebra name"
    )
    return PairSection(left=data["left"], right=data["right"], meet_algebra=meet)


def _parse_label_pairs(data, what: str) -> list[tuple[str, str]]:
    _expect(isinstance(data, list), f"net {what} must be a list of label pairs")
    out = []
    for item in data:
        _expect(
            isinstance(item, list) and len(item) == 2
            and all(isinstance(x, str) for x in item),
            f"net {what} entries must be [label, label] pairs, got {item!r}",
        )
        out.append((item[0], item[1]))
    return out


def _parse_net(data, doc: InputDocument) -> NetSpec:
    _expect(isinstance(data, dict), "net section must be an object")
    _expect(
        set(data) <= {"regions", "leq", "spacelike", "assignment"}
        and {"regions", "assignment"} <= set(data),
        'net section must be {"regions": [...], "leq": [...], "spacelike": [...], '
        '"assignment": {...}}',
    )
    regions = data["regions"]
    _expect(
        isinstance(regions, list) and all(isinstance(r, str) for r in regions),
        "net regions must be a list of labels",
    )
    spacetime = SpacetimePoset(
        regions,
        _parse_label_pairs(data.get("leq", []), "leq"),
        _parse_label_pairs(data.get("spacelike", []), "spacelike"),
    )
    assignment = data["assignment"]
    _expect(isinstance(assignment, dict), "net assignment must be an object")
    mapping = {}
    for region, name in assignment.items():
        _expect(isinstance(name, str), f"assignment for {region!r} must name an algebra")
        mapping[region] = doc.partition(name)
    return NetSpec(spacetime=spacetime, assignment=mapping)


def parse_input_document(data, option_overrides: Optional[dict] = None) -> InputDocument:
    """Validate and materialise a parsed-JSON input document.

    ``option_overrides`` (CLI flags) win over the document's options section.
    """
    _expect(isinstance(data, dict), "input document must be a JSON object")
    _expect(
        set(data) <= {"ambient", "algebras", "pair", "net", "options"},
        f"unknown top-level keys: {sorted(set(data) - {'ambient', 'algebras', 'pair', 'net', 'options'})}",
    )
    options = _parse_options(data.get("options"))
    for key, value in (option_overrides or {}).items():
        if value is not None:
            setattr(options, key, value)
    for key in ("max_bell", "max_dim"):
        value = getattr(options, key)
        _expect(value > 0, f"option {key!r} must be a positive integer, got {value}")

    ambient = None
    if "ambient" in data:
        pts = data["ambient"]
        _expect(
            isinstance(pts, list) and all(isinstance(p, str) for p in pts),
            "ambient must be a list of point labels",
        )
        ambient = AmbientSet(pts)

    doc = InputDocument(ambient=ambient, options=options)

    algebras = data.get("algebras", {})
    _expect(isinstance(algebras, dict), "algebras section must be an object")
    for name, spec in algebras.items():
        _expect(isinstance(name, str) and name, "algebra names must be nonempty strings")
        if isinstance(spec, list):
            _expect(
                ambient is not None,
                f"partition algebra {name!r} needs an ambient section",
            )
            _expect(
                all(isinstance(b, list) and all(isinstance(x, str) for x in b) for b in spec),
                f"partition algebra {name!r} must be a list of label blocks",
            )
            doc.algebras[name] = Partition.from_blocks(ambient, spec)
        elif isinstance(spec, dict):
            doc.algebras[name] = _parse_matrix_algebra(name, spec, options.max_dim)
        else:
            raise InputError(
                f"algebra {name!r} must be a partition (list of blocks) or a "
                "matrix algebra object"
            )

    if "pair" in data:
        doc.pair = _parse_pair(data["pair"])
        doc.algebra(doc.pair.left)
        doc.algebra(doc.pair.right)
        if doc.pair.meet_algebra is not None:
            doc.algebra(doc.pair.meet_algebra)
    if "net" in data:
        doc.net = _parse_net(data["net"], doc)
    return doc
