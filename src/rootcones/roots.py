"""Root systems over the rationals: construction, positive roots, dual weights.

Vectors live in the span of the simple roots, written in simple-root
coordinates; the inner product is carried by the Gramm matrix. The dual
space is coordinatized by evaluations against the simple roots, so a
point a of the dual has coordinates (alpha_1(a), ..., alpha_n(a)) and a
span-side vector acts on it by the plain dot product of coordinates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import networkx as nx

from .errors import InvalidRank, NotProportional, UnknownRoot
from .linalg import (
    QMatrix,
    Vector,
    determinant,
    invert,
    unit_vec,
    vec_scale,
)

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def _chain_gramm(rank, diagonal, links):
    g = [[Fraction(0)] * rank for _ in range(rank)]
    for i in range(rank):
        g[i][i] = Fraction(diagonal[i])
    for (i, j), value in links.items():
        g[i][j] = Fraction(value)
        g[j][i] = Fraction(value)
    return g


def gramm_seed(letter: str, rank: int) -> list[list[Fraction]]:
    """Gramm matrix of one irreducible type, long roots of square norm 2."""
    lo, hi = _RANK_BOUNDS[letter]
    if rank < lo or (hi is not None and rank > hi):
        raise InvalidRank(f"{letter}{rank} is not a valid irreducible type")
    consec = {(i, i + 1): -1 for i in range(rank - 1)}
    if letter == "A":
        return _chain_gramm(rank, [2] * rank, consec)
    if letter == "B":
        # Last root short: square norm 1.
        return _chain_gramm(rank, [2] * (rank - 1) + [1], consec)
    if letter == "C":
        # Last root long: square norm 4 in this normalization.
        links = dict(consec)
        links[(rank - 2, rank - 1)] = -2
        return _chain_gramm(rank, [2] * (rank - 1) + [4], links)
    if letter == "D":
        links = {(i, i + 1): -1 for i in range(rank - 2)}
        links[(rank - 3, rank - 1)] = -1
        return _chain_gramm(rank, [2] * rank, links)
    if letter == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        links = {(chain[i], chain[i + 1]): -1 for i in range(len(chain) - 1)}
        links[(1, 3)] = -1
        return _chain_gramm(rank, [2] * rank, links)
    if letter == "F":
        return _chain_gramm(
            4,
            [2, 2, 1, 1],
            {(0, 1): -1, (1, 2): -1, (2, 3): Fraction(-1, 2)},
        )
    if letter == "G":
        return _chain_gramm(2, [2, 6], {(0, 1): -3})
    raise InvalidRank(f"unknown type letter {letter!r}")


def parse_spec(text: str) -> tuple[tuple[str, int], ...]:
    """Parse a system spec like "A3" or "B2xA1" into (letter, rank) pairs."""
    out = []
    pos = 0
    for piece in text.split("x"):
        m = re.fullmatch(r"\s*([A-Ga-g])\s*([0-9]+)\s*", piece)
        if not m:
            if re.match(r"\s*[Bb][Cc]", piece):
                raise ValueError(
                    f"bad system spec at position {pos}: non-reduced types "
                    f"(BC) are not supported"
                )
            raise ValueError(f"bad system spec at position {pos}: {piece!r}")
        out.append((m.group(1).upper(), int(m.group(2))))
        pos += len(piece) + 1
    if not out:
        raise ValueError("empty system spec")
    return tuple(out)


def format_spec(components: Iterable[tuple[str, int]]) -> str:
    return "x".join(f"{letter}{rank}" for letter, rank in components)


@dataclass(frozen=True)
class RootSystem:
    """One (possibly reducible) root system with its Weyl-invariant product."""

    components: tuple[tuple[str, int], ...]
    simple_roots: tuple[Vector, ...]
    gramm: QMatrix
    positive_roots: tuple[tuple[int, ...], ...]
    dynkin_components: tuple[tuple[int, ...], ...]
    # Values derived from this system, keyed by kind and normalised
    # arguments; see `cached`. Not part of equality, hash, repr or pickle.
    _memo: dict = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_memo"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        object.__setattr__(self, "_memo", {})

    def cached(self, key: tuple, compute):
        """The value of compute(), computed once per system and key.

        Callers validate and normalise the arguments that make up the key
        before asking, so bad input raises on every call, and only
        immutable values are stored, so they can be shared.
        """
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    @property
    def rank(self) -> int:
        return len(self.simple_roots)

    @property
    def spec(self) -> str:
        return format_spec(self.components)

    def is_irreducible(self) -> bool:
        return len(self.dynkin_components) == 1

    def component_of(self, alpha: int) -> tuple[int, ...]:
        self.check_root(alpha)
        for comp in self.dynkin_components:
            if alpha in comp:
                return comp
        raise UnknownRoot(f"root index {alpha} in no component")

    def check_root(self, alpha: int) -> None:
        if not (0 <= alpha < self.rank):
            raise UnknownRoot(f"no simple root with index {alpha}")

    def cartan(self) -> QMatrix:
        """Cartan matrix: 2 (alpha_i, alpha_j) / (alpha_j, alpha_j)."""
        g = self.gramm
        return QMatrix.from_rows(
            [
                [2 * g.at(i, j) / g.at(j, j) for j in range(self.rank)]
                for i in range(self.rank)
            ]
        )

    def root_label(self, alpha: int) -> str:
        return f"alpha_{alpha + 1}"


def _graph_components(gramm: QMatrix) -> tuple[tuple[int, ...], ...]:
    n = gramm.rows
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and gramm.at(i, j) != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def is_connected_subset(gramm: QMatrix, subset: Sequence[int]) -> bool:
    """Whether the induced Dynkin subgraph on subset is connected."""
    subset = list(subset)
    if not subset:
        return False
    seen = {subset[0]}
    stack = [subset[0]]
    while stack:
        i = stack.pop()
        for j in subset:
            if j not in seen and gramm.at(i, j) != 0:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(subset)


def _enumerate_positive_roots(gramm: QMatrix) -> tuple[tuple[int, ...], ...]:
    """Closure of the simple roots under root-string extension.

    Standard height-by-height induction: beta + alpha_i is a root iff the
    alpha_i-string through beta extends, decided by p - <beta, alpha_i~> > 0
    with p the largest backward step already seen.
    """
    n = gramm.rows
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(n):
                pairing = 2 * sum(
                    beta[j] * gramm.at(j, i) for j in range(n)
                ) / gramm.at(i, i)
                assert pairing.denominator == 1, "Cartan pairing must be integral"
                p = 0
                while True:
                    back = tuple(
                        c - (p + 1) * (1 if j == i else 0)
                        for j, c in enumerate(beta)
                    )
                    if back in roots:
                        p += 1
                    else:
                        break
                if p - int(pairing) > 0:
                    up = tuple(c + (1 if j == i else 0) for j, c in enumerate(beta))
                    if up not in roots:
                        roots.add(up)
                        new.append(up)
        frontier = new
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


def _validate_gramm(gramm: QMatrix) -> None:
    if not gramm.is_symmetric():
        raise ValueError("Gramm matrix must be symmetric")
    n = gramm.rows
    for k in range(1, n + 1):
        idx = list(range(k))
        if determinant(gramm.submatrix(idx, idx)) <= 0:
            raise ValueError("Gramm matrix must be positive definite")
    for i in range(n):
        for j in range(n):
            if i != j and gramm.at(i, j) > 0:
                raise ValueError("distinct simple roots need (alpha, beta) <= 0")


def from_gramm(gramm: QMatrix, components=None) -> RootSystem:
    """Build a RootSystem from an explicit Gramm matrix.

    Component types are classified from the Cartan matrix when not given;
    that must succeed, since every valid Gramm matrix of a root system
    restricts to catalogue types on its connected blocks.
    """
    _validate_gramm(gramm)
    comps = _graph_components(gramm)
    if components is None:
        typed = []
        for comp in comps:
            sub = gramm.submatrix(comp, comp)
            identified = classify_irreducible(sub)
            if identified is None:
                raise ValueError("Gramm block matches no catalogue type")
            typed.append(identified)
        components = tuple(typed)
    else:
        components = tuple(components)
        if len(components) != len(comps) or any(
            rank != len(comp) for (_, rank), comp in zip(components, comps)
        ):
            raise ValueError("declared components do not match the Gramm blocks")
    n = gramm.rows
    return RootSystem(
        components=tuple(components),
        simple_roots=tuple(unit_vec(n, i) for i in range(n)),
        gramm=gramm,
        positive_roots=_enumerate_positive_roots(gramm),
        dynkin_components=comps,
    )


# More than the distinct systems of a default `verify --suite all` run.
_BUILD_CACHE_SIZE = 64


def build(spec) -> RootSystem:
    """Construct a root system from a spec string or (letter, rank) pairs.

    Equal specs give one shared instance, so its memoised data is reused
    across calls; use `from_gramm` for a fresh system.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    return _build(tuple((letter.upper(), int(rank)) for letter, rank in spec))


@lru_cache(maxsize=_BUILD_CACHE_SIZE)
def _build(spec: tuple[tuple[str, int], ...]) -> RootSystem:
    blocks = [gramm_seed(letter, rank) for letter, rank in spec]
    n = sum(len(b) for b in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                rows[offset + i][offset + j] = b[i][j]
        offset += k
    return from_gramm(QMatrix.from_rows(rows), components=spec)


def _cartan_digraph(gramm: QMatrix):
    g = nx.DiGraph()
    n = gramm.rows
    g.add_nodes_from(range(n))
    for i in range(n):
        for j in range(n):
            if i != j and gramm.at(i, j) != 0:
                label = 2 * gramm.at(i, j) / gramm.at(j, j)
                g.add_edge(i, j, c=str(label))
    return g


def classify_irreducible(gramm: QMatrix):
    """Identify a connected Gramm block as a catalogue type, or None.

    Matching is on the Cartan matrix up to simultaneous reindexing, which
    makes it insensitive to rescaling the inner product.
    """
    rank = gramm.rows
    if rank == 0 or not is_connected_subset(gramm, range(rank)):
        return None
    candidates = [("A", rank)]
    if rank >= 2:
        candidates += [("B", rank), ("C", rank)]
    if rank >= 3:
        candidates.append(("D", rank))
    if rank in (6, 7, 8):
        candidates.append(("E", rank))
    if rank == 4:
        candidates.append(("F", 4))
    if rank == 2:
        candidates.append(("G", 2))
    target = _cartan_digraph(gramm)
    match = nx.algorithms.isomorphism.categorical_edge_match("c", None)
    for letter, r in candidates:
        seed = _cartan_digraph(QMatrix.from_rows(gramm_seed(letter, r)))
        if nx.is_isomorphic(target, seed, edge_match=match):
            return (letter, r)
    return None


@dataclass(frozen=True)
class WeightTable:
    """Dual weights, their mass d, and the weighted dual weights.

    Row alpha of `dual` gives w_alpha in simple-root coordinates; the
    matrix of rows is exactly the inverse Gramm matrix. d_alpha sums row
    alpha, and `weighted` divides each row by its d, so its coordinates
    sum to one.
    """

    dual: tuple[Vector, ...]
    d: tuple[Fraction, ...]
    weighted: tuple[Vector, ...]

    @property
    def rank(self) -> int:
        return len(self.dual)


def gramm_inverse(rs: RootSystem) -> QMatrix:
    """The inverse Gramm matrix, computed once per system."""
    return rs.cached(("gramm_inverse",), lambda: invert(rs.gramm))


def weight_table(rs: RootSystem) -> WeightTable:
    """Exact dual-weight data computed from the inverse Gramm matrix."""
    return rs.cached(("weight_table",), lambda: _weight_table(rs))


def _weight_table(rs: RootSystem) -> WeightTable:
    ginv = gramm_inverse(rs)
    dual = tuple(ginv.row(i) for i in range(rs.rank))
    d = tuple(sum(row, Fraction(0)) for row in dual)
    assert all(x > 0 for x in d)
    weighted = tuple(vec_scale(Fraction(1) / d[i], dual[i]) for i in range(rs.rank))
    return WeightTable(dual=dual, d=d, weighted=weighted)


def check_2d_identity(rs: RootSystem, wt: WeightTable, alpha: int) -> bool:
    """Whether (a,a) d_a + sum over other roots of (a,b) d_b equals 1."""
    rs.check_root(alpha)
    total = sum(
        (rs.gramm.at(alpha, beta) * wt.d[beta] for beta in range(rs.rank)),
        Fraction(0),
    )
    return total == 1


def roundtrip_simple_root(rs: RootSystem, wt: WeightTable, alpha: int) -> bool:
    """Expand alpha over the dual weights, then back over the roots."""
    rs.check_root(alpha)
    acc = [Fraction(0)] * rs.rank
    for beta in range(rs.rank):
        coeff = rs.gramm.at(alpha, beta)
        for j in range(rs.rank):
            acc[j] += coeff * wt.dual[beta][j]
    return tuple(acc) == unit_vec(rs.rank, alpha)


def connected_to(rs: RootSystem, alpha: int, targets: Iterable[int]) -> bool:
    """Whether alpha's Dynkin component meets the target set.

    This is component membership, not graph adjacency: alpha counts as
    connected to a set exactly when some member shares its component.
    """
    rs.check_root(alpha)
    comp = set(rs.component_of(alpha))
    return any(t in comp for t in targets if t != alpha)


def parabolic_character(rs: RootSystem, alpha: int, wt: WeightTable | None = None):
    """Sum of positive roots with positive alpha-coefficient, and its ratio.

    Returns (character, lam) with character = lam * w_alpha, lam > 0 exact.
    Raises NotProportional if no such scalar exists, which would indicate
    a construction bug rather than a legitimate input.
    """
    rs.check_root(alpha)
    if wt is None:
        wt = weight_table(rs)
    acc = [Fraction(0)] * rs.rank
    for root in rs.positive_roots:
        if root[alpha] > 0:
            for j in range(rs.rank):
                acc[j] += root[j]
    character = tuple(acc)
    w = wt.dual[alpha]
    lam = None
    for x, y in zip(character, w):
        if y == 0:
            if x != 0:
                raise NotProportional(
                    f"character of {rs.root_label(alpha)} is not a multiple "
                    f"of its dual weight"
                )
            continue
        ratio = x / y
        if lam is None:
            lam = ratio
        elif ratio != lam:
            raise NotProportional(
                f"character of {rs.root_label(alpha)} is not a multiple "
                f"of its dual weight"
            )
    if lam is None or lam <= 0:
        raise NotProportional(
            f"character of {rs.root_label(alpha)} has no positive ratio"
        )
    return character, lam


def rescale_components(rs: RootSystem, factors: Sequence) -> RootSystem:
    """Rescale the inner product by a positive factor per component."""
    factors = [Fraction(f) for f in factors]
    if len(factors) != len(rs.dynkin_components):
        raise ValueError("one factor per component required")
    if any(f <= 0 for f in factors):
        raise ValueError("scaling factors must be positive")
    factor_of = {}
    for comp, f in zip(rs.dynkin_components, factors):
        for i in comp:
            factor_of[i] = f
    n = rs.rank
    rows = [
        [factor_of[i] * rs.gramm.at(i, j) for j in range(n)] for i in range(n)
    ]
    return RootSystem(
        components=rs.components,
        simple_roots=rs.simple_roots,
        gramm=QMatrix.from_rows(rows),
        positive_roots=rs.positive_roots,
        dynkin_components=rs.dynkin_components,
    )


def subsystem(rs: RootSystem, subset: Sequence[int]) -> tuple[RootSystem, tuple[int, ...]]:
    """Root system generated by a subset of the simple roots.

    Returns the subsystem together with the map from its root indices to
    the ambient ones. Empty subsets yield a rank-zero system.
    """
    subset = tuple(sorted(set(subset)))
    for i in subset:
        rs.check_root(i)
    return rs.cached(("subsystem", subset), lambda: _subsystem(rs, subset))


def _subsystem(rs: RootSystem, subset: tuple[int, ...]):
    if not subset:
        empty = RootSystem(
            components=(),
            simple_roots=(),
            gramm=QMatrix.zero(0, 0),
            positive_roots=(),
            dynkin_components=(),
        )
        return empty, ()
    sub = rs.gramm.submatrix(subset, subset)
    return from_gramm(sub), subset


def fractions_to_strings(values) -> list:
    return [str(Fraction(v)) for v in values]


def root_system_to_dict(rs: RootSystem) -> dict:
    return {
        "spec": rs.spec,
        "components": [[letter, rank] for letter, rank in rs.components],
        "rank": rs.rank,
        "gramm": [fractions_to_strings(rs.gramm.row(i)) for i in range(rs.rank)],
        "positive_roots": [list(r) for r in rs.positive_roots],
        "positive_root_count": len(rs.positive_roots),
        "dynkin_components": [
            [i + 1 for i in comp] for comp in rs.dynkin_components
        ],
    }


def weight_table_to_dict(rs: RootSystem, wt: WeightTable) -> dict:
    out = {}
    for i in range(rs.rank):
        out[rs.root_label(i)] = {
            "dual_weight": fractions_to_strings(wt.dual[i]),
            "d": str(wt.d[i]),
            "weighted_dual_weight": fractions_to_strings(wt.weighted[i]),
        }
    return out
