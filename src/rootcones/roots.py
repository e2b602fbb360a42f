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
from functools import cached_property, lru_cache, wraps
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import InvalidRank, InvariantViolation, NotProportional, UnknownRoot
from .linalg import (
    IntVector,
    QMatrix,
    Vector,
    _integer_inverse,
    clear_denominators,
    is_positive_definite,
    unit_vec,
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
    if letter not in _RANK_BOUNDS:
        raise InvalidRank(f"unknown type letter {letter!r}")
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
    # G, the last letter of _RANK_BOUNDS.
    return _chain_gramm(2, [2, 6], {(0, 1): -3})


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
    return tuple(out)


def format_spec(components: Iterable[tuple[str, int]]) -> str:
    return "x".join(f"{letter}{rank}" for letter, rank in components)


@dataclass(frozen=True)
class RootSystem:
    """One (possibly reducible) root system with its Weyl-invariant product.

    `cartan[i][j]` is the integer 2 (alpha_i, alpha_j) / (alpha_j, alpha_j),
    the pairing of alpha_i with the coroot of alpha_j.
    """

    components: tuple[tuple[str, int], ...]
    gramm: QMatrix
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    dynkin_components: tuple[tuple[int, ...], ...]
    # Values derived from this system, keyed by kind and normalised
    # arguments; see `per_system`. Not in equality, hash, repr or pickle.
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

    @property
    def rank(self) -> int:
        return self.gramm.rows

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

    def subset(self, indices: Iterable[int]) -> tuple[int, ...]:
        """The sorted tuple of the distinct indices, each a simple root.

        Only the two ends of the sorted tuple need a range check; when one
        fails, the first bad index in sorted order is the one reported.
        """
        out = tuple(sorted(set(indices)))
        if out and not (0 <= out[0] and out[-1] < self.rank):
            for i in out:
                self.check_root(i)
        return out

    def root_label(self, alpha: int) -> str:
        return f"alpha_{alpha + 1}"


def per_system(kind: str):
    """Decorate f(rs, *args) to compute once per system and arguments.

    The value is kept in `rs._memo` under the key (kind, *args). Callers
    validate and normalise the arguments before the call, so bad input
    raises on every call, and f returns only immutable values, so they
    can be shared.
    """

    def decorate(f):
        @wraps(f)
        def memoised(rs: RootSystem, *args):
            key = (kind, *args)
            memo = rs._memo
            if key in memo:
                return memo[key]
            value = memo[key] = f(rs, *args)
            return value

        return memoised

    return decorate


def _graph_components(cartan, nodes=None) -> tuple[tuple[int, ...], ...]:
    """Components of the Dynkin graph on nodes (default: all), least first.

    The graph is read from the integer Cartan rows: a nonzero off-diagonal
    entry is an edge.
    """
    nodes = range(len(cartan)) if nodes is None else sorted(set(nodes))
    seen = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in nodes:
                if j not in seen and cartan[i][j] != 0:
                    seen.add(j)
                    stack.append(j)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def is_connected_subset(cartan, subset: Sequence[int]) -> bool:
    """Whether the induced Dynkin subgraph on subset is connected."""
    return len(_graph_components(cartan, subset)) == 1


def _enumerate_positive_roots(cartan) -> tuple[tuple[int, ...], ...]:
    """Closure of the simple roots under root-string extension.

    Standard height-by-height induction: beta + alpha_i is a root iff the
    alpha_i-string through beta extends, decided by p - <beta, alpha_i~> > 0
    with p the largest backward step already seen.
    """
    n = len(cartan)
    frontier = [unit_vec(n, i) for i in range(n)]
    roots = set(frontier)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(n):
                pairing = sum(beta[j] * cartan[j][i] for j in range(n))
                p = 0
                while beta[:i] + (beta[i] - p - 1,) + beta[i + 1 :] in roots:
                    p += 1
                up = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
                if p > pairing and up not in roots:
                    roots.add(up)
                    new.append(up)
        frontier = new
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


def _integer_cartan(gramm: QMatrix):
    """The Cartan rows 2 (alpha_i, alpha_j) / (alpha_j, alpha_j) in ints,
    or None when an entry is not an integer."""
    n = gramm.rows
    rows = [[2 * gramm.at(i, j) / gramm.at(j, j) for j in range(n)] for i in range(n)]
    if any(c.denominator != 1 for row in rows for c in row):
        return None
    return tuple(tuple(int(c) for c in row) for row in rows)


def _validate_gramm(gramm: QMatrix) -> tuple[tuple[int, ...], ...]:
    """Check a Gramm matrix and return its integer Cartan matrix."""
    if not gramm.is_symmetric():
        raise ValueError("Gramm matrix must be symmetric")
    if not is_positive_definite(gramm):
        raise ValueError("Gramm matrix must be positive definite")
    if any(gramm.at(i, j) > 0 for i in range(gramm.rows) for j in range(i)):
        raise ValueError("distinct simple roots need (alpha, beta) <= 0")
    cartan = _integer_cartan(gramm)
    if cartan is None:
        raise ValueError("Cartan matrix must be integral")
    return cartan


def from_gramm(gramm: QMatrix, components=None) -> RootSystem:
    """Build a RootSystem from an explicit Gramm matrix.

    Every RootSystem is built here, so every one is validated. Component
    types are classified from the Cartan matrix when not given; that must
    succeed, since every valid Gramm matrix of a root system restricts to
    catalogue types on its connected blocks. Declared types are checked
    against the Cartan block of their component, up to reindexing.
    """
    cartan = _validate_gramm(gramm)
    comps = _graph_components(cartan)
    if components is None:
        components = tuple(classify_irreducible(gramm.submatrix(c, c)) for c in comps)
        if None in components:
            raise ValueError("Gramm block matches no catalogue type")
    else:
        components = tuple(components)
        if len(components) != len(comps) or any(
            rank != len(comp) for (_, rank), comp in zip(components, comps)
        ):
            raise ValueError("declared components do not match the Gramm blocks")
        for (letter, rank), comp in zip(components, comps):
            block = [[cartan[i][j] for j in comp] for i in comp]
            if not _same_up_to_reindexing(block, _catalogue_cartan(letter, rank)):
                raise ValueError(
                    f"declared type {letter}{rank} does not match its Cartan block"
                )
    return RootSystem(
        components=components,
        gramm=gramm,
        cartan=cartan,
        positive_roots=_enumerate_positive_roots(cartan),
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
    n = sum(rank for _, rank in spec)
    rows, offset = [], 0
    for letter, rank in spec:
        for row in gramm_seed(letter, rank):
            rows.append([0] * offset + row + [0] * (n - offset - rank))
        offset += rank
    return from_gramm(QMatrix.from_rows(rows), components=spec)


@lru_cache(maxsize=None)
def _catalogue_cartan(letter: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """The integer Cartan matrix of one catalogue type."""
    return _integer_cartan(QMatrix.from_rows(gramm_seed(letter, rank)))


def _same_up_to_reindexing(target, seed) -> bool:
    """Whether target[p[i]][p[j]] == seed[i][j] for some permutation p.

    Backtracking: seed node k goes to an unused target node whose entries
    against the images of seed nodes 0..k-1 agree.
    """
    n = len(seed)
    image: list[int] = []

    def extend(k: int) -> bool:
        if k == n:
            return True
        for t in range(n):
            if t not in image and all(
                target[t][u] == seed[k][i] and target[u][t] == seed[i][k]
                for i, u in enumerate(image)
            ):
                image.append(t)
                if extend(k + 1):
                    return True
                image.pop()
        return False

    return extend(0)


def classify_irreducible(gramm: QMatrix):
    """Identify a connected Gramm block as a catalogue type, or None.

    Matching is on the Cartan matrix up to simultaneous reindexing, which
    makes it insensitive to rescaling the inner product.
    """
    rank = gramm.rows
    target = _integer_cartan(gramm)
    if rank == 0 or target is None or not is_connected_subset(target, range(rank)):
        return None
    # Letters in catalogue order, so A3 wins over D3 and B2 over C2.
    for letter, (lo, hi) in _RANK_BOUNDS.items():
        if lo <= rank and (hi is None or rank <= hi):
            if _same_up_to_reindexing(target, _catalogue_cartan(letter, rank)):
                return (letter, rank)
    return None


def _fraction_rows(den: int, rows: Mapping[int, IntVector]) -> Mapping[int, Vector]:
    """The integer rows over den, as read-only Fraction rows."""
    return MappingProxyType({
        alpha: tuple(Fraction(x, den) for x in row) for alpha, row in rows.items()
    })


@dataclass(frozen=True)
class WeightTable:
    """Dual weights, masses and weighted dual weights of the subset I.

    The dual weights are those of the subsystem on I, and every map is
    keyed by root index. The one stored form is `integer_dual`, (den,
    rows): den > 0 is the least common denominator of the dual weights,
    and rows[alpha] is den times w_alpha as a full-length integer row in
    ambient simple-root coordinates, supported on I. On I the rows are den
    times the inverse of the Gramm block on I, so they depend only on that
    block. The whole system is the case where I holds every root. The maps
    are read-only, since tables are shared through the memo.

    Every other value is derived on first use and kept with the table: the
    masses d (`integer_d`, the row sums), the weighted rows w_alpha / d_alpha,
    whose coordinates sum to one (`integer_weighted`), the Fraction views
    `dual`, `d` and `weighted`, which serve reports, and `differences` and
    `objectives`, the functionals of the Theorem 6.1 cones as integer rows
    over the den of `integer_weighted`; those depend on alpha and gamma but
    not on the subset of the cone.
    """

    subset: tuple[int, ...]
    integer_dual: tuple[int, Mapping[int, IntVector]]

    @cached_property
    def integer_d(self) -> tuple[int, Mapping[int, int]]:
        """(den, ints): the den of `integer_dual`, ints[alpha] its row's sum."""
        den, rows = self.integer_dual
        return den, MappingProxyType({alpha: sum(row) for alpha, row in rows.items()})

    @cached_property
    def integer_weighted(self) -> tuple[int, Mapping[int, IntVector]]:
        """(den, rows) with rows[alpha] = den * weighted[alpha], den > 0 least."""
        # weighted[alpha] = row / mass is in least terms over
        # mass / gcd(mass, *row), so den is the lcm of those.
        _, rows = self.integer_dual
        _, masses = self.integer_d
        den = lcm(*(m // gcd(m, *rows[alpha]) for alpha, m in masses.items()))
        return den, MappingProxyType({
            alpha: tuple(x * den // masses[alpha] for x in row)
            for alpha, row in rows.items()
        })

    @cached_property
    def dual(self) -> Mapping[int, Vector]:
        return _fraction_rows(*self.integer_dual)

    @cached_property
    def d(self) -> Mapping[int, Fraction]:
        den, masses = self.integer_d
        return MappingProxyType({a: Fraction(m, den) for a, m in masses.items()})

    @cached_property
    def weighted(self) -> Mapping[int, Vector]:
        return _fraction_rows(*self.integer_weighted)

    @cached_property
    def differences(self) -> Mapping[int, Mapping[int, IntVector]]:
        """Entry [alpha][gamma] is den (weighted[alpha] - weighted[gamma]).

        den is that of `integer_weighted`, so the entry is rows[alpha] -
        rows[gamma] of its integer rows.
        """
        _, w = self.integer_weighted
        return MappingProxyType({
            alpha: MappingProxyType({
                gamma: tuple(a - b for a, b in zip(w[alpha], w[gamma])) for gamma in w
            })
            for alpha in w
        })

    @cached_property
    def objectives(self) -> Mapping[int, IntVector]:
        """Entry alpha is den (e_alpha - weighted[alpha]), den that of
        `integer_weighted`: den at coordinate alpha minus rows[alpha]."""
        den, w = self.integer_weighted
        return MappingProxyType({
            alpha: tuple(den * (j == alpha) - x for j, x in enumerate(row))
            for alpha, row in w.items()
        })


def weight_table(rs: RootSystem) -> WeightTable:
    """The dual-weight table of the whole system."""
    return _weight_table(rs, tuple(range(rs.rank)))


@per_system("weight_table")
def _weight_table(rs: RootSystem, subset: tuple[int, ...]) -> WeightTable:
    """The table of a sorted, checked subset, built once per system and subset."""
    d, inverse = _integer_inverse(rs.gramm.submatrix(subset, subset))
    # Divided by the gcd of d and every entry of d G_I^-1, d is the least
    # common denominator; each row is then spread to ambient coordinates.
    g = gcd(d, *(x for row in inverse for x in row))
    at = [subset.index(j) if j in subset else None for j in range(rs.rank)]
    rows = {
        alpha: tuple(0 if k is None else row[k] // g for k in at)
        for alpha, row in zip(subset, inverse)
    }
    table = WeightTable(subset=subset, integer_dual=(d // g, MappingProxyType(rows)))
    if any(mass <= 0 for mass in table.integer_d[1].values()):
        raise InvariantViolation(f"{rs.spec}: a dual weight has mass d <= 0")
    return table


@per_system("integer_gramm")
def integer_gramm(rs: RootSystem) -> tuple[int, tuple[IntVector, ...]]:
    """(g, rows) with rows[i] = g * Gramm row i, all ints.

    g > 0 is the lcm of the denominators of every Gramm entry.
    """
    g, ints = clear_denominators(rs.gramm.entries)
    n = rs.rank
    return g, tuple(ints[i * n : (i + 1) * n] for i in range(n))


def check_2d_identity(rs: RootSystem, alpha: int) -> bool:
    """Whether (a,a) d_a + sum over other roots of (a,b) d_b equals 1."""
    rs.check_root(alpha)
    # On integers: g (a,b) = rows[a][b] and dd d_b = d_ints[b].
    dd, d_ints = weight_table(rs).integer_d
    g, rows = integer_gramm(rs)
    return sum(x * d_ints[beta] for beta, x in enumerate(rows[alpha])) == g * dd


def roundtrip_simple_root(rs: RootSystem, alpha: int) -> bool:
    """Expand alpha over the dual weights, then back over the roots."""
    rs.check_root(alpha)
    # On integers: sum_b g G_ab (den w_b) = g den e_alpha, zero G_ab skipped.
    den, duals = weight_table(rs).integer_dual
    g, rows = integer_gramm(rs)
    acc = [0] * rs.rank
    for beta, coeff in enumerate(rows[alpha]):
        if coeff:
            acc = [a + coeff * x for a, x in zip(acc, duals[beta])]
    return acc == [g * den * (j == alpha) for j in range(rs.rank)]


def connected_to(rs: RootSystem, alpha: int, targets: Iterable[int]) -> bool:
    """Whether alpha's Dynkin component meets the target set.

    This is component membership, not graph adjacency: alpha counts as
    connected to a set exactly when some member shares its component.
    """
    rs.check_root(alpha)
    comp = set(rs.component_of(alpha))
    return any(t in comp for t in targets if t != alpha)


def parabolic_character(rs: RootSystem, alpha: int):
    """Sum of positive roots with positive alpha-coefficient, and its ratio.

    Returns (character, lam) with character = lam * w_alpha, lam > 0 exact.
    Raises NotProportional if no such scalar exists, which would indicate
    a construction bug rather than a legitimate input.
    """
    rs.check_root(alpha)
    character = tuple(map(sum, zip(*(r for r in rs.positive_roots if r[alpha] > 0))))
    den, rows = weight_table(rs).integer_dual
    w, c = rows[alpha], character[alpha]
    # character = lam * w / den, and c >= 1, since alpha is a positive root,
    # so a positive lam exists only when w[alpha] > 0, and then it is
    # c den / w[alpha]; proportionality is checked cross-multiplied.
    if w[alpha] <= 0 or any(x * w[alpha] != c * y for x, y in zip(character, w)):
        raise NotProportional(
            f"character of {rs.root_label(alpha)} is not a positive multiple "
            f"of its dual weight"
        )
    return character, Fraction(c * den, w[alpha])


def rescale_components(rs: RootSystem, factors: Sequence) -> RootSystem:
    """Rescale the inner product by a positive factor per component."""
    factors = [Fraction(f) for f in factors]
    if len(factors) != len(rs.dynkin_components):
        raise ValueError("one factor per component required")
    if any(f <= 0 for f in factors):
        raise ValueError("scaling factors must be positive")
    factor_of = {i: f for comp, f in zip(rs.dynkin_components, factors) for i in comp}
    rows = [[factor_of[i] * x for x in rs.gramm.row(i)] for i in range(rs.rank)]
    return from_gramm(QMatrix.from_rows(rows), rs.components)


def subsystem(rs: RootSystem, subset: Sequence[int]) -> tuple[RootSystem, tuple[int, ...]]:
    """Root system generated by a subset of the simple roots.

    Returns the subsystem together with the map from its root indices to
    the ambient ones. Empty subsets yield a rank-zero system. No package
    code calls it; it is kept because the perfbench tracer wraps it.
    """
    subset = rs.subset(subset)
    return from_gramm(rs.gramm.submatrix(subset, subset)), subset


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


def weight_table_to_dict(wt: WeightTable) -> dict:
    """JSON form of a table: per root of its subset, by 1-based label."""
    return {
        f"alpha_{i + 1}": {
            "dual_weight": fractions_to_strings(wt.dual[i]),
            "d": str(wt.d[i]),
            "weighted_dual_weight": fractions_to_strings(wt.weighted[i]),
        }
        for i in wt.subset
    }
