"""Torus-level replay of the iterative root-selection procedure.

A selection is an ordered chain of distinct simple roots; removing them
one at a time gives nested subsets, and each level contributes a
sequence drawn from the one-dimensional connecting torus between
consecutive subsets. Admissibility means the running tails satisfy the
relative domination constraints of every level. Traces are linear in the
time index by construction: each level moves along a fixed primitive
line with a positive rational slope, so divergence is decidable from a
finite horizon.

Generation works in slope space. The admissibility constraints are
linear in the slope vector, so their cone is enumerated once per
selection and every sample is a strictly positive integer combination of
its extreme rays; that makes traces admissible by construction instead
of by rejection.

Slope-space arithmetic runs on integers. Each constraint row is stored
as its primitive integer row, a positive multiple of the rational
functional, and a trace's slopes are scaled by the lcm of their
denominators; both factors are positive, so every sign, and hence every
admissibility verdict, is that of the rational computation.

The induction replay runs on the same integers. Everything it compares
that depends only on the root system is kept in the system's memo: per
torus pair the canonical basis of `relative_torus`, read straight from
the memo since the level data's subsets are already sorted and checked,
against which `contains` decides membership by reducing the integer
vector, with no elimination; per subset the weight table, which keeps
its weighted rows over one shared denominator
(`WeightTable.integer_weighted`); and per
(ambient subset, later root, final subset) one yes/no for the two lemmas
that let the later root split the tail. Each trace then scales its tail
once, by the same positive factor as its slopes, and makes no elimination
of its own.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cones import ConeSpec, extreme_rays
from .errors import (
    BranchMismatch,
    DivergenceFailure,
    InfeasibleSelection,
    InvariantViolation,
    PreconditionViolated,
)
from .linalg import clear_denominators, contains, dot, primitive
from .parabolic import _relative_torus, relative_weight_table, verify_tori
from .roots import RootSystem, _graph_components, build


@dataclass(frozen=True)
class SimTrace:
    """A full multi-level trace over a finite horizon.

    A trace is its selection and its slopes: level l moves along line l of
    `_level_data(rs, selection)` with slope `slopes[l - 1]`. n0 is the
    first index from which every admissibility constraint holds; None
    marks a trace that never becomes admissible. Every constraint value at
    n is n times its value at 1, so n0 is 1 or None.
    """

    rs: RootSystem
    selection: tuple[int, ...]
    horizon: int
    n0: int | None
    slopes: tuple[Fraction, ...]

    @property
    def levels(self) -> int:
        return len(self.selection)

    def theta(self, level: int, n: int) -> tuple[Fraction, ...]:
        """Accumulated tail sum of components from `level` up, at index n.

        Component n of every level is n times its slope times its line, so
        this is n times the integer tail of `_scaled_tail` over its factor.
        No package code calls it; it is kept because the perfbench tracer
        wraps it.
        """
        den, _, tail = _scaled_tail(self, level)
        return tuple(Fraction(n * x, den) for x in tail)


@dataclass(frozen=True)
class LevelData:
    """Per-selection constants: subsets, lines, constraints, cone rays.

    Each constraint row is the primitive integer multiple of its rational
    functional (a zero functional stays a zero row), so it has the same
    sign as that functional on every slope vector.
    """

    subsets: tuple[tuple[int, ...], ...]
    lines: tuple[tuple[int, ...], ...]
    constraint_rows: tuple[tuple[tuple[int, ...], str], ...]
    rays: tuple[tuple[int, ...], ...]


def _validate_selection(rs: RootSystem, selection: Sequence[int]) -> tuple[int, ...]:
    selection = tuple(selection)
    if not selection:
        raise ValueError("selection must contain at least one root")
    for i in selection:
        rs.check_root(i)
    if len(set(selection)) != len(selection):
        raise ValueError("selection must not repeat roots")
    return selection


def _splits(
    rs: RootSystem, ambient: tuple[int, ...], k: int, final: tuple[int, ...]
) -> bool:
    """Whether later root k splits every tau in a^I_F as the step needs.

    With I the ambient subset, F the final one and reduced = I without k,
    this holds when a^I_F is the direct sum of the low torus a^{I-k}_F and
    the high torus a^I_{I-k} (the tori lemma), and the relative dual
    weight of k, weighted[k] of I's table, vanishes on the low torus.
    Then weighted[k] gives tau and its high part the same value. Both
    lemmas are computed from the tori, not assumed.
    """
    return rs.cached(
        ("splits", ambient, k, final),
        lambda: _compute_splits(rs, ambient, k, final),
    )


def _compute_splits(rs, ambient, k, final):
    reduced = tuple(t for t in ambient if t != k)
    _, weighted = relative_weight_table(rs, ambient).integer_weighted
    return verify_tori(rs, final, reduced, ambient) and not any(
        dot(weighted[k], v) for v in _relative_torus(rs, reduced, final).basis
    )


def _level_data(rs: RootSystem, selection: tuple[int, ...]) -> LevelData:
    return rs.cached(
        ("level_data", selection), lambda: _compute_level_data(rs, selection)
    )


def _compute_level_data(rs: RootSystem, selection: tuple[int, ...]) -> LevelData:
    levels = len(selection)
    subsets = [tuple(range(rs.rank))]
    for root in selection:
        subsets.append(tuple(i for i in subsets[-1] if i != root))
    lines = []
    for l in range(1, levels + 1):
        line_space = _relative_torus(rs, subsets[l - 1], subsets[l])
        if line_space.dim != 1:
            raise InvariantViolation(
                f"level {l}: connecting torus has dimension {line_space.dim}"
            )
        v = line_space.basis[0]
        if v[selection[l - 1]] < 0:
            v = tuple(-x for x in v)
        if not v[selection[l - 1]] > 0:
            raise InvariantViolation(
                f"level {l}: connecting line vanishes on the selected root"
            )
        lines.append(v)
    rows: list[tuple[tuple[int, ...], str]] = []
    for l in range(1, levels + 1):
        sel = selection[l - 1]
        _, weighted = relative_weight_table(rs, subsets[l - 1]).integer_weighted
        functionals = [(weighted[sel], f"level{l}:positivity")]
        for k in range(l + 1, levels + 1):
            other = selection[k - 1]
            diff = tuple(a - b for a, b in zip(weighted[sel], weighted[other]))
            functionals.append((diff, f"level{l}:ordering:alpha_{other + 1}"))
        for f, label in functionals:
            row = (0,) * (l - 1) + tuple(dot(f, line) for line in lines[l - 1 :])
            rows.append((primitive(row) if any(row) else (0,) * levels, label))
    axis_rows = tuple(
        tuple(int(m == l) for m in range(levels)) for l in range(levels)
    )
    cone = ConeSpec(
        ambient_dim=levels,
        equalities=(),
        inequalities=tuple(r for r, _ in rows) + axis_rows,
        objective=(0,) * levels,
    )
    enum = extreme_rays(cone)
    if enum.lineality:
        raise InvariantViolation("the slope cone has lineality despite its axis rows")
    return LevelData(
        subsets=tuple(subsets),
        lines=tuple(lines),
        constraint_rows=tuple(rows),
        rays=enum.rays,
    )


def _starved_level(data: LevelData) -> int | None:
    """The first level, 0-based, that no ray of the slope cone grows."""
    for l in range(len(data.lines)):
        if not any(ray[l] > 0 for ray in data.rays):
            return l
    return None


def selection_is_feasible(rs: RootSystem, selection: Sequence[int]) -> bool:
    """Whether some admissible trace grows strictly at every level."""
    selection = _validate_selection(rs, selection)
    return _starved_level(_level_data(rs, selection)) is None


def _derive_seed(spec: str, selection: tuple[int, ...], seed: int) -> int:
    text = f"{spec}|{','.join(map(str, selection))}|{seed}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _scaled_tail(
    trace: SimTrace, level: int
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The tail from `level` up at n = 1, as an integer vector and its factor.

    Returns (den, ints, tail): den and ints as `clear_denominators` gives
    them for the slopes, and tail, the sum of ints times the level data's
    line over the levels from `level` up: den times the rational tail.
    """
    den, ints = clear_denominators(trace.slopes)
    lines = _level_data(trace.rs, trace.selection).lines
    tail = [0] * trace.rs.rank
    for line, s in zip(lines[level - 1 :], ints[level - 1 :]):
        for i, x in enumerate(line):
            tail[i] += s * x
    return den, ints, tuple(tail)


def make_trace(
    rs: RootSystem,
    selection: Sequence[int],
    slopes: Sequence,
    horizon: int,
) -> SimTrace:
    """Assemble a trace from explicit per-level slopes.

    No admissibility is enforced here; n0 is as `_admissibility` gives it.
    """
    selection = _validate_selection(rs, selection)
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    slopes = tuple(Fraction(s) for s in slopes)
    if len(slopes) != len(selection):
        raise ValueError("one slope per level required")
    _, ints = clear_denominators(slopes)
    return SimTrace(
        rs=rs,
        selection=selection,
        horizon=horizon,
        n0=_admissibility(_level_data(rs, selection), ints, horizon)[0],
        slopes=slopes,
    )


def _admissibility(
    data: LevelData, slopes: tuple[int, ...], horizon: int
) -> tuple[int | None, list[str]]:
    """n0 on integer slopes, and each failing constraint, listed at horizon.

    A constraint's value at n is n times its value on the slopes, so n0
    is 1 when horizon > 0 and no row fails, and None otherwise.
    """
    violations = [
        f"{label} fails at n={horizon}"
        for row, label in data.constraint_rows
        if dot(row, slopes) < 0
    ]
    return (1 if horizon > 0 and not violations else None), violations


def check_admissibility(trace: SimTrace) -> tuple[bool, list[str]]:
    """Re-verify every trace invariant from scratch.

    Checks strict growth of each selected root on its own component, and
    the per-level domination constraints, decided once on the slopes as in
    `make_trace`; the n0 they give must be the recorded one. The lines are
    the level data's, each the basis of its one-dimensional connecting
    torus, so no torus is read here.
    """
    data = _level_data(trace.rs, trace.selection)
    problems = [
        f"level{l}: selected root does not grow"
        for l, (root, line, slope) in enumerate(
            zip(trace.selection, data.lines, trace.slopes), start=1
        )
        if not slope * line[root] > 0
    ]
    _, slopes = clear_denominators(trace.slopes)
    n0, violations = _admissibility(data, slopes, trace.horizon)
    if trace.n0 != n0:
        problems.append(f"recorded n0={trace.n0} but computed {n0}")
    if n0 is None and trace.horizon > 0:
        problems.append("no admissible start index")
        problems.extend(violations)
    return (not problems, problems)


def generate_trace(
    rs: RootSystem, selection: Sequence[int], horizon: int, seed: int
) -> SimTrace:
    """Deterministically sample an admissible trace for a selection.

    The slope vector is a strictly positive integer combination of the
    admissibility cone's extreme rays, so every constraint holds for all
    n >= 1 by construction. Raises InfeasibleSelection when some level
    admits no growing ray at all, and InvariantViolation when
    `check_admissibility` rejects the sampled trace.
    """
    selection = _validate_selection(rs, selection)
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    data = _level_data(rs, selection)
    starved = _starved_level(data)
    if starved is not None:
        raise InfeasibleSelection(
            f"selection {selection} in {rs.spec}: no ray grows at level "
            f"{starved + 1} ({rs.root_label(selection[starved])})"
        )
    rng = random.Random(_derive_seed(rs.spec, selection, seed))
    coefficients = [1 + rng.randrange(7) for _ in data.rays]
    slopes = [
        sum(c * ray[l] for c, ray in zip(coefficients, data.rays))
        for l in range(len(selection))
    ]
    trace = make_trace(rs, selection, slopes, horizon)
    if horizon > 0:
        ok, problems = check_admissibility(trace)
        if not ok:
            raise InvariantViolation(
                f"generator produced an inadmissible trace: {problems}"
            )
    return trace


def assert_divergence(trace: SimTrace) -> dict:
    """Check that every selected root grows without bound on the product.

    Traces are exactly linear: root i's value at index n is n times its
    slope, coordinate i of the tail from level 1, so a positive slope
    decides divergence. The slopes are read from the integer tail of
    `_scaled_tail`. The report carries each root's series over the
    horizon. Also records that the last-selected root sees only its own
    component's contribution.
    """
    den, ints, tail = _scaled_tail(trace, 1)
    labels = [trace.rs.root_label(root) for root in trace.selection]
    slopes = {root: Fraction(tail[root], den) for root in trace.selection}
    series = {
        label: [n * slopes[root] for n in range(1, trace.horizon + 1)]
        for label, root in zip(labels, trace.selection)
    }
    report: dict = {
        "horizon": trace.horizon,
        "n0": trace.n0,
        "roots": {},
        "series": series,
    }
    if trace.horizon == 0:
        report["base_case_exact"] = True
        return report
    if trace.n0 is None:
        raise PreconditionViolated("trace is not admissible at any index")
    for label, root in zip(labels, trace.selection):
        if not slopes[root] > 0:
            raise DivergenceFailure(
                f"{label} fails to diverge: series={series[label]}"
            )
        report["roots"][label] = {
            "slope": slopes[root],
            "final": series[label][-1],
        }
    last = trace.selection[-1]
    last_line = _level_data(trace.rs, trace.selection).lines[-1]
    report["base_case_exact"] = tail[last] == ints[-1] * last_line[last]
    if not report["base_case_exact"]:
        raise DivergenceFailure("last-selected root sees foreign contributions")
    return report


def replay_induction(trace: SimTrace, depth: int) -> dict:
    """Re-run one induction step of the divergence argument at a depth.

    With r + 1 levels, depth d verifies the root selected at level r - d.
    Depending on whether that root stays connected to the later-selected
    ones inside its ambient subset, the step is either an exact equality
    of evaluations or an application of the domination inequality; both
    are checked on tau, the tail from level j up at n = 1. The value at
    index n is n times tau, and n >= 1, so each check decides the same at
    every index. The checks run on the integer tail of `_scaled_tail`, a
    positive multiple of tau, against the memoised integer data of the
    system: every membership is `contains` on the canonical basis of its
    torus, and the ambient subset's `integer_weighted` rows are den times
    the weighted rows. Positive factors keep every sign and every
    equality, so the conclusion alpha(tau) >= w_alpha(tau) is checked as
    den * tau[alpha] >= rows[alpha] . tau. The decomposition holds when
    tau lies in a^I_F and every later root passes `_splits`.

    Both branch questions go to the ambient system. Connected means that
    alpha's Dynkin component inside the ambient subset I meets a later
    root. Otherwise the later roots, all of I outside F, miss it: that is
    the discon lemma's hypothesis on the subsystem of I. Its conclusion,
    a^{I-alpha}_F in the kernel of alpha, reads the same on the ambient
    torus, since the subsystem's tori are the ambient ones on I.
    """
    levels = trace.levels
    r = levels - 1
    if depth < 0 or depth > r - 1:
        return {"depth": depth, "vacuous": True, "checks": {}}
    rs = trace.rs
    data = _level_data(rs, trace.selection)
    j = r - depth  # level whose root is being verified
    alpha = trace.selection[j - 1]
    ambient = data.subsets[j - 1]
    later = list(trace.selection[j:])
    final_subset = data.subsets[-1]
    component = next(c for c in _graph_components(rs.cartan, ambient) if alpha in c)
    connected = any(t in component for t in later)
    checks: dict = {}
    # Levels below j never move alpha: their lines kill it exactly.
    checks["kernel_bookkeeping"] = all(
        data.lines[m][alpha] == 0 for m in range(j - 1)
    )
    _, ints, tau = _scaled_tail(trace, j)
    own_slope, own_line = ints[j - 1], data.lines[j - 1]
    report = {
        "depth": depth,
        "level": j,
        "alpha": rs.root_label(alpha),
        "branch": "connected" if connected else "disconnected",
        "vacuous": False,
        "checks": checks,
    }
    if not connected:
        checks["evaluation_equality"] = tau[alpha] == own_slope * own_line[alpha]
        checks["kernel_subspace"] = all(
            v[alpha] == 0
            for v in _relative_torus(rs, data.subsets[j], final_subset).basis
        )
        tail = tuple(t - own_slope * x for t, x in zip(tau, own_line))
        checks["tail_membership"] = contains(
            _relative_torus(rs, data.subsets[j], final_subset), tail
        )
        if not all(checks.values()):
            raise DivergenceFailure(f"disconnected branch fails: {checks}")
        return report
    den, weighted = relative_weight_table(rs, ambient).integer_weighted
    if any(tau[i] != 0 for i in final_subset):
        raise BranchMismatch("tail does not vanish on the final subset")
    walpha = dot(weighted[alpha], tau)
    checks["hypotheses"] = walpha >= 0 and all(
        walpha >= dot(weighted[gamma], tau) for gamma in later
    )
    if not checks["hypotheses"]:
        raise BranchMismatch(
            "domination hypotheses fail on an admissible trace"
        )
    checks["conclusion"] = den * tau[alpha] >= walpha
    membership = contains(_relative_torus(rs, ambient, final_subset), tau)
    checks["theta_membership"] = membership
    checks["decomposition_bookkeeping"] = membership and all(
        _splits(rs, ambient, k, final_subset) for k in later
    )
    if not all(checks.values()):
        raise DivergenceFailure(f"connected branch fails: {checks}")
    return report


def trace_to_dict(trace: SimTrace) -> dict:
    data = _level_data(trace.rs, trace.selection)
    return {
        "schema": 1,
        "system": trace.rs.spec,
        "selection": [i + 1 for i in trace.selection],
        "horizon": trace.horizon,
        "n0": trace.n0,
        "levels": [
            {
                "level": l,
                "root": root + 1,
                "subset_after": [i + 1 for i in data.subsets[l]],
                "line": list(data.lines[l - 1]),
                "slope": str(slope),
            }
            for l, (root, slope) in enumerate(
                zip(trace.selection, trace.slopes), start=1
            )
        ],
    }


def trace_from_dict(data: dict) -> SimTrace:
    """Rebuild a trace from its JSON form; n0 is recomputed."""
    rs = build(data["system"])
    selection = tuple(i - 1 for i in data["selection"])
    slopes = [Fraction(level["slope"]) for level in data["levels"]]
    trace = make_trace(rs, selection, slopes, int(data["horizon"]))
    lines = _level_data(rs, trace.selection).lines
    for stored, line in zip(data["levels"], lines):
        if tuple(stored["line"]) != line:
            raise ValueError("stored line disagrees with the reconstruction")
    if data.get("n0") != trace.n0:
        raise ValueError("stored n0 disagrees with the reconstruction")
    return trace
