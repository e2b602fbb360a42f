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
    PreconditionViolated,
)
from .linalg import Vector, contains, dot, primitive, solve, vec, vec_scale
from .parabolic import relative_torus, relative_weight_table, verify_discon
from .roots import RootSystem, build, connected_to, subsystem


@dataclass(frozen=True)
class CoupleStep:
    """One level of a trace: a selected root and its moving component."""

    level: int
    root: int
    subset_after: tuple[int, ...]
    line: tuple[int, ...]
    slope: Fraction
    components: tuple[Vector, ...]


@dataclass(frozen=True)
class SimTrace:
    """A full multi-level trace over a finite horizon.

    n0 is the first index from which every admissibility constraint
    holds; None marks a trace that never becomes admissible.
    """

    rs: RootSystem
    selection: tuple[int, ...]
    horizon: int
    n0: int | None
    steps: tuple[CoupleStep, ...]

    @property
    def levels(self) -> int:
        return len(self.selection)

    def theta(self, level: int, n: int) -> Vector:
        """Accumulated tail sum of components from `level` up, at index n."""
        acc = [Fraction(0)] * self.rs.rank
        for step in self.steps[level - 1 :]:
            comp = step.components[n - 1]
            for j, x in enumerate(comp):
                acc[j] += x
        return tuple(acc)

    def theta_slope(self, level: int) -> Vector:
        acc = [Fraction(0)] * self.rs.rank
        for step in self.steps[level - 1 :]:
            for j, x in enumerate(step.line):
                acc[j] += step.slope * x
        return tuple(acc)


@dataclass(frozen=True)
class LevelData:
    """Per-selection constants: subsets, lines, constraints, cone rays."""

    subsets: tuple[tuple[int, ...], ...]
    lines: tuple[tuple[int, ...], ...]
    weighted_rel: tuple[dict, ...]
    constraint_rows: tuple[tuple[Vector, str], ...]
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
        line_space = relative_torus(rs, subsets[l - 1], subsets[l])
        assert line_space.dim == 1
        v = line_space.basis[0]
        if v[selection[l - 1]] < 0:
            v = vec_scale(-1, v)
        assert v[selection[l - 1]] > 0  # never zero on the connecting line
        lines.append(primitive(v))
    weighted_rel = tuple(
        relative_weight_table(rs, subsets[l - 1]).weighted
        for l in range(1, levels + 1)
    )
    rows: list[tuple[Vector, str]] = []
    for l in range(1, levels + 1):
        sel = selection[l - 1]
        functionals = [(weighted_rel[l - 1][sel], f"level{l}:positivity")]
        for k in range(l + 1, levels + 1):
            other = selection[k - 1]
            diff = tuple(
                a - b
                for a, b in zip(weighted_rel[l - 1][sel], weighted_rel[l - 1][other])
            )
            functionals.append((diff, f"level{l}:ordering:alpha_{other + 1}"))
        for f, label in functionals:
            row = tuple(
                dot(f, vec(lines[m - 1])) if m >= l else Fraction(0)
                for m in range(1, levels + 1)
            )
            rows.append((row, label))
    axis_rows = [
        (tuple(Fraction(int(m == l)) for m in range(levels)), f"level{l + 1}:axis")
        for l in range(levels)
    ]
    cone = ConeSpec(
        ambient_dim=levels,
        equalities=(),
        inequalities=tuple(r for r, _ in rows) + tuple(r for r, _ in axis_rows),
        objective=(Fraction(0),) * levels,
    )
    enum = extreme_rays(cone)
    assert not enum.lineality  # the axis rows keep the cone pointed
    return LevelData(
        subsets=tuple(subsets),
        lines=tuple(lines),
        weighted_rel=weighted_rel,
        constraint_rows=tuple(rows),
        rays=enum.rays,
    )


def selection_is_feasible(rs: RootSystem, selection: Sequence[int]) -> bool:
    """Whether some admissible trace grows strictly at every level."""
    selection = _validate_selection(rs, selection)
    data = _level_data(rs, selection)
    return all(
        any(ray[l] > 0 for ray in data.rays) for l in range(len(selection))
    )


def _derive_seed(spec: str, selection: tuple[int, ...], seed: int) -> int:
    text = f"{spec}|{','.join(map(str, selection))}|{seed}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def make_trace(
    rs: RootSystem,
    selection: Sequence[int],
    slopes: Sequence,
    horizon: int,
) -> SimTrace:
    """Assemble a trace from explicit per-level slopes.

    No admissibility is enforced here; n0 records the first admissible
    index, or None when the slopes violate some constraint for good.
    """
    selection = _validate_selection(rs, selection)
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    slopes = [Fraction(s) for s in slopes]
    if len(slopes) != len(selection):
        raise ValueError("one slope per level required")
    data = _level_data(rs, selection)
    steps = []
    for l, (root, line, slope) in enumerate(
        zip(selection, data.lines, slopes), start=1
    ):
        components = tuple(
            vec_scale(slope * n, vec(line)) for n in range(1, horizon + 1)
        )
        steps.append(
            CoupleStep(
                level=l,
                root=root,
                subset_after=data.subsets[l],
                line=line,
                slope=slope,
                components=components,
            )
        )
    trace = SimTrace(
        rs=rs,
        selection=selection,
        horizon=horizon,
        n0=None,
        steps=tuple(steps),
    )
    return SimTrace(
        rs=rs,
        selection=selection,
        horizon=horizon,
        n0=_first_admissible_index(trace, data),
        steps=tuple(steps),
    )


def _constraint_violations(trace: SimTrace, data: LevelData, n: int) -> list[str]:
    problems = []
    for row, label in data.constraint_rows:
        value = sum(
            (r * step.slope * n for r, step in zip(row, trace.steps)),
            Fraction(0),
        )
        if value < 0:
            problems.append(f"{label} fails at n={n}")
    return problems


def _first_admissible_index(trace: SimTrace, data: LevelData) -> int | None:
    if trace.horizon == 0:
        return None
    good = [not _constraint_violations(trace, data, n)
            for n in range(1, trace.horizon + 1)]
    n0 = None
    for n in range(trace.horizon, 0, -1):
        if good[n - 1]:
            n0 = n
        else:
            break
    return n0


def check_admissibility(trace: SimTrace) -> tuple[bool, list[str]]:
    """Re-verify every trace invariant from scratch.

    Checks component membership in the connecting lines, strict growth
    of each selected root on its own component, and the per-level
    domination constraints from n0 on.
    """
    data = _level_data(trace.rs, trace.selection)
    problems: list[str] = []
    for step, line in zip(trace.steps, data.lines):
        if step.line != line:
            problems.append(f"level{step.level}: line mismatch")
            continue
        space = relative_torus(
            trace.rs, data.subsets[step.level - 1], data.subsets[step.level]
        )
        for n, comp in enumerate(step.components, start=1):
            if comp != vec_scale(step.slope * n, vec(line)):
                problems.append(f"level{step.level}: component off its line at n={n}")
                break
            if not contains(space, comp):
                problems.append(f"level{step.level}: component outside torus at n={n}")
                break
        if not step.slope * line[step.root] > 0:
            problems.append(f"level{step.level}: selected root does not grow")
    if trace.horizon > 0:
        n0 = _first_admissible_index(trace, data)
        if n0 is None:
            problems.append("no admissible start index")
            problems.extend(_constraint_violations(trace, data, trace.horizon))
        elif trace.n0 != n0:
            problems.append(f"recorded n0={trace.n0} but computed {n0}")
    return (not problems, problems)


def generate_trace(
    rs: RootSystem, selection: Sequence[int], horizon: int, seed: int
) -> SimTrace:
    """Deterministically sample an admissible trace for a selection.

    The slope vector is a strictly positive integer combination of the
    admissibility cone's extreme rays, so every constraint holds for all
    n >= 1 by construction. Raises InfeasibleSelection when some level
    admits no growing ray at all.
    """
    selection = _validate_selection(rs, selection)
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    data = _level_data(rs, selection)
    for l in range(len(selection)):
        if not any(ray[l] > 0 for ray in data.rays):
            raise InfeasibleSelection(
                f"selection {selection} in {rs.spec}: no ray grows at level "
                f"{l + 1} ({rs.root_label(selection[l])})"
            )
    rng = random.Random(_derive_seed(rs.spec, selection, seed))
    coefficients = [1 + rng.randrange(7) for _ in data.rays]
    slopes = [
        Fraction(sum(c * ray[l] for c, ray in zip(coefficients, data.rays)))
        for l in range(len(selection))
    ]
    trace = make_trace(rs, selection, slopes, horizon)
    if horizon > 0:
        ok, problems = check_admissibility(trace)
        assert ok, f"generator produced an inadmissible trace: {problems}"
    return trace


def assert_divergence(trace: SimTrace) -> dict:
    """Check that every selected root grows without bound on the product.

    Traces are exactly linear, so strict monotone growth plus a positive
    minimal step decides divergence. Also records that the last-selected
    root sees only its own component's contribution.
    """
    report: dict = {"horizon": trace.horizon, "n0": trace.n0, "roots": {}}
    if trace.horizon == 0:
        report["base_case_exact"] = True
        return report
    if trace.n0 is None:
        raise PreconditionViolated("trace is not admissible at any index")
    n0 = trace.n0
    for j, root in enumerate(trace.selection, start=1):
        series = [trace.theta(1, n)[root] for n in range(1, trace.horizon + 1)]
        diffs = [b - a for a, b in zip(series[n0 - 1 :], series[n0:])]
        slope = min(diffs) if diffs else series[n0 - 1]
        grows = all(d > 0 for d in diffs) and slope > 0
        final = series[-1]
        peak = max(series)
        if not grows or final < peak:
            raise DivergenceFailure(
                f"{trace.rs.root_label(root)} fails to diverge: series={series}"
            )
        report["roots"][trace.rs.root_label(root)] = {
            "slope": slope,
            "final": final,
        }
    last = trace.selection[-1]
    last_step = trace.steps[-1]
    report["base_case_exact"] = all(
        trace.theta(1, n)[last] == last_step.components[n - 1][last]
        for n in range(1, trace.horizon + 1)
    )
    if not report["base_case_exact"]:
        raise DivergenceFailure("last-selected root sees foreign contributions")
    return report


def replay_induction(trace: SimTrace, depth: int) -> dict:
    """Re-run one induction step of the divergence argument at a depth.

    With r + 1 levels, depth d verifies the root selected at level r - d.
    Depending on whether that root stays connected to the later-selected
    ones inside its ambient subset, the step is either an exact equality
    of evaluations or an application of the domination inequality; both
    are checked at every index.
    """
    levels = trace.levels
    r = levels - 1
    if depth < 0 or depth > r - 1:
        return {"depth": depth, "vacuous": True, "checks": {}}
    data = _level_data(trace.rs, trace.selection)
    j = r - depth  # level whose root is being verified
    alpha = trace.selection[j - 1]
    ambient = data.subsets[j - 1]
    later = list(trace.selection[j:])
    final_subset = data.subsets[-1]
    sub_rs, mapping = subsystem(trace.rs, ambient)
    to_local = {amb: loc for loc, amb in enumerate(mapping)}
    connected = connected_to(
        sub_rs, to_local[alpha], [to_local[t] for t in later]
    )
    checks: dict = {}
    # Levels below j never move alpha: their lines kill it exactly.
    checks["kernel_bookkeeping"] = all(
        data.lines[m][alpha] == 0 for m in range(j - 1)
    )
    tau = trace.theta_slope(j)
    own = trace.steps[j - 1]
    n_range = range(1, trace.horizon + 1)
    report = {
        "depth": depth,
        "level": j,
        "alpha": trace.rs.root_label(alpha),
        "branch": "connected" if connected else "disconnected",
        "vacuous": False,
        "checks": checks,
    }
    if not connected:
        checks["evaluation_equality"] = all(
            trace.theta(j, n)[alpha] == own.components[n - 1][alpha]
            for n in n_range
        )
        checks["kernel_subspace"] = verify_discon(
            sub_rs,
            to_local[alpha],
            [to_local[t] for t in final_subset],
            [to_local[t] for t in data.subsets[j]],
        )
        tail = tuple(
            t - s for t, s in zip(tau, vec_scale(own.slope, vec(own.line)))
        )
        checks["tail_membership"] = contains(
            relative_torus(trace.rs, data.subsets[j], final_subset), tail
        )
        if not all(checks.values()):
            raise DivergenceFailure(f"disconnected branch fails: {checks}")
        return report
    weighted = data.weighted_rel[j - 1]
    if any(tau[i] != 0 for i in final_subset):
        raise BranchMismatch("tail does not vanish on the final subset")
    walpha = dot(weighted[alpha], tau)
    hypotheses_ok = walpha >= 0
    for gamma in later:
        if walpha < dot(weighted[gamma], tau):
            hypotheses_ok = False
    if not hypotheses_ok:
        raise BranchMismatch(
            "domination hypotheses fail on an admissible trace"
        )
    # n0 >= 1 and everything is linear, so signs persist along n; still
    # compare the actual per-index values.
    checks["hypotheses"] = all(
        dot(weighted[alpha], trace.theta(j, n)) >= 0
        and all(
            dot(weighted[alpha], trace.theta(j, n))
            >= dot(weighted[gamma], trace.theta(j, n))
            for gamma in later
        )
        for n in n_range
    )
    checks["conclusion"] = all(
        trace.theta(j, n)[alpha] >= dot(weighted[alpha], trace.theta(j, n))
        for n in n_range
    )
    decomposition_ok = True
    membership = contains(
        relative_torus(trace.rs, ambient, final_subset), tau
    )
    for k in later:
        reduced = tuple(t for t in ambient if t != k)
        part_low = relative_torus(trace.rs, reduced, final_subset)
        part_high = relative_torus(trace.rs, ambient, reduced)
        columns = [list(b) for b in part_low.basis] + [
            list(b) for b in part_high.basis
        ]
        coeffs = solve(columns, tau)
        if coeffs is None:
            decomposition_ok = False
            continue
        c_part = [Fraction(0)] * trace.rs.rank
        for x, basis_vec in zip(coeffs[part_low.dim :], part_high.basis):
            for idx, val in enumerate(basis_vec):
                c_part[idx] += x * val
        lhs = dot(weighted[k], tau)
        rhs = dot(weighted[k], tuple(c_part))
        if lhs != rhs:
            decomposition_ok = False
    checks["theta_membership"] = membership
    checks["decomposition_bookkeeping"] = decomposition_ok
    if not all(checks.values()):
        raise DivergenceFailure(f"connected branch fails: {checks}")
    return report


def trace_to_dict(trace: SimTrace) -> dict:
    return {
        "schema": 1,
        "system": trace.rs.spec,
        "selection": [i + 1 for i in trace.selection],
        "horizon": trace.horizon,
        "n0": trace.n0,
        "levels": [
            {
                "level": step.level,
                "root": step.root + 1,
                "subset_after": [i + 1 for i in step.subset_after],
                "line": list(step.line),
                "slope": str(step.slope),
            }
            for step in trace.steps
        ],
    }


def trace_from_dict(data: dict) -> SimTrace:
    """Rebuild a trace from its JSON form; components are recomputed."""
    rs = build(data["system"])
    selection = tuple(i - 1 for i in data["selection"])
    slopes = [Fraction(level["slope"]) for level in data["levels"]]
    trace = make_trace(rs, selection, slopes, int(data["horizon"]))
    for stored, step in zip(data["levels"], trace.steps):
        if tuple(stored["line"]) != step.line:
            raise ValueError("stored line disagrees with the reconstruction")
    if data.get("n0") != trace.n0:
        raise ValueError("stored n0 disagrees with the reconstruction")
    return trace
