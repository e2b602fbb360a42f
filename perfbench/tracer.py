"""Spans around the public functions of each rootcones layer.

The tracer wraps functions from outside the package: it replaces every
binding of a listed function in every loaded ``rootcones`` module, because
modules import names directly (``from .linalg import rref``) and patching
only the defining module would miss those callers. Methods are wrapped on
their class. Spans are kept in memory as (name, start, end, parent, group)
and written out by ``dump``; the group of a span is the outermost call
below ``cli.main`` that encloses it, so spans of one task or trace share it.

Self time of a span is its duration minus the time its direct child spans
cover. Helpers that are not wrapped (``dot``, ``vec`` and so on) are thus
charged to the nearest wrapped caller. Times are the process's CPU time,
so the pauses in which the benchmark probes the core are not counted.
"""

from __future__ import annotations

import functools
import json
import sys
from time import process_time

# Layer (module) -> public functions to wrap, in the order metrics are listed.
LAYERS = {
    "linalg": (
        "rref", "kernel", "span", "intersect", "contains", "solve", "invert",
        "determinant", "block_coefficient_matrix", "QMatrix.mul",
    ),
    "parabolic": (
        "relative_torus", "kernel_subspace", "coroot_span",
        "relative_weight_table", "verify_inc", "verify_tori", "verify_discon",
        "verify_trivial",
    ),
    "cones": ("extreme_rays",),
    "certify": (
        "theorem_cone", "expand_coefficients", "verify_theorem61_constructive",
        "verify_theorem61_rays", "validate_certificate", "certificate_to_dict",
    ),
    "roots": (
        "build", "from_gramm", "subsystem", "classify_irreducible",
        "weight_table",
    ),
    "simulate": (
        "generate_trace", "make_trace", "check_admissibility",
        "assert_divergence", "replay_induction", "trace_to_dict",
        "SimTrace.theta",
    ),
    # Sweep frames: their self time is the overhead of running the sweep.
    "suites": ("run_verification", "_run_task"),
    "cli": ("main", "_simulate_task"),
}

# Functions whose distinct argument keys are counted, with the key made
# from the Gramm matrix and the normalised arguments. Parameter names match
# the wrapped functions so keyword calls bind the same way.
DISTINCT = {
    "parabolic.relative_torus": lambda g, rs, upper, lower: (g(rs), _norm(upper), _norm(lower)),
    "parabolic.kernel_subspace": lambda g, rs, subset: (g(rs), _norm(subset)),
    "parabolic.coroot_span": lambda g, rs, subset: (g(rs), _norm(subset)),
    "parabolic.relative_weight_table": lambda g, rs, subset: (g(rs), _norm(subset)),
    "roots.subsystem": lambda g, rs, subset: (g(rs), _norm(subset)),
    "roots.weight_table": lambda g, rs: g(rs),
    # Keyed by system and selection: the seed only picks the slopes.
    "simulate.generate_trace": lambda g, rs, selection, horizon, seed: (g(rs), tuple(selection)),
}

# Totals kept next to the call counts.
COUNTS = (
    "linalg.rref.cells",
    "cones.extreme_rays.rays",
    "cones.extreme_rays.inequalities",
    "simulate.generate_trace.infeasible",
)


def _norm(subset) -> tuple[int, ...]:
    return tuple(sorted(set(subset)))


def _resolve(module, dotted: str):
    owner, _, attr = dotted.rpartition(".")
    holder = getattr(module, owner) if owner else module
    return holder, attr


class Tracer:
    """Wraps the listed functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.keys: dict[str, set] = {name: set() for name in DISTINCT}
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []
        self._child: list[float] = []
        self._gramm: dict[int, tuple] = {}
        self._canon: dict[tuple, int] = {}
        self._restore: list[tuple] = []

    def _gramm_id(self, rs) -> int:
        """Small integer naming a Gramm matrix by value."""
        g = rs.gramm
        hit = self._gramm.get(id(g))
        if hit is None:
            # Keep g alive so its id is not reused by another matrix.
            hit = (g, self._canon.setdefault(g.entries, len(self._canon)))
            self._gramm[id(g)] = hit
        return hit[1]

    def _wrap(self, name: str, fn):
        tracer = self
        spans, stack, child = self.spans, self._stack, self._child
        name_id = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        self.self_s[name] = 0.0
        key = DISTINCT.get(name)
        keys = self.keys.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key is not None:
                keys.add(key(tracer._gramm_id, *args, **kwargs))
            index = len(spans)
            parent = stack[-1] if stack else -1
            group = stack[1] if len(stack) > 1 else (index if stack else -1)
            spans.append(None)
            stack.append(index)
            child.append(0.0)
            start = process_time()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                tracer._on_error(name, err)
                raise
            finally:
                end = process_time()
                stack.pop()
                inner = child.pop()
                if child:
                    child[-1] += end - start
                spans[index] = (name_id, start, end, parent, group)
                tracer.calls[name] += 1
                tracer.self_s[name] += end - start - inner
            tracer._on_result(name, args, kwargs, result)
            return result

        return wrapper

    def _on_result(self, name, args, kwargs, result) -> None:
        if name == "linalg.rref":
            rows = args[0] if args else kwargs["rows"]
            if len(rows):
                self.counts["linalg.rref.cells"] += len(rows) * len(rows[0])
        elif name == "cones.extreme_rays":
            cone = args[0] if args else kwargs["cone"]
            self.counts["cones.extreme_rays.rays"] += len(result.rays)
            self.counts["cones.extreme_rays.inequalities"] += len(cone.inequalities)

    def _on_error(self, name, err) -> None:
        if name == "simulate.generate_trace" and isinstance(err, self._infeasible):
            self.counts["simulate.generate_trace.infeasible"] += 1

    def install(self) -> None:
        """Wrap every listed function in every rootcones namespace."""
        import importlib

        from rootcones.errors import InfeasibleSelection

        self._infeasible = InfeasibleSelection
        modules = {
            layer: importlib.import_module(f"rootcones.{layer}") for layer in LAYERS
        }
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "rootcones" or n.startswith("rootcones."))]
        for layer, functions in LAYERS.items():
            for dotted in functions:
                holder, attr = _resolve(modules[layer], dotted)
                original = holder.__dict__[attr]
                wrapper = self._wrap(f"{layer}.{dotted}", original)
                if isinstance(holder, type):
                    self._rebind(holder, attr, wrapper)
                    continue
                for namespace in namespaces:
                    for bound, value in list(vars(namespace).items()):
                        if value is original:
                            self._rebind(namespace, bound, wrapper)

    def _rebind(self, holder, attr, value) -> None:
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self._restore:
            holder, attr, value = self._restore.pop()
            setattr(holder, attr, value)

    def summary(self) -> dict:
        """Per-function calls and self time, distinct keys and totals."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
            "counts": dict(self.counts),
        }

    def groups(self) -> list[list]:
        """[name, duration_s, spans] per outermost call below cli.main."""
        out: dict[int, list] = {}
        for index, (name_id, start, end, parent, group) in enumerate(self.spans):
            if group < 0:
                continue
            if group == index:
                out[index] = [self.names[name_id], end - start, 0]
            out[group][2] += 1
        return list(out.values())

    def dump(self, path: str) -> None:
        """Write the summary, the per-group totals and every span."""
        fields = list(zip(*self.spans)) if self.spans else [(), (), (), (), ()]
        payload = {
            "summary": self.summary(),
            "groups": self.groups(),
            "names": self.names,
            "spans": {
                key: list(values)
                for key, values in zip(("name", "start", "end", "parent", "group"), fields)
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
