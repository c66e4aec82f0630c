"""Per-layer tracing from outside the library.

The tracer replaces the public functions of each schauderlab module with
timing wrappers at every place the package binds them (the defining module,
each module that imported the name, and the package itself), and restores
the originals afterwards.  Nothing under ``src/`` changes.

Traced functions: the functions exported in ``schauderlab.__all__`` plus the
public functions of ``documents`` and ``cli``, which the package does not
re-export.  ``kernel.unit_sphere_sampler`` is wrapped to count draws, and
``OrliczFunction.values`` to count gauge evaluations (one per bisection step
of a solve).  Neither of those two records a span.

Each traced call records a span (name, start, end, parent span, op id) in
flat arrays.  Self time is a span's duration minus that of its child spans.
A direct recursive call (``to_jsonable``) folds into the outer span.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("orlicz", "kernel", "decomposition", "geometry", "stability", "documents", "cli")

PARSE = {"phi_from_doc", "norm_from_doc", "family_from_doc", "scenario_from_doc", "subspace_pair_from_doc",
         "parse_phi_spec", "parse_norm_spec"}
RENDER = {"phi_to_doc", "norm_to_doc", "family_to_doc", "to_jsonable", "render_json"}

# name -> (unit, better); the order is the report order.
PER_LAYER = {
    "orlicz.rows": ("count", "lower"),
    "orlicz.rows_self_s": ("s", "lower"),
    "orlicz.rows_per_s": ("rows/s", "higher"),
    "orlicz.gauge_evals_per_row_batch": ("count", "lower"),
    "orlicz.solve_calls": ("count", "lower"),
    "orlicz.solve_self_s": ("s", "lower"),
    "orlicz.gauge_evals_per_solve": ("count", "lower"),
    "orlicz.vector_norm_calls": ("count", "lower"),
    "geometry.patterns": ("count", "lower"),
    "geometry.patterns_per_s": ("patterns/s", "higher"),
    "geometry.self_s": ("s", "lower"),
    "stability.distance_calls": ("count", "lower"),
    "stability.distance_self_s": ("s", "lower"),
    "stability.norm_evals_per_distance": ("count", "lower"),
    "stability.kept_share": ("ratio", "higher"),
    "stability.similarity_calls": ("count", "lower"),
    "stability.similarity_self_s": ("s", "lower"),
    "stability.self_s": ("s", "lower"),
    "kernel.operator_norm_calls": ("count", "lower"),
    "kernel.operator_norm_self_s": ("s", "lower"),
    "kernel.invert_calls": ("count", "lower"),
    "kernel.invert_self_s": ("s", "lower"),
    "kernel.sampler_draws": ("count", "lower"),
    "decomposition.validate_self_s": ("s", "lower"),
    "decomposition.transport_calls": ("count", "lower"),
    "decomposition.transport_self_s": ("s", "lower"),
    "decomposition.self_s": ("s", "lower"),
    "documents.parse_self_s": ("s", "lower"),
    "documents.render_self_s": ("s", "lower"),
    "documents.bytes_in": ("bytes", "lower"),
    "documents.bytes_out": ("bytes", "lower"),
    "cli.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "run.cpu_share": ("ratio", "higher"),
}


def traced_functions(sl):
    """(layer, name, function) for every function the tracer wraps with a span."""
    exported = set(sl.__all__)
    for layer in LAYERS:
        mod = sys.modules[f"{sl.__name__}.{layer}"]
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if layer in ("documents", "cli") or name in exported:
                yield layer, name, obj


class Tracer:
    def __init__(self, sl):
        self.sl = sl
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.originals: dict[int, tuple[int, object]] = {}  # id(original) -> (name id, original)
        for layer, name, fn in traced_functions(sl):
            self.originals[id(fn)] = (len(self.names), fn)
            self.names.append(f"{layer}.{name}")
            self.layer_of.append(layer)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.sampler = sl.kernel.unit_sphere_sampler
        self.gauge_class = sl.orlicz.OrliczFunction
        self.gauge_values = self.gauge_class.values
        self.active = False
        self.op_id = -1
        self.keep_spans = True  # the runner keeps the span log of the first cycle only
        self.patched: list[tuple[object, str, object]] = []
        # span log, kept for the whole run
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[list] = []  # [name id, span index, child time]
        self.reset_counts()

    # -- counters -----------------------------------------------------------

    def reset_counts(self) -> None:
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.gauge_evals = [0] * n  # gauge evaluations while this name is innermost
        self.draws = [0] * n  # sampler draws while this name is innermost
        self.pair_calls: dict[tuple[int, int], int] = defaultdict(int)
        self.rows = 0
        self.geometry_rows = 0
        self.geometry_depth = 0
        self.geometry_time = 0.0
        self.kept = 0
        self.bytes_in = 0
        self.bytes_out = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {key: self._wrap(nid, fn) for key, (nid, fn) in self.originals.items()}
        prefix = self.sl.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and val is self.originals[id(val)][1]:
                    self.patched.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
                elif val is self.sampler:
                    self.patched.append((mod, attr, val))
                    setattr(mod, attr, self._wrap_sampler())
        self.patched.append((self.gauge_class, "values", self.gauge_values))
        self.gauge_class.values = self._wrap_values()

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self.patched):
            setattr(owner, attr, val)
        self.patched.clear()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, nid: int, fn):
        tracer = self
        name = self.names[nid]
        is_geometry = self.layer_of[nid] == "geometry"
        on_enter = {
            "orlicz.rowwise_norm": self._count_rows,
            "cli.main": self._count_cli_bytes_in,
        }.get(name)
        on_exit = {
            "stability.reduced_minimum_modulus": self._count_kept,
            "cli.main": self._count_cli_bytes_out,
        }.get(name)
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not tracer.active or (stack and stack[-1][0] == nid):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if parent is not None:
                tracer.pair_calls[(parent[0], nid)] += 1
            if on_enter is not None:
                on_enter(args)
            idx = -1
            if tracer.keep_spans:
                idx = len(tracer.span_name)
                tracer.span_name.append(nid)
                tracer.span_parent.append(parent[1] if parent is not None else -1)
                tracer.span_op.append(tracer.op_id)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            frame = [nid, idx, 0.0]
            outermost_geometry = is_geometry and tracer.geometry_depth == 0
            if is_geometry:
                tracer.geometry_depth += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if idx >= 0:
                    tracer.span_start[idx] = start
                    tracer.span_end[idx] = end
                tracer.calls[nid] += 1
                tracer.self_s[nid] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if is_geometry:
                    tracer.geometry_depth -= 1
                    if outermost_geometry:
                        tracer.geometry_time += dur
            if on_exit is not None:
                on_exit(args, result)
            return result

        return wrapper

    def _wrap_sampler(self):
        tracer = self
        original = self.sampler

        @functools.wraps(original)
        def sampler(*args, **kwargs):
            for x in original(*args, **kwargs):
                if tracer.active and tracer.stack:
                    tracer.draws[tracer.stack[-1][0]] += 1
                yield x

        return sampler

    def _wrap_values(self):
        tracer = self
        original = self.gauge_values

        @functools.wraps(original)
        def values(gauge, t):
            if tracer.active and tracer.stack:
                tracer.gauge_evals[tracer.stack[-1][0]] += 1
            return original(gauge, t)

        return values

    def _count_rows(self, args) -> None:
        rows = int(np.shape(args[0])[0])
        self.rows += rows
        if self.geometry_depth > 0:
            self.geometry_rows += rows

    def _count_kept(self, args, result) -> None:
        if result is not None and result.method == self.sl.kernel.SAMPLED_UPPER_BOUND:
            self.kept += result.trials

    def _count_cli_bytes_in(self, args) -> None:
        argv = args[0] if args else []
        self.bytes_in += sum(Path(a[1:]).stat().st_size for a in argv if a.startswith("@"))

    def _count_cli_bytes_out(self, args, result) -> None:
        argv = list(args[0]) if args else []
        if "--output" in argv:
            self.bytes_out += Path(argv[argv.index("--output") + 1]).stat().st_size

    # -- results ------------------------------------------------------------

    def work_counts(self) -> dict:
        """Everything that must repeat exactly for a given seed."""
        return {
            "calls": list(self.calls),
            "gauge_evals": list(self.gauge_evals),
            "draws": list(self.draws),
            "pairs": sorted(self.pair_calls.items()),
            "rows": self.rows,
            "geometry_rows": self.geometry_rows,
            "kept": self.kept,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
        }

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics for the counts gathered since reset_counts()."""
        i = self.ids
        calls, self_s = self.calls, self.self_s

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def layer_self(layer: str) -> float:
            return sum(s for s, lay in zip(self_s, self.layer_of) if lay == layer)

        def self_of(names) -> float:
            return sum(self_s[i[f"documents.{n}"]] for n in names if f"documents.{n}" in i)

        rows_fn, solve = i["orlicz.rowwise_norm"], i["orlicz.luxemburg_norm"]
        dist, vnorm = i["stability.nearest_in_span"], i["orlicz.vector_norm"]
        redmod, sim = i["stability.reduced_minimum_modulus"], i["stability.build_similarity"]
        opnorm, inv = i["kernel.operator_norm"], i["kernel.invert_with_condition"]
        validate, transport = i["decomposition.validate_family"], i["decomposition.transport_family"]
        return {
            "orlicz.rows": self.rows,
            "orlicz.rows_self_s": self_s[rows_fn],
            "orlicz.rows_per_s": ratio(self.rows, self_s[rows_fn]),
            "orlicz.gauge_evals_per_row_batch": ratio(self.gauge_evals[rows_fn], calls[rows_fn]),
            "orlicz.solve_calls": calls[solve],
            "orlicz.solve_self_s": self_s[solve],
            "orlicz.gauge_evals_per_solve": ratio(self.gauge_evals[solve], calls[solve]),
            "orlicz.vector_norm_calls": calls[vnorm],
            "geometry.patterns": self.geometry_rows,
            "geometry.patterns_per_s": ratio(self.geometry_rows, self.geometry_time),
            "geometry.self_s": layer_self("geometry"),
            "stability.distance_calls": calls[dist],
            "stability.distance_self_s": self_s[dist],
            "stability.norm_evals_per_distance": ratio(self.pair_calls.get((dist, vnorm), 0), calls[dist]),
            "stability.kept_share": ratio(self.kept, self.draws[redmod]),
            "stability.similarity_calls": calls[sim],
            "stability.similarity_self_s": self_s[sim],
            "stability.self_s": layer_self("stability"),
            "kernel.operator_norm_calls": calls[opnorm],
            "kernel.operator_norm_self_s": self_s[opnorm],
            "kernel.invert_calls": calls[inv],
            "kernel.invert_self_s": self_s[inv],
            "kernel.sampler_draws": sum(self.draws),
            "decomposition.validate_self_s": self_s[validate],
            "decomposition.transport_calls": calls[transport],
            "decomposition.transport_self_s": self_s[transport],
            "decomposition.self_s": layer_self("decomposition"),
            "documents.parse_self_s": self_of(PARSE),
            "documents.render_self_s": self_of(RENDER),
            "documents.bytes_in": self.bytes_in,
            "documents.bytes_out": self.bytes_out,
            "cli.calls": calls[i["cli.main"]],
            "cli.self_s": layer_self("cli"),
        }

    def write_spans(self, path: Path) -> int:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )
        return len(self.span_name)
