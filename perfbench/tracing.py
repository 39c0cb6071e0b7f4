"""Span tracer for the traced benchmark run, and the per-layer metrics
derived from its spans.

The tracer wraps the public functions of each layer (module of
`hydrostate`) from outside the program: it replaces the function in its
defining module and in every `hydrostate` module that bound it by
`from ... import`, so no call inside the package bypasses a wrapper. A
function missing from the program is reported as absent, and the metrics
and cross-checks that need it are skipped.

Each wrapped call records a span in memory: name, parent span, operation
index, start, end, the exception it raised, and a few numbers read off its
arguments or result (iterations, array shapes, text lengths). Self time is
a span's duration minus that of its child spans.
"""

import contextlib
import functools
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

# Layer -> public functions (Class.method for methods) wrapped by the tracer.
TARGETS = {
    "report_io": (
        "decode_network", "decode_measurement_set", "decode_scenario_spec",
        "decode_patterns", "decode_model", "decode_interval_state",
        "encode_network", "encode_measurement_set", "encode_interval_state",
        "encode_patterns", "encode_model", "encode_scenario_spec", "state_doc", "dumps",
    ),
    "network": ("Network.__init__", "Network.with_demands"),
    "hydraulics": ("solve_steady_state", "newton_matrix", "residual"),
    "estimator": ("estimate_state", "linearized_system", "weighted_step"),
    "errorlimits": ("sensitivity_bound", "bound_from_matrix", "monte_carlo_containment"),
    "scenarios": ("generate",),
    "fuzzy": ("train", "classify"),
    "_kernels": ("loss_coefficients", "box_violations", "expansion_metrics"),
}
KERNELS = TARGETS["_kernels"]

# Per-layer metrics reported on every workload, with their units. The rest
# of the layer table is zero or undefined on some workload and goes to the
# detail line only.
COMMON = {
    "report_io.decode_s": "s",
    "report_io.bytes": "bytes",
    "network.builds": "count",
    "network.incidence_bytes_computed": "bytes",
    "hydraulics.residual_s": "s",
    "estimator.estimate_self_s": "s",
    "estimator.linearized_system_s": "s",
    "estimator.weighted_step_s": "s",
    "estimator.weighted_step_flops_computed": "flop",
    "estimator.iterations": "count",
    "estimator.converged_ratio": "ratio",
    "errorlimits.sensitivity_bound_s": "s",
    "errorlimits.bound_from_matrix_s": "s",
    "kernels.loss_coefficients_s": "s",
    "kernels.loss_coefficients_calls": "count",
    "kernels.bytes_computed": "bytes",
}


def _nbytes(x) -> int:
    """Bytes held by a dense or scipy-sparse array; 0 for anything else."""
    n = getattr(x, "nbytes", None)
    if n is not None:
        return int(n)
    if hasattr(x, "indptr"):
        return x.data.nbytes + x.indices.nbytes + x.indptr.nbytes
    return 0


def _flops_dense_normal_equations(shape) -> float:
    """Flops of one dense normal-equations step on an m x n system: Gram
    product, Cholesky, right-hand side and two triangular solves. Computed
    from the shape, not measured."""
    m, n = shape
    return 2.0 * m * n * n + n**3 / 3.0 + 2.0 * m * n + 2.0 * n * n


def _observers(hs):
    """Span name -> function (args, result) -> number recorded on the span."""

    incidence_matrices = getattr(hs.network, "incidence_matrices", None)

    def incidence(args, _):
        return sum(_nbytes(m) for m in incidence_matrices(args[0]))

    def kernel_bytes(args, result):
        outs = result if isinstance(result, tuple) else (result,)
        return sum(_nbytes(a) for a in args + outs), getattr(args[0], "shape", (1,))[0]

    observers = {
        "hydraulics.solve_steady_state": lambda a, r: r.iterations,
        "estimator.estimate_state": lambda a, r: r.iterations,
        "estimator.weighted_step": lambda a, r: _flops_dense_normal_equations(a[0].shape),
        "scenarios.generate": lambda a, r: len(r[1]["failures"]),
        "fuzzy.train": lambda a, r: len(r.cells),
    }
    for name in TARGETS["report_io"]:
        if name.startswith("decode_"):
            observers[f"report_io.{name}"] = lambda a, r: len(a[0])
        elif name != "state_doc":
            observers[f"report_io.{name}"] = lambda a, r: len(r)
    for name in KERNELS:
        observers[f"_kernels.{name}"] = kernel_bytes
    if incidence_matrices is not None:
        observers["network.Network.__init__"] = incidence
    return observers


class Tracer:
    """Wraps the layer functions while installed; records spans while
    installed and not paused. `log.ops` names the current operation."""

    def __init__(self, hs, log):
        self.hs, self.log = hs, log
        self.names: list[str] = []
        self.spans: list[list] = []  # [name, parent, op, start, end, error, info]
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._recording = False

    def install(self) -> None:
        observers = _observers(self.hs)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "hydrostate" or n.startswith("hydrostate.")) and m is not None]
        for layer, functions in TARGETS.items():
            module = sys.modules.get(f"hydrostate.{layer}")
            for qualname in functions:
                name = f"{layer}.{qualname}"
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.absent.append(name)
                    continue
                self.names.append(name)
                wrapper = self._wrap(len(self.names) - 1, original, observers.get(name))
                if owner_name:
                    self._patch(owner, attr, original, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)
        self._recording = True

    def uninstall(self) -> None:
        self._recording = False
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        recording, self._recording = self._recording, False
        try:
            yield
        finally:
            self._recording = recording

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name_id, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name_id, stack[-1] if stack else -1, tracer.log.ops, 0.0, 0.0, None, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = time.perf_counter()
                span[5] = type(exc).__name__
                span[6] = getattr(exc, "iterations", None)
                raise
            finally:
                stack.pop()
            span[4] = time.perf_counter()
            if observe is not None:
                span[6] = observe(args, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """Write the spans as columns of a compressed .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = list(zip(*self.spans)) if self.spans else [()] * 7
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name=np.array(cols[0], dtype=np.int32), parent=np.array(cols[1], dtype=np.int64),
            op=np.array(cols[2], dtype=np.int64), start=np.array(cols[3], dtype=float),
            end=np.array(cols[4], dtype=float),
            error=np.array([e or "" for e in cols[5]], dtype=str))

    def analyse(self, cycles: int):
        """Per-layer metrics per traced cycle, and cross-check problems.

        Span-derived counts must equal the program's own report fields:
        Newton matrices per solve equal `SolveReport.iterations`,
        linearizations per estimate equal `EstimateReport.iterations` (or the
        iterations of its NonConvergence), and failing calls directly under
        `generate` equal the manifest's failures. A metric whose functions
        are absent is None.
        """
        hydro_errors = {c.__name__ for c in _subclasses(self.hs.HydrostateError)}
        ids = {name: k for k, name in enumerate(self.names)}
        spans = self.spans
        layer = [name.split(".")[0] for name in self.names]
        watched = {ids[n] for n in ("hydraulics.solve_steady_state", "estimator.estimate_state",
                                    "scenarios.generate") if n in ids}
        child_time = [0.0] * len(spans)
        kids: dict[int, Counter] = {}
        for name, parent, _, start, end, error, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if spans[parent][0] in watched:
                    counter = kids.setdefault(parent, Counter())
                    counter[name] += 1
                    counter["raised"] += error in hydro_errors

        total, self_time, top, calls, info, top_info, errors = (Counter() for _ in range(7))
        for k, (name, parent, _, start, end, error, extra) in enumerate(spans):
            duration = end - start
            outermost = parent < 0 or layer[spans[parent][0]] != layer[name]
            total[name] += duration
            self_time[name] += duration - child_time[k]
            top[name] += duration if outermost else 0.0
            calls[name] += 1
            value = extra[0] if isinstance(extra, tuple) else extra
            if value is not None:
                info[name] += value
                top_info[name] += value if outermost else 0
            if error is not None:
                errors[(name, error)] += 1

        def raw(table, *names):
            present = [ids[n] for n in names if n in ids]
            return float(sum(table[k] for k in present)) if present else None

        def per_cycle(table, *names):
            value = raw(table, *names)
            return value / cycles if value is not None else None

        def ratio(num, den):
            return num / den if num is not None and den else None

        m = {}
        decode = [n for n in self.names if n.startswith("report_io.decode_")]
        encode = [n for n in self.names if n.startswith("report_io.") and n not in decode]
        m["report_io.decode_s"] = per_cycle(top, *decode)
        m["report_io.encode_s"] = per_cycle(top, *encode)
        m["report_io.bytes"] = per_cycle(top_info, *decode, *encode)
        m["network.with_demands_s"] = per_cycle(total, "network.Network.with_demands")
        m["network.builds"] = per_cycle(calls, "network.Network.__init__")
        m["network.incidence_bytes_computed"] = per_cycle(info, "network.Network.__init__")

        solve = "hydraulics.solve_steady_state"
        iterations = raw(info, solve)
        tries = None
        if solve in ids and "hydraulics.residual" in ids:
            tries = sum(c[ids["hydraulics.residual"]] - 1
                        for k, c in kids.items() if spans[k][0] == ids[solve])
        m["hydraulics.solve_self_s"] = per_cycle(self_time, solve)
        m["hydraulics.newton_matrix_s"] = per_cycle(total, "hydraulics.newton_matrix")
        m["hydraulics.residual_s"] = per_cycle(total, "hydraulics.residual")
        m["hydraulics.iterations"] = per_cycle(info, solve)
        m["hydraulics.halvings"] = (
            (tries - iterations) / cycles if None not in (tries, iterations) else None)
        m["hydraulics.step_accept_ratio"] = ratio(iterations, tries)

        estimate = "estimator.estimate_state"
        estimates = raw(calls, estimate)
        nonconverged = (float(errors[(ids[estimate], "NonConvergence")])
                        if estimate in ids else None)
        m["estimator.estimate_self_s"] = per_cycle(self_time, estimate)
        m["estimator.linearized_system_s"] = per_cycle(total, "estimator.linearized_system")
        m["estimator.weighted_step_s"] = per_cycle(total, "estimator.weighted_step")
        m["estimator.weighted_step_flops_computed"] = per_cycle(info, "estimator.weighted_step")
        m["estimator.iterations"] = per_cycle(info, estimate)
        m["estimator.nonconverged"] = ratio(nonconverged, cycles)
        m["estimator.converged_ratio"] = ratio(
            estimates - nonconverged if estimates is not None else None, estimates)

        m["errorlimits.sensitivity_bound_s"] = per_cycle(total, "errorlimits.sensitivity_bound")
        m["errorlimits.bound_from_matrix_s"] = per_cycle(total, "errorlimits.bound_from_matrix")
        m["errorlimits.containment_self_s"] = per_cycle(
            self_time, "errorlimits.monte_carlo_containment")

        gen = ids.get("scenarios.generate")
        m["scenarios.generate_self_s"] = per_cycle(self_time, "scenarios.generate")
        m["scenarios.failures"] = (
            sum(c["raised"] for k, c in kids.items() if spans[k][0] == gen) / cycles
            if gen is not None else None)

        m["fuzzy.train_s"] = per_cycle(total, "fuzzy.train")
        m["fuzzy.classify_s"] = per_cycle(total, "fuzzy.classify")
        m["fuzzy.cells"] = per_cycle(info, "fuzzy.train")
        scanned = {ids[n] for n in ("_kernels.box_violations", "_kernels.expansion_metrics")
                   if n in ids}
        m["fuzzy.cells_scanned"] = (
            sum(s[6][1] for s in spans if s[0] in scanned and s[6] is not None) / cycles
            if scanned else None)
        for kernel in KERNELS:
            m[f"kernels.{kernel}_s"] = per_cycle(total, f"_kernels.{kernel}")
            m[f"kernels.{kernel}_calls"] = per_cycle(calls, f"_kernels.{kernel}")
        m["kernels.bytes_computed"] = per_cycle(info, *(f"_kernels.{k}" for k in KERNELS))

        problems = []
        checks = ((solve, "hydraulics.newton_matrix", "Newton matrices", "SolveReport.iterations"),
                  (estimate, "estimator.linearized_system", "linearizations",
                   "EstimateReport.iterations"))
        for parent_name, child_name, what, field in checks:
            if parent_name not in ids or child_name not in ids:
                continue
            parent_id, child_id = ids[parent_name], ids[child_name]
            for k, s in enumerate(spans):
                if s[0] == parent_id and s[6] is not None:
                    seen = kids.get(k, Counter())[child_id]
                    if seen != s[6]:
                        problems.append(f"span {k}: {seen} {what}, {field} = {s[6]}")
        for k, s in enumerate(spans):
            if s[0] == gen and s[5] is None:
                raised = kids.get(k, Counter())["raised"]
                if raised != s[6]:
                    problems.append(f"span {k}: {raised} failing calls under generate, "
                                    f"manifest failures = {s[6]}")
        return m, problems


def _subclasses(cls):
    out = {cls}
    for sub in cls.__subclasses__():
        out |= _subclasses(sub)
    return out
