"""In-memory span tracing patched around diraclab's public entry points.

Spans are recorded from the benchmark's own files: each traced function is
replaced, in every module namespace its callers look it up in, by a wrapper
that opens a span (name, start, end, parent, command id, attributes) around
the call. Nothing under ``src/diraclab`` is edited; ``Tracer.uninstall``
restores every original.
"""

from __future__ import annotations

import functools
import json
import time

from scipy.sparse.linalg import LinearOperator

# Span record layout (lists, not objects, to keep the per-call cost small).
NAME, START, END, PARENT, CMD, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self.command = None  # id stamped on every span opened while set

    # -- recording -----------------------------------------------------------

    def open(self, name: str, attrs=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.command, attrs or {}])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was open")

    def wrap(self, fn, name: str, before=None, after=None):
        """fn wrapped in a span; before(args, kwargs) and after(result, args,
        kwargs) return attribute dicts merged into the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name, before(args, kwargs) if before else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after:
                tracer.spans[idx][ATTRS].update(after(out, args, kwargs))
            return out

        return traced

    # -- patching ------------------------------------------------------------

    def patch(self, targets, name: str, before=None, after=None) -> None:
        """Replace attribute `attr` of every (owner, attr) in targets by one
        shared wrapper around the original (all targets hold the same
        function)."""
        owner, attr = targets[0]
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._replace(targets, self.wrap(original, name, before, after))

    def _replace(self, targets, wrapped) -> None:
        for owner, attr in targets:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Patch the layers of diraclab, scipy.fft and lobpcg."""
        import scipy.fft
        from diraclab import cli, grid, modes, potentials, probe

        # the cli.<label> span around each command is opened by worker.run_pass
        self.patch([(cli, "eigs_near"), (probe, "eigs_near")], "probe.eigs_near",
                   after=_report_attrs)
        self._replace([(probe, "lobpcg")], self._traced_lobpcg(probe.lobpcg))
        self.patch([(cli, "build_weyl_quasimode")], "probe.weyl")
        self.patch([(grid, "apply_values"), (probe, "apply_values")], "grid.apply",
                   before=_apply_attrs)
        self.patch([(grid, "sample_potential"), (cli, "sample_potential")],
                   "grid.sample_potential")
        self.patch([(cli, "gauge_transform")], "grid.gauge")
        self.patch([(grid, "interp_trilinear"), (potentials, "interp_trilinear")],
                   "grid.interp")
        self.patch([(cli, "sample_field")], "grid.sample_field")
        for fname in ("spectral_divergence", "spectral_curl"):
            self.patch([(cli, fname)], "grid.spectral")
        for fname in ("fftn", "ifftn"):
            self.patch([(scipy.fft, fname)], "fft", after=_fft_attrs)
        for cls in (potentials.LossYau, potentials.Scaled, potentials.Gauged,
                    potentials.AMN, potentials.Sampled):
            self.patch([(cls, "eval")], "potentials.eval")
        self.patch([(cli, "default_classification"), (modes, "default_classification"),
                    (potentials, "default_classification")], "potentials.classify")
        self.patch([(cli, "t_residual_analytic")], "modes.analytic_residual")
        self.patch([(cli, "mode_l2_norm")], "modes.quadrature")
        self.patch([(cli, "asymptotic_convergence")], "modes.quadrature")

    def _traced_lobpcg(self, lobpcg):
        """lobpcg in a span, with A and M swapped for operators that span
        every callback and count the columns they are given."""
        tracer = self

        @functools.wraps(lobpcg)
        def traced(A, X, *args, M=None, **kwargs):
            attrs = {"maxiter": kwargs.get("maxiter"), "prec_calls": 0}
            A = tracer._traced_operator(A, "probe.op", None)
            if M is not None:
                M = tracer._traced_operator(M, "probe.prec", attrs)
            idx = tracer.open("probe.lobpcg", attrs)
            try:
                return lobpcg(A, X, *args, M=M, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def _traced_operator(self, op, name, counter):
        def mat(block):
            if counter is not None:
                counter["prec_calls"] += 1
            cols = block.shape[1] if block.ndim == 2 else 1
            idx = self.open(name, {"cols": cols})
            try:
                return op @ block
            finally:
                self.close(idx)

        return LinearOperator(op.shape, matvec=mat, matmat=mat, dtype=op.dtype)

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path: str, header: dict) -> None:
        self_times = self_time(self.spans)
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "command": s[CMD], "self": self_times[i],
                    "attrs": s[ATTRS],
                }) + "\n")


def _report_attrs(rep, args, kwargs):
    return {"iterations": rep.iterations, "converged": rep.converged,
            "pairs": len(rep.eigenvalues)}


def _apply_attrs(args, kwargs):
    op, values = args[0], args[1]
    cols = 1
    for d in values.shape[3:-1]:
        cols *= d
    return {"n": op.grid.n, "cols": cols}


def _fft_attrs(out, args, kwargs):
    return {"bytes": args[0].nbytes + out.nbytes}


# ----------------------------------------------------------------------------
# Span arithmetic


def self_time(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    selfs = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            selfs[s[PARENT]] -= s[END] - s[START]
    return selfs


def _outermost(spans, name: str):
    """Spans called `name` with no ancestor of the same name."""
    out = []
    for s in spans:
        if s[NAME] != name:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            out.append(s)
    return out


def inclusive(spans, name: str) -> float:
    """Wall time inside spans called `name`, nested repeats counted once."""
    return sum(s[END] - s[START] for s in _outermost(spans, name))


def count(spans, name: str) -> int:
    return len(_outermost(spans, name))


def attr_sum(spans, name: str, key: str) -> float:
    return sum(s[ATTRS].get(key, 0) for s in _outermost(spans, name))


# ----------------------------------------------------------------------------
# Per-layer metrics of one traced pass

GRID_SIZES = (16, 32, 64, 128)


def layer_metrics(spans, labels, untraced_wall: float) -> dict:
    """Per-layer metric values (name -> (value, unit)) from one traced pass.

    Times named `<layer>.<x>_s` are inclusive: wall time inside the outermost
    spans of that name. cli.self_s is a self time, probe.dense_s and
    probe.post_s are differences of inclusive times; bench/design.json defines
    every metric.
    """
    m = {}
    selfs = self_time(spans)
    for label in labels:
        m[f"cli.{label}_s"] = (inclusive(spans, f"cli.{label}"), "s")
    m["cli.self_s"] = (sum(t for s, t in zip(spans, selfs) if s[NAME].startswith("cli.")), "s")

    solves = _outermost(spans, "probe.eigs_near")
    lobpcgs = _outermost(spans, "probe.lobpcg")
    solve_s = inclusive(spans, "probe.eigs_near")
    lobpcg_s = inclusive(spans, "probe.lobpcg")
    op_s, prec_s = inclusive(spans, "probe.op"), inclusive(spans, "probe.prec")
    op_cols = attr_sum(spans, "probe.op", "cols")
    pairs = sum(s[ATTRS]["pairs"] for s in solves)
    m.update({
        "probe.solves": (len(solves), "count"),
        "probe.iterations": (sum(s[ATTRS]["iterations"] for s in solves), "count"),
        "probe.unconverged": (sum(not s[ATTRS]["converged"] for s in solves), "count"),
        # lobpcg preconditions once per iteration; its maxiter defaults to 20
        "probe.maxiter_hits": (sum(s[ATTRS]["prec_calls"] >= (s[ATTRS]["maxiter"] or 20)
                                   for s in lobpcgs), "count"),
        "probe.solve_s": (solve_s, "s"),
        "probe.lobpcg_s": (lobpcg_s, "s"),
        "probe.op_cols": (op_cols, "count"),
        "probe.op_s": (op_s, "s"),
        "probe.prec_cols": (attr_sum(spans, "probe.prec", "cols"), "count"),
        "probe.prec_s": (prec_s, "s"),
        "probe.dense_s": (lobpcg_s - op_s - prec_s, "s"),
        "probe.post_s": (solve_s - lobpcg_s, "s"),
        "probe.cols_per_pair": (op_cols / pairs if pairs else 0.0, "count"),
        "probe.weyl_s": (inclusive(spans, "probe.weyl"), "s"),
    })

    applies = _outermost(spans, "grid.apply")
    m.update({
        "grid.apply_calls": (len(applies), "count"),
        "grid.apply_cols": (sum(s[ATTRS]["cols"] for s in applies), "count"),
        "grid.apply_s": (sum(s[END] - s[START] for s in applies), "s"),
    })
    for n in GRID_SIZES:
        on_n = [s for s in applies if s[ATTRS]["n"] == n]
        cols = sum(s[ATTRS]["cols"] for s in on_n)
        ms = 1e3 * sum(s[END] - s[START] for s in on_n) / cols if cols else 0.0
        m[f"grid.apply_ms_per_col.n{n}"] = (ms, "ms")
    m.update({
        "grid.sample_potential_calls": (count(spans, "grid.sample_potential"), "count"),
        "grid.sample_potential_s": (inclusive(spans, "grid.sample_potential"), "s"),
        "grid.gauge_s": (inclusive(spans, "grid.gauge"), "s"),
        "grid.interp_s": (inclusive(spans, "grid.interp"), "s"),
        "grid.sample_field_s": (inclusive(spans, "grid.sample_field"), "s"),
        "grid.spectral_s": (inclusive(spans, "grid.spectral"), "s"),
        "fft.calls": (count(spans, "fft"), "count"),
        "fft.s": (inclusive(spans, "fft"), "s"),
        "fft.gb_computed": (attr_sum(spans, "fft", "bytes") / 1e9, "GB"),
        "potentials.eval_calls": (sum(s[NAME] == "potentials.eval" for s in spans), "count"),
        "potentials.eval_s": (inclusive(spans, "potentials.eval"), "s"),
        "potentials.classify_s": (inclusive(spans, "potentials.classify"), "s"),
        "modes.analytic_residual_s": (inclusive(spans, "modes.analytic_residual"), "s"),
        "modes.quadrature_s": (inclusive(spans, "modes.quadrature"), "s"),
    })

    # span self times sum to the traced pass, which is untraced_wall + overhead_s
    m.update({
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (inclusive(spans, "pass") - untraced_wall, "s"),
    })
    return m
