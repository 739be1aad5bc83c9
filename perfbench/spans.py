"""In-memory span tracer for the per-layer benchmark metrics.

Spans are recorded from outside the program: `install` replaces public
functions of hsbubble at the module names where callers look them up (for
example `geometry._nonlocal_term`, or `integrate_radial` as imported into
`linearized`, `moments` and `energy`) with wrappers that record a span
(name, start, end, parent) per call.  Spans stay in memory; `layer_metrics`
reduces them when the run ends.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

# (module, attribute, layer name).  A function imported into several modules
# is wrapped at every lookup site, under the name of the module defining it.
WRAP_SITES = (
    ("bubble", "default_grid", "bubble.default_grid"),
    ("geometry", "lg_total", "geometry.lg_total"),
    ("geometry", "_nonlocal_term", "linearized.nonlocal_term"),
    ("linearized", "nonlocal_term", "linearized.nonlocal_term"),
    ("linearized", "hat_c", "linearized.hat_c"),
    ("linearized", "solve_mode", "linearized.solve_mode"),
    ("linearized", "assemble_mode", "linearized.assemble_mode"),
    ("linearized", "kernel_diagnostics", "linearized.kernel_diagnostics"),
    ("linearized", "integrate_radial", "quadrature.integrate_radial"),
    ("moments", "integrate_radial", "quadrature.integrate_radial"),
    ("energy", "integrate_radial", "quadrature.integrate_radial"),
    ("moments", "moment_quadrature", "moments.moment_quadrature"),
    ("moments", "bubble_moment", "moments.bubble_moment"),
    ("geometry", "bubble_moment", "moments.bubble_moment"),
    ("energy", "bubble_moment", "moments.bubble_moment"),
    ("reduction", "bubble_moment", "moments.bubble_moment"),
    ("energy", "j_at_bubble", "energy.j_at_bubble"),
    ("energy", "fit_expansion", "energy.fit_expansion"),
    ("energy", "remainder_norm_scaled", "energy.remainder_norm_scaled"),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root
    end: float = 0.0
    child_time: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans of one thread; `enabled` switches recording."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.enabled = False

    def begin(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, attrs=attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.end - span.start


def _grid_attrs(name: str, args, kwargs) -> dict:
    """Span attributes: grid size N, mode ell and assembly key, if any."""
    attrs = {}
    grid = kwargs.get("grid")
    if grid is None:
        grid = next((a for a in args if hasattr(a, "R_max")), None)
    if grid is not None:
        attrs["N"] = grid.N
    if name in ("linearized.solve_mode", "linearized.assemble_mode"):
        ell = args[1] if len(args) > 1 else kwargs["ell"]
        attrs["ell"] = ell
        if name == "linearized.assemble_mode":
            p = args[0]
            attrs["key"] = (p.n, p.s, ell, grid.N, grid.R_max, grid.gamma)
    return attrs


def _wrap(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        attrs = _grid_attrs(name, args, kwargs)
        span_name = name
        if name == "linearized.solve_mode":
            span_name = f"{name}.ell{attrs['ell']}"
        idx = tracer.begin(span_name, **attrs)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.spans[idx].attrs["failed"] = True
            raise
        finally:
            tracer.end(idx)
        if name == "quadrature.integrate_radial":
            tracer.spans[idx].attrs["evaluations"] = int(out["evaluations"])
        return out

    return traced


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every site in WRAP_SITES once; `modules` maps short names to
    modules."""
    for mod_name, attr, layer in WRAP_SITES:
        mod = modules[mod_name]
        setattr(mod, attr, _wrap(tracer, getattr(mod, attr), layer))


def _slope(points: dict) -> float:
    """Least-squares log-log slope of time against N; 0 for a single N."""
    pts = [(math.log(n), math.log(t)) for n, t in points.items() if t > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer totals over the traced spans (roots are named "op").

    Self time is a span's duration minus the time its child spans cover.
    """
    out: dict = {}
    by_name: dict = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def self_time(name):
        return sum(s.end - s.start - s.child_time
                   for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def n_exponent(name):
        per_n: dict = {}
        for s in by_name.get(name, ()):
            if "N" in s.attrs:
                per_n[s.attrs["N"]] = per_n.get(s.attrs["N"], 0.0) \
                    + s.end - s.start - s.child_time
        return _slope(per_n)

    op_time = sum(s.end - s.start for s in by_name.get("op", ()))
    ell0 = "linearized.solve_mode.ell0"
    out[f"{ell0}.calls"] = calls(ell0)
    out[f"{ell0}.self_s"] = self_time(ell0)
    out[f"{ell0}.n_exponent"] = n_exponent(ell0)
    out[f"{ell0}.share"] = self_time(ell0) / op_time if op_time > 0 else 0.0
    out["linearized.solve_mode.ell2.self_s"] = \
        self_time("linearized.solve_mode.ell2")

    asm = "linearized.assemble_mode"
    out[f"{asm}.calls"] = calls(asm)
    out[f"{asm}.self_s"] = self_time(asm)
    out[f"{asm}.distinct_ratio"] = _distinct_ratio(spans)
    out[f"{asm}.n_exponent"] = n_exponent(asm)
    for name in ("linearized.hat_c", "linearized.nonlocal_term"):
        out[f"{name}.self_s"] = self_time(name)
    kd = "linearized.kernel_diagnostics"
    out[f"{kd}.self_s"] = self_time(kd)
    out[f"{kd}.n_exponent"] = n_exponent(kd)

    # a call that raises returns no evaluation count, so the rate is taken
    # over the calls that returned
    quad = "quadrature.integrate_radial"
    done = [s for s in by_name.get(quad, ()) if not s.attrs.get("failed")]
    evals = sum(s.attrs["evaluations"] for s in done)
    done_self = sum(s.end - s.start - s.child_time for s in done)
    out[f"{quad}.calls"] = calls(quad)
    out[f"{quad}.evaluations"] = evals
    out[f"{quad}.self_s"] = self_time(quad)
    out[f"{quad}.evals_per_s"] = evals / done_self if done_self > 0 else 0.0
    out[f"{quad}.failed"] = calls(quad) - len(done)

    for name in ("moments.moment_quadrature", "moments.bubble_moment",
                 "energy.j_at_bubble"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_time(name)
    for name in ("energy.fit_expansion", "energy.remainder_norm_scaled",
                 "geometry.lg_total", "bubble.default_grid"):
        out[f"{name}.self_s"] = self_time(name)
    return out


def _distinct_ratio(spans: list[Span]) -> float:
    """Distinct assembly keys per operation, summed, over assembly calls."""
    root_of: list[int] = []
    for i, sp in enumerate(spans):
        root_of.append(i if sp.parent < 0 else root_of[sp.parent])
    keys: dict = {}
    n_calls = 0
    for i, sp in enumerate(spans):
        if sp.name == "linearized.assemble_mode":
            n_calls += 1
            keys.setdefault(root_of[i], set()).add(sp.attrs["key"])
    if n_calls == 0:
        return 0.0
    return sum(len(k) for k in keys.values()) / n_calls
