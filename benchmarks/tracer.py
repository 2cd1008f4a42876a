"""Outside-in tracing of the semiref modules.

``Tracer.install`` replaces each public function listed in ``TIMED`` with a
wrapper, in every loaded ``semiref`` module namespace that binds it, so both
``from .x import f`` bindings and module-global lookups go through the
wrapper.  Each wrapped call appends a span (name, start, end, parent id,
invocation id) to an in-memory list; ``uninstall`` puts every original back.
Work counts are taken at the same boundaries, from arguments and results:
the array lengths fed to ``gauss_refined``'s integrand, the ``n_points`` of
the grid ``default_grid`` returns, and the ``nfev`` of the ``solve_ivp``
result bound in ``landau_zener``.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# Functions that get a span, by defining module.
TIMED = {
    "cli": ("main",),
    "wkb_reflection": (
        "reflection_contour_ll",
        "reflection_momentum_space",
        "reflection_closed_form",
        "gauss_refined",
    ),
    "potentials": ("imaginary_turning_point", "v_on_imaginary_axis", "im_v_inverse", "v"),
    "specfun": ("elliptic_k", "elliptic_e"),
    "scattering_oracle": ("numerov_reflection", "default_grid"),
    "landau_zener": ("evolve_tdse", "adiabatic_reflection"),
}
NUMEROV = "scattering_oracle.numerov_reflection"
FAMILIES = ("sech2", "lorentzian")
_MARK = "__bench_wrapped__"


def _semiref_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "semiref" or name.startswith("semiref."))
    ]


def wrapped_bindings() -> list[str]:
    """Names in loaded semiref modules still bound to a tracer wrapper."""
    return [
        f"{m.__name__}.{attr}"
        for m in _semiref_modules()
        for attr, val in vars(m).items()
        if getattr(val, _MARK, False)
    ]


class Tracer:
    """Spans and counts of the calls made while installed; use one per pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, invocation]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.invocation = 0
        self.rhs_bound = False
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for module, names in TIMED.items():
            mod = sys.modules[f"semiref.{module}"]
            for fname in names:
                if hasattr(mod, fname):
                    fn = getattr(mod, fname)
                    originals[id(fn)] = self._wrap(f"{module}.{fname}", fn)
        lz = sys.modules["semiref.landau_zener"]
        self.rhs_bound = hasattr(lz, "solve_ivp")
        if self.rhs_bound:
            originals[id(lz.solve_ivp)] = self._count_nfev(lz.solve_ivp)
        for m in _semiref_modules():
            for attr, val in list(vars(m).items()):
                wrapper = originals.get(id(val))
                if wrapper is not None:
                    self._saved.append((m, attr, val))
                    setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, val in reversed(self._saved):
            setattr(m, attr, val)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        per_family = name == NUMEROV  # sech2 and Lorentzian grids differ 100-fold

        def points_of(args):
            counts[name + ".points"] += np.size(args[1])

        def integrand_points(args):
            f = args[0]

            def counted(x):
                counts[name + ".integrand_points"] += np.size(x)
                return f(x)

            return (counted,) + tuple(args[1:])

        before = {
            "potentials.v": points_of,
            "potentials.im_v_inverse": points_of,
            "wkb_reflection.gauss_refined": integrand_points,
        }.get(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args) or args
            rec = [f"{name}.{args[0].kind.value}" if per_family else name, 0.0, 0.0,
                   stack[-1] if stack else -1, self.invocation]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if name == "wkb_reflection.gauss_refined":
                counts[name + ".converged"] += 1
            elif name == "scattering_oracle.default_grid":
                self._add_grid_points(result.n_points)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _add_grid_points(self, n: int) -> None:
        for idx in reversed(self._stack):
            if self.spans[idx][0].startswith(NUMEROV):
                self.counts[self.spans[idx][0] + ".grid_points"] += n
                return

    def _count_nfev(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["landau_zener.evolve_tdse.rhs_evals"] += result.nfev
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- results ----------------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """(calls, self seconds) per span name; self = duration - child coverage."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: defaultdict[str, int] = defaultdict(int)
        self_s: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _, _), cov in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - cov
        return calls, self_s

    def layer_stats(self) -> dict[str, float | None]:
        """Per-layer counts and self times of the spans recorded so far.

        ``None`` marks a count whose source is gone (``rhs_evals`` once
        ``landau_zener`` no longer binds ``solve_ivp``).
        """
        calls, self_s = self.self_times()
        counts = self.counts
        out: dict[str, float | None] = {}
        for module, names in TIMED.items():
            for fname in names:
                key = f"{module}.{fname}"
                for k in ([f"{key}.{f}" for f in FAMILIES] if key == NUMEROV else [key]):
                    out[f"{k}.calls"] = calls[k]
                    out[f"{k}.self_s"] = self_s[k]
        for fam in FAMILIES:
            k = f"{NUMEROV}.{fam}"
            points = counts[f"{k}.grid_points"]
            out[f"{k}.grid_points"] = points
            out[f"{k}.ns_per_point"] = 1e9 * self_s[k] / points if points else 0.0
        for k in ("potentials.v.points", "potentials.im_v_inverse.points",
                  "wkb_reflection.gauss_refined.integrand_points"):
            out[k] = counts[k]
        gauss_calls = calls["wkb_reflection.gauss_refined"]
        out["wkb_reflection.gauss_refined.converged_share"] = (
            counts["wkb_reflection.gauss_refined.converged"] / gauss_calls
            if gauss_calls else 1.0
        )
        out["landau_zener.evolve_tdse.rhs_evals"] = (
            counts["landau_zener.evolve_tdse.rhs_evals"] if self.rhs_bound else None
        )
        out["trace.self_sum_s"] = sum(self_s.values())
        return out


def write_spans(path, passes: list[list[list]]) -> None:
    """Write the spans of every traced pass as tab-separated lines:
    pass, span id, parent id, invocation id, name, start, end (seconds
    from the pass's first span)."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("pass\tid\tparent\tinvocation\tname\tstart_s\tend_s\n")
        for p, spans in enumerate(passes):
            t0 = spans[0][1] if spans else 0.0
            for i, (name, start, end, parent, inv) in enumerate(spans):
                out.write(f"{p}\t{i}\t{parent}\t{inv}\t{name}\t"
                          f"{start - t0:.9f}\t{end - t0:.9f}\n")
