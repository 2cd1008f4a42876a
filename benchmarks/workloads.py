"""Seeded ``semiref`` command lines and the correctness gate for their rows.

Each workload turns a seed into a list of ``Invocation`` objects: the argv
handed to ``semiref.cli.main`` plus what the gate needs to know about it.
Draws are Latin-hypercube stratified, so every seed covers each parameter
range evenly and the total work of a sweep barely depends on the seed.

The gate checks every emitted row with the tolerances the repository's own
tests and ``validate`` use.  A row fails if the CLI flags it (a warning on
stderr, a null field) or if any check on it fails.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

WORKLOADS = ("reflect-sweep", "oracle-check", "lz-sweep")

# Full-size and self-test sizes of each sweep (numbers of draws).
SIZES = {
    "full": {
        "reflect-sweep": {"per_family": 8, "energies": 25},
        "oracle-check": {"sech2_models": 20, "energies": 25, "lorentzian_draws": 3},
        "lz-sweep": {"linear": 2, "tanh": 4},
    },
    "small": {
        "reflect-sweep": {"per_family": 1, "energies": 4},
        "oracle-check": {"sech2_models": 1, "energies": 3, "lorentzian_draws": 0},
        "lz-sweep": {"linear": 1, "tanh": 1},
    },
}

# Draw ranges.  The energy ceiling keeps |ln P| <= MAX_EXPONENT, so every
# probability is representable in double precision.
REFLECT_RANGES = {
    "alpha": (0.5, 5.0),
    "v0": (1.0, 10.0),
    "a": (0.3, 3.0),
    "hbar": (10.0**-0.5, 10.0**0.5),
    "e_over_scale": (0.05, 500.0),
}
MAX_EXPONENT = 500.0
ORACLE_RANGES = {"v0": (5.0, 20.0), "a": (1.0, 3.0), "energy": (0.5, 2.0)}
# Lorentzian(10, 2) at E = 1, and its Numerov value pinned by the test suite.
ANCHOR = {"v0": 10.0, "a": 2.0, "energy": 1.0}
ANCHOR_LN = -2.9059757949548612
# The corner of the ranges with the largest Numerov grid (1.22M points); it
# sets the workload's peak memory.
CEILING = {"v0": 20.0, "a": 3.0, "energy": 2.0}
# T/hbar (linear) and e_sat*tau/hbar (tanh) set the number of phase
# oscillations the TDSE oracle integrates, hence its cost.
LZ_RANGES = {
    "linear_t_over_hbar": (1.25, 3.0),
    "linear_eps": (0.8, 1.0),
    "tanh_cost": (5.0, 10.0),
    "tanh_eps_over_esat": (0.2, 0.6),
    "esat": (0.5, 2.0),
    "hbar": (0.5, 2.0),
}
TDSE_REL_TOL = 1e-10  # the CLI default for --tdse-rtol


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    model: str  # barrier family or sweep profile
    params: dict
    n_rows: int


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n draws in [0, 1), one in each of n equal strata, in random order."""
    cells = list(range(n))
    rng.shuffle(cells)
    return [(c + rng.random()) / n for c in cells]


def _centres(rng: random.Random, n: int) -> list[float]:
    """The centres of n equal strata of [0, 1), in random order."""
    cells = list(range(n))
    rng.shuffle(cells)
    return [(c + 0.5) / n for c in cells]


def _log_uniform(u: float, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    return lo * (hi / lo) ** u


def _uniform(u: float, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    return lo + (hi - lo) * u


def _num(x: float) -> str:
    return repr(float(x))


def _reflect_argv(family, model_args, hbar, emin, emax, n, methods):
    argv = ["reflect", "--model", family, *model_args, "--hbar", _num(hbar)]
    argv += ["--emin", _num(emin), "--emax", _num(emax), "--n", str(n)]
    if n > 1:
        argv += ["--spacing", "log"]
    return tuple(argv + ["--methods", methods, "--format", "json"])


def reflect_sweep(seed: int, per_family: int, energies: int) -> list[Invocation]:
    """closed,momentum,contour on log energy grids over all three families."""
    rng = random.Random(f"reflect-sweep:{seed}")
    r = REFLECT_RANGES
    lo_ratio, hi_ratio = r["e_over_scale"]
    out = []
    for family in ("inverse_ho", "sech2", "lorentzian"):
        columns = [_stratified(rng, per_family) for _ in range(3)]
        for u1, u2, u3 in zip(*columns):
            hbar = _log_uniform(u3, r["hbar"])
            if family == "inverse_ho":
                alpha = _log_uniform(u1, r["alpha"])
                scale = hbar * math.sqrt(alpha)  # hbar * omega
                ceiling = MAX_EXPONENT * scale / (2.0 * math.pi)
                params = {"alpha": alpha}
            else:
                v0 = _log_uniform(u1, r["v0"])
                a = _log_uniform(u2, r["a"])
                scale = v0
                # |ln P| <= (2 pi a / hbar) sqrt(2E) for both flat-tailed families.
                ceiling = 0.5 * (MAX_EXPONENT * hbar / (2.0 * math.pi * a)) ** 2
                params = {"v0": v0, "a": a}
            emin = lo_ratio * scale
            emax = min(hi_ratio * scale, ceiling)
            model_args = [arg for k, val in params.items() for arg in (f"--{k}", _num(val))]
            argv = _reflect_argv(
                family, model_args, hbar, emin, emax, energies, "closed,momentum,contour"
            )
            out.append(Invocation(argv, family, dict(params, hbar=hbar), 3 * energies))
    return out


def oracle_check(
    seed: int, sech2_models: int, energies: int, lorentzian_draws: int
) -> list[Invocation]:
    """closed,momentum,numerov on sech2 grids and single Lorentzian points."""
    rng = random.Random(f"oracle-check:{seed}")
    r = ORACLE_RANGES
    methods = "closed,momentum,numerov"
    out = []
    for u1, u2 in zip(*(_stratified(rng, sech2_models) for _ in range(2))):
        v0, a = _uniform(u1, r["v0"]), _uniform(u2, r["a"])
        e_lo, e_hi = r["energy"]
        argv = _reflect_argv("sech2", ["--v0", _num(v0), "--a", _num(a)],
                             1.0, e_lo, e_hi, energies, methods)
        out.append(Invocation(argv, "sech2", {"v0": v0, "a": a, "hbar": 1.0}, 3 * energies))
    points = [dict(ANCHOR, anchor=True), dict(CEILING, anchor=False)]
    # The grid has 61440 * a * k points, k = sqrt(2 (E + v0)).  Stratifying
    # a * k over the band every k in range can reach with a in [1, 3] keeps
    # the sweep's Numerov work nearly the same for every seed.
    k_lo = math.sqrt(2.0 * (r["energy"][0] + r["v0"][0]))
    k_hi = math.sqrt(2.0 * (r["energy"][1] + r["v0"][1]))
    ak_band = (r["a"][0] * k_hi, r["a"][1] * k_lo)
    columns = [_stratified(rng, lorentzian_draws) for _ in range(3)]
    for u1, u2, u3 in zip(*columns):
        v0, energy = _uniform(u1, r["v0"]), _uniform(u2, r["energy"])
        a = _uniform(u3, ak_band) / math.sqrt(2.0 * (energy + v0))
        points.append({"v0": v0, "a": a, "energy": energy, "anchor": False})
    for p in points:
        argv = _reflect_argv("lorentzian", ["--v0", _num(p["v0"]), "--a", _num(p["a"])],
                             1.0, p["energy"], p["energy"], 1, methods)
        out.append(Invocation(argv, "lorentzian", dict(p, hbar=1.0), 3))
    return out


def lz_sweep(seed: int, linear: int, tanh: int) -> list[Invocation]:
    """Linear sweeps with adiabatic,closed,tdse and tanh sweeps with adiabatic,tdse."""
    rng = random.Random(f"lz-sweep:{seed}")
    r = LZ_RANGES
    out = []
    # The TDSE oracle's RHS evaluations are ~2e4 * T/hbar (linear) and
    # ~2e3 * e_sat*tau/hbar (tanh); with a handful of calls a jitter within
    # their strata would move the sweep's work by ~10% from seed to seed, so
    # those two take the strata's centres and the seed draws the rest.
    for u1, u2, u3 in zip(_centres(rng, linear),
                          *(_stratified(rng, linear) for _ in range(2))):
        hbar = _log_uniform(u3, r["hbar"])
        T = _log_uniform(u1, r["linear_t_over_hbar"]) * hbar
        eps = _uniform(u2, r["linear_eps"])
        argv = ("lz", "--profile", "linear", "--T", _num(T), "--eps", _num(eps),
                "--hbar", _num(hbar), "--methods", "adiabatic,closed,tdse",
                "--format", "json")
        out.append(Invocation(argv, "linear", {"T": T, "eps": eps, "hbar": hbar}, 3))
    for u1, u2, u3, u4 in zip(_centres(rng, tanh),
                              *(_stratified(rng, tanh) for _ in range(3))):
        hbar = _log_uniform(u4, r["hbar"])
        esat = _log_uniform(u3, r["esat"])
        tau = _log_uniform(u1, r["tanh_cost"]) * hbar / esat
        eps = _uniform(u2, r["tanh_eps_over_esat"]) * esat
        argv = ("lz", "--profile", "tanh", "--tau", _num(tau), "--esat", _num(esat),
                "--eps", _num(eps), "--hbar", _num(hbar), "--methods", "adiabatic,tdse",
                "--format", "json")
        params = {"tau": tau, "esat": esat, "eps": eps, "hbar": hbar}
        out.append(Invocation(argv, "tanh", params, 2))
    return out


def make(workload: str, seed: int, size: str = "full") -> list[Invocation]:
    builder = {"reflect-sweep": reflect_sweep, "oracle-check": oracle_check,
               "lz-sweep": lz_sweep}[workload]
    return builder(seed, **SIZES[size][workload])


# ----------------------------------------------------------------------------
# Correctness gate


def sech2_exact_ln_refl(E: float, v0: float, a: float, hbar: float) -> float:
    """ln|R|^2 for V = -v0 tanh^2(x/a) (unit mass), from the exact scattering
    solution of the sech^2 barrier (Landau & Lifshitz, QM section 25)."""
    k = math.sqrt(2.0 * (E + v0)) / hbar
    b = math.pi * k * a
    c = math.pi * math.sqrt(2.0 * v0 * a * a / hbar**2 - 0.25)
    x = 2.0 * (b - c)
    return -(x + math.log1p(math.exp(-x)))


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _flagged(row: dict, stderr: str) -> bool:
    if "energy" in row:
        where = f"E={row['energy']:g}"
    else:
        where = f"scale={row['scale']:g}, eps={row['epsilon']:g}"
    return f"warning: {row['method']} failed at {where}:" in stderr


def _valid(row: dict) -> bool:
    """Every field present and finite, with a log-probability <= 0."""
    values = (row.get("log_prob"), row.get("prob"), row.get("err_estimate"))
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values) and (
        row["log_prob"] <= 0.0
    )


def _valid_logs(rows: list[dict], bad: set, key) -> list[tuple[dict, dict]]:
    """Per grid point, (method -> row index, method -> log_prob of unflagged rows)."""
    groups: dict = {}
    for i, row in enumerate(rows):
        groups.setdefault(key(row), {})[row["method"]] = i
    return [
        (idx, {m: rows[i]["log_prob"] for m, i in idx.items() if i not in bad})
        for idx in groups.values()
    ]


def _check_reflect(inv: Invocation, rows: list[dict], bad: set) -> None:
    p = inv.params
    for idx, log in _valid_logs(rows, bad, lambda r: r["energy"]):
        if "momentum" in log and "closed" in log:
            bound = 1e-6 if inv.model == "lorentzian" else 1e-8
            if _rel(log["momentum"], log["closed"]) > bound:
                bad.add(idx["momentum"])
        if "momentum" in log and "contour" in log:
            if _rel(log["contour"], log["momentum"]) > 1e-6:
                bad.add(idx["contour"])
        if "numerov" in log:
            i = idx["numerov"]
            row = rows[i]
            if row["err_estimate"] > 1e-6:
                bad.add(i)
            if inv.model == "sech2":
                exact = sech2_exact_ln_refl(row["energy"], p["v0"], p["a"], p["hbar"])
                if abs(row["log_prob"] - exact) > 1e-5:
                    bad.add(i)
            elif p.get("anchor") and _rel(row["log_prob"], ANCHOR_LN) > 1e-6:
                bad.add(i)


def _check_lz(inv: Invocation, rows: list[dict], bad: set) -> None:
    linear = inv.model == "linear"
    for idx, log in _valid_logs(rows, bad, lambda r: (r["scale"], r["epsilon"])):
        ref = log.get("closed" if linear else "adiabatic")
        if linear and "adiabatic" in log and ref is not None:
            if _rel(log["adiabatic"], ref) > 1e-10:
                bad.add(idx["adiabatic"])
        if "tdse" in log:
            i = idx["tdse"]
            if rows[i]["err_estimate"] > 100.0 * TDSE_REL_TOL:
                bad.add(i)
            if ref is not None and _rel(log["tdse"], ref) > 0.05:
                bad.add(i)


def check(inv: Invocation, code: int, stdout: str, stderr: str) -> int:
    """Number of failed rows among the ``inv.n_rows`` the invocation owes."""
    try:
        rows = json.loads(stdout) if code in (0, 1) else None
    except json.JSONDecodeError:
        rows = None
    if not isinstance(rows, list) or len(rows) != inv.n_rows:
        return inv.n_rows
    bad = {i for i, row in enumerate(rows) if not _valid(row) or _flagged(row, stderr)}
    if inv.argv[0] == "reflect":
        _check_reflect(inv, rows, bad)
    else:
        _check_lz(inv, rows, bad)
    return len(bad)
