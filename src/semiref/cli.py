"""Command-line front end: sweeps, Landau-Zener runs, and validation.

Exit codes: 0 success, 1 numerical failure on at least one grid point,
2 usage or configuration error.  Output is deterministic for a given
configuration: rows are ordered by grid index, then coupling, then
method name, and floats are formatted with a fixed precision.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import landau_zener as lz
from . import validate as validate_mod
from .errors import ConvergenceError, DomainError, SemirefError
from .potentials import PhysicalConstants, PotentialKind, PotentialModel
from .scattering_oracle import numerov_reflection
from .wkb_reflection import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    reflection_closed_form,
    reflection_contour_ll,
    reflection_momentum_space,
)

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

REFLECT_COLUMNS = ("energy", "method", "log_prob", "prob", "err_estimate")
LZ_COLUMNS = ("scale", "epsilon", "method", "log_prob", "prob", "err_estimate")

REFLECT_METHODS = ("closed", "contour", "momentum", "numerov")
LZ_METHODS = ("adiabatic", "closed", "tdse")


class UsageError(SemirefError):
    """Bad flags or config file; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Normalized run description shared by the three subcommands."""

    command: str
    constants: PhysicalConstants
    quadrature: QuadratureSpec
    methods: tuple[str, ...] = ()
    grid_min: float = 1.0
    grid_max: float = 1.0
    grid_count: int = 1
    spacing: str = "linear"
    model: PotentialModel | None = None
    profile_kind: str | None = None
    e_sat: float | None = None
    epsilons: tuple[float, ...] = ()
    tdse_rel_tol: float = 1e-10
    out_format: str = "csv"
    output_path: str | None = None


def _grid(cfg: RunConfig) -> np.ndarray:
    if cfg.grid_count == 1:
        return np.array([cfg.grid_min])
    if cfg.spacing == "log":
        return np.geomspace(cfg.grid_min, cfg.grid_max, cfg.grid_count)
    return np.linspace(cfg.grid_min, cfg.grid_max, cfg.grid_count)


def _validate_grid(cfg: RunConfig) -> None:
    if cfg.grid_count < 1:
        raise UsageError("grid count must be >= 1")
    if cfg.grid_count > 1 and not cfg.grid_min < cfg.grid_max:
        raise UsageError("grid needs min < max when count > 1")
    if cfg.spacing not in ("linear", "log"):
        raise UsageError(f"unknown spacing {cfg.spacing!r}")
    if cfg.spacing == "log" and not cfg.grid_min > 0.0:
        raise UsageError("log spacing needs a positive grid minimum")
    if not cfg.grid_min > 0.0:
        raise UsageError("grid values must be positive")


def _failed_row(exc: Exception) -> tuple[float, float, float]:
    """(log_prob, prob, err) for a flagged row, using the best estimate if any."""
    if isinstance(exc, ConvergenceError) and exc.best is not None:
        err = exc.err_estimate if exc.err_estimate is not None else math.nan
        return exc.best, math.exp(min(exc.best, 0.0)), err
    return math.nan, math.nan, math.nan


def run_reflect(cfg: RunConfig) -> tuple[list[dict], int]:
    """One row per (energy, method); failures are flagged, the run continues."""
    rows = []
    n_failed = 0
    for energy in _grid(cfg):
        energy = float(energy)
        for method in cfg.methods:
            try:
                if method == "closed":
                    res = reflection_closed_form(cfg.model, energy, cfg.constants)
                elif method == "momentum":
                    res = reflection_momentum_space(
                        cfg.model, energy, cfg.constants, cfg.quadrature
                    )
                elif method == "contour":
                    res = reflection_contour_ll(
                        cfg.model, energy, cfg.constants, cfg.quadrature
                    )
                else:
                    res = numerov_reflection(cfg.model, energy, cfg.constants)
                log_prob, prob, err = res.log_prob, res.prob, res.err_estimate
            except (DomainError, ConvergenceError) as exc:
                log_prob, prob, err = _failed_row(exc)
                n_failed += 1
                print(
                    f"warning: {method} failed at E={energy:g}: {exc}",
                    file=sys.stderr,
                )
            rows.append(
                {
                    "energy": energy,
                    "method": method,
                    "log_prob": log_prob,
                    "prob": prob,
                    "err_estimate": err,
                }
            )
    return rows, n_failed


def run_lz(cfg: RunConfig) -> tuple[list[dict], int]:
    """Rows over (scale, epsilon) x methods with the same column contract."""
    rows = []
    n_failed = 0
    for scale in _grid(cfg):
        scale = float(scale)
        if cfg.profile_kind == "linear":
            profile = lz.CrossingProfile.linear(scale)
        else:
            profile = lz.CrossingProfile.tanh(scale, cfg.e_sat)
        for epsilon in cfg.epsilons:
            eps = lz.CouplingSpec(epsilon)
            for method in cfg.methods:
                try:
                    if method == "adiabatic":
                        res = lz.adiabatic_reflection(
                            profile, eps, cfg.constants, cfg.quadrature
                        )
                        vals = (res.log_prob, res.prob, res.err_estimate)
                    elif method == "closed":
                        res = lz.lz_closed_form(scale, eps, cfg.constants)
                        vals = (res.log_prob, res.prob, res.err_estimate)
                    else:
                        trans, refl = lz.evolve_tdse(
                            profile, eps, cfg.constants, rel_tol=cfg.tdse_rel_tol
                        )
                        refl = max(refl, np.finfo(float).tiny)
                        vals = (math.log(refl), refl, abs(trans + refl - 1.0))
                except SemirefError as exc:
                    vals = _failed_row(exc)
                    n_failed += 1
                    print(
                        f"warning: {method} failed at scale={scale:g}, "
                        f"eps={epsilon:g}: {exc}",
                        file=sys.stderr,
                    )
                rows.append(
                    {
                        "scale": scale,
                        "epsilon": epsilon,
                        "method": method,
                        "log_prob": vals[0],
                        "prob": vals[1],
                        "err_estimate": vals[2],
                    }
                )
    return rows, n_failed


def run_validate(cfg: RunConfig) -> tuple[list[validate_mod.CheckResult], bool]:
    results = validate_mod.run_all(consts=cfg.constants, quad=cfg.quadrature)
    return results, all(r.passed for r in results)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if value != value:  # nan
        return "nan"
    return format(value, ".12g")


def rows_to_csv(rows: list[dict], columns: tuple[str, ...]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[dict], columns: tuple[str, ...]) -> str:
    payload = []
    for row in rows:
        item = {}
        for c in columns:
            value = row[c]
            # Strict JSON has no nan/inf; flagged fields become null.
            if isinstance(value, float) and not math.isfinite(value):
                value = None
            item[c] = value
        payload.append(item)
    return json.dumps(payload, indent=2) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def parse_flat_config(text: str) -> dict:
    """Parse flat ``key = value`` records (a subset of TOML).

    Values may be quoted strings, booleans, or numbers; ``#`` starts a
    comment.  Nested tables are not supported.
    """
    record: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if value.startswith('"') and '"' in value[1:]:
            record[key] = value[1 : value.index('"', 1)]
            continue
        if "#" in value:
            value = value.split("#", 1)[0].strip()
        if value.lower() in ("true", "false"):
            record[key] = value.lower() == "true"
            continue
        try:
            record[key] = int(value)
        except ValueError:
            try:
                record[key] = float(value)
            except ValueError:
                record[key] = value
    return record


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_flat_config(handle.read())
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc


def _pick(args_value, file_cfg: dict, key: str, default):
    if args_value is not None:
        return args_value
    if key in file_cfg:
        return file_cfg[key]
    return default


def _parse_methods(raw, allowed: tuple[str, ...]) -> tuple[str, ...]:
    if raw is None or str(raw).strip() == "":
        raise UsageError("at least one method must be requested")
    tokens = [tok.strip() for tok in str(raw).split(",") if tok.strip()]
    if not tokens:
        raise UsageError("at least one method must be requested")
    for tok in tokens:
        if tok not in allowed:
            raise UsageError(f"unknown method {tok!r}; choose from {allowed}")
    return tuple(sorted(set(tokens)))


def _constants(args, file_cfg) -> PhysicalConstants:
    hbar = float(_pick(getattr(args, "hbar", None), file_cfg, "hbar", 1.0))
    mass = float(_pick(getattr(args, "mass", None), file_cfg, "mass", 1.0))
    try:
        return PhysicalConstants(hbar=hbar, mass=mass)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def _quadrature(args, file_cfg) -> QuadratureSpec:
    nodes = int(_pick(args.nodes, file_cfg, "nodes", DEFAULT_QUADRATURE.nodes))
    levels = int(
        _pick(args.levels, file_cfg, "levels", DEFAULT_QUADRATURE.refinement_levels)
    )
    rel_tol = float(
        _pick(args.rel_tol, file_cfg, "rel_tol", DEFAULT_QUADRATURE.rel_tol)
    )
    try:
        return QuadratureSpec(nodes=nodes, refinement_levels=levels, rel_tol=rel_tol)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def _out_format(args, file_cfg) -> tuple[str, str | None]:
    path = _pick(args.out, file_cfg, "out", None)
    fmt = _pick(args.format, file_cfg, "format", None)
    if fmt is None:
        fmt = "json" if (path or "").endswith(".json") else "csv"
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown output format {fmt!r}")
    return fmt, path


def _build_reflect_config(args) -> RunConfig:
    file_cfg = _load_config_file(args.config)
    model_name = _pick(args.model, file_cfg, "model", None)
    if model_name is None:
        raise UsageError("a model is required (--model or config file)")
    try:
        kind = PotentialKind(str(model_name))
    except ValueError as exc:
        raise UsageError(f"unknown model {model_name!r}") from exc
    try:
        if kind is PotentialKind.INVERSE_HO:
            model = PotentialModel.inverse_ho(
                float(_pick(args.alpha, file_cfg, "alpha", 1.0))
            )
        else:
            model = PotentialModel(
                kind,
                v0=float(_pick(args.v0, file_cfg, "v0", 1.0)),
                a=float(_pick(args.a, file_cfg, "a", 1.0)),
            )
    except DomainError as exc:
        raise UsageError(str(exc)) from exc

    methods = _parse_methods(
        _pick(args.methods, file_cfg, "methods", None), REFLECT_METHODS
    )
    if "numerov" in methods and kind is PotentialKind.INVERSE_HO:
        raise UsageError("the numerov oracle rejects inverse_ho (no flat tail)")

    emin = _pick(args.emin, file_cfg, "emin", None)
    if emin is None:
        raise UsageError("an energy grid is required (--emin)")
    emin = float(emin)
    emax = float(_pick(args.emax, file_cfg, "emax", emin))
    count = int(_pick(args.n, file_cfg, "n", 1))
    fmt, path = _out_format(args, file_cfg)
    cfg = RunConfig(
        command="reflect",
        constants=_constants(args, file_cfg),
        quadrature=_quadrature(args, file_cfg),
        methods=methods,
        grid_min=emin,
        grid_max=emax,
        grid_count=count,
        spacing=str(_pick(args.spacing, file_cfg, "spacing", "linear")),
        model=model,
        out_format=fmt,
        output_path=path,
    )
    _validate_grid(cfg)
    return cfg


def _build_lz_config(args) -> RunConfig:
    file_cfg = _load_config_file(args.config)
    profile_kind = str(_pick(args.profile, file_cfg, "profile", "linear"))
    if profile_kind not in ("linear", "tanh"):
        raise UsageError(f"unknown profile {profile_kind!r}")
    methods = _parse_methods(_pick(args.methods, file_cfg, "methods", None), LZ_METHODS)
    if "closed" in methods and profile_kind != "linear":
        raise UsageError("the closed form applies to the linear profile only")

    single = _pick(args.T, file_cfg, "T", None)
    if single is None:
        single = _pick(args.tau, file_cfg, "tau", None)
    smin = _pick(args.scale_min, file_cfg, "scale_min", None)
    if smin is None:
        if single is None:
            raise UsageError("a sweep scale is required (--T/--tau or --scale-min)")
        smin, smax, count = float(single), float(single), 1
    else:
        smin = float(smin)
        smax = float(_pick(args.scale_max, file_cfg, "scale_max", smin))
        count = int(_pick(args.n, file_cfg, "n", 1))

    eps_raw = _pick(args.eps, file_cfg, "eps", None)
    if eps_raw is None:
        raise UsageError("a coupling is required (--eps)")
    try:
        epsilons = tuple(float(tok) for tok in str(eps_raw).split(",") if tok.strip())
    except ValueError as exc:
        raise UsageError(f"bad --eps value {eps_raw!r}") from exc
    if not epsilons or not all(e > 0.0 for e in epsilons):
        raise UsageError("couplings must be positive")

    e_sat = None
    if profile_kind == "tanh":
        e_sat = float(_pick(args.esat, file_cfg, "esat", 1.0))
        if not e_sat > 0.0:
            raise UsageError("esat must be positive")
        if any(e >= e_sat for e in epsilons):
            raise UsageError("tanh profile requires eps < esat for every coupling")

    fmt, path = _out_format(args, file_cfg)
    cfg = RunConfig(
        command="lz",
        constants=_constants(args, file_cfg),
        quadrature=_quadrature(args, file_cfg),
        methods=methods,
        grid_min=smin,
        grid_max=smax,
        grid_count=count,
        spacing=str(_pick(args.spacing, file_cfg, "spacing", "linear")),
        profile_kind=profile_kind,
        e_sat=e_sat,
        epsilons=epsilons,
        tdse_rel_tol=float(_pick(args.tdse_rtol, file_cfg, "tdse_rtol", 1e-10)),
        out_format=fmt,
        output_path=path,
    )
    _validate_grid(cfg)
    return cfg


def _build_validate_config(args) -> RunConfig:
    file_cfg = _load_config_file(args.config)
    return RunConfig(
        command="validate",
        constants=_constants(args, file_cfg),
        quadrature=_quadrature(args, file_cfg),
    )


def _add_common(parser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--hbar", type=float, help="Planck constant (default 1)")
    parser.add_argument("--mass", type=float, help="particle mass (default 1)")
    parser.add_argument("--nodes", type=int, help="base quadrature nodes (default 32)")
    parser.add_argument("--levels", type=int, help="quadrature refinement levels")
    parser.add_argument("--rel-tol", dest="rel_tol", type=float,
                        help="quadrature relative tolerance")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once: parsing does not mutate it."""
    parser = argparse.ArgumentParser(
        prog="semiref",
        description="Above-barrier reflection and Landau-Zener sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reflect = sub.add_parser("reflect", help="reflection probability sweep")
    reflect.add_argument("--model", choices=[k.value for k in PotentialKind])
    reflect.add_argument("--alpha", type=float, help="inverse_ho curvature")
    reflect.add_argument("--v0", type=float, help="well depth")
    reflect.add_argument("--a", type=float, help="barrier width")
    reflect.add_argument("--emin", type=float, help="lowest energy")
    reflect.add_argument("--emax", type=float, help="highest energy")
    reflect.add_argument("--n", type=int, help="grid point count")
    reflect.add_argument("--spacing", choices=["linear", "log"])
    reflect.add_argument("--methods", help="comma list: closed,momentum,contour,numerov")
    reflect.add_argument("--out", help="output path (stdout if omitted)")
    reflect.add_argument("--format", choices=["csv", "json"])
    _add_common(reflect)

    lz_cmd = sub.add_parser("lz", help="Landau-Zener transition sweep")
    lz_cmd.add_argument("--profile", choices=["linear", "tanh"])
    lz_cmd.add_argument("--T", type=float, help="linear sweep scale")
    lz_cmd.add_argument("--tau", type=float, help="tanh sweep scale")
    lz_cmd.add_argument("--esat", type=float, help="tanh saturation splitting")
    lz_cmd.add_argument("--eps", help="coupling(s), comma separated")
    lz_cmd.add_argument("--scale-min", dest="scale_min", type=float)
    lz_cmd.add_argument("--scale-max", dest="scale_max", type=float)
    lz_cmd.add_argument("--n", type=int, help="scale grid count")
    lz_cmd.add_argument("--spacing", choices=["linear", "log"])
    lz_cmd.add_argument("--methods", help="comma list: adiabatic,closed,tdse")
    lz_cmd.add_argument("--tdse-rtol", dest="tdse_rtol", type=float,
                        help="TDSE oracle tolerance (default 1e-10)")
    lz_cmd.add_argument("--out", help="output path (stdout if omitted)")
    lz_cmd.add_argument("--format", choices=["csv", "json"])
    _add_common(lz_cmd)

    val = sub.add_parser("validate", help="run the invariant suite")
    _add_common(val)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.command == "reflect":
            cfg = _build_reflect_config(args)
            rows, n_failed = run_reflect(cfg)
            writer = rows_to_json if cfg.out_format == "json" else rows_to_csv
            _write_output(writer(rows, REFLECT_COLUMNS), cfg.output_path)
            return EXIT_NUMERICAL if n_failed else EXIT_OK
        if args.command == "lz":
            cfg = _build_lz_config(args)
            rows, n_failed = run_lz(cfg)
            writer = rows_to_json if cfg.out_format == "json" else rows_to_csv
            _write_output(writer(rows, LZ_COLUMNS), cfg.output_path)
            return EXIT_NUMERICAL if n_failed else EXIT_OK
        cfg = _build_validate_config(args)
        results, all_passed = run_validate(cfg)
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            print(f"{status} {res.name}: {res.detail}")
        n_failed = sum(not r.passed for r in results)
        print(f"{len(results) - n_failed}/{len(results)} checks passed")
        return EXIT_OK if all_passed else EXIT_NUMERICAL
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
