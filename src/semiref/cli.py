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
from json.encoder import encode_basestring_ascii

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


class UsageError(SemirefError):
    """Bad flags or config file; maps to exit code 2."""


def _positive(text: str) -> float:
    """A positive, finite float: the type of every real-valued input."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise ValueError(text)
    return value


def _positive_list(text: str) -> tuple[float, ...]:
    """A comma list of one or more positive, finite floats (``--eps``)."""
    values = tuple(_positive(tok) for tok in text.split(",") if tok.strip())
    if not values:
        raise ValueError(text)
    return values


# argparse names the type in its message: "invalid positive finite value".
_positive.__name__ = "positive finite"
_positive_list.__name__ = "positive finite list"


@dataclass(frozen=True)
class RunConfig:
    """Normalized run description shared by ``reflect`` and ``lz``."""

    constants: PhysicalConstants
    quadrature: QuadratureSpec
    methods: tuple[str, ...]
    grid_min: float
    grid_max: float
    grid_count: int
    spacing: str
    out_format: str
    output_path: str | None
    model: PotentialModel | None = None
    profile_kind: str | None = None
    e_sat: float | None = None
    epsilons: tuple[float, ...] = ()
    tdse_rel_tol: float | None = None


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


def _profile(cfg: RunConfig, scale: float) -> lz.CrossingProfile:
    if cfg.profile_kind == "linear":
        return lz.CrossingProfile.linear(scale)
    return lz.CrossingProfile.tanh(scale, cfg.e_sat)


def _outcome(route, *args):
    """``route(*args)``, or the SemirefError it raised."""
    try:
        return route(*args)
    except SemirefError as exc:
        return exc


def _each(route):
    """A route over all points from one that takes a single point."""
    return lambda cfg, *columns: [_outcome(route, cfg, *point) for point in zip(*columns)]


# Each command's routes, by method name: (cfg, *columns) -> one
# ReflectionResult or SemirefError per point, where the columns hold the
# points' coordinates, one sequence per label.  An entry looks its route up
# when called (a module global or ``lz.<name>``), so a wrapper bound over
# that name later is what runs.  Every ``reflect`` route takes all the
# energies of an invocation in one call.
REFLECT_METHODS = {
    "closed": lambda cfg, E: reflection_closed_form(cfg.model, E, cfg.constants),
    "contour": lambda cfg, E: reflection_contour_ll(
        cfg.model, E, cfg.constants, cfg.quadrature),
    "momentum": lambda cfg, E: reflection_momentum_space(
        cfg.model, E, cfg.constants, cfg.quadrature),
    "numerov": lambda cfg, E: numerov_reflection(cfg.model, E, cfg.constants),
}
LZ_METHODS = {
    "adiabatic": _each(lambda cfg, scale, eps: lz.adiabatic_reflection(
        _profile(cfg, scale), lz.CouplingSpec(eps), cfg.constants, cfg.quadrature)),
    "closed": _each(lambda cfg, scale, eps: lz.lz_closed_form(
        scale, lz.CouplingSpec(eps), cfg.constants)),
    "tdse": _each(lambda cfg, scale, eps: lz.evolve_tdse(
        _profile(cfg, scale), lz.CouplingSpec(eps), cfg.constants,
        rel_tol=cfg.tdse_rel_tol)),
}


def _failed_row(exc: SemirefError) -> tuple[float, float, float]:
    """(log_prob, prob, err) for a flagged row, using the best estimate if any.

    ``prob`` is nan where exp(best) underflows, as on a converged row that
    underflows.
    """
    if isinstance(exc, ConvergenceError) and exc.best is not None:
        err = exc.err_estimate if exc.err_estimate is not None else math.nan
        prob = math.exp(min(exc.best, 0.0))
        return exc.best, prob if prob > 0.0 else math.nan, err
    return math.nan, math.nan, math.nan


def run_rows(
    cfg: RunConfig, table: dict, labels: tuple[str, ...], points: list[tuple]
) -> tuple[list[tuple], int]:
    """One row (*point, method, log_prob, prob, err_estimate) per point and
    method, in the order of ``points``, then method name.

    Each method's route gets every point in one call, as one column per
    label.  A route that fails at a point gives a flagged row and a warning
    naming the point by ``labels``; the run continues.  Returns the rows and
    the number flagged.
    """
    columns = list(zip(*points))
    outcomes = {}
    for method in cfg.methods:
        out = _outcome(table[method], cfg, *columns)
        outcomes[method] = [out] * len(points) if isinstance(out, SemirefError) else out
    rows = []
    n_failed = 0
    for i, point in enumerate(points):
        for method in cfg.methods:
            res = outcomes[method][i]
            if isinstance(res, SemirefError):
                n_failed += 1
                where = ", ".join(f"{k}={v:g}" for k, v in zip(labels, point))
                print(f"warning: {method} failed at {where}: {res}", file=sys.stderr)
                values = _failed_row(res)
            else:
                values = res.log_prob, res.prob, res.err_estimate
            rows.append((*point, method, *values))
    return rows, n_failed


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if value != value:  # nan
        return "nan"
    return format(value, ".12g")


def rows_to_csv(rows: list[tuple], columns: tuple[str, ...]) -> str:
    lines = [",".join(columns)]
    lines += [",".join(map(_fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _json_cell(value) -> str:
    # Strict JSON has no nan/inf; flagged fields become null.
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)


def rows_to_json(rows: list[tuple], columns: tuple[str, ...]) -> str:
    """The rows as a JSON list of objects keyed by ``columns``.

    Written directly in the layout of ``json.dumps(..., indent=2)``, byte
    for byte, because with ``indent`` set ``json`` runs its pure-Python
    encoder, which takes about twice as long.
    """
    if not rows:
        return "[]\n"
    keys = [f"    {encode_basestring_ascii(c)}: " for c in columns]
    objects = [
        "  {\n" + ",\n".join(k + _json_cell(v) for k, v in zip(keys, row)) + "\n  }"
        for row in rows
    ]
    return "[\n" + ",\n".join(objects) + "\n]\n"


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


def _config_tokens(path: str, command: str) -> list[str]:
    """The records of config file ``path`` as ``--flag=value`` tokens of ``command``.

    A key is the dest of a flag.  A key that names no flag of any subcommand
    is a usage error, so one file can serve every subcommand but a typo
    cannot pass silently; keys of the other subcommands are skipped.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = parse_flat_config(handle.read())
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    flags = {
        name: {a.dest: a.option_strings[-1] for a in p._actions if a.dest != "help"}
        for name, p in sub.choices.items()
    }
    unknown = sorted(set(record).difference(*flags.values()))
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    own = flags[command]
    return [f"{own[key]}={value}" for key, value in record.items() if key in own]


def _parse_methods(raw: str | None, table: dict) -> tuple[str, ...]:
    tokens = [tok.strip() for tok in (raw or "").split(",") if tok.strip()]
    if not tokens:
        raise UsageError("at least one method must be requested")
    for tok in tokens:
        if tok not in table:
            raise UsageError(f"unknown method {tok!r}; choose from {tuple(table)}")
    return tuple(sorted(set(tokens)))


def _constants_and_quadrature(args) -> tuple[PhysicalConstants, QuadratureSpec]:
    try:
        return (
            # lz has no --mass: none of its routes reads the mass.
            PhysicalConstants(hbar=args.hbar, mass=getattr(args, "mass", 1.0)),
            QuadratureSpec(
                nodes=args.nodes, refinement_levels=args.levels, rel_tol=args.rel_tol
            ),
        )
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def _check_output_path(path: str | None) -> None:
    """Open ``path`` for appending, so a path that cannot be written is a
    usage error before any row is computed, not a traceback after."""
    if path is None:
        return
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise UsageError(f"cannot write output file {path!r}: {exc.strerror or exc}") from exc


def _run_config(args, **fields) -> RunConfig:
    """RunConfig of the shared inputs, the output and ``fields``, its grid and
    output path checked."""
    fmt = args.format or ("json" if (args.out or "").endswith(".json") else "csv")
    constants, quadrature = _constants_and_quadrature(args)
    cfg = RunConfig(constants, quadrature, out_format=fmt, output_path=args.out,
                    spacing=args.spacing, **fields)
    _validate_grid(cfg)
    _check_output_path(cfg.output_path)
    return cfg


def _build_reflect_config(args) -> RunConfig:
    if args.model is None:
        raise UsageError("a model is required (--model or config file)")
    kind = PotentialKind(args.model)
    try:
        if kind is PotentialKind.INVERSE_HO:
            model = PotentialModel.inverse_ho(args.alpha)
        else:
            model = PotentialModel(kind, v0=args.v0, a=args.a)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc

    methods = _parse_methods(args.methods, REFLECT_METHODS)
    if "numerov" in methods and kind is PotentialKind.INVERSE_HO:
        raise UsageError("the numerov oracle rejects inverse_ho (no flat tail)")

    if args.emin is None:
        raise UsageError("an energy grid is required (--emin)")
    return _run_config(args, methods=methods, grid_min=args.emin,
                       grid_max=args.emax or args.emin, grid_count=args.n, model=model)


def _build_lz_config(args) -> RunConfig:
    methods = _parse_methods(args.methods, LZ_METHODS)
    linear = args.profile == "linear"
    if "closed" in methods and not linear:
        raise UsageError("the closed form applies to the linear profile only")

    if args.scale_min is None:
        flag = "T" if linear else "tau"
        scale = getattr(args, flag)
        if scale is None:
            raise UsageError(f"a sweep scale is required (--{flag} or --scale-min)")
        smin, smax, count = scale, scale, 1
    else:
        smin, smax, count = args.scale_min, args.scale_max or args.scale_min, args.n

    if args.eps is None:
        raise UsageError("a coupling is required (--eps)")
    if not linear and any(e >= args.esat for e in args.eps):
        raise UsageError("tanh profile requires eps < esat for every coupling")

    return _run_config(args, methods=methods, grid_min=smin, grid_max=smax,
                       grid_count=count, profile_kind=args.profile,
                       e_sat=None if linear else args.esat, epsilons=args.eps,
                       tdse_rel_tol=args.tdse_rtol)


def _add_common(parser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--hbar", type=_positive, default=1.0,
                        help="Planck constant (default %(default)s)")
    parser.add_argument("--nodes", type=int, default=DEFAULT_QUADRATURE.nodes,
                        help="base quadrature nodes (default %(default)s)")
    parser.add_argument("--levels", type=int, default=DEFAULT_QUADRATURE.refinement_levels,
                        help="quadrature refinement levels (default %(default)s)")
    parser.add_argument("--rel-tol", dest="rel_tol", type=_positive,
                        default=DEFAULT_QUADRATURE.rel_tol,
                        help="quadrature relative tolerance (default %(default)s)")


def _add_mass(parser) -> None:
    parser.add_argument("--mass", type=_positive, default=1.0,
                        help="particle mass (default %(default)s)")


def _add_grid(parser) -> None:
    parser.add_argument("--n", type=int, default=1, help="grid point count (default %(default)s)")
    parser.add_argument("--spacing", choices=["linear", "log"], default="linear",
                        help="grid spacing (default %(default)s)")


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
    reflect.add_argument("--alpha", type=_positive, default=1.0,
                         help="inverse_ho curvature (default %(default)s)")
    reflect.add_argument("--v0", type=_positive, default=1.0,
                         help="well depth (default %(default)s)")
    reflect.add_argument("--a", type=_positive, default=1.0,
                         help="barrier width (default %(default)s)")
    reflect.add_argument("--emin", type=_positive, help="lowest energy")
    reflect.add_argument("--emax", type=_positive, help="highest energy")
    _add_grid(reflect)
    reflect.add_argument("--methods", help=f"comma list: {','.join(REFLECT_METHODS)}")
    reflect.add_argument("--out", help="output path (stdout if omitted)")
    reflect.add_argument("--format", choices=["csv", "json"])
    _add_common(reflect)
    _add_mass(reflect)

    lz_cmd = sub.add_parser("lz", help="Landau-Zener transition sweep")
    lz_cmd.add_argument("--profile", choices=["linear", "tanh"], default="linear",
                        help="sweep profile (default %(default)s)")
    lz_cmd.add_argument("--T", type=_positive, help="linear sweep scale")
    lz_cmd.add_argument("--tau", type=_positive, help="tanh sweep scale")
    lz_cmd.add_argument("--esat", type=_positive, default=1.0,
                        help="tanh saturation splitting (default %(default)s)")
    lz_cmd.add_argument("--eps", type=_positive_list, help="coupling(s), comma separated")
    lz_cmd.add_argument("--scale-min", dest="scale_min", type=_positive)
    lz_cmd.add_argument("--scale-max", dest="scale_max", type=_positive)
    _add_grid(lz_cmd)
    lz_cmd.add_argument("--methods", help=f"comma list: {','.join(LZ_METHODS)}")
    lz_cmd.add_argument("--tdse-rtol", dest="tdse_rtol", type=_positive, default=1e-10,
                        help="TDSE oracle tolerance (default %(default)s)")
    lz_cmd.add_argument("--out", help="output path (stdout if omitted)")
    lz_cmd.add_argument("--format", choices=["csv", "json"])
    _add_common(lz_cmd)

    val = sub.add_parser("validate", help="run the invariant suite")
    _add_common(val)
    _add_mass(val)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    With ``--config``, the file's records are parsed as flags placed before
    the command line's own, so a flag beats the file and the file beats the
    flag's default.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            if args.config is not None:
                at = argv.index(args.command) + 1
                tokens = _config_tokens(args.config, args.command)
                args = parser.parse_args([*argv[:at], *tokens, *argv[at:]])
        except SystemExit as exc:  # --help, or a bad flag or file value
            return EXIT_USAGE if exc.code else EXIT_OK
        if args.command == "validate":
            consts, quad = _constants_and_quadrature(args)
            results = validate_mod.run_all(consts=consts, quad=quad)
            for res in results:
                status = "PASS" if res.passed else "FAIL"
                print(f"{status} {res.name}: {res.detail}")
            n_failed = sum(not r.passed for r in results)
            print(f"{len(results) - n_failed}/{len(results)} checks passed")
            return EXIT_NUMERICAL if n_failed else EXIT_OK
        if args.command == "reflect":
            cfg = _build_reflect_config(args)
            table, labels, columns = REFLECT_METHODS, ("E",), REFLECT_COLUMNS
            points = [(float(E),) for E in _grid(cfg)]
        else:
            cfg = _build_lz_config(args)
            table, labels, columns = LZ_METHODS, ("scale", "eps"), LZ_COLUMNS
            points = [(float(s), eps) for s in _grid(cfg) for eps in cfg.epsilons]
        rows, n_failed = run_rows(cfg, table, labels, points)
        writer = rows_to_json if cfg.out_format == "json" else rows_to_csv
        _write_output(writer(rows, columns), cfg.output_path)
        return EXIT_NUMERICAL if n_failed else EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
