"""Command-line front end: sweeps, Landau-Zener runs, and validation.

Exit codes: 0 success, 1 numerical failure on at least one grid point,
2 usage or configuration error.  Output is deterministic for a given
configuration: rows are ordered by grid index, then coupling, then
method name, and floats are formatted with a fixed precision.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from itertools import repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import landau_zener as lz
from . import validate as validate_mod
from .errors import DomainError, SemirefError
from .potentials import PhysicalConstants, PotentialKind, PotentialModel
from .scattering_oracle import numerov_reflection
from .wkb_reflection import (
    DEFAULT_QUADRATURE,
    Method,
    QuadratureSpec,
    Rows,
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


def _grid(lo: float, hi: float, n: int, spacing: str) -> list[float]:
    """The ``n`` points of the grid from ``lo`` to ``hi``, the grid checked."""
    if n < 1:
        raise UsageError("grid count must be >= 1")
    if n == 1:
        return [lo]
    if not lo < hi:
        raise UsageError("grid needs min < max when count > 1")
    space = np.geomspace if spacing == "log" else np.linspace
    return space(lo, hi, n).tolist()


def _profile(args, scale: float) -> lz.CrossingProfile:
    if args.profile == "linear":
        return lz.CrossingProfile.linear(scale)
    return lz.CrossingProfile.tanh(scale, args.esat)


def _each(route, method: Method):
    """A route over all points, whose Rows it returns, from one that takes
    a single point and returns its ReflectionResult or raises."""
    def rows(args, *columns) -> Rows:
        energy, outcomes = [], []
        for point in zip(*columns):
            try:
                r = route(args, *point)
            except SemirefError as exc:
                energy.append(math.nan)
                outcomes.append(exc)
            else:
                energy.append(r.energy)
                outcomes.append((r.log_prob, r.err_estimate))
        return Rows.from_outcomes(energy, method, outcomes)
    return rows


# Each command's routes, by method name: (args, *columns) -> the Rows of
# the points, where ``args`` is the parsed command line with the objects
# its builder made from it, and the columns hold the points' coordinates,
# one sequence per label.  An entry looks its route up when called (a
# module global or ``lz.<name>``), so a wrapper bound over that name later
# is what runs.  Every ``reflect`` route takes all the energies of an
# invocation in one call.
REFLECT_METHODS = {
    "closed": lambda args, E: reflection_closed_form(args.potential, E, args.constants),
    "contour": lambda args, E: reflection_contour_ll(
        args.potential, E, args.constants, args.quadrature),
    "momentum": lambda args, E: reflection_momentum_space(
        args.potential, E, args.constants, args.quadrature),
    "numerov": lambda args, E: numerov_reflection(args.potential, E, args.constants),
}
LZ_METHODS = {
    "adiabatic": _each(lambda args, scale, eps: lz.adiabatic_reflection(
        _profile(args, scale), lz.CouplingSpec(eps), args.constants, args.quadrature),
        Method.ADIABATIC),
    "closed": _each(lambda args, scale, eps: lz.lz_closed_form(
        scale, lz.CouplingSpec(eps), args.constants), Method.CLOSED_FORM),
    "tdse": _each(lambda args, scale, eps: lz.evolve_tdse(
        _profile(args, scale), lz.CouplingSpec(eps), args.constants,
        rel_tol=args.tdse_rtol), Method.TDSE),
}


def _interleaved(columns: list[list]) -> list:
    """One list of the columns' cells taken row by row: the cells of row i
    of each column in turn, then those of row i + 1."""
    out = [None] * sum(map(len, columns))
    for j, column in enumerate(columns):
        out[j :: len(columns)] = column
    return out


def run_rows(
    args, table: dict, methods: tuple[str, ...], labels: tuple[str, ...],
    points: list[tuple],
) -> tuple[list[list], int]:
    """The columns (*point, method, log_prob, prob, err_estimate) of one row
    per point and method, in the order of ``points``, then of ``methods``.
    A point's coordinates stand once for its rows, so that the writers
    format each once (``_widened``).

    Each method's route gets every point in one call, as one column per
    label.  A route that fails at a point gives a flagged row (its best
    value and estimate on a ConvergenceError, nan otherwise) and a warning
    naming the point by ``labels``; the run continues.  Returns the columns
    and the number of rows flagged.
    """
    columns = list(zip(*points))
    records = [table[method](args, *columns) for method in methods]
    failed = sorted((i, j) for j, rec in enumerate(records) for i in rec.flagged)
    for i, j in failed:
        where = ", ".join(f"{k}={v:g}" for k, v in zip(labels, points[i]))
        print(f"warning: {methods[j]} failed at {where}: {records[j].flagged[i]}",
              file=sys.stderr)
    cells = [*columns, list(methods) * len(points)]
    cells += [_interleaved([getattr(rec, name) for rec in records])
              for name in ("log_prob", "prob", "err_estimate")]
    return cells, len(failed)


def _is_text(column: list) -> bool:
    # A column holds strs only (the method) or floats only.
    return bool(column) and isinstance(column[0], str)


def _widened(text: list[list[str]]) -> list[list[str]]:
    """Formatted columns, each as long as the longest: a column of n/k
    cells stands for each of its cells k times in turn."""
    n = max(map(len, text), default=0)
    return [c if len(c) == n else _interleaved([c] * (n // len(c))) for c in text]


def rows_to_csv(cells: list[list], columns: tuple[str, ...]) -> str:
    """The columns ``cells``, one list per name in ``columns``, as CSV rows;
    floats at 12 significant digits.  A short column is ``_widened``."""
    text = [c if _is_text(c) else list(map(format, c, repeat(".12g"))) for c in cells]
    return "\n".join([",".join(columns), *map(",".join, zip(*_widened(text)))]) + "\n"


def _json_column(column: list) -> list[str]:
    # Each string is encoded once.  Strict JSON has no nan/inf; flagged
    # fields become null.
    if _is_text(column):
        codes = {s: encode_basestring_ascii(s) for s in set(column)}
        return list(map(codes.__getitem__, column))
    if all(map(math.isfinite, column)):
        return list(map(float.__repr__, column))
    return [float.__repr__(v) if math.isfinite(v) else "null" for v in column]


def rows_to_json(cells: list[list], columns: tuple[str, ...]) -> str:
    """The columns ``cells``, one list per name in ``columns``, as a JSON
    list of objects keyed by ``columns``.

    Written directly in the layout of ``json.dumps(..., indent=2)``, byte
    for byte, because with ``indent`` set ``json`` runs its pure-Python
    encoder, which takes about twice as long.  Each column is formatted
    once, then each object fills one template.  A short column is
    ``_widened`` after it is formatted.
    """
    if not cells or not cells[0]:
        return "[]\n"
    keys = (encode_basestring_ascii(c).replace("%", "%%") for c in columns)
    template = "  {\n" + ",\n".join(f"    {k}: %s" for k in keys) + "\n  }"
    objects = map(template.__mod__, zip(*_widened(list(map(_json_column, cells)))))
    return "[\n" + ",\n".join(objects) + "\n]\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def parse_flat_config(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` records (a subset of TOML) into text: a
    quoted value as TOML reads a string, then at most a comment; any other
    up to a ``#`` comment.  The flag a value feeds types it; no nesting.
    """
    record: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in record:
            raise UsageError(f"config line {lineno}: {key} is set twice")
        # A literal string (group 1) or a basic string (group 2), then a comment.
        quoted = re.fullmatch(
            r"""(?:'([^'\0-\x08\n-\x1f\x7f]*)'|"((?:[^"\\\0-\x08\n-\x1f\x7f]"""
            r"""|\\[btnfr"\\]|\\u(?![dD][89a-fA-F])[\da-fA-F]{4}"""
            r"""|\\U(?!0000[dD][89a-fA-F])(?:000[\da-fA-F]|0010)[\da-fA-F]{4})*)")"""
            r"""\s*(?:#[^\0-\x08\n-\x1f\x7f]*)?""",
            value,
        )
        if quoted and quoted[2] is not None:
            # Python reads TOML's escapes; non-Latin-1 text passes as \u escapes.
            value = quoted[2].encode("latin-1", "backslashreplace").decode("unicode_escape")
        elif quoted:
            value = quoted[1]
        elif value[:1] in ("'", '"'):
            raise UsageError(f"config line {lineno}: cannot read the string {value}")
        else:
            value = value.split("#", 1)[0].strip()
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
    if "config" in record:
        raise UsageError("config key config: a config file cannot name another")
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


def _build_reflect_config(args) -> tuple[tuple[str, ...], list[tuple]]:
    """The sorted methods and the (E,) points of a ``reflect`` run.

    Sets ``args.potential``, ``args.constants`` and ``args.quadrature``.
    """
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
    args.potential = model
    args.constants, args.quadrature = _constants_and_quadrature(args)
    energies = _grid(args.emin, args.emax or args.emin, args.n, args.spacing)
    return methods, [(E,) for E in energies]


def _build_lz_config(args) -> tuple[tuple[str, ...], list[tuple]]:
    """The sorted methods and the (scale, eps) points of an ``lz`` run.

    Sets ``args.constants`` and ``args.quadrature``.
    """
    methods = _parse_methods(args.methods, LZ_METHODS)
    linear = args.profile == "linear"
    if "closed" in methods and not linear:
        raise UsageError("the closed form applies to the linear profile only")

    flag = "T" if linear else "tau"
    scale = getattr(args, flag)
    if scale is None:
        raise UsageError(f"a sweep scale is required (--{flag})")
    if args.eps is None:
        raise UsageError("a coupling is required (--eps)")
    if not linear and any(e >= args.esat for e in args.eps):
        raise UsageError("tanh profile requires eps < esat for every coupling")

    args.constants, args.quadrature = _constants_and_quadrature(args)
    scales = _grid(scale, args.scale_max or scale, args.n, args.spacing)
    return methods, [(s, eps) for s in scales for eps in args.eps]


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
    lz_cmd.add_argument("--T", type=_positive, help="linear sweep scale (first of the grid)")
    lz_cmd.add_argument("--tau", type=_positive, help="tanh sweep scale (first of the grid)")
    lz_cmd.add_argument("--esat", type=_positive, default=1.0,
                        help="tanh saturation splitting (default %(default)s)")
    lz_cmd.add_argument("--eps", type=_positive_list, help="coupling(s), comma separated")
    lz_cmd.add_argument("--scale-max", dest="scale_max", type=_positive,
                        help="last sweep scale of the grid")
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
            methods, points = _build_reflect_config(args)
            table, labels, columns = REFLECT_METHODS, ("E",), REFLECT_COLUMNS
        else:
            methods, points = _build_lz_config(args)
            table, labels, columns = LZ_METHODS, ("scale", "eps"), LZ_COLUMNS
        _check_output_path(args.out)
        cells, n_failed = run_rows(args, table, methods, labels, points)
        fmt = args.format or ("json" if (args.out or "").endswith(".json") else "csv")
        writer = rows_to_json if fmt == "json" else rows_to_csv
        _write_output(writer(cells, columns), args.out)
        return EXIT_NUMERICAL if n_failed else EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
