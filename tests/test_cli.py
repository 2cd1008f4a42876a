import argparse
import itertools
import json
import math
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from semiref.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
    parse_flat_config,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReflect:
    def test_single_point_sech2(self, capsys):
        code, out, _ = run_cli(
            [
                "reflect", "--model", "sech2", "--v0", "1", "--a", "1",
                "--emin", "1", "--n", "1", "--methods", "closed",
            ],
            capsys,
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "energy,method,log_prob,prob,err_estimate"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[1] == "closed"
        assert float(fields[2]) == pytest.approx(-3.6806, abs=1e-4)

    def test_closed_vs_momentum_rows_agree(self, capsys):
        code, out, _ = run_cli(
            [
                "reflect", "--model", "inverse_ho", "--alpha", "1",
                "--emin", "0.1", "--emax", "2", "--n", "8",
                "--methods", "closed,momentum",
            ],
            capsys,
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        by_energy = {}
        for energy, method, log_prob, _, _ in rows:
            by_energy.setdefault(energy, {})[method] = float(log_prob)
        assert len(by_energy) == 8
        for values in by_energy.values():
            assert abs(values["closed"] - values["momentum"]) <= 1e-8

    def test_csv_output_deterministic(self, tmp_path, capsys):
        args = [
            "reflect", "--model", "lorentzian", "--v0", "1", "--a", "1",
            "--emin", "0.5", "--emax", "2", "--n", "4", "--spacing", "log",
            "--methods", "momentum,closed,contour",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == EXIT_OK
        assert main(args + ["--out", str(second)]) == EXIT_OK
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_json_output_schema(self, tmp_path, capsys):
        out_path = tmp_path / "rows.json"
        code, _, _ = run_cli(
            [
                "reflect", "--model", "sech2", "--v0", "1", "--a", "1",
                "--emin", "1", "--n", "1", "--methods", "closed,momentum",
                "--out", str(out_path),
            ],
            capsys,
        )
        assert code == EXIT_OK
        rows = json.loads(out_path.read_text())
        assert [row["method"] for row in rows] == ["closed", "momentum"]
        assert set(rows[0]) == {"energy", "method", "log_prob", "prob", "err_estimate"}
        assert rows[0]["log_prob"] == pytest.approx(-3.680604738, rel=1e-8)

    def test_methods_ordered_by_name(self, capsys):
        code, out, _ = run_cli(
            [
                "reflect", "--model", "sech2", "--v0", "1", "--a", "1",
                "--emin", "1", "--n", "1", "--methods", "momentum,contour,closed",
            ],
            capsys,
        )
        assert code == EXIT_OK
        methods = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
        assert methods == sorted(methods)

    def test_empty_methods_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["reflect", "--model", "sech2", "--emin", "1", "--methods", ""],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "method" in err

    def test_numerov_rejected_for_inverse_ho(self, capsys):
        code, _, err = run_cli(
            [
                "reflect", "--model", "inverse_ho", "--alpha", "1",
                "--emin", "1", "--methods", "numerov",
            ],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "numerov" in err

    def test_unknown_model_rejected(self, capsys):
        code, _, _ = run_cli(
            ["reflect", "--model", "square", "--emin", "1", "--methods", "closed"],
            capsys,
        )
        assert code == EXIT_USAGE

    def test_bad_grid_rejected(self, capsys):
        code, _, _ = run_cli(
            [
                "reflect", "--model", "sech2", "--emin", "2", "--emax", "1",
                "--n", "5", "--methods", "closed",
            ],
            capsys,
        )
        assert code == EXIT_USAGE

    def test_numerov_row_near_wkb(self, capsys):
        code, out, _ = run_cli(
            [
                "reflect", "--model", "sech2", "--v0", "10", "--a", "2",
                "--emin", "1", "--n", "1", "--methods", "numerov,closed",
            ],
            capsys,
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        logs = {row[1]: float(row[2]) for row in rows}
        assert abs(logs["numerov"] - logs["closed"]) / abs(logs["closed"]) <= 0.10

    def test_coarse_quadrature_flags_rows(self, capsys):
        code, out, err = run_cli(
            [
                "reflect", "--model", "sech2", "--v0", "1", "--a", "1",
                "--emin", "1", "--n", "1", "--methods", "momentum",
                "--nodes", "8", "--levels", "1",
            ],
            capsys,
        )
        assert code == EXIT_NUMERICAL
        assert "warning" in err
        # flagged row still carries the best estimate
        fields = out.strip().splitlines()[1].split(",")
        assert float(fields[2]) == pytest.approx(-3.6806, abs=1e-3)


class TestFlaggedRows:
    def test_deep_numerov_row_is_flagged(self, capsys):
        # The exact ln R is -69.55; the oracle cannot resolve it and must say
        # so instead of printing -36 with a 1e-11 estimate.
        code, out, err = run_cli(
            [
                "reflect", "--model", "sech2", "--v0", "10", "--a", "2",
                "--emin", "40", "--methods", "closed,numerov",
            ],
            capsys,
        )
        assert code == EXIT_NUMERICAL
        assert "warning: numerov failed at E=40: Numerov error estimate" in err
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[1] for row in rows] == ["closed", "numerov"]
        assert float(rows[1][4]) > 1e-6

    def test_batched_numerov_keeps_row_and_warning_order(self, monkeypatch, capsys):
        # Each method runs over all energies in one call; rows and warnings
        # still come point by point, then by method name, as from one call
        # per row.  numerov flags E = 40; closed is made to fail at E = 14.
        import semiref.cli
        from semiref import ConvergenceError, PhysicalConstants, PotentialModel, numerov_reflection
        from semiref.cli import _failed_row, _fmt

        closed = semiref.cli.reflection_closed_form

        def failing_at_14(model, energies, consts):
            return [
                ConvergenceError("closed form made to fail", best=-30.0, err_estimate=1.0)
                if E == 14.0 else res
                for E, res in zip(energies, closed(model, energies, consts))
            ]

        monkeypatch.setattr(semiref.cli, "reflection_closed_form", failing_at_14)
        energies = [1.0, 14.0, 27.0, 40.0]
        code, out, err = run_cli(
            [
                "reflect", "--model", "sech2", "--v0", "10", "--a", "2", "--emin", "1",
                "--emax", "40", "--n", "4", "--methods", "numerov,closed",
            ],
            capsys,
        )
        results = numerov_reflection(
            PotentialModel.sech2(10.0, 2.0), energies, PhysicalConstants())
        flagged = [E for E, r in zip(energies, results) if isinstance(r, Exception)]
        assert flagged == [40.0]
        assert code == EXIT_NUMERICAL
        lines = out.strip().splitlines()[1:]
        assert [tuple(line.split(",")[:2]) for line in lines] == [
            (_fmt(E), method) for E in energies for method in ("closed", "numerov")
        ]
        assert lines[2] == "14,closed,-30,9.35762296884e-14,1"
        for E, res in zip(energies, results):
            values = (_failed_row(res) if isinstance(res, Exception)
                      else (res.log_prob, res.prob, res.err_estimate))
            assert f"{_fmt(E)},numerov,{','.join(map(_fmt, values))}" in lines
        assert err.strip().splitlines() == [
            "warning: closed failed at E=14: closed form made to fail",
            f"warning: numerov failed at E=40: {results[3]}",
        ]

    def test_underflow_row_is_null_in_json(self, tmp_path, capsys):
        # exp(-2 pi E) underflows double precision near E = 118.
        out_path = tmp_path / "rows.json"
        code, _, err = run_cli(
            [
                "reflect", "--model", "inverse_ho", "--alpha", "1",
                "--emin", "200", "--n", "1", "--methods", "closed",
                "--out", str(out_path),
            ],
            capsys,
        )
        assert code == EXIT_NUMERICAL
        assert "warning" in err
        row = json.loads(out_path.read_text())[0]
        assert row["log_prob"] is None
        assert row["prob"] is None

    def test_nonconverged_row_is_strict_json(self, tmp_path, capsys):
        # A one-level quadrature leaves err_estimate infinite; the JSON
        # writer must still emit a strictly parseable document.
        out_path = tmp_path / "rows.json"
        code, _, _ = run_cli(
            [
                "reflect", "--model", "sech2", "--v0", "1", "--a", "1",
                "--emin", "1", "--n", "1", "--methods", "momentum",
                "--nodes", "8", "--levels", "1", "--out", str(out_path),
            ],
            capsys,
        )
        assert code == EXIT_NUMERICAL
        row = json.loads(out_path.read_text())[0]
        assert row["err_estimate"] is None
        assert row["log_prob"] == pytest.approx(-3.6806, abs=1e-3)

    def test_underflow_row_is_nan_in_csv(self, capsys):
        code, out, _ = run_cli(
            [
                "reflect", "--model", "inverse_ho", "--alpha", "1",
                "--emin", "200", "--n", "1", "--methods", "closed",
            ],
            capsys,
        )
        assert code == EXIT_NUMERICAL
        assert out.strip().splitlines()[1].split(",")[2] == "nan"

    def test_unbisected_turning_point_is_not_a_log_prob(self, capsys):
        # The turning point is taken in closed form, not bisected, so this
        # row carries a log-probability: flagged because the quadrature did
        # not converge, yet within its err_estimate of the closed form.
        code, out, err = run_cli(
            [
                "reflect", "--model", "sech2", "--v0", "1e-8", "--a", "1",
                "--emin", "1e6", "--n", "1", "--methods", "contour",
            ],
            capsys,
        )
        assert code == EXIT_NUMERICAL
        assert "warning: contour failed" in err
        assert "quadrature did not reach" in err
        fields = out.strip().splitlines()[1].split(",")
        log_prob, err_estimate = float(fields[2]), float(fields[4])
        # sech2: -(2 pi a / hbar) sqrt(2m) E / (sqrt(E + v0) + sqrt(v0))
        closed = -2.0 * math.pi * math.sqrt(2.0) * 1e6 / (
            math.sqrt(1e6 + 1e-8) + math.sqrt(1e-8)
        )
        assert closed == pytest.approx(-8885.76498774, abs=1e-8)
        assert abs(log_prob - closed) <= err_estimate


    def test_underflowed_prob_has_one_spelling(self, tmp_path, capsys):
        # Both rows underflow exp(log_prob): the converged closed form fails
        # in ReflectionResult, the contour keeps its best log_prob.
        args = [
            "reflect", "--model", "sech2", "--v0", "1e-8", "--a", "1",
            "--emin", "1e6", "--methods", "closed,contour",
        ]
        code, out, _ = run_cli(args, capsys)
        assert code == EXIT_NUMERICAL
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[3] for row in rows] == ["nan", "nan"]
        assert rows[1][1:3] == ["contour", "-8885.76492477"]
        out_path = tmp_path / "rows.json"
        assert main(args + ["--out", str(out_path)]) == EXIT_NUMERICAL
        capsys.readouterr()
        rows = json.loads(out_path.read_text())
        assert [row["prob"] for row in rows] == [None, None]
        assert rows[1]["log_prob"] == pytest.approx(-8885.76492477, abs=1e-8)

    def test_lorentzian_closed_row_where_elliptic_parameter_is_one(self, capsys):
        code, out, err = run_cli(
            [
                "reflect", "--model", "lorentzian", "--v0", "1e-20", "--a", "1",
                "--emin", "10", "--methods", "closed,contour,momentum",
            ],
            capsys,
        )
        assert code == EXIT_OK, err
        logs = {
            row[1]: float(row[2])
            for row in (line.split(",") for line in out.strip().splitlines()[1:])
        }
        assert logs["closed"] == pytest.approx(logs["momentum"], rel=1e-12)
        assert logs["closed"] == pytest.approx(-17.88854382, abs=1e-8)


class TestBatchedQuadrature:
    # Each reflect route takes every energy in one call; these rows, and
    # their warnings, are pinned to what one call per energy printed.
    MIXED_LEVELS = (
        "reflect --model sech2 --v0 1 --a 1 --emin 1 --emax 3000 --n 3 "
        "--methods closed,contour,momentum"
    )
    MIXED_LEVELS_ROWS = """\
energy,method,log_prob,prob,err_estimate
1,closed,-3.68060473804,0.025207726154,0
1,contour,-3.68060473804,0.025207726154,9.32587340685e-15
1,momentum,-3.68060473804,0.025207726154,9.7699626167e-15
1500.5,closed,-335.430495816,2.11050606712e-146,0
1500.5,contour,-335.430495816,2.11050606712e-146,1.32331479108e-10
1500.5,momentum,-335.430495816,2.11050606712e-146,5.42121370017e-09
3000,closed,-477.888784056,2.85455306795e-208,0
3000,contour,-477.888784056,2.85455306795e-208,1.7203092284e-09
3000,momentum,-477.888784056,2.85455306796e-208,5.24356096321e-08
"""

    def test_rows_converging_at_different_levels(self, capsys):
        code, out, err = run_cli(self.MIXED_LEVELS.split(), capsys)
        assert code == EXIT_NUMERICAL
        assert out == self.MIXED_LEVELS_ROWS
        assert err == (
            "warning: momentum failed at E=3000: quadrature did not reach "
            "rel_tol=1e-10 with node counts (32, 64, 128)\n"
        )

    def test_good_row_beside_underflow_rows(self, capsys):
        code, out, err = run_cli(
            (
                "reflect --model sech2 --v0 1e-20 --a 1 --emin 1 --emax 1e20 --n 3 "
                "--spacing log --methods closed,contour,momentum"
            ).split(),
            capsys,
        )
        assert code == EXIT_NUMERICAL
        assert out == """\
energy,method,log_prob,prob,err_estimate
1,closed,-8.88576587543,0.000138344186144,0
1,contour,-8.88576587575,0.000138344186099,2.75335310107e-13
1,momentum,-8.88576587543,0.000138344186144,1.95399252334e-14
10000000000,closed,nan,nan,nan
10000000000,contour,nan,nan,nan
10000000000,momentum,nan,nan,nan
1e+20,closed,nan,nan,nan
1e+20,contour,nan,nan,nan
1e+20,momentum,nan,nan,nan
"""
        assert err.splitlines() == [
            f"warning: {method} failed at E={E}: probability underflows double "
            f"precision (log_prob={log_prob})"
            for E, log_prob in (("1e+10", "-888577"), ("1e+20", "-8.88577e+10"))
            for method in ("closed", "contour", "momentum")
        ]

    def test_more_levels_print_the_same_rows_once_converged(self, capsys):
        # With 12 levels every row converges by 512 nodes, momentum at
        # E = 3000 included; the rows that converged before are unchanged.
        code, out, err = run_cli(self.MIXED_LEVELS.split() + ["--levels", "12"], capsys)
        assert (code, err) == (EXIT_OK, "")
        want = self.MIXED_LEVELS_ROWS.replace(
            "2.85455306796e-208,5.24356096321e-08", "2.85455306795e-208,2.95585778076e-12")
        assert out == want

    def test_node_ladder_stops_at_the_cap(self, monkeypatch, capsys):
        # rel_tol = 1e-300 never passes, so every quadrature row climbs to
        # the cap (lowered here) and is flagged there with its best value.
        from semiref import wkb_reflection

        cap = 256
        monkeypatch.setattr(wkb_reflection, "MAX_NODES", cap)
        built = []
        rule = wkb_reflection._gauss_legendre
        monkeypatch.setattr(
            wkb_reflection, "_gauss_legendre", lambda n: built.append(n) or rule(n))
        code, out, err = run_cli(
            [
                "reflect", "--model", "sech2", "--emin", "0.5", "--emax", "2",
                "--n", "3", "--methods", "closed,contour,momentum",
                "--rel-tol", "1e-300", "--levels", "12",
            ],
            capsys,
        )
        assert code == EXIT_NUMERICAL
        assert max(built) == cap
        warnings = err.splitlines()
        assert len(warnings) == 6
        assert all(w.endswith("with node counts (32, 64, 128, 256)") for w in warnings)
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        for i in range(0, len(rows), 3):
            closed, contour, momentum = rows[i : i + 3]
            for row in (contour, momentum):
                assert float(row[2]) == pytest.approx(float(closed[2]), rel=1e-12)
                assert float(row[4]) < 1e-12

    def test_too_many_base_nodes_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["reflect", "--model", "sech2", "--emin", "1", "--methods", "momentum",
             "--nodes", "8192"],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "nodes must be <= 4096" in err


def _json_dumps_rows(rows, columns):
    # The writer's reference: json.dumps with indent=2, non-finite as null.
    def cell(value):
        return None if isinstance(value, float) and not math.isfinite(value) else value

    return json.dumps([dict(zip(columns, map(cell, row))) for row in rows], indent=2) + "\n"


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [(1.0, "closed", -0.5, 0.6065306597126334, 0.0)],
        [
            (1e-300, "momentum", math.nan, math.nan, math.inf),
            (2.5, "contour", -math.inf, 5e-324, 1.7976931348623157e308),
            (3.0, 'quo"te\\ \u00e9\n', -1e-17, 1.0, 2.0**-1074),
        ],
    ],
    ids=["no rows", "one row", "nan inf strings"],
)
def test_json_writer_matches_json_dumps(rows):
    from semiref.cli import REFLECT_COLUMNS, rows_to_json

    assert rows_to_json(rows, REFLECT_COLUMNS) == _json_dumps_rows(rows, REFLECT_COLUMNS)
    if rows:
        import numpy as np

        as_numpy = [tuple(np.float64(v) if isinstance(v, float) else v for v in row)
                    for row in rows]
        assert rows_to_json(as_numpy, REFLECT_COLUMNS) == _json_dumps_rows(
            rows, REFLECT_COLUMNS)


class TestLz:
    def test_linear_closed_form_grid(self, capsys):
        code, out, _ = run_cli(
            [
                "lz", "--profile", "linear", "--scale-min", "1",
                "--scale-max", "3", "--n", "3", "--eps", "1",
                "--methods", "closed",
            ],
            capsys,
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "scale,epsilon,method,log_prob,prob,err_estimate"
        logs = [float(line.split(",")[3]) for line in lines[1:]]
        for k, log in enumerate(logs, start=1):
            assert log == pytest.approx(-math.pi * k, rel=1e-12)

    def test_single_scale_adiabatic_matches_closed(self, capsys):
        code, out, _ = run_cli(
            [
                "lz", "--profile", "linear", "--T", "2", "--eps", "1",
                "--methods", "adiabatic,closed",
            ],
            capsys,
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert {row[2] for row in rows} == {"adiabatic", "closed"}
        logs = {row[2]: float(row[3]) for row in rows}
        assert logs["adiabatic"] == pytest.approx(logs["closed"], rel=1e-10)

    def test_tdse_row_matches_closed(self, capsys):
        code, out, _ = run_cli(
            [
                "lz", "--profile", "linear", "--T", "2", "--eps", "1",
                "--methods", "tdse,closed", "--tdse-rtol", "1e-8",
            ],
            capsys,
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        logs = {row[2]: float(row[3]) for row in rows}
        assert abs(logs["tdse"] - logs["closed"]) / abs(logs["closed"]) <= 0.05

    @pytest.mark.parametrize("T", ["2", "10", "20"])
    def test_tdse_row_within_estimate_or_flagged(self, T, capsys):
        # A tdse row is within its err_estimate of the exact Landau-Zener
        # value, or flagged; past double precision (T eps^2 / hbar >~ 10)
        # it is flagged.
        code, out, err = run_cli(
            ["lz", "--profile", "linear", "--T", T, "--eps", "1",
             "--methods", "closed,tdse"],
            capsys,
        )
        rows = {row[2]: row for row in (line.split(",") for line in out.splitlines()[1:])}
        tdse, closed = rows["tdse"], rows["closed"]
        flagged = f"warning: tdse failed at scale={T}, eps=1:" in err
        assert code == (EXIT_NUMERICAL if flagged else EXIT_OK)
        if not flagged:
            assert abs(float(tdse[3]) - float(closed[3])) <= float(tdse[5]) <= 1e-8
        if T == "2":
            assert not flagged

    def test_multiple_couplings_row_order(self, capsys):
        code, out, _ = run_cli(
            [
                "lz", "--profile", "linear", "--scale-min", "1",
                "--scale-max", "2", "--n", "2", "--eps", "0.5,1",
                "--methods", "closed,adiabatic",
            ],
            capsys,
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        # grid index, then coupling, then method name
        key = [(float(r[0]), float(r[1]), r[2]) for r in rows]
        assert key == sorted(key)
        assert len(rows) == 8

    def test_flagged_row_keeps_best_estimate(self, capsys):
        code, out, err = run_cli(
            [
                "lz", "--profile", "linear", "--T", "2", "--eps", "1",
                "--methods", "adiabatic", "--nodes", "8", "--levels", "1",
            ],
            capsys,
        )
        assert code == EXIT_NUMERICAL
        assert "warning: adiabatic failed at scale=2, eps=1: quadrature" in err
        fields = out.strip().splitlines()[1].split(",")
        assert fields[:3] == ["2", "1", "adiabatic"]
        # best one-level estimate of the Landau-Zener exponent -pi T eps^2
        assert float(fields[3]) == pytest.approx(-2.0 * math.pi, abs=1e-6)
        assert fields[5] == "inf"

    def test_tanh_strong_coupling_rejected(self, capsys):
        code, _, err = run_cli(
            [
                "lz", "--profile", "tanh", "--tau", "2", "--esat", "1",
                "--eps", "1.5", "--methods", "adiabatic",
            ],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "esat" in err

    def test_closed_restricted_to_linear(self, capsys):
        code, _, _ = run_cli(
            [
                "lz", "--profile", "tanh", "--tau", "2", "--esat", "1",
                "--eps", "0.3", "--methods", "closed",
            ],
            capsys,
        )
        assert code == EXIT_USAGE

    def test_missing_eps_rejected(self, capsys):
        code, _, _ = run_cli(
            ["lz", "--profile", "linear", "--T", "1", "--methods", "closed"],
            capsys,
        )
        assert code == EXIT_USAGE


def build_flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def toml_value(text: str) -> str:
    try:
        float(text)
    except ValueError:
        return f'"{text}"'
    return text


# Per subcommand, (base flags, config key, value, another value): the base
# flags with the key set make a complete, cheap run.
_SECH2 = {"model": "sech2", "v0": "2", "a": "1.5", "emin": "1", "emax": "2", "n": "3",
          "methods": "closed,momentum"}
_LINEAR = {"profile": "linear", "T": "2", "eps": "1", "methods": "adiabatic,closed"}
_TANH = {"profile": "tanh", "tau": "2", "esat": "1", "eps": "0.3", "methods": "adiabatic"}
_SWEEP = {"scale_min": "1", "scale_max": "3", "n": "3", "eps": "1", "methods": "closed"}
CONFIG_CASES = {
    "reflect": [
        (_SECH2, "model", "lorentzian", "sech2"),
        ({"model": "inverse_ho", "emin": "1", "methods": "closed"}, "alpha", "2", "4"),
        (_SECH2, "v0", "3", "2"),
        (_SECH2, "a", "0.5", "1.5"),
        (_SECH2, "emin", "0.5", "1"),
        (_SECH2, "emax", "4", "2"),
        (_SECH2, "n", "4", "3"),
        (_SECH2, "spacing", "log", "linear"),
        (_SECH2, "methods", "contour", "closed"),
        (_SECH2, "out", "rows.json", "other.json"),
        (_SECH2, "format", "json", "csv"),
        (_SECH2, "hbar", "0.5", "2"),
        (_SECH2, "mass", "2", "0.5"),
        (_SECH2, "nodes", "8", "32"),
        (_SECH2, "levels", "1", "3"),
        ({**_SECH2, "methods": "momentum", "nodes": "8", "levels": "2"},
         "rel_tol", "1e-3", "1e-12"),
    ],
    "lz": [
        ({"T": "3", "tau": "2", "esat": "1", "eps": "0.3", "methods": "adiabatic"},
         "profile", "tanh", "linear"),
        (_LINEAR, "T", "3", "2"),
        (_TANH, "tau", "3", "2"),
        (_TANH, "esat", "2", "1"),
        (_LINEAR, "eps", "0.5,1", "1"),
        (_SWEEP, "scale_min", "0.5", "1"),
        (_SWEEP, "scale_max", "4", "3"),
        (_SWEEP, "n", "4", "3"),
        (_SWEEP, "spacing", "log", "linear"),
        (_LINEAR, "methods", "adiabatic", "closed"),
        ({"T": "1", "eps": "1", "methods": "tdse"}, "tdse_rtol", "1e-6", "1e-3"),
        (_LINEAR, "out", "rows.json", "other.json"),
        (_LINEAR, "format", "json", "csv"),
        (_LINEAR, "hbar", "0.5", "2"),
        ({**_TANH, "methods": "tdse"}, "tdse_rtol", "1e-6", "1e-3"),
        (_LINEAR, "nodes", "8", "32"),
        (_LINEAR, "levels", "1", "3"),
        ({**_LINEAR, "nodes": "8", "levels": "2"}, "rel_tol", "1e-3", "1e-12"),
    ],
}


class TestConfigFile:
    def test_parse_flat_config(self):
        text = '\n'.join(
            [
                "# comment",
                'model = "sech2"',
                "v0 = 2.5",
                "n = 4   # trailing comment",
                "log = true",
            ]
        )
        record = parse_flat_config(text)
        assert record == {"model": "sech2", "v0": 2.5, "n": 4, "log": True}

    def test_config_file_drives_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.toml"
        cfg.write_text(
            'model = "sech2"\nv0 = 1\na = 1\nemin = 1\nn = 1\nmethods = "closed"\n'
        )
        code, out, _ = run_cli(["reflect", "--config", str(cfg)], capsys)
        assert code == EXIT_OK
        assert float(out.strip().splitlines()[1].split(",")[2]) == pytest.approx(
            -3.6806, abs=1e-4
        )

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.toml"
        cfg.write_text(
            'model = "inverse_ho"\nalpha = 4\nemin = 1\nn = 1\nmethods = "closed"\n'
        )
        code, out, _ = run_cli(
            ["reflect", "--config", str(cfg), "--alpha", "1"], capsys
        )
        assert code == EXIT_OK
        # alpha = 1 gives omega = 1, so log_prob = -2 pi (not -pi from alpha = 4)
        assert float(out.strip().splitlines()[1].split(",")[2]) == pytest.approx(
            -2 * math.pi, rel=1e-10
        )

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.toml"
        cfg.write_text('model = "sech2"\nv00 = 5\nemin = 1\nmethods = "closed"\n')
        code, out, err = run_cli(["reflect", "--config", str(cfg)], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "v00" in err

    def test_readme_config_drives_reflect_and_validate(self, tmp_path, capsys):
        readme = (ROOT / "README.md").read_text()
        block = readme.split("```toml\n", 1)[1].split("```", 1)[0]
        assert "methods" in block
        cfg = tmp_path / "run.toml"
        cfg.write_text(block)
        code, out, _ = run_cli(["reflect", "--config", str(cfg)], capsys)
        assert code == EXIT_OK
        assert out.startswith("energy,method,log_prob,prob,err_estimate\n")
        code, out, _ = run_cli(["validate", "--config", str(cfg)], capsys)
        assert code == EXIT_OK
        assert "FAIL" not in out

    def test_missing_config_file(self, capsys):
        code, _, _ = run_cli(["reflect", "--config", "/nonexistent.toml"], capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "command, base, key, value, other",
        [(command, *case) for command, cases in CONFIG_CASES.items() for case in cases],
    )
    def test_file_value_acts_as_flag(
        self, command, base, key, value, other, tmp_path, monkeypatch, capsys
    ):
        # Each flag a config file may set: the file's value, good or bad,
        # prints what the flag prints, with the same exit code, and the flag
        # beats the file.
        monkeypatch.chdir(tmp_path)

        def outcome(flags, record=None):
            argv = [command]
            for k, v in flags.items():
                argv += [build_flag(k), v]
            if record is not None:
                (tmp_path / "run.toml").write_text(
                    "".join(f"{k} = {toml_value(v)}\n" for k, v in record.items())
                )
                argv += ["--config", "run.toml"]
            code, out, _ = run_cli(argv, capsys)
            written = tmp_path / "rows.json"
            text = written.read_text() if written.exists() else None
            written.unlink(missing_ok=True)
            return code, out, text

        by_flag = outcome({**base, key: value})
        rest = {k: v for k, v in base.items() if k != key}
        assert outcome(rest, {key: value}) == by_flag
        assert outcome({**rest, key: value}, {key: other}) == by_flag
        assert outcome(rest, {key: "x"}) == outcome({**rest, key: "x"})
        assert outcome({**rest, key: other}) != by_flag

    def test_cases_cover_every_config_key(self):
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        for command, cases in CONFIG_CASES.items():
            dests = {a.dest for a in sub.choices[command]._actions}
            assert {case[1] for case in cases} == dests - {"help", "config"}

    @pytest.mark.parametrize(
        "argv, record",
        [
            (["reflect", "--model", "sech2", "--emin", "1", "--methods", "closed"],
             {"v0": '"x"'}),
            (["reflect", "--model", "sech2", "--emin", "1", "--methods", "closed"],
             {"v0": "true"}),
            (["reflect", "--model", "sech2", "--emin", "1", "--emax", "2",
              "--methods", "closed"], {"n": "3.0"}),
            (["lz", "--T", "2", "--eps", "1", "--methods", "tdse", "--tdse-rtol", "-1"],
             None),
            (["lz", "--T", "2", "--eps", "1", "--methods", "tdse", "--tdse-rtol", "nan"],
             None),
            (["reflect", "--model", "sech2", "--emin", "inf", "--methods", "closed"], None),
            (["reflect", "--model", "sech2", "--emin", "1", "--emax", "inf", "--n", "2",
              "--methods", "closed"], None),
            (["lz", "--T", "2", "--eps", "inf", "--methods", "closed"], None),
            (["lz", "--profile", "tanh", "--tau", "2", "--esat", "inf", "--eps", "0.3",
              "--methods", "adiabatic"], None),
        ],
    )
    def test_bad_input_is_usage_error(self, argv, record, tmp_path, capsys):
        if record is not None:
            cfg = tmp_path / "run.toml"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in record.items()))
            argv = [*argv, "--config", str(cfg)]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert "invalid" in err

    def test_mass_is_reflect_s_and_validate_s_flag(self, tmp_path, capsys):
        # No lz route reads the mass, so lz has no --mass; a file's mass key
        # names another subcommand's flag and is skipped.
        argv = ["lz", "--T", "2", "--eps", "1", "--methods", "closed"]
        code, out, err = run_cli([*argv, "--mass", "2"], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert "--mass" in err
        cfg = tmp_path / "run.toml"
        cfg.write_text("mass = 2\n")
        assert run_cli([*argv, "--config", str(cfg)], capsys)[:2] == run_cli(argv, capsys)[:2]
        code, out, _ = run_cli(["validate", "--config", str(cfg)], capsys)
        assert code == EXIT_OK and "FAIL" not in out

    @pytest.mark.parametrize("command", ["reflect", "lz"])
    def test_unwritable_out_is_usage_error_before_any_row(
        self, command, tmp_path, monkeypatch, capsys
    ):
        import semiref.cli

        monkeypatch.setattr(semiref.cli, "run_rows", None)  # any row would fail
        argv = (["reflect", "--model", "sech2", "--emin", "1", "--methods", "closed"]
                if command == "reflect"
                else ["lz", "--T", "2", "--eps", "1", "--methods", "closed"])
        code, out, err = run_cli([*argv, "--out", str(tmp_path / "no" / "x.csv")], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert "cannot write output file" in err
        cfg = tmp_path / "run.toml"
        cfg.write_text('out = ""\n')
        code, out, err = run_cli([*argv, "--config", str(cfg)], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert "cannot write output file" in err

    def test_lz_scale_is_the_profile_s_own_flag(self, tmp_path, capsys):
        tanh = ["lz", "--profile", "tanh", "--esat", "1", "--eps", "0.3",
                "--methods", "adiabatic"]
        code, out, _ = run_cli([*tanh, "--T", "2", "--tau", "5"], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[1].startswith("5,0.3,adiabatic,")
        assert run_cli([*tanh, "--tau", "5"], capsys)[:2] == (code, out)
        code, out, err = run_cli(
            ["lz", "--profile", "linear", "--tau", "5", "--eps", "0.3",
             "--methods", "closed"],
            capsys,
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert "--T" in err
        # One file serves both profiles.
        cfg = tmp_path / "run.toml"
        cfg.write_text('T = 2\ntau = 5\nesat = 1\neps = 0.3\nmethods = "adiabatic"\n')
        for profile, scale in (("linear", "2"), ("tanh", "5")):
            code, out, _ = run_cli(["lz", "--config", str(cfg), "--profile", profile], capsys)
            assert code == EXIT_OK
            assert out.splitlines()[1].startswith(f"{scale},0.3,adiabatic,")


class TestValidate:
    def test_default_build_passes(self, capsys):
        code, out, _ = run_cli(["validate"], capsys)
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert out.count("PASS") >= 10

    def test_coarse_quadrature_fails(self, capsys):
        code, out, _ = run_cli(["validate", "--nodes", "8", "--levels", "1"], capsys)
        assert code == EXIT_NUMERICAL
        assert "FAIL quadrature_convergence" in out

    def test_tdse_norm_check_runs_the_cf4_propagator(self, monkeypatch):
        # The check covers the oracle ``lz`` prints, not the DOP853 reference.
        import semiref.landau_zener as lz
        from semiref.validate import run_all

        def unused(*args, **kwargs):
            raise AssertionError("validate called the DOP853 reference")

        monkeypatch.setattr(lz, "_integrate", unused)
        calls = []
        propagator = lz._propagator
        monkeypatch.setattr(
            lz, "_propagator", lambda *a: calls.append(a) or propagator(*a))
        (res,) = [r for r in run_all() if r.name == "tdse_norm_conservation"]
        assert res.passed, res.detail
        assert len(calls) == 8

    def test_halved_hbar_still_passes_scaling(self, capsys):
        code, out, _ = run_cli(["validate", "--hbar", "0.5"], capsys)
        assert code == EXIT_OK
        assert "PASS hbar_scaling" in out


def test_routes_are_looked_up_when_called(monkeypatch, capsys):
    # Wrappers bound over a route's module attribute after import (as a
    # tracer does) must be the ones the method tables call.  Each reflect
    # route takes every energy of an invocation in one call.
    import semiref.cli
    import semiref.landau_zener

    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    reflect_routes = (
        "reflection_closed_form", "reflection_contour_ll",
        "reflection_momentum_space", "numerov_reflection",
    )
    for module, name in (
        *((semiref.cli, name) for name in reflect_routes),
        (semiref.landau_zener, "evolve_tdse"),
    ):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    code, _, _ = run_cli(
        [
            "reflect", "--model", "sech2", "--emin", "0.5", "--emax", "1",
            "--n", "3", "--methods", "closed,contour,momentum,numerov",
        ],
        capsys,
    )
    assert code == EXIT_OK
    code, _, _ = run_cli(
        [
            "lz", "--profile", "linear", "--T", "1", "--eps", "1",
            "--methods", "tdse", "--tdse-rtol", "1e-6",
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert calls == {**dict.fromkeys(reflect_routes, 1), "evolve_tdse": 1}


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # Every `semiref` line of the README's CLI block, with its config block
    # written as run.toml, exits 0.
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    (tmp_path / "run.toml").write_text(readme.split("```toml\n", 1)[1].split("```", 1)[0])
    monkeypatch.chdir(tmp_path)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("semiref ")]
    assert len(commands) == 5
    for argv in commands:
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_OK, (argv, err)


def test_module_entry_point_smoke(tmp_path):
    out_path = tmp_path / "rows.csv"
    proc = subprocess.run(
        [
            sys.executable, "-m", "semiref", "reflect", "--model", "sech2",
            "--v0", "1", "--a", "1", "--emin", "1", "--n", "1",
            "--methods", "closed", "--out", str(out_path),
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert out_path.read_text().startswith("energy,method,log_prob")


def test_cli_import_leaves_scipy_integrate_unloaded():
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, semiref.cli; print('scipy.integrate' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _extremes(flag):
    return [[flag, "1e-300"], [flag, "1e300"]]


_WIDE_ENERGIES = ["--emin", "1e-300", "--emax", "1e300", "--n", "7", "--spacing", "log"]


@pytest.mark.parametrize(
    "base, choices",
    [
        (["reflect", "--model", "inverse_ho", *_WIDE_ENERGIES,
          "--methods", "closed,contour,momentum"],
         [_extremes("--alpha"), _extremes("--mass"), _extremes("--hbar")]),
        *(
            (["reflect", "--model", family, *_WIDE_ENERGIES,
              "--methods", "closed,contour,momentum"],
             [_extremes("--v0"), _extremes("--a"), _extremes("--mass"), _extremes("--hbar")])
            for family in ("sech2", "lorentzian")
        ),
        (["lz", "--profile", "linear", "--eps", "1e-300,1,1e300", "--methods", "adiabatic,closed"],
         [_extremes("--T"), _extremes("--hbar")]),
        (["lz", "--profile", "tanh", "--methods", "adiabatic"],
         [_extremes("--tau"), _extremes("--hbar"),
          [["--esat", "1e-300", "--eps", "1e-306,5e-301"],
           ["--esat", "1e300", "--eps", "1,5e299"]]]),
    ],
    ids=["inverse_ho", "sech2", "lorentzian", "lz-linear", "lz-tanh"],
)
def test_extreme_inputs_give_rows_or_warnings(base, choices, capsys):
    # At every corner of 1e-300 .. 1e300 in each parameter, every row is a
    # value or flagged: no exception (the closed inverse_ho route used to
    # divide by an underflowed omega), no numpy RuntimeWarning, and nothing
    # on stderr but the rows' warnings.
    for tail in itertools.product(*choices):
        argv = [*base, *itertools.chain(*tail)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(argv, capsys)
        assert [str(w.message) for w in caught] == [], argv
        assert code in (EXIT_OK, EXIT_NUMERICAL), argv
        assert all(line.startswith("warning: ") for line in err.splitlines()), argv


def test_commands_run_without_scipy():
    # scipy is a test dependency only: with its import blocked every
    # command still runs, each route and oracle included.
    argvs = [
        ["reflect", "--model", "sech2", "--emin", "0.5", "--emax", "2", "--n", "3",
         "--methods", "closed,contour,momentum,numerov"],
        ["lz", "--profile", "linear", "--T", "1", "--eps", "1",
         "--methods", "adiabatic,closed,tdse", "--tdse-rtol", "1e-6"],
        ["lz", "--profile", "tanh", "--tau", "3", "--esat", "1", "--eps", "0.3",
         "--methods", "adiabatic,tdse", "--tdse-rtol", "1e-6"],
        ["validate"],
    ]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from semiref.cli import main\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        "print(codes, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "[0, 0, 0, 0]", proc.stderr
