import json
import math
import warnings
from functools import partial

import pytest

from banachlab.calderon import lp_product_oracle
from banachlab.cli import entrypoint, run_experiment
from banachlab.descriptors import FunctionalFamily, conjugate_exponent, space_to_str
from banachlab.gauges import check_prop5_hypothesis, gauge_by_name
from banachlab.reports import ExperimentReport
from banachlab.errors import ValidationError
from banachlab.vectors import SeqVector, lp_norm, pointwise_power


def make_report():
    rep = ExperimentReport(["n", "value", "label"], metadata={"seed": 7})
    rep.add_row(1, 1.0, "a")
    rep.add_row(2, 2 / math.log2(3), "b")
    rep.add_row(3, 1.5, "c")
    return rep


class TestRoundTrips:
    def test_csv(self):
        rep = make_report()
        text = rep.to_csv()
        again = ExperimentReport.from_csv(text)
        assert again.to_csv() == text
        assert again.columns == rep.columns

    def test_json(self):
        rep = make_report()
        again = ExperimentReport.from_json(rep.to_json())
        assert again.to_json() == rep.to_json()
        assert again.metadata["seed"] == 7

    def test_plotdata(self):
        rep = make_report()
        text = rep.to_plotdata()
        assert text.startswith("# n value label")
        again = ExperimentReport.from_plotdata(text)
        assert again.to_plotdata() == text

    def test_csv_row_count(self):
        text = make_report().to_csv()
        assert len(text.strip().splitlines()) == 4  # header + 3 rows

    def test_twelve_significant_digits(self):
        assert "1.26185950714" in make_report().to_csv()

    def test_unknown_format(self):
        with pytest.raises(ValidationError):
            make_report().emit("xml")

    def test_row_of_the_wrong_width(self):
        with pytest.raises(ValidationError, match="row has 2 cells, report has 1 columns"):
            ExperimentReport(["a"]).add_row(1, 2)

    @pytest.mark.parametrize("parse, text", [(ExperimentReport.from_csv, ""),
                                             (ExperimentReport.from_plotdata, "x")])
    def test_missing_header(self, parse, text):
        with pytest.raises(ValidationError, match="header line"):
            parse(text)


class TestRunExperiment:
    def test_summing(self):
        rep = run_experiment("summing", {"n_max": 4})
        assert rep.columns[0] == "n"
        assert len(rep.rows) == 4

    def test_determinism_byte_identical(self):
        cfg = {"space": "s:log2p1", "p": 1, "r": "inf", "samples": 40, "seed": 9}
        a = run_experiment("classx", dict(cfg)).to_csv()
        b = run_experiment("classx", dict(cfg)).to_csv()
        assert a == b

    def test_seed_changes_output(self):
        base = {"space": "s:log2p1", "count": 2, "m": 4, "samples": 25}
        a = run_experiment("projection", {**base, "seed": 1}).to_csv()
        b = run_experiment("projection", {**base, "seed": 2}).to_csv()
        assert a != b  # sampled projection ratios depend on the draw

    def test_missing_field_rejected_before_compute(self):
        with pytest.raises(ValidationError):
            run_experiment("vn", {"space": "s:log2p1"})

    def test_bad_numeric_rejected(self):
        with pytest.raises(ValidationError):
            run_experiment("summing", {"n_max": "many"})

    @pytest.mark.parametrize("name, cfg, message", [
        ("summing", [1], "config must be a JSON object"),
        ("nope", {}, "unknown experiment 'nope'"),
    ])
    def test_bad_call_rejected(self, name, cfg, message):
        with pytest.raises(ValidationError, match=message):
            run_experiment(name, cfg)

    def test_distortion_instance(self):
        rep = run_experiment("distortion", {"r": 4, "count": 4})
        assert rep.rows[0] == [16.0, 2.0, 8.0]

    @pytest.mark.parametrize(
        "name, cfg, columns",
        [
            ("summing", {"n_max": 2}, ["n", "dp_value", "closed_form", "abs_diff"]),
            ("block-growth", {"space": "s:log2p1", "p": 1, "m": 2, "count": 2},
             ["n", "block_sum_norm", "n_pow_1_over_p", "ratio"]),
            ("vn", {"space": "s:log2p1", "p": 1, "n_max": 1}, ["n", "vn_norm", "gap"]),
            ("beta", {"space": "s:log2p1", "p": 1, "n": 2, "budget": 3, "seed": 0},
             ["lower", "upper", "best_found"]),
            ("projection", {"space": "s:log2p1", "count": 2, "m": 1, "samples": 2, "seed": 0},
             ["projection_norm_lower", "dual_bound_M"]),
            ("projection", {"space": "s:log2p1", "count": 2, "m": 2, "samples": 2, "seed": 0},
             ["projection_norm_lower", "dual_bound_M"]),
            ("distortion", {"r": 2, "count": 2}, ["plus", "minus", "ratio"]),
            ("moduli", {"space": "l2", "samples": 2, "dim": 2, "seed": 0},
             ["eps", "convexity_upper_estimate", "tau", "smoothness_lower_estimate"]),
            ("classx", {"space": "s:log2p1", "p": 1, "r": "inf", "samples": 2, "seed": 0},
             ["condition", "worst_slack", "pass"]),
        ],
    )
    def test_every_driver_reports(self, name, cfg, columns):
        rep = run_experiment(name, dict(cfg))
        assert rep.columns == columns
        assert rep.rows and all(len(row) == len(columns) for row in rep.rows)
        assert rep.metadata["experiment"] == name

    def test_metadata_echoes_config(self):
        rep = run_experiment("summing", {"n_max": 3, "seed": 5})
        assert rep.metadata["config"]["n_max"] == 3
        assert rep.metadata["seed"] == 5
        assert "wall_time_s" in rep.metadata


class TestSpaceGrammar:
    @pytest.mark.parametrize(
        "space, message",
        [
            ("", "unknown space token ''"),
            ("l", "bad lp space 'l'"),
            ("lfoo", "bad lp space 'lfoo'"),
            ("l2:3", "trailing tokens in space expression 'l2:3'"),
            ("dual", "truncated space expression"),
            ("cal:l1", "truncated space expression"),
            ("cal:l1:l2", "missing theta"),
            ("conv:l2", "missing convexification exponent"),
            ("conv:l2:x", "bad convexification exponent 'x'"),
            ("s:pow", "pow gauge needs an exponent"),
            ("s:pow:abc", "bad power gauge 'pow:abc'"),
            ("s:pow:0", "pow gauge needs exponent in (0, 1], got 0.0"),
            ("cal:l1:l2:0", "Calderon product needs theta strictly inside (0,1), got 0.0"),
        ],
    )
    def test_bad_space_exits_2(self, capsys, space, message):
        assert entrypoint(["norm", "--space", space, "--vec", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_bad_functional_family(self):
        with pytest.raises(ValidationError, match="nonempty"):
            FunctionalFamily((), 1)
        with pytest.raises(ValidationError, match="positive integer"):
            FunctionalFamily((SeqVector.basis(1),), 0)

    def test_unknown_descriptor(self):
        with pytest.raises(ValidationError, match="unknown descriptor"):
            space_to_str(object())


class TestCliCommands:
    def test_version_and_help_exit_0(self, capsys):
        assert entrypoint(["--version"]) == 0
        assert capsys.readouterr().out == "banachlab, version 0.1.0\n"
        assert entrypoint(["--help"]) == 0
        assert "Usage:" in capsys.readouterr().out

    def test_interrupt_exits_2_without_a_traceback(self, capsys, monkeypatch):
        def interrupt(text):
            raise KeyboardInterrupt

        monkeypatch.setattr("banachlab.cli.parse_vector", interrupt)
        assert entrypoint(["norm", "--space", "l2", "--vec", "1"]) == 2
        assert capsys.readouterr().err == "\n"  # click ends the interrupted line

    def test_cert_needs_a_schlumprecht_space(self, capsys):
        assert entrypoint(["norm", "--space", "l2", "--vec", "1", "--cert"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_norm_summing_vector(self, capsys):
        code = entrypoint(["norm", "--space", "s:log2p1", "--vec", "1,1"])
        out = capsys.readouterr().out
        assert code == 0
        assert float(out.strip()) == pytest.approx(2 / math.log2(3), rel=1e-11)

    def test_norm_gauge_shorthand(self, capsys):
        code = entrypoint(["norm", "--space", "s", "--gauge", "one", "--vec", "1,1,1"])
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(3.0)

    def test_norm_cert_tree(self, capsys):
        code = entrypoint(["norm", "--space", "s:log2p1", "--vec", "1,1,1", "--cert"])
        out = capsys.readouterr().out
        assert code == 0
        assert "split n=3" in out

    def test_empty_vector_exits_2(self, capsys):
        assert entrypoint(["norm", "--space", "s:log2p1", "--vec", ""]) == 2

    def test_repeated_index_exits_2(self, capsys):
        assert entrypoint(["norm", "--space", "l1", "--vec", "1:1,1:2"]) == 2
        assert "index 1 is repeated" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["norm", "dual"])
    @pytest.mark.parametrize("vec", ["nan,1", "inf,1"])
    def test_non_finite_vector_exits_2(self, capsys, command, vec):
        assert entrypoint([command, "--space", "s:log2p1", "--vec", vec]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, expected",
        [
            ("dual --space l1.001 --vec 3,1", "3"),
            ("norm --space l2 --vec 1e-200,1e-200", "1.41421356237e-200"),
            ("norm --space l2 --vec 1e200,1e200", "1.41421356237e+200"),
            ("dual --space l1.5 --vec 1e200,1e200", "1.25992104989e+200"),
            ("dual --space l1.5 --vec 1e-200,1e-200", "1.25992104989e-200"),
            ("norm --space conv:s:log2p1:50 --vec 1e-7,1e-8", "1e-07"),
            ("norm --space conv:s:log2p1:50 --vec 1e7,1e6", "10000000"),
            ("norm --space conv:l2:3 --vec 1e-120,1e-120", "1.12246204831e-120"),
        ],
    )
    def test_closed_forms_at_unit_scale(self, capsys, args, expected):
        # the powers run on values / max, so no result flushes to 0 or overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = entrypoint(args.split())
        assert code == 0
        assert capsys.readouterr().out == expected + "\n"

    @pytest.mark.parametrize("args", ["norm --space l1 --vec 1e308,1e308",
                                      "dual --space linf --vec 1e308,1e308"])
    def test_sum_past_the_float_range_prints_inf(self, capsys, args):
        assert entrypoint(args.split()) == 0
        assert capsys.readouterr().out == "inf\n"

    def test_unknown_subcommand_exits_2(self, capsys):
        assert entrypoint(["frobnicate"]) == 2

    def test_calderon_l2_value(self, capsys):
        code = entrypoint(
            ["calderon", "--x", "l1", "--y", "linf", "--theta", "0.5", "--vec", "1,1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert float(out.strip().splitlines()[0]) == pytest.approx(math.sqrt(2), rel=1e-8)

    def test_calderon_witness(self, capsys):
        code = entrypoint(
            ["calderon", "--x", "l1", "--y", "s:log2p1", "--theta", "0.5",
             "--vec", "1,1,1", "--witness"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "x = " in out and "bracket = [" in out

    def test_dual_maximizer(self, capsys):
        code = entrypoint(["dual", "--space", "s:log2p1", "--vec", "1,1", "--maximizer"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert float(out[0]) == pytest.approx(math.log2(3), rel=1e-6)
        assert ":" in out[1]

    def test_gauge_check_identity_rejected(self, capsys):
        code = entrypoint(["gauge-check", "--gauge", "identity"])
        out = capsys.readouterr().out
        assert code == 0
        assert "in class: False" in out

    def test_convergence_error_exits_3(self, capsys):
        # a tolerance below the rounding level cannot certify: a round stalls
        code = entrypoint(
            ["calderon", "--x", "l1", "--y", "s:log2p1", "--theta", "0.5",
             "--vec", "0.3,1.2,0.5,0.8,1.1", "--tol", "1e-14"]
        )
        assert code == 3
        assert "bracket" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["norm", "calderon"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-6"])
    def test_malformed_tolerance_exits_2(self, capsys, command, tol):
        args = {"norm": ["--space", "cal:l2:s:log2p1:0.5"],
                "calderon": ["--x", "l2", "--y", "s", "--theta", "0.5"]}[command]
        code = entrypoint([command, *args, "--vec", "1,0.5,0.3,0.8", "--tol", tol])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "tolerance" in captured.err

    @pytest.mark.parametrize(
        "case",
        [
            "norm --space lnan --vec 1,2",
            "norm --space conv:l2:nan --vec 1,2",
            "norm --space conv:s:nan --vec 1,2",
            "dual --space lnan --vec 1,2",
            "calderon --x lnan --y s --theta 0.5 --vec 1,2",
            "norm --space cal:lnan:l2:0.5 --vec 1,2",
            "gauge-check --gauge sqrt --prop5-a nan",
            "gauge-check --gauge sqrt --prop5-a inf",
            partial(lp_norm, SeqVector.from_values([1.0, 2.0]), math.nan),
            partial(conjugate_exponent, math.nan),
            partial(lp_product_oracle, math.nan, 2.0, 0.5),
            partial(lp_product_oracle, 2.0, math.nan, 0.5),
            partial(pointwise_power, SeqVector.from_values([1.0, 2.0]), math.nan),
            partial(check_prop5_hypothesis, gauge_by_name("sqrt"), math.nan),
        ],
        ids=lambda case: case if isinstance(case, str) else case.func.__name__,
    )
    def test_nan_exponent_is_rejected(self, capsys, case):
        # NaN fails every comparison, so each check is written to pass only
        # on a valid exponent
        if isinstance(case, str):
            assert entrypoint(case.split()) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error:")
        else:
            with pytest.raises(ValidationError):
                case()

    def test_size_cap_exits_4(self, capsys):
        vec = ",".join(str(0.5 + (k % 3) * 0.25) for k in range(80))
        code = entrypoint(["norm", "--space", "s:log2p1", "--vec", vec])
        assert code == 4


class TestExperimentCommand:
    def test_summing_to_stdout(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_max": 3, "format": "csv"}))
        code = entrypoint(["experiment", "summing", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("n,dp_value")

    def test_written_file_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "out.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_max": 5, "output": str(out_path), "format": "csv"}))
        assert entrypoint(["experiment", "summing", "--config", str(cfg)]) == 0
        text = out_path.read_text()
        again = ExperimentReport.from_csv(text)
        assert again.to_csv() == text

    def test_vn_plotdata_columns(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"space": "s:log2p1", "p": 1, "n_max": 2, "format": "plotdata"})
        )
        code = entrypoint(["experiment", "vn", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        header = out.splitlines()[0]
        assert header.split()[1:3] == ["n", "vn_norm"]

    def test_unwritable_path_exits_5(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_max": 2, "output": "/nonexistent-dir/x.csv"}))
        assert entrypoint(["experiment", "summing", "--config", str(cfg)]) == 5

    def test_bad_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope")
        assert entrypoint(["experiment", "summing", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("body", ["[1, 2]", "5", '"x"', "null"])
    def test_config_not_an_object_exits_2(self, tmp_path, capsys, body):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(body)
        assert entrypoint(["experiment", "summing", "--config", str(cfg)]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, cfg",
        [
            ("projection", {"space": "s:log2p1", "count": 2, "seed": "abc"}),
            ("projection", {"space": "s:log2p1", "count": 2, "seed": -1}),
            ("projection", {"space": "s:log2p1", "count": 2, "samples": "many"}),
            ("projection", {"space": "s:log2p1", "count": 2, "m": "two"}),
            ("summing", {"n_max": True}),
            ("beta", {"space": "s:log2p1", "p": 1, "n": 2, "budget": "lots"}),
            ("moduli", {"space": "l2", "samples": 3, "dim": "x"}),
            ("classx", {"space": "s:log2p1", "p": 1, "r": "inf", "tolerance": "tight"}),
            # non-string text fields
            ("vn", {"space": 5, "p": 1, "n_max": 2}),
            ("summing", {"n_max": 3, "gauge": 5}),
            # zero counts that would make the check vacuous
            ("classx", {"space": "s:log2p1", "p": 1, "r": "inf", "samples": 0}),
            ("projection", {"space": "s:log2p1", "count": 2, "samples": 0}),
            ("moduli", {"space": "l2", "samples": 3, "dim": 0}),
            # negative sizes and tolerances
            ("moduli", {"space": "l2", "samples": -5, "dim": 2}),
            ("classx", {"space": "s:log2p1", "p": 1, "r": "inf", "samples": 1, "tolerance": -1}),
            # NaN in any field, inf in an integer field
            ("summing", {"n_max": "inf"}),
            ("summing", {"n_max": 1e400}),
            ("summing", {"n_max": 3, "seed": "inf"}),
            ("summing", {"n_max": float("nan")}),
            ("block-growth", {"space": "s:log2p1", "p": float("nan"), "m": 2, "count": 2}),
            ("classx", {"space": "s:log2p1", "p": 1, "r": float("nan"), "samples": 1}),
            ("moduli", {"space": "l2", "samples": 3, "dim": 2, "eps": float("nan")}),
            ("beta", {"space": "s:log2p1", "p": 1, "n": 2, "budget": "inf"}),
            # classx needs 1 <= p < r, as S_{p,r} does
            ("classx", {"space": "l2", "p": "inf", "r": "inf", "samples": 5, "seed": 1}),
            ("classx", {"space": "l2", "p": 2, "r": 2, "samples": 5, "seed": 1}),
            ("classx", {"space": "l2", "p": 3, "r": 2, "samples": 5, "seed": 1}),
            # an upper bound
            ("moduli", {"space": "l2", "samples": 3, "dim": 2, "eps": 3}),
        ],
    )
    def test_bad_config_field_exits_2(self, tmp_path, capsys, name, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert entrypoint(["experiment", name, "--config", str(path)]) == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [{"output": 1}, {"output": True},
                                       {"format": ["csv"]}, {"format": "xml"}])
    def test_bad_output_or_format_exits_2_before_computing(self, tmp_path, capsys,
                                                            monkeypatch, field):
        # open() takes an integer output as a file descriptor: 1 wrote the
        # report to stdout and then closed it
        ran = []
        monkeypatch.setattr("banachlab.cli.run_experiment", lambda *args: ran.append(args))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_max": 3, **field}))
        assert entrypoint(["experiment", "summing", "--config", str(path)]) == 2
        assert ran == []
        assert next(iter(field)) in capsys.readouterr().err

    def test_seed_from_environment(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_max": 2, "format": "json"}))
        monkeypatch.setenv("BANACHLAB_SEED", "7")
        assert entrypoint(["experiment", "summing", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["seed"] == 7
        for bad in ("abc", "inf", "nan"):
            monkeypatch.setenv("BANACHLAB_SEED", bad)
            assert entrypoint(["experiment", "summing", "--config", str(path)]) == 2
