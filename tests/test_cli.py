import io
import json
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maneuverkit import aiohmm, training
from maneuverkit.anticipation import FusionRnnPredictor
from maneuverkit.cli import COMMANDS, _record_writer, build_parser, main, train_model
from maneuverkit.dataio import load_dataset, load_model, save_dataset
from maneuverkit.events import EVENTS, STRAIGHT, validate_events
from maneuverkit.synth import ScenarioConfig, generate, split_folds

from test_dataio import (
    cut_payload, edited_checkpoint, read_checkpoint, theta_edit, theta_set, write_checkpoint, write_edited,
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestPipeline:
    def test_synth_train_eval_smoke(self, tmp_path, capsys):
        d = tmp_path / "d.jsonl"
        m = tmp_path / "m.json"
        assert main(["synth", "--n", "60", "--seed", "1", "--out", str(d)]) == 0
        assert (
            main(
                [
                    "train", "--data", str(d), "--arch", "frnn-el", "--hidden", "8",
                    "--epochs", "4", "--lr", "2e-3", "--seed", "2", "--out", str(m),
                ]
            )
            == 0
        )
        code, out = run(["eval", "--model", str(m), "--data", str(d), "--pth", "0.7"], capsys)
        assert code == 0
        assert "session:" in out and "confusion" in out

    def test_hmm_arch_trains_and_sweeps(self, tmp_path, capsys):
        d = tmp_path / "d.jsonl"
        m = tmp_path / "hmm.json"
        main(["synth", "--n", "60", "--seed", "3", "--out", str(d)])
        assert (
            main(
                [
                    "train", "--data", str(d), "--arch", "hmm", "--states", "2",
                    "--em-iters", "4", "--seed", "2", "--out", str(m),
                ]
            )
            == 0
        )
        code, out = run(
            ["sweep", "--model", str(m), "--data", str(d), "--grid", "0.5,0.9"], capsys
        )
        assert code == 0
        assert out.count("p_th=") == 2 and "*" in out

    def test_gradcheck_passes(self, capsys):
        code, out = run(
            ["gradcheck", "--arch", "frnn-el", "--seed", "7", "--tol", "1e-4"], capsys
        )
        assert code == 0
        assert out.strip().endswith(")") and "PASS" in out

    def test_gradcheck_fails_with_impossible_tolerance(self, capsys):
        code, out = run(
            ["gradcheck", "--arch", "srnn", "--seed", "7", "--tol", "1e-18"], capsys
        )
        assert code == 1
        assert "FAIL" in out


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("small") / "d.jsonl"
    assert main(["synth", "--n", "20", "--seed", "0", "--out", str(d)]) == 0
    return d


NETWORK = ["--arch", "frnn-el", "--hidden", "2", "--epochs", "2", "--seed", "1"]


class TestTrainOutcomes:
    @pytest.mark.parametrize("flags, header, rows", [
        (NETWORK, "epoch,mean_loss", 2),
        (["--arch", "hmm", "--states", "2", "--em-iters", "2", "--seed", "1"], "event,iteration,loglik", None),
    ], ids=["network", "hmm"])
    def test_curve_out_writes_the_training_curve(self, small_data, tmp_path, caplog, flags, header, rows):
        caplog.set_level(logging.INFO)
        curve = tmp_path / "curve.csv"
        assert main(["train", "--data", str(small_data), *flags, "--out", str(tmp_path / "m.json"),
                     "--curve-out", str(curve)]) == 0
        lines = curve.read_text(encoding="utf-8").splitlines()
        assert lines[0] == header
        body = [line.split(",") for line in lines[1:]]
        if rows is not None:
            assert [r[0] for r in body] == [str(i) for i in range(rows)]
        assert body and all(len(r) == header.count(",") + 1 and math.isfinite(float(r[-1])) for r in body)
        assert f"training curve written to {curve}" in caplog.text

    def test_diverged_network_exits_1_and_writes_no_checkpoint(self, small_data, tmp_path, caplog):
        # a step of 1e308 times the gradient overflows the weights
        m, curve = tmp_path / "m.json", tmp_path / "curve.csv"
        assert main(["train", "--data", str(small_data), *NETWORK, "--lr", "1e308", "--out", str(m),
                     "--curve-out", str(curve)]) == 1
        assert "training diverged; no checkpoint was written" in caplog.text
        assert not m.exists() and not curve.exists()

    def test_empty_dataset_exits_1(self, tmp_path, caplog):
        d, m = tmp_path / "d.jsonl", tmp_path / "m.json"
        d.write_text("", encoding="utf-8")
        assert main(["train", "--data", str(d), *NETWORK, "--out", str(m)]) == 1
        assert "training dataset is empty" in caplog.text
        assert not m.exists()

    def test_relative_data_is_found_in_the_data_dir(self, small_data, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("MANEUVERKIT_DATA_DIR", str(small_data.parent))
        assert main(["train", "--data", small_data.name, *NETWORK, "--out", "m.json"]) == 0
        assert load_model(tmp_path / "m.json")[1] == "fusion_rnn"


class TestValidation:
    def test_unknown_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code != 0

    def test_unknown_flag_exits_nonzero(self):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--n", "5", "--out", "x", "--bogus"])
        assert err.value.code != 0

    def test_eval_with_dataset_as_model_is_a_clear_error(self, tmp_path, caplog):
        d = tmp_path / "d.jsonl"
        main(["synth", "--n", "5", "--seed", "0", "--out", str(d)])
        code = main(["eval", "--model", str(d), "--data", str(d)])
        assert code == 1

    # used to exit 0 on an empty dataset, and to fail on nan only when writing the report
    @pytest.mark.parametrize("pth", ["0", "5", "nan"])
    @pytest.mark.parametrize("n", [0, 5], ids=["empty", "nonempty"])
    @pytest.mark.parametrize("command", [["eval", "--out", "r.json"], ["anticipate"]], ids=lambda c: c[0])
    def test_bad_threshold_is_refused_before_the_walk(
        self, tmp_path, monkeypatch, capsys, caplog, command, n, pth
    ):
        monkeypatch.chdir(tmp_path)
        d = tmp_path / "d.jsonl"
        save_dataset(generate(ScenarioConfig(seed=0), 5)[:n], d)
        m = Path(__file__).parent / "data" / "fusion_h2.json"
        code, out = run([command[0], "--model", str(m), "--data", str(d), "--pth", pth, *command[1:]], capsys)
        assert code == 1
        assert out == ""
        assert f"threshold must lie in (0, 1], got {float(pth)}" in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_missing_data_file_is_reported(self, tmp_path):
        code = main(
            ["train", "--data", str(tmp_path / "nope.jsonl"), "--arch", "frnn-el",
             "--out", str(tmp_path / "m.json")]
        )
        assert code == 1

    def test_gradcheck_rejects_hmm_archs(self):
        assert main(["gradcheck", "--arch", "aiohmm"]) == 1

    @pytest.mark.parametrize("arch", ["frnn-el", "aiohmm"])
    def test_dataset_without_the_settings_events_is_reported(self, tmp_path, caplog, arch):
        d, turns = tmp_path / "d.jsonl", tmp_path / "turns.jsonl"
        assert main(["synth", "--n", "40", "--seed", "1", "--out", str(d)]) == 0
        turns.write_text("".join(line + "\n" for line in d.read_text(encoding="utf-8").splitlines()
                                 if '"label": "left_turn"' in line), encoding="utf-8")
        assert main(["train", "--data", str(turns), "--arch", arch, "--setting", "lane",
                     "--out", str(tmp_path / "m.json")]) == 1
        assert "dataset has no samples for" in caplog.text

    # each used to train a full pass and then stop with "training diverged",
    # or, for the augmentation factor, to fail at save
    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "nan", "learning_rate must be positive and finite, got nan"),
        ("--lr", "inf", "learning_rate must be positive and finite, got inf"),
        ("--augment-factor", "nan", "augmentation_factor must be finite and >= 1, got nan"),
    ])
    def test_non_finite_training_setting_is_rejected_before_training(
        self, tmp_path, caplog, monkeypatch, flag, value, message
    ):
        d = tmp_path / "d.jsonl"
        assert main(["synth", "--n", "20", "--seed", "0", "--out", str(d)]) == 0
        monkeypatch.setattr(training.fusion_rnn, "forward", lambda *a: pytest.fail("trained"))
        assert main(["train", "--data", str(d), "--arch", "frnn-el", "--hidden", "4",
                     "--epochs", "1", flag, value, "--out", str(tmp_path / "m.json")]) == 1
        assert message in caplog.text
        assert not (tmp_path / "m.json").exists()

    # each used to exit 1 with NumPy's bare "expected non-negative integer"
    @pytest.mark.parametrize("arch", ["frnn-el", "aiohmm"])
    def test_negative_seed_is_rejected_by_name(self, tmp_path, caplog, arch):
        d, m = tmp_path / "d.jsonl", tmp_path / "m.json"
        assert main(["synth", "--n", "20", "--seed", "0", "--out", str(d)]) == 0
        assert main(["train", "--data", str(d), "--arch", arch, "--seed", "-1", "--out", str(m)]) == 1
        assert "field 'seed' must be a non-negative integer, got -1" in caplog.text
        assert not m.exists()

    # each used to be ignored: the latent-state archs read no network flag,
    # and the networks no EM flag
    @pytest.mark.parametrize("arch, flag, value", [
        ("aiohmm", "--hidden", "8"),
        ("hmm", "--epochs", "2"),
        ("aiohmm", "--lr", "1e-2"),
        ("aiohmm", "--augment-factor", "nan"),
        ("frnn-el", "--states", "2"),
        ("srnn", "--em-iters", "5"),
    ])
    @pytest.mark.parametrize("command", ["train", "xval"])
    def test_flag_of_the_other_arch_family_is_rejected(
        self, tmp_path, caplog, monkeypatch, command, arch, flag, value
    ):
        d, out = tmp_path / "d.jsonl", tmp_path / "out.json"
        assert main(["synth", "--n", "20", "--seed", "0", "--out", str(d)]) == 0
        monkeypatch.setattr(training, "train", lambda *a: pytest.fail("trained"))
        monkeypatch.setattr(aiohmm, "fit_em", lambda *a: pytest.fail("fitted"))
        argv = [command, "--data", str(d), "--arch", arch, flag, value, "--out", str(out)]
        assert main(argv + (["--folds", "2"] if command == "xval" else [])) == 1
        assert f"{flag} does not apply to --arch {arch}, got" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("arch, flags", [
        ("aiohmm", ["--hidden", "64", "--lr", "1e-4", "--augment-factor", "1"]),
        ("frnn-el", ["--states", "3", "--em-iters", "30"]),
    ])
    def test_flag_at_its_default_is_accepted(self, arch, flags):
        args = build_parser().parse_args(["train", "--data", "-", "--out", "-", "--arch", arch, *flags])
        with pytest.raises(ValueError, match="no samples"):  # past the flag check
            train_model(args, [], 0)

    # each used to end in a traceback, or, for t_max, to be silently accepted
    @pytest.mark.parametrize("overrides, message", [
        ({"bogus": 1}, "unknown field 'bogus'"),
        ({"t_min": "six"}, "field 't_min' must be a non-negative integer, got 'six'"),
        ([1, 2], "expected a JSON object of ScenarioConfig fields, got list"),
        ({"seed": "x"}, "field 'seed' must be a non-negative integer, got 'x'"),
        ({"t_max": 10.5}, "field 't_max' must be a non-negative integer, got 10.5"),
        ({"events": ["left_lane", "straight", "straight"]}, "field 'events' names 'straight' more than once"),
    ])
    def test_bad_synth_config_is_a_located_error(self, tmp_path, caplog, overrides, message):
        cfg, d = tmp_path / "cfg.json", tmp_path / "d.jsonl"
        cfg.write_text(json.dumps(overrides), encoding="utf-8")
        assert main(["synth", "--n", "5", "--config", str(cfg), "--out", str(d)]) == 1
        assert f"{cfg}: {message}" in caplog.text
        assert not d.exists()

    # each used to end in an IsADirectoryError traceback
    @pytest.mark.parametrize("argv", [
        ["synth", "--n", "5", "--config", "{dir}", "--out", "{dir}/d.jsonl"],
        ["train", "--data", "{dir}", "--arch", "frnn-el", "--out", "{dir}/m.json"],
        ["eval", "--model", "{dir}", "--data", "{dir}"],
        ["report", "--in", "{dir}"],
        ["synth", "--n", "5", "--out", "{dir}"],
    ], ids=["synth-config", "train-data", "eval-model", "report-in", "synth-out"])
    def test_directory_given_for_a_file_is_a_clear_error(self, tmp_path, caplog, argv):
        assert main([arg.format(dir=tmp_path) for arg in argv]) == 1
        assert f"Is a directory: '{tmp_path}'" in caplog.text

    def test_synth_config_overrides_the_defaults(self, tmp_path):
        cfg, d = tmp_path / "cfg.json", tmp_path / "d.jsonl"
        cfg.write_text(json.dumps({"noise_sigma": 0.2, "t_max": 10}), encoding="utf-8")
        assert main(["synth", "--n", "30", "--seed", "4", "--config", str(cfg), "--out", str(d)]) == 0
        want = generate(ScenarioConfig(seed=4, noise_sigma=0.2, t_max=10), 30)
        for got, ref in zip(load_dataset(d), want, strict=True):
            np.testing.assert_array_equal(got.zs, ref.zs)
            np.testing.assert_array_equal(got.xs, ref.xs)

    # giving both used to exit 0, streaming stdin and ignoring --data
    @pytest.mark.parametrize("flags, message", [
        (["--data", "d.jsonl", "--stream"], "argument --stream: not allowed with argument --data"),
        ([], "one of the arguments --data --stream is required"),
    ], ids=["both", "neither"])
    def test_anticipate_takes_exactly_one_of_data_and_stream(self, monkeypatch, capsys, flags, message):
        loaded = []
        monkeypatch.setattr("maneuverkit.dataio.load_model", lambda *args: loaded.append(args))
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(STEP) + "\n"))
        with pytest.raises(SystemExit) as exit_:
            main(["anticipate", "--model", str(Path(__file__).parent / "data" / "fusion_h2.json"), *flags])
        captured = capsys.readouterr()
        assert exit_.value.code == 2
        assert captured.err.endswith(f"maneuverkit anticipate: error: {message}\n")
        assert "Traceback" not in captured.err and captured.out == ""
        assert loaded == []


COMMAND_LIST = "{synth,train,eval,anticipate,sweep,xval,gradcheck,report}"
# command: (a valid argv, one that lacks a required flag, one with a bad value:
# a choice where the command has one, else a value of the wrong type)
PARSER_CASES = {
    "synth": (["--n", "5", "--seed", "3", "--out", "d.jsonl"], ["--out", "d.jsonl"],
              ["--n", "five", "--out", "d.jsonl"]),
    "train": (["--data", "d.jsonl", "--out", "m.json", "--arch", "srnn", "--hidden", "8"],
              ["--data", "d.jsonl", "--arch", "srnn"], ["--data", "d.jsonl", "--out", "m.json", "--arch", "lstm"]),
    "eval": (["--model", "m.json", "--data", "d.jsonl", "--pth", "0.8", "--out", "r.json"], ["--model", "m.json"],
             ["--model", "m.json", "--data", "d.jsonl", "--pth", "high"]),
    "anticipate": (["--model", "m.json", "--stream", "--pth", "0.9"], ["--stream"],
                   ["--model", "m.json", "--data", "d.jsonl", "--pth", "x"]),
    "sweep": (["--model", "m.json", "--data", "d.jsonl", "--grid", "0.5,0.9"], ["--data", "d.jsonl"],
              ["--model", "m.json", "--data", "d.jsonl", "--grid", "a,b"]),
    "xval": (["--data", "d.jsonl", "--arch", "aiohmm", "--states", "2", "--setting", "lane"], ["--arch", "aiohmm"],
             ["--data", "d.jsonl", "--arch", "aiohmm", "--setting", "highway"]),
    "gradcheck": (["--arch", "frnn-el", "--steps", "3"], ["--seed", "1"], ["--arch", "srnn", "--tol", "tiny"]),
    "report": (["--in", "r.json", "--format", "csv"], ["--format", "csv"], ["--in", "r.json", "--format", "xml"]),
}


def words(text: str) -> str:
    """``text`` with each run of whitespace made one space, so that a usage
    line reads the same however the terminal width wrapped it."""
    return " ".join(text.split())


def parse(parser, argv, capsys):
    """(namespace or None, exit status or None, stdout, stderr) of parsing ``argv``."""
    try:
        args, status = parser.parse_args(argv), None
    except SystemExit as exit_:
        args, status = None, exit_.code
    captured = capsys.readouterr()
    return args, status, captured.out, captured.err


class TestOneParser:
    """A run builds only its command's parser; it must parse, help and
    refuse exactly as the parser of all eight commands does."""

    def test_cases_cover_every_command(self):
        assert list(PARSER_CASES) == list(COMMANDS)
        assert COMMAND_LIST == "{" + ",".join(COMMANDS) + "}"

    @pytest.mark.parametrize("command", list(PARSER_CASES))
    def test_valid_argv_gives_an_equal_namespace(self, command, capsys):
        argv = [command, *PARSER_CASES[command][0]]
        one = parse(build_parser(command), argv, capsys)
        assert one == parse(build_parser(), argv, capsys)
        assert one[0] is not None and one[0].command == command and one[2:] == ("", "")

    @pytest.mark.parametrize("case", ["help", "missing-flag", "unknown-flag", "bad-value"])
    @pytest.mark.parametrize("command", list(PARSER_CASES))
    def test_help_and_refusals_are_the_full_parsers(self, command, case, capsys):
        valid, missing, bad = PARSER_CASES[command]
        argv = {"help": ["--help"], "missing-flag": missing, "unknown-flag": [*valid, "--bogus"],
                "bad-value": bad}[case]
        one = parse(build_parser(command), [command, *argv], capsys)
        assert one == parse(build_parser(), [command, *argv], capsys)
        if case == "help":
            assert one[1] == 0 and one[2].startswith(f"usage: maneuverkit {command} [-h]") and one[3] == ""
        else:
            assert one[1] == 2 and one[2] == "" and "error: " in one[3]
        if case == "unknown-flag":  # refused by the top-level parser, under its usage line
            assert words(one[3]) == (f"usage: maneuverkit [-h] {COMMAND_LIST} ... "
                                     "maneuverkit: error: unrecognized arguments: --bogus")

    @pytest.mark.parametrize("argv, status", [(["--help"], 0), ([], 2), (["bogus"], 2), (["-h", "eval"], 0)],
                             ids=["help", "no-command", "unknown-command", "help-before-command"])
    def test_top_level_lists_every_command(self, argv, status, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        captured = capsys.readouterr()
        assert exit_.value.code == status
        text = captured.out if status == 0 else captured.err
        assert words(text).startswith(f"usage: maneuverkit [-h] {COMMAND_LIST} ... ")
        if status == 0:
            for name, (help_text, _, _) in COMMANDS.items():
                assert f" {name} {help_text} " in words(text)
        elif argv:
            assert "error: argument command: invalid choice: 'bogus' (choose from" in text
            assert all(f"'{name}'" in text for name in COMMANDS)
        else:
            assert text.endswith("error: the following arguments are required: command\n")

    @pytest.mark.parametrize("from_sys_argv", [False, True])
    def test_main_builds_only_the_commands_parser(self, monkeypatch, from_sys_argv):
        built = []

        def recording(command=None):
            built.append(command)
            return build_parser(command)

        monkeypatch.setattr("maneuverkit.cli.build_parser", recording)
        argv = ["gradcheck", "--arch", "aiohmm"]
        if from_sys_argv:
            monkeypatch.setattr("sys.argv", ["maneuverkit", *argv])
        assert main(None if from_sys_argv else argv) == 1  # refused after parsing
        assert built == ["gradcheck"]
        with pytest.raises(SystemExit):  # that parser knows no other command
            build_parser("gradcheck").parse_args(["eval", "--model", "m.json", "--data", "d.jsonl"])


class TestReports:
    def test_eval_report_renders_text_and_csv(self, tmp_path, capsys):
        d = tmp_path / "d.jsonl"
        m = tmp_path / "m.json"
        r = tmp_path / "r.json"
        main(["synth", "--n", "40", "--seed", "5", "--out", str(d)])
        main(["train", "--data", str(d), "--arch", "frnn-el", "--hidden", "6",
              "--epochs", "2", "--lr", "2e-3", "--seed", "1", "--out", str(m)])
        main(["eval", "--model", str(m), "--data", str(d), "--out", str(r)])
        capsys.readouterr()

        code, out = run(["report", "--in", str(r), "--format", "text"], capsys)
        assert code == 0 and "counts:" in out
        code, out = run(["report", "--in", str(r), "--format", "csv"], capsys)
        assert code == 0
        assert out.startswith("metric,value")
        assert "confusion," in out

    def test_sweep_report_round_trips(self, tmp_path, capsys):
        d = tmp_path / "d.jsonl"
        m = tmp_path / "m.json"
        r = tmp_path / "sweep.json"
        main(["synth", "--n", "30", "--seed", "6", "--out", str(d)])
        main(["train", "--data", str(d), "--arch", "srnn", "--hidden", "6",
              "--epochs", "2", "--lr", "2e-3", "--seed", "1", "--out", str(m)])
        main(["sweep", "--model", str(m), "--data", str(d), "--grid", "0.5,0.7",
              "--out", str(r)])
        capsys.readouterr()
        code, out = run(["report", "--in", str(r), "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "p_th,precision,recall,f1,ttm_steps,best"

    def test_xval_writes_table_shaped_report(self, tmp_path, capsys):
        d = tmp_path / "d.jsonl"
        r = tmp_path / "xval.json"
        main(["synth", "--n", "50", "--seed", "7", "--out", str(d)])
        code = main(
            ["xval", "--data", str(d), "--folds", "5", "--arch", "frnn-el",
             "--hidden", "6", "--epochs", "2", "--lr", "2e-3", "--seed", "1",
             "--grid", "0.5,0.7", "--out", str(r)]
        )
        assert code == 0
        doc = json.loads(r.read_text())
        assert doc["kind"] == "xval" and len(doc["folds"]) == 5
        assert set(doc["mean"]) == {"precision", "recall", "f1", "ttm_steps"}
        assert set(doc["stderr"]) == {"precision", "recall", "f1", "ttm_steps"}


class TestStreaming:
    def test_stream_mode_emits_probabilities(self, tmp_path, capsys, monkeypatch):
        import io

        d = tmp_path / "d.jsonl"
        m = tmp_path / "m.json"
        main(["synth", "--n", "30", "--seed", "8", "--out", str(d)])
        main(["train", "--data", str(d), "--arch", "frnn-el", "--hidden", "6",
              "--epochs", "1", "--seed", "1", "--out", str(m)])
        capsys.readouterr()
        steps = [
            {"x": [1, 0, 0, 50, 52, 48], "z": [0.1] * 9},
            {"x": [1, 0, 0, 50, 52, 48], "z": [0.2] * 9},
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(json.dumps(s) for s in steps)))
        code, out = run(["anticipate", "--model", str(m), "--pth", "0.99", "--stream"], capsys)
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert [l["t"] for l in lines] == [1, 2]
        for l in lines:
            assert abs(sum(l["probs"].values()) - 1.0) < 1e-9

    def test_dataset_mode_prints_per_sample_decisions(self, tmp_path, capsys):
        d = tmp_path / "d.jsonl"
        m = tmp_path / "m.json"
        main(["synth", "--n", "10", "--seed", "9", "--out", str(d)])
        main(["train", "--data", str(d), "--arch", "frnn-el", "--hidden", "6",
              "--epochs", "1", "--seed", "1", "--out", str(m)])
        capsys.readouterr()
        code, out = run(["anticipate", "--model", str(m), "--data", str(d), "--pth", "0.5"], capsys)
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert len(lines) == 10
        assert {"id", "predicted", "actual", "t_pred", "ttm_steps", "ttm_seconds"} <= set(lines[0])


STEP = {"x": [1, 0, 0, 50, 52, 48], "z": [0.1] * 9}


@pytest.fixture(scope="module")
def hmm_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("stream")
    d, m = root / "d.jsonl", root / "hmm.json"
    assert main(["synth", "--n", "60", "--seed", "3", "--out", str(d)]) == 0
    assert main(["train", "--data", str(d), "--arch", "hmm", "--states", "2",
                 "--em-iters", "2", "--seed", "2", "--out", str(m)]) == 0
    return m


# A finite second record large enough to overflow a model's arithmetic.
EXTREME_STREAM = [
    json.dumps(STEP),
    json.dumps({"x": [1e308, -1e308, 0, 1e308, 1e308, -1e308], "z": STEP["z"]}),
    json.dumps({"x": [0, 1, 0, 44, 46, 43], "z": [0.2] * 9}),
]


def stream(model, lines, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(line + "\n" for line in lines)))
    code, out = run(["anticipate", "--model", str(model), "--pth", "0.99", "--stream"], capsys)
    return code, [json.loads(line) for line in out.splitlines()]


@pytest.mark.filterwarnings("error")
def test_zero_class_prior_streams_and_evaluates_without_warnings(
    hmm_checkpoint, tmp_path, monkeypatch, capsys
):
    # A valid checkpoint whose last three classes have prior 0: they get
    # probability exactly 0, are never committed to, and nothing warns.
    header, theta = read_checkpoint(hmm_checkpoint)
    theta_edit(None, "prior", [0.5, 0.5, 0.0, 0.0, 0.0])(header["params"], theta)
    model = tmp_path / "zero_prior.json"
    write_checkpoint(model, header, theta)
    data = hmm_checkpoint.parent / "d.jsonl"
    steps = [json.dumps(step) for step in json.loads(data.read_text().splitlines()[0])["steps"]]
    code, records = stream(model, steps, monkeypatch, capsys)
    assert code == 0 and len(records) == len(steps)
    zeroed = header["params"]["events"][2:]
    for record in records:
        assert all(record["probs"][e] == 0.0 for e in zeroed)
        assert record.get("commit", {}).get("event") not in zeroed
    report = tmp_path / "report.json"
    code, _ = run(["eval", "--model", str(model), "--data", str(data), "--pth", "0.5",
                   "--out", str(report)], capsys)
    assert code == 0
    confusion = np.array(json.loads(report.read_text())["confusion"])  # rows = predicted
    assert not confusion[2:].any()


@pytest.fixture(scope="module")
def extreme_data(tmp_path_factory):
    """(clean, extreme): a synthetic set, and its copy whose sample 0 holds the
    overflowing record of ``EXTREME_STREAM`` at step 2."""
    root = tmp_path_factory.mktemp("extreme")
    clean, extreme = root / "clean.jsonl", root / "extreme.jsonl"
    assert main(["synth", "--n", "40", "--seed", "1", "--out", str(clean)]) == 0
    lines = clean.read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[0])
    doc["steps"][1]["x"] = json.loads(EXTREME_STREAM[1])["x"]
    extreme.write_text("".join(line + "\n" for line in [json.dumps(doc)] + lines[1:]), encoding="utf-8")
    return clean, extreme


BLOCK_COMMANDS = [["eval", "--pth", "0.8"], ["sweep"], ["anticipate", "--pth", "0.8"]]


class TestOverflowingSample:
    # used to score the sample as straight driving, exit 0 and warn on stderr
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", BLOCK_COMMANDS, ids=lambda c: c[0])
    def test_stops_aiohmm_scoring_with_the_sample_named(self, extreme_data, capsys, caplog, command):
        m = Path(__file__).parent / "data" / "aiohmm_s2.json"
        code, out = run([command[0], "--model", str(m), "--data", str(extreme_data[1]), *command[1:]],
                        capsys)
        assert code == 1
        assert out == ""
        assert "sample 'syn-00000' step 2: the probabilities are not finite" in caplog.text

    # The network's saturated gates keep its probabilities finite, so nothing stops or warns;
    # at p_th 0.8 the record changes no decision, while the sweep's 0.2 point commits on it.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", BLOCK_COMMANDS, ids=lambda c: c[0])
    def test_runs_through_a_fusion_checkpoint(self, extreme_data, capsys, command):
        m = Path(__file__).parent / "data" / "fusion_h2.json"
        (clean_code, clean), (code, out) = [
            run([command[0], "--model", str(m), "--data", str(d), *command[1:]], capsys)
            for d in extreme_data
        ]
        assert clean_code == code == 0
        if command[0] != "sweep":
            assert out == clean

    # The fit of the class holding the record stops by name, with no traceback
    # and no NumPy overflow warning.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", [["train", "--out", "m.json"], ["xval"]], ids=lambda c: c[0])
    def test_stops_an_aiohmm_fit_with_the_event_named(
        self, extreme_data, tmp_path, monkeypatch, capsys, caplog, command
    ):
        monkeypatch.chdir(tmp_path)
        code, out = run([command[0], "--data", str(extreme_data[1]), "--arch", "aiohmm", "--states", "2",
                         "--em-iters", "5", "--seed", "2", *command[1:]], capsys)
        event = json.loads(extreme_data[1].read_text(encoding="utf-8").splitlines()[0])["label"]
        assert code == 1
        assert out == ""
        assert f"fit of event {event!r}: log-space forward pass degenerated" in caplog.text
        assert not (tmp_path / "m.json").exists()

    # The network's gates saturate on the record without a warning, and the loss stays finite.
    @pytest.mark.filterwarnings("error")
    def test_trains_a_network_through(self, extreme_data, tmp_path, capsys):
        m = tmp_path / "m.json"
        code, _ = run(["train", "--data", str(extreme_data[1]), "--arch", "frnn-el", "--hidden", "8",
                       "--epochs", "2", "--seed", "2", "--out", str(m)], capsys)
        assert code == 0
        assert m.exists()


DATA = Path(__file__).parent / "data"

# Event tuples a model can hold: one to four maneuvers in any order, then straight.
EVENT_TUPLES = st.lists(st.sampled_from(EVENTS[:-1]), min_size=1, max_size=4, unique=True).map(
    lambda maneuvers: (*maneuvers, STRAIGHT))
# Finite floats, with the edge cases of their shortest repr: zero, the least
# subnormal, one, and values that take 17 significant digits.
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, 1.0, 0.30000000000000004, 0.9999999999999999, 1.7976931348623157e308])


@st.composite
def stream_records(draw):
    """(events, finite values, t, committed index or None) of one record."""
    events = draw(EVENT_TUPLES)
    values = draw(st.lists(FINITE, min_size=len(events), max_size=len(events)))
    return events, values, draw(st.integers(1, 10**12)), draw(st.none() | st.integers(0, len(events) - 1))


class TestStreamBytes:
    # The committed outputs were written before the stream's records were
    # preformatted: the bytes must not move.
    @pytest.mark.parametrize("name", ["fusion_h2", "aiohmm_s2"])
    def test_stream_output_is_byte_identical_to_the_committed_one(self, monkeypatch, capsys, name):
        steps = (DATA / "stream_steps.jsonl").read_text(encoding="utf-8")
        monkeypatch.setattr("sys.stdin", io.StringIO(steps))
        code, out = run(["anticipate", "--model", str(DATA / f"{name}.json"), "--pth", "0.8", "--stream"],
                        capsys)
        assert code == 0
        assert out.encode("utf-8") == (DATA / f"stream_{name}.jsonl").read_bytes()

    def test_committed_steps_carry_onsets_and_commits(self):
        # what the byte comparison above covers
        assert '"onset"' in (DATA / "stream_steps.jsonl").read_text(encoding="utf-8")
        assert '"commit"' in (DATA / "stream_aiohmm_s2.jsonl").read_text(encoding="utf-8")

    @settings(max_examples=300, deadline=None)
    @given(stream_records())
    @example((EVENTS, [0.0, 5e-324, 1.0, 0.30000000000000004, 0.1], 1, 3))
    @example((EVENTS[2:], [0.9999999999999999, 5e-324, 1.7976931348623157e308], 7, None))
    def test_record_is_what_json_dumps_writes(self, record):
        events, values, t, commit = record
        validate_events(events)
        doc = {"t": t, "probs": dict(zip(events, values))}
        if commit is not None:
            doc["commit"] = {"event": events[commit], "p": values[commit]}
        assert _record_writer(events)(t, values, commit) == json.dumps(doc) + "\n"


class TestStreamRecords:
    # A straight onset used to be scored as a missed maneuver.
    @pytest.mark.parametrize("kind", ["hmm", "fusion"])
    def test_straight_onset_stops_with_located_error(self, hmm_checkpoint, monkeypatch, capsys, caplog, kind):
        model = hmm_checkpoint if kind == "hmm" else Path(__file__).parent / "data" / "fusion_h2.json"
        lines = [json.dumps(STEP), json.dumps({**STEP, "onset": "straight"}), json.dumps(STEP)]
        code, records = stream(model, lines, monkeypatch, capsys)
        assert code == 1
        assert [r["t"] for r in records] == [1]
        assert ("stdin line 2: field 'onset' is 'straight', not one of "
                "['left_lane', 'right_lane', 'left_turn', 'right_turn']") in caplog.text

    def test_known_onset_is_accepted(self, hmm_checkpoint, monkeypatch, capsys):
        lines = [json.dumps(STEP), json.dumps({**STEP, "onset": "left_turn"})]
        code, records = stream(hmm_checkpoint, lines, monkeypatch, capsys)
        assert code == 0
        assert [r["t"] for r in records] == [1, 2]

    @pytest.mark.parametrize(
        "bad, message",
        [
            ('{"z": [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]}', "missing field 'x'"),
            (json.dumps({"x": STEP["x"], "z": [0.1] * 8}), "field 'z' must be a list of 9 numbers"),
            (json.dumps({"x": STEP["x"][:5], "z": STEP["z"]}), "field 'x' must be a list of 6 numbers"),
            (json.dumps({"x": ["a"] * 6, "z": STEP["z"]}), "field 'x' must be a list of 6 numbers"),
            (json.dumps({"x": ["1.5"] * 6, "z": STEP["z"]}), "field 'x' must be a list of 6 numbers"),
            (json.dumps({"x": STEP["x"], "z": [True] + STEP["z"][1:]}), "field 'z' must be a list of 9 numbers"),
            ("{not json", "not a JSON record"),
            ("[1, 2]", "expected a JSON object"),
            (json.dumps({**STEP, "onset": "bogus"}), "field 'onset' is 'bogus'"),
            (json.dumps({**STEP, "onset": True}), "field 'onset' is True"),
            (json.dumps({"x": STEP["x"], "z": [float("nan")] * 9}), "field 'z' must be finite"),
            (json.dumps({"x": [float("inf")] + STEP["x"][1:], "z": STEP["z"]}), "field 'x' must be finite"),
            (json.dumps({"x": STEP["x"], "z": [-float("inf")] + STEP["z"][1:]}), "field 'z' must be finite"),
            pytest.param(json.dumps({**STEP, "x": [10**400] + STEP["x"][1:]}),
                         "field 'x' must be a list of 6 numbers", id="integer-beyond-float-range"),
        ],
    )
    def test_malformed_record_stops_with_located_error(
        self, hmm_checkpoint, monkeypatch, capsys, caplog, bad, message
    ):
        lines = [json.dumps(STEP), "", bad, json.dumps(STEP)]
        code, records = stream(hmm_checkpoint, lines, monkeypatch, capsys)
        assert code == 1
        assert [r["t"] for r in records] == [1]
        assert f"stdin line 3: {message}" in caplog.text

    def test_non_finite_record_stops_a_fusion_stream(self, tmp_path, monkeypatch, capsys, caplog):
        d, m = tmp_path / "d.jsonl", tmp_path / "m.json"
        assert main(["synth", "--n", "20", "--seed", "4", "--out", str(d)]) == 0
        assert main(["train", "--data", str(d), "--arch", "frnn-el", "--hidden", "4",
                     "--epochs", "1", "--seed", "1", "--out", str(m)]) == 0
        capsys.readouterr()
        lines = [json.dumps(STEP), json.dumps({"x": STEP["x"], "z": [0.1] * 8 + [float("nan")]})]
        code, records = stream(m, lines, monkeypatch, capsys)
        assert code == 1
        assert [r["t"] for r in records] == [1]
        assert "stdin line 2: field 'z' must be finite" in caplog.text

    @pytest.mark.filterwarnings("error")
    def test_overflowing_record_stops_an_aiohmm_stream(self, monkeypatch, capsys, caplog):
        # The record is finite, so it parses, but it overflows the emission
        # densities: the stream stops at its line instead of printing NaN.
        # The finiteness check is the guard, so the overflow warns nowhere.
        m = Path(__file__).parent / "data" / "aiohmm_s2.json"
        code, before = stream(m, [json.dumps(STEP)], monkeypatch, capsys)
        assert code == 0
        code, records = stream(m, EXTREME_STREAM, monkeypatch, capsys)
        assert code == 1
        assert records == before
        assert "stdin line 2: the step's probabilities are not finite" in caplog.text

    @pytest.mark.filterwarnings("error")
    def test_overflowing_record_streams_through_a_fusion_checkpoint(self, monkeypatch, capsys):
        m = Path(__file__).parent / "data" / "fusion_h2.json"
        code, records = stream(m, EXTREME_STREAM, monkeypatch, capsys)
        assert code == 0
        model, _, _ = load_model(m)
        predictor = FusionRnnPredictor(model)
        state = predictor.begin()
        for t, (line, record) in enumerate(zip(EXTREME_STREAM, records), 1):
            step = json.loads(line)
            with np.errstate(over="ignore"):  # the saturating gates, as in the stream
                state, probs = predictor.step(state, np.array(step["x"], float), np.array(step["z"], float))
            assert record == {"t": t, "probs": dict(zip(predictor.events, probs.tolist()))}
        assert len(records) == len(EXTREME_STREAM)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p, t: t[:0], "field 'theta' does not fit the declared sizes (theta must be a contiguous "
                                 "float64 vector of 205 entries, got float64 (0,))"),
            (lambda p, t: t[:1],
             "field 'theta' does not fit the declared sizes (theta must be a contiguous float64 vector "
             "of 205 entries, got float64 (1,))"),
            (theta_set(204, float("nan")), "field 'theta' contains non-finite values"),
            (cut_payload(2), "field 'theta' is not a whole number of doubles (the payload holds 1638 bytes)"),
            (lambda p, t: p.update(theta=[0.5]), "unexpected field 'theta'"),
        ],
        ids=["empty-payload", "misshaped", "nan", "cut-payload", "theta-in-header"],
    )
    def test_bad_fusion_checkpoint_stops_with_located_error(
        self, tmp_path, monkeypatch, capsys, caplog, edit, message
    ):
        m = edited_checkpoint(tmp_path, edit)
        code, records = stream(m, [json.dumps(STEP)], monkeypatch, capsys)
        assert code == 1
        assert records == []
        assert f"{m}: {message}" in caplog.text

    @pytest.mark.parametrize(
        "edit, message",
        [
            (theta_edit("left_turn", "mu", np.full((2, 9), np.nan)), "field 'theta' contains non-finite values"),
            (theta_edit("left_turn", "sigma", -np.ones((2, 9, 9))),
             "model 'left_turn': sigma[0] is not positive definite"),
            (lambda p, t: t[:0], "field 'theta' does not fit the declared sizes"),
            (lambda p, t: p.update(states=3), "field 'theta' does not fit the declared sizes"),
            (lambda p, t: p.update(prior=[0.5, 0.5, 0.0, 0.0, 0.0]), "unexpected field 'prior'"),
        ],
        ids=["nan", "sigma", "empty-payload", "states-plus-one", "prior-in-header"],
    )
    def test_bad_hmm_checkpoint_stops_with_located_error(
        self, hmm_checkpoint, tmp_path, monkeypatch, capsys, caplog, edit, message
    ):
        m = write_edited(tmp_path, *read_checkpoint(hmm_checkpoint), edit)
        code, records = stream(m, [json.dumps(STEP)], monkeypatch, capsys)
        assert code == 1
        assert records == []
        assert f"{m}: {message}" in caplog.text


@pytest.fixture(scope="module")
def wide_z_dataset(tmp_path_factory):
    """A valid dataset whose z rows have 12 entries, not the synthetic 9."""
    root = tmp_path_factory.mktemp("wide")
    d, wide = root / "d.jsonl", root / "wide.jsonl"
    assert main(["synth", "--n", "10", "--seed", "1", "--out", str(d)]) == 0
    with wide.open("w", encoding="utf-8") as fh:
        for line in d.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            for step in record["steps"]:
                step["z"] = step["z"] + [0.0] * 3
            fh.write(json.dumps(record) + "\n")
    return wide


class TestModelDataSizes:
    @pytest.mark.parametrize("command", [
        ["eval"], ["sweep", "--grid", "0.5,0.9"], ["anticipate", "--pth", "0.7"],
    ], ids=["eval", "sweep", "anticipate"])
    @pytest.mark.parametrize("kind", ["fusion", "aiohmm"])
    def test_mismatched_sizes_name_both_files(
        self, hmm_checkpoint, wide_z_dataset, capsys, caplog, command, kind
    ):
        model = Path(__file__).parent / "data" / "fusion_h2.json" if kind == "fusion" else hmm_checkpoint
        code, out = run([*command, "--model", str(model), "--data", str(wide_z_dataset)], capsys)
        assert code == 1
        assert out == ""
        assert (f"{wide_z_dataset} has (x, z) sizes (6, 12), but the model {model} "
                f"expects (6, 9)") in caplog.text


@pytest.fixture(scope="module")
def fusion_run(tmp_path_factory):
    """A small dataset and a fusion checkpoint trained on it."""
    root = tmp_path_factory.mktemp("fusion")
    d, m = root / "d.jsonl", root / "m.json"
    assert main(["synth", "--n", "40", "--seed", "11", "--out", str(d)]) == 0
    assert main(["train", "--data", str(d), "--arch", "frnn-el", "--hidden", "4",
                 "--epochs", "2", "--lr", "5e-3", "--seed", "1", "--out", str(m)]) == 0
    return d, m


class TestReportText:
    @pytest.mark.parametrize("command", [
        ["eval", "--pth", "0.4"],
        ["sweep", "--grid", "0.3,0.5,0.9"],
        ["xval", "--arch", "frnn-el", "--hidden", "4", "--epochs", "1", "--folds", "2",
         "--grid", "0.3,0.6"],
    ], ids=["eval", "sweep", "xval"])
    def test_stdout_is_the_report_rendering(self, fusion_run, tmp_path, capsys, command):
        d, m = fusion_run
        r = tmp_path / "r.json"
        model = [] if command[0] == "xval" else ["--model", str(m)]
        code, printed = run([*command, *model, "--data", str(d), "--out", str(r)], capsys)
        assert code == 0
        code, rendered = run(["report", "--in", str(r), "--format", "text"], capsys)
        assert code == 0
        assert printed == rendered
        assert printed.startswith("  p_th=" if command[0] == "sweep" else ("evaluation", "cross-validation"))
        if command[0] == "eval":
            assert "  session: " in printed and "  macro: " in printed

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_saved_eval_report_with_only_a_session_section_renders(self, tmp_path, capsys, fmt):
        # Eval reports saved before every report carried both sections may
        # hold only the session scores.
        doc = {"kind": "eval", "events": ["left_lane", "straight"], "p_th": 0.7,
               "counts": {"tp": 1, "fp": 0, "fpp": 1, "mp": 0}, "ttm_steps": 2.0,
               "confusion": [[1, 1], [0, 3]],
               "session": {"precision": 0.5, "recall": 1.0, "f1": 2 / 3}}
        r = tmp_path / "r.json"
        r.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run(["report", "--in", str(r), "--format", fmt], capsys)
        assert code == 0
        if fmt == "text":
            assert "  session: precision=0.5 recall=1 f1=0.666667" in out
        else:
            assert "session_precision,0.5\nsession_recall,1\nsession_f1,0.666667\n" in out
        assert "macro" not in out

    def test_confusion_header_is_aligned_with_its_columns(self, tmp_path, capsys):
        events = ["left_lane", "right_lane", "left_turn", "right_turn", "straight"]
        doc = {"kind": "eval", "events": events, "p_th": 0.7,
               "counts": {"tp": 1, "fp": 0, "fpp": 0, "mp": 0}, "ttm_steps": 2.0,
               "confusion": [[1000 * (i + 1) + j for j in range(5)] for i in range(5)]}
        r = tmp_path / "r.json"
        r.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run(["report", "--in", str(r)], capsys)
        assert code == 0
        lines = out.splitlines()
        header = lines.index("  confusion (rows = predicted, cols = actual):") + 1
        ends = [m.end() for m in re.finditer(r"\S+", lines[header])]
        assert len(ends) == 5
        for line in lines[header + 1 : header + 6]:
            assert [m.end() for m in re.finditer(r"\S+", line)][1:] == ends


@pytest.fixture(scope="module")
def lane_runs(tmp_path_factory):
    """A 60-sample dataset, the same file without its turn samples, and a
    network and an HMM ensemble trained with ``--setting lane`` on it."""
    root = tmp_path_factory.mktemp("lane")
    d, lanes = root / "d.jsonl", root / "lanes.jsonl"
    assert main(["synth", "--n", "60", "--seed", "1", "--out", str(d)]) == 0
    lanes.write_text("".join(line + "\n" for line in d.read_text(encoding="utf-8").splitlines()
                             if not json.loads(line)["label"].endswith("_turn")), encoding="utf-8")
    models = {}
    for kind, flags in (("network", ["--arch", "frnn-el", "--hidden", "4", "--epochs", "1"]),
                        ("hmm", ["--arch", "hmm", "--states", "2", "--em-iters", "2"])):
        models[kind] = root / f"{kind}.json"
        assert main(["train", "--data", str(d), *flags, "--setting", "lane", "--out", str(models[kind])]) == 0
    return d, lanes, models


class TestSettingCheckpoint:
    @pytest.mark.parametrize("command", [
        ["eval", "--pth", "0.5"], ["sweep", "--grid", "0.3,0.6,0.9"], ["anticipate", "--pth", "0.5"],
    ], ids=["eval", "sweep", "anticipate"])
    @pytest.mark.parametrize("kind", ["network", "hmm"])
    def test_scores_its_own_events_only(self, lane_runs, tmp_path, capsys, command, kind):
        # a checkpoint trained on the lane events scores the full file as
        # it scores the file without its turn samples
        d, lanes, models = lane_runs
        outs = []
        for data in (d, lanes):
            out = ["--out", str(tmp_path / f"{data.stem}.json")] if command[0] != "anticipate" else []
            code, printed = run([*command, "--model", str(models[kind]), "--data", str(data), *out], capsys)
            assert code == 0
            outs.append(printed)
        assert outs[0] == outs[1]
        if command[0] == "anticipate":
            assert len(outs[0].splitlines()) == len(lanes.read_text(encoding="utf-8").splitlines()) < 60
        else:
            assert (tmp_path / "d.json").read_bytes() == (tmp_path / "lanes.json").read_bytes()


class TestMalformedReports:
    @pytest.mark.parametrize("doc, fmt, message", [
        ([1, 2], "text", "a report must be a JSON object"),
        ([1, 2], "csv", "a report must be a JSON object"),
        ({"kind": "eval"}, "text", "'eval' report lacks field 'p_th'"),
        ({"kind": "eval"}, "csv", "'eval' report lacks field 'counts'"),
        ({"kind": "eval", "p_th": 0.5, "counts": {"tp": 1}}, "text",
         "'eval' report lacks field 'fp'"),
        ({"kind": "sweep", "points": [{}]}, "text", "'sweep' report lacks field 'p_th'"),
        ({"kind": "sweep", "points": [{"p_th": 0.5}]}, "text",
         "'sweep' report lacks field 'precision'"),
        ({"kind": "sweep", "points": [{"p_th": 0.5, "precision": 1, "recall": 1, "f1": 1}]},
         "text", "'sweep' report lacks field 'best'"),
        ({"kind": "sweep", "points": [{"p_th": 0.5}]}, "csv",
         "'sweep' report lacks field 'precision'"),
        ({"kind": "xval", "folds": []}, "csv", "'xval' report lacks field 'mean'"),
        ({"kind": "eval", "p_th": 0.5, "counts": 3}, "text", "malformed report"),
        ({"kind": "sweep", "points": [{"p_th": 0.5, "precision": "high"}]}, "csv",
         "malformed report"),
        ({"kind": "bogus"}, "csv", "malformed report (cannot render report of kind 'bogus' as CSV)"),
        ({"kind": "bogus", "x": 1}, "text", "malformed report (cannot render report of kind 'bogus' as text)"),
        ({"x": 1}, "text", "malformed report (cannot render report of kind '?' as text)"),
        ({"x": 1}, "csv", "malformed report (cannot render report of kind '?' as CSV)"),
    ])
    def test_malformed_report_is_a_located_error(self, tmp_path, capsys, caplog, doc, fmt, message):
        r = tmp_path / "r.json"
        r.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run(["report", "--in", str(r), "--format", fmt], capsys)
        assert code == 1
        assert out == ""
        assert f"{r}: {message}" in caplog.text


    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_report_that_is_not_json_is_a_located_error(self, tmp_path, capsys, caplog, fmt):
        r = tmp_path / "r.json"
        r.write_text("{not json", encoding="utf-8")
        code, out = run(["report", "--in", str(r), "--format", fmt], capsys)
        assert code == 1
        assert out == ""
        assert f"{r}: malformed JSON (" in caplog.text


class TestTrainerFactory:
    def test_xval_fold_trains_the_network_train_writes_with_seed_plus_fold(
        self, fusion_run, tmp_path, monkeypatch
    ):
        d, _ = fusion_run
        flags = ["--arch", "frnn-el", "--hidden", "3", "--epochs", "2", "--lr", "5e-3",
                 "--augment-factor", "1.5"]
        networks = []

        def recording_train(dataset, model, config):
            report = train(dataset, model, config)
            networks.append(report.model)
            return report

        train = training.train
        monkeypatch.setattr(training, "train", recording_train)
        assert main(["xval", "--data", str(d), "--folds", "3", "--seed", "7",
                     "--grid", "0.5", *flags]) == 0
        monkeypatch.undo()
        assert len(networks) == 3

        folds = split_folds(load_dataset(d), 3, 7)
        for k, network in enumerate(networks):
            split, m = tmp_path / f"train{k}.jsonl", tmp_path / f"m{k}.json"
            save_dataset([s for j, f in enumerate(folds) if j != k for s in f], split)
            assert main(["train", "--data", str(split), "--seed", str(7 + k),
                         "--out", str(m), *flags]) == 0
            assert np.array_equal(load_model(m)[0].theta, network.theta)
        assert not np.array_equal(networks[0].theta, networks[1].theta)

    def test_hmm_training_logs_no_warning(self, tmp_path, caplog):
        caplog.set_level(logging.INFO)
        d = tmp_path / "d.jsonl"
        assert main(["synth", "--n", "60", "--seed", "3", "--out", str(d)]) == 0
        assert main(["train", "--data", str(d), "--arch", "aiohmm", "--states", "2",
                     "--em-iters", "3", "--seed", "2", "--out", str(tmp_path / "m.json")]) == 0
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []
        summaries = [r for r in caplog.records if r.funcName == "fit_em"]
        assert len(summaries) == 5
        assert all(r.levelno == logging.INFO and len(r.args) == 2 for r in summaries)
