"""Command-line behaviour: exit codes, file outputs, replayability."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from ringveil import cli, crypto, protocol, schedule, simnet

SCHED_TEXT = "device 1\ndevice 2\ndevice 3\ndevice 4\npair 1 2\npair 3 4\n"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv):
    """Run the CLI in a fresh interpreter, so an uncaught error shows on stderr."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run(
        [sys.executable, "-m", "ringveil.cli", *argv], env=env, capture_output=True, text=True
    )


class TestParsing:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "sim", "run", "--bogus")
        assert code == cli.EXIT_USAGE

    def test_bare_invocation_prints_help(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == cli.EXIT_USAGE
        assert "usage" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "ringveil" in out


class TestColdStart:
    def test_cli_import_leaves_scipy_unloaded(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        probe = "import sys, ringveil.cli; print('scipy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestScheduleCompile:
    def test_two_pair_schedule_yields_four_puzzles(self, tmp_path, capsys):
        sched = tmp_path / "s.txt"
        sched.write_text(SCHED_TEXT)
        out = tmp_path / "plan.json"
        code, stdout, _ = run_cli(
            capsys, "schedule", "compile", str(sched),
            "--out", str(out), "--modulus-bits", "64", "--seed", "3",
        )
        assert code == 0
        plan = schedule.plan_from_json(out.read_text())
        assert len(plan.entries) == 4
        assert json.loads(stdout)["devices"] == 4

    def test_saved_params_verify_reports_from_a_run(self, tmp_path, capsys):
        # The params file must be enough to audit execution reports later.
        sched = tmp_path / "s.txt"
        sched.write_text(SCHED_TEXT)
        plan_path = tmp_path / "plan.json"
        params_path = tmp_path / "params.json"
        code, _, _ = run_cli(
            capsys, "schedule", "compile", str(sched),
            "--out", str(plan_path), "--params-out", str(params_path),
            "--modulus-bits", "64", "--seed", "3",
        )
        assert code == 0
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "sim", "run", "--mode", "ring", "--devices", "4",
            "--rounds", "12", "--seed", "3", "--modulus-bits", "64",
            "--schedule", str(plan_path), "--out-dir", str(out_dir),
        )
        assert code == 0
        secrets = json.loads(params_path.read_text())
        params = crypto.PuzzleParams.from_primes(secrets["p"], secrets["q"])
        assert params.n == secrets["n"]
        plan = schedule.plan_from_json(plan_path.read_text())
        reports = [
            protocol.ExecutionReport(r["device_id"], r["t_com"], r["t_hat"], r["solution"])
            for r in json.loads((out_dir / "reports.json").read_text())
        ]
        assert reports
        assert protocol.owner_verify_execution(reports, params, plan)

    def test_params_out_generates_params_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        gen_params = crypto.gen_params

        def counting(*args, **kwargs):
            calls.append(args)
            return gen_params(*args, **kwargs)

        monkeypatch.setattr(crypto, "gen_params", counting)
        sched = tmp_path / "s.txt"
        sched.write_text(SCHED_TEXT)
        plan_path = tmp_path / "plan.json"
        params_path = tmp_path / "params.json"
        code, _, _ = run_cli(
            capsys, "schedule", "compile", str(sched),
            "--out", str(plan_path), "--params-out", str(params_path),
            "--modulus-bits", "64", "--seed", "3",
        )
        assert code == 0
        assert len(calls) == 1
        n = json.loads(params_path.read_text())["n"]
        plan = schedule.plan_from_json(plan_path.read_text())
        assert {e.puzzle.n for e in plan.entries} == {n}

    @pytest.mark.parametrize("rate, slot_length", [("1", 3082), ("7", 2225)])
    def test_summary_json_is_pinned(self, tmp_path, capsys, rate, slot_length):
        sched = tmp_path / "s.txt"
        sched.write_text(SCHED_TEXT)
        out = tmp_path / "plan.json"
        code, stdout, _ = run_cli(
            capsys, "schedule", "compile", str(sched), "--out", str(out),
            "--modulus-bits", "64", "--seed", "3", "--squaring-rate", rate,
        )
        assert code == 0
        assert json.loads(stdout) == {
            "devices": 4,
            "slot_length_us": slot_length,
            "out": str(out),
        }
        plan = schedule.plan_from_json(out.read_text())
        assert slot_length == -(-max(e.t_hat for e in plan.entries) // int(rate))

    def test_malformed_line_diagnoses_line_number(self, tmp_path, capsys):
        sched = tmp_path / "s.txt"
        sched.write_text("device 1\npair 1\n")
        code, _, err = run_cli(capsys, "schedule", "compile", str(sched))
        assert code == cli.EXIT_USAGE
        assert "line 2" in err

    def test_empty_file_gives_empty_plan(self, tmp_path, capsys):
        sched = tmp_path / "s.txt"
        sched.write_text("")
        out = tmp_path / "plan.json"
        code, _, _ = run_cli(
            capsys, "schedule", "compile", str(sched), "--out", str(out),
            "--modulus-bits", "64",
        )
        assert code == 0
        assert schedule.plan_from_json(out.read_text()).entries == ()

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "schedule", "compile", str(tmp_path / "no.txt"))
        assert code == cli.EXIT_IO


class TestPuzzleCommands:
    def gen_toy(self, tmp_path, capsys):
        puz = tmp_path / "p.hex"
        sec = tmp_path / "s.json"
        code, _, _ = run_cli(
            capsys, "puzzle", "gen", "--p", "5", "--q", "11", "--a", "2",
            "--t-hat", "3", "--key", "17", "--command", "hi",
            "--out", str(puz), "--secrets-out", str(sec),
        )
        assert code == 0
        return puz, sec

    def test_gen_then_solve_recovers_key(self, tmp_path, capsys):
        puz, _ = self.gen_toy(tmp_path, capsys)
        sol = tmp_path / "sol.json"
        code, stdout, _ = run_cli(capsys, "puzzle", "solve", str(puz), "--out", str(sol))
        assert code == 0
        report = json.loads(stdout)
        assert report["key"] == 17
        assert report["command"] == "hi"
        assert report["squarings_performed"] == 3

    def test_verify_accepts_solve_output(self, tmp_path, capsys):
        puz, sec = self.gen_toy(tmp_path, capsys)
        sol = tmp_path / "sol.json"
        run_cli(capsys, "puzzle", "solve", str(puz), "--out", str(sol))
        code, stdout, _ = run_cli(
            capsys, "puzzle", "verify", str(puz), "--secrets", str(sec),
            "--solution", str(sol),
        )
        assert code == 0
        assert json.loads(stdout)["verified"] is True

    def test_verify_rejects_wrong_key(self, tmp_path, capsys):
        puz, sec = self.gen_toy(tmp_path, capsys)
        code, stdout, _ = run_cli(
            capsys, "puzzle", "verify", str(puz), "--secrets", str(sec), "--key", "18",
        )
        assert code == cli.EXIT_VERIFY
        assert json.loads(stdout)["verified"] is False

    def test_tampered_payload_fails_solve(self, tmp_path, capsys):
        puz, _ = self.gen_toy(tmp_path, capsys)
        text = puz.read_text().strip()
        flipped = text[:-2] + ("00" if text[-2:] != "00" else "11")
        puz.write_text(flipped)
        code, _, err = run_cli(capsys, "puzzle", "solve", str(puz))
        assert code == cli.EXIT_VERIFY
        assert err

    def test_secrets_without_phi_is_usage_error(self, tmp_path, capsys):
        puz, sec = self.gen_toy(tmp_path, capsys)
        sec.write_text(json.dumps({"n": 55, "key": 17}))
        done = run_cli_process("puzzle", "verify", str(puz), "--secrets", str(sec), "--key", "17")
        assert done.returncode == cli.EXIT_USAGE
        assert "'phi'" in done.stderr
        assert "Traceback" not in done.stderr

    def test_seeded_gen_output_is_pinned(self, tmp_path, capsys):
        # No --p/--q, --key or --a: the seed draws the modulus, the key and the base.
        puz = tmp_path / "p.hex"
        code, _, _ = run_cli(
            capsys, "puzzle", "gen", "--bits", "64", "--t-hat", "5", "--seed", "3",
            "--out", str(puz),
        )
        assert code == 0
        assert puz.read_text() == (
            "00000008ceabd9e52aeeca4f00000008af12346a659bbb67000000000000000540000000"
            "0000000000000008c51aa69697811a02000000200000000000000000000000008e85c951"
            "e74cc03d1d259fc6aa30c364f9e87ae6\n"
        )

    def test_gen_requires_prime_pair_together(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "puzzle", "gen", "--p", "5", "--t-hat", "3",
            "--out", str(tmp_path / "p.hex"),
        )
        assert code == cli.EXIT_USAGE


class TestCalibrate:
    def test_report_fields_and_stability(self, capsys):
        code, out_a, _ = run_cli(capsys, "calibrate", "--modulus-bits", "64",
                                 "--duration-ms", "150")
        assert code == 0
        first = json.loads(out_a)
        assert first["modulus_bits"] == 64
        assert first["squarings_per_second"] > 0
        code, out_b, _ = run_cli(capsys, "calibrate", "--modulus-bits", "64",
                                 "--duration-ms", "150")
        second = json.loads(out_b)
        ratio = first["squarings_per_second"] / second["squarings_per_second"]
        assert 0.8 < ratio < 1.25

    def test_larger_modulus_is_slower(self, capsys):
        _, out_small, _ = run_cli(capsys, "calibrate", "--modulus-bits", "64",
                                  "--duration-ms", "80")
        _, out_large, _ = run_cli(capsys, "calibrate", "--modulus-bits", "512",
                                  "--duration-ms", "80")
        assert (json.loads(out_large)["squarings_per_second"]
                < json.loads(out_small)["squarings_per_second"])


class TestSimRun:
    def run_ring(self, capsys, tmp_path, name, *extra):
        out_dir = tmp_path / name
        code, stdout, _ = run_cli(
            capsys, "sim", "run", "--mode", "ring", "--devices", "3",
            "--rounds", "6", "--modulus-bits", "64", "--seed", "5",
            "--out-dir", str(out_dir), *extra,
        )
        assert code == 0
        return out_dir, json.loads(stdout)

    def test_outputs_and_replay_identical(self, capsys, tmp_path):
        dir_a, _ = self.run_ring(capsys, tmp_path, "a")
        dir_b, _ = self.run_ring(capsys, tmp_path, "b")
        assert (dir_a / "trace.csv").read_bytes() == (dir_b / "trace.csv").read_bytes()
        assert (dir_a / "stats.csv").read_text().splitlines()[0] == cli.STATS_HEADER
        manifest = json.loads((dir_a / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["fingerprint"]

    def test_padding_only_run_has_no_reports(self, capsys, tmp_path):
        out_dir, summary = self.run_ring(capsys, tmp_path, "bare")
        assert summary["reports"] == 0
        assert not (out_dir / "reports.json").exists()

    def test_schedule_text_compiles_and_reports(self, capsys, tmp_path):
        sched = tmp_path / "s.txt"
        sched.write_text("device 1\ndevice 2\ndevice 3\npair 1 2\n")
        out_dir, summary = self.run_ring(
            capsys, tmp_path, "planned", "--schedule", str(sched), "--rounds", "12",
        )
        assert summary["reports"] == 3
        reports = json.loads((out_dir / "reports.json").read_text())
        assert {r["device_id"] for r in reports} == {1, 2, 3}

    def test_compiled_plan_file_accepted(self, capsys, tmp_path):
        sched = tmp_path / "s.txt"
        sched.write_text("device 1\ndevice 2\ndevice 3\n")
        plan_file = tmp_path / "plan.json"
        run_cli(
            capsys, "schedule", "compile", str(sched), "--out", str(plan_file),
            "--modulus-bits", "64", "--seed", "5",
        )
        _, summary = self.run_ring(
            capsys, tmp_path, "fromplan", "--schedule", str(plan_file), "--rounds", "12",
        )
        assert summary["reports"] == 3

    def test_default_parameters_reject_a_narrow_data_field(self, capsys, tmp_path):
        # 512-bit reports need 24 + 64 bytes plus a 2-byte prefix; the
        # default 64-byte sub-field cannot carry them.
        sched = tmp_path / "s.txt"
        sched.write_text(SCHED_TEXT)
        argv = ("sim", "run", "--devices", "4", "--schedule", str(sched))
        code, _, err = run_cli(capsys, *argv, "--out-dir", str(tmp_path / "narrow"))
        assert code == cli.EXIT_USAGE
        assert "at least 90" in err
        code, stdout, _ = run_cli(
            capsys, *argv, "--data-per-device", "90", "--out-dir", str(tmp_path / "wide")
        )
        assert code == 0
        assert json.loads(stdout)["reports"] == 4

    def test_plan_missing_a_field_is_usage_error(self, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({"format": schedule.PLAN_FORMAT}))
        done = run_cli_process(
            "sim", "run", "--schedule", str(plan_file), "--out-dir", str(tmp_path / "x")
        )
        assert done.returncode == cli.EXIT_USAGE
        assert "'ring_size'" in done.stderr
        assert "Traceback" not in done.stderr

    def test_plan_pair_without_an_entry_is_usage_error(self, capsys, tmp_path):
        sched = tmp_path / "s.txt"
        sched.write_text("device 1\ndevice 2\ndevice 3\npair 1 2\n")
        plan_file = tmp_path / "plan.json"
        code, _, _ = run_cli(
            capsys, "schedule", "compile", str(sched), "--out", str(plan_file),
            "--modulus-bits", "64", "--seed", "5",
        )
        assert code == 0
        doc = json.loads(plan_file.read_text())
        doc["pairs"] = [[1, 9]]
        plan_file.write_text(json.dumps(doc))
        done = run_cli_process(
            "sim", "run", "--schedule", str(plan_file), "--modulus-bits", "64",
            "--seed", "5", "--out-dir", str(tmp_path / "x"),
        )
        assert done.returncode == cli.EXIT_USAGE
        assert "pair [1, 9]" in done.stderr
        assert "Traceback" not in done.stderr

    def test_plan_naming_a_device_twice_is_usage_error(self, capsys, tmp_path):
        sched = tmp_path / "s.txt"
        sched.write_text("device 1\ndevice 2\ndevice 3\n")
        plan_file = tmp_path / "plan.json"
        code, _, _ = run_cli(
            capsys, "schedule", "compile", str(sched), "--out", str(plan_file),
            "--modulus-bits", "64", "--seed", "5",
        )
        assert code == 0
        doc = json.loads(plan_file.read_text())
        doc["entries"].append(dict(doc["entries"][1], device_id=1))
        plan_file.write_text(json.dumps(doc))
        done = run_cli_process(
            "sim", "run", "--schedule", str(plan_file), "--modulus-bits", "64",
            "--seed", "5", "--out-dir", str(tmp_path / "x"),
        )
        assert done.returncode == cli.EXIT_USAGE
        assert "device 1 has more than one plan entry" in done.stderr
        assert "Traceback" not in done.stderr

    def test_plan_in_the_retired_format_is_usage_error(self, capsys, tmp_path):
        sched = tmp_path / "s.txt"
        sched.write_text("device 1\ndevice 2\n")
        plan_file = tmp_path / "plan.json"
        code, _, _ = run_cli(
            capsys, "schedule", "compile", str(sched), "--out", str(plan_file),
            "--modulus-bits", "64", "--seed", "5",
        )
        assert code == 0
        doc = dict(json.loads(plan_file.read_text()), format="ringveil-plan-v2")
        plan_file.write_text(json.dumps(doc))
        done = run_cli_process(
            "sim", "run", "--schedule", str(plan_file), "--modulus-bits", "64",
            "--seed", "5", "--out-dir", str(tmp_path / "x"),
        )
        assert done.returncode == cli.EXIT_USAGE
        assert "slots use the retired wrap; recompile" in done.stderr
        assert "Traceback" not in done.stderr

    def test_protocol_error_has_its_own_exit_code(self, capsys, tmp_path, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise protocol.ProtocolError("record exceeds sub-field capacity")

        monkeypatch.setattr(simnet, "run", refuse)
        code, _, err = run_cli(capsys, "sim", "run", "--out-dir", str(tmp_path / "x"))
        assert code == cli.EXIT_PROTOCOL
        assert "protocol failure" in err

    def test_network_defaults_are_the_config_defaults(self, capsys, tmp_path, monkeypatch):
        seen = []

        def record(config, *_args, **_kwargs):
            seen.append(config)
            raise protocol.ProtocolError("stop after building the config")

        monkeypatch.delenv("RINGVEIL_SEED", raising=False)
        monkeypatch.setattr(simnet, "run", record)
        code, _, _ = run_cli(capsys, "sim", "run", "--out-dir", str(tmp_path / "x"))
        assert code == cli.EXIT_PROTOCOL
        assert seen == [simnet.SimConfig(n_physical=3)]

    def test_env_seed_fallback(self, capsys, tmp_path, monkeypatch):
        dir_a, _ = self.run_ring(capsys, tmp_path, "flagged")
        monkeypatch.setenv("RINGVEIL_SEED", "5")
        out_dir = tmp_path / "env"
        code, _, _ = run_cli(
            capsys, "sim", "run", "--mode", "ring", "--devices", "3",
            "--rounds", "6", "--modulus-bits", "64", "--out-dir", str(out_dir),
        )
        assert code == 0
        assert (dir_a / "trace.csv").read_bytes() == (out_dir / "trace.csv").read_bytes()

    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("RINGVEIL_SEED", "not-a-number")
        code, _, _ = run_cli(
            capsys, "sim", "run", "--out-dir", str(tmp_path / "x"),
            "--modulus-bits", "64",
        )
        assert code == cli.EXIT_USAGE

    def test_star_mode_writes_bursty_trace(self, capsys, tmp_path):
        sched = tmp_path / "s.txt"
        sched.write_text("device 1\ndevice 2\nstate 1 on\nread 2\n")
        out_dir = tmp_path / "star"
        code, _, _ = run_cli(
            capsys, "sim", "run", "--mode", "star", "--devices", "2",
            "--rounds", "2", "--modulus-bits", "64", "--seed", "1",
            "--schedule", str(sched), "--command-interval", "100000",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        trace = simnet.trace_from_csv((out_dir / "trace.csv").read_text())
        sizes = {rec[3] for rec in trace.records}
        assert sizes == {cli.simnet.STAR_COMMAND_BYTES, 64}


class TestSimSweep:
    def test_sweep_csv_shape(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run_cli(
            capsys, "sim", "sweep", "--devices", "3,7,11", "--rounds", "3",
            "--modulus-bits", "64", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == cli.STATS_HEADER
        assert [int(line.split(",")[0]) for line in lines[1:]] == [3, 7, 11]
        assert stdout.splitlines() == lines

    def test_empty_device_list_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "sim", "sweep", "--devices", ",")
        assert code == cli.EXIT_USAGE


def _int_options(*command):
    """The int-valued options of one subcommand of the real parser."""
    parser = cli.build_parser()
    for name in command:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return [a for a in parser._actions if a.type is int]


def _unread_flags(output, base, options):
    """The flags whose value doubled (1 for an unset one) leaves output() as it is."""
    reference = output(base)
    unread = []
    for action in options:
        flag = action.option_strings[0]
        current = int(base[base.index(flag) + 1]) if flag in base else action.default
        if output([*base, flag, str(2 * current if current else 1)]) == reference:
            unread.append(flag)
    return unread


class TestEveryFlagIsRead:
    """Every int option of compile and sweep changes what the command computes."""

    def test_schedule_compile(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("RINGVEIL_SEED", raising=False)
        sched = tmp_path / "s.txt"
        sched.write_text(SCHED_TEXT)
        plan, params = tmp_path / "plan.json", tmp_path / "params.json"

        def output(args):
            code, stdout, _ = run_cli(
                capsys, "schedule", "compile", str(sched), "--out", str(plan),
                "--params-out", str(params), *args,
            )
            assert code == 0
            return plan.read_text(), params.read_text(), stdout

        options = _int_options("schedule", "compile")
        assert options
        assert _unread_flags(output, ["--modulus-bits", "64"], options) == []

    def test_sim_sweep(self, capsys, monkeypatch):
        monkeypatch.delenv("RINGVEIL_SEED", raising=False)

        def output(args):
            code, stdout, _ = run_cli(capsys, "sim", "sweep", "--devices", "3,5", *args)
            assert code == 0
            return stdout

        # With jitter, the round count and the seed move the latency columns.
        base = ["--jitter", "50", "--modulus-bits", "64"]
        options = _int_options("sim", "sweep")
        assert options
        assert _unread_flags(output, base, options) == []


class TestAdversaryAnalyze:
    def make_trace(self, capsys, tmp_path, name, **kw):
        out_dir = tmp_path / name
        argv = ["sim", "run", "--mode", kw.pop("mode", "ring"), "--devices", "3",
                "--rounds", "6", "--modulus-bits", "64",
                "--seed", str(kw.pop("seed", 1)), "--out-dir", str(out_dir)]
        for flag, value in kw.items():
            argv += [f"--{flag.replace('_', '-')}", str(value)]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        return out_dir / "trace.csv"

    def test_pair_verdict_json(self, capsys, tmp_path):
        a = self.make_trace(capsys, tmp_path, "a", seed=1)
        b = self.make_trace(capsys, tmp_path, "b", seed=2)
        code, stdout, _ = run_cli(
            capsys, "adversary", "analyze", "--trace-a", str(a), "--trace-b", str(b),
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["verdict"] == "indistinguishable"
        assert {t["test"] for t in report["tests"]} == {
            "frame-sizes-ks", "inter-arrival-ks", "endpoint-counts-chi2",
            "link-counts-chi2",
        }

    def test_single_trace_activity_table(self, capsys, tmp_path):
        trace = self.make_trace(capsys, tmp_path, "solo")
        code, stdout, _ = run_cli(capsys, "adversary", "analyze", "--trace-a", str(trace))
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "device,commands_received,data_sent"
        assert len(lines) == 4

    def test_bad_path_is_io_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "adversary", "analyze", "--trace-a", str(tmp_path / "nope.csv"),
        )
        assert code == cli.EXIT_IO

    def test_geometry_mismatch_is_usage_error(self, capsys, tmp_path):
        a = self.make_trace(capsys, tmp_path, "a")
        b = self.make_trace(capsys, tmp_path, "b", hop_latency=900)
        code, _, err = run_cli(
            capsys, "adversary", "analyze", "--trace-a", str(a), "--trace-b", str(b),
        )
        assert code == cli.EXIT_USAGE
        assert "geometr" in err
