"""Command-line surface: parsing, output formats, exit codes, replay."""

import argparse
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcore import cli, harness
from riskcore.cli import (
    SubprocessOracle,
    build_parser,
    fmt,
    main,
    read_sample,
)
from riskcore.core import Sample
from riskcore.errors import RiskError
from conftest import strict_json

ORACLES = pathlib.Path(__file__).parent / "oracles"
DES_ORACLE = f"{sys.executable} {ORACLES / 'des_oracle.py'}"
STD_ORACLE = f"{sys.executable} {ORACLES / 'std_oracle.py'}"
SILENT_ORACLE = f"{sys.executable} {ORACLES / 'silent_oracle.py'}"
PARTIAL_ORACLE = f"{sys.executable} {ORACLES / 'partial_oracle.py'}"
LONG_REPLY_ORACLE = f"{sys.executable} {ORACLES / 'long_reply_oracle.py'}"


@pytest.fixture
def three_file(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text("3\n-1\n2\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScalarCommands:
    def test_es_example(self, capsys, three_file):
        code, out, _ = run_cli(capsys, "es", "--sample", three_file, "--k", "2")
        assert code == 0
        assert out.strip() == "-0.5"

    def test_es_header_ignored(self, capsys, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("pnl\n3\n-1\n2\n")
        code, out, _ = run_cli(capsys, "es", "--sample", str(path), "--k", "2")
        assert code == 0 and out.strip() == "-0.5"

    def test_es_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("3\n-1\n2\n"))
        code, out, _ = run_cli(capsys, "es", "--sample", "-", "--k", "1")
        assert code == 0 and out.strip() == "1.0"

    def test_variance(self, capsys):
        code, out, _ = run_cli(
            capsys, "variance",
            "--spectrum", '{"type":"uniform"}',
            "--dist", '{"type":"uniform","a":0,"b":1}',
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(1 / 12, abs=1e-6)

    def test_variance_of_a_nearly_flat_exponential_spectrum(self, capsys):
        # at k = 1e-12 the spectrum is 1 to 12 digits, and the term of
        # sigma^2 linear in k vanishes on the uniform law, so the figure is
        # the flat spectrum's. That one lies 1.2e-11 relative below 1/12:
        # the variance integral stops at VARIANCE_DELTA from 0 and 1.
        def variance(spectrum):
            code, out, err = run_cli(
                capsys, "variance", "--spectrum", spectrum,
                "--dist", '{"type":"uniform","a":0,"b":1}',
            )
            assert code == 0, err
            return float(out)

        flat = variance('{"type":"uniform"}')
        nearly_flat = variance('{"type":"exponential","k":1e-12}')
        assert nearly_flat == pytest.approx(flat, rel=1e-12, abs=0)
        assert nearly_flat == pytest.approx(1 / 12, rel=1e-10, abs=0)


class TestEstimate:
    def test_spectrum_plugin(self, capsys, three_file):
        code, out, _ = run_cli(
            capsys, "estimate", "--sample", three_file,
            "--spectrum", '{"type":"es","alpha":0.6666666666666666}',
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(-0.5, abs=1e-12)

    def test_weights(self, capsys, three_file):
        code, out, _ = run_cli(
            capsys, "estimate", "--sample", three_file,
            "--weights", "[0.5, 0.3333333333333333, 0.16666666666666666]",
        )
        assert float(out.strip()) == pytest.approx(-2 / 3, abs=1e-12)

    def test_weights_raw_domain(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("1\n-2\n")
        code, out, _ = run_cli(
            capsys, "estimate", "--sample", str(path),
            "--weights", '{"weights":[0.5,0.5],"sorted_domain":false}',
        )
        assert float(out.strip()) == 0.5

    def test_mixture(self, capsys, three_file):
        code, out, _ = run_cli(
            capsys, "estimate", "--sample", three_file,
            "--mixture", "[0.16666666666666666, 0.3333333333333333, 0.5]",
        )
        assert float(out.strip()) == pytest.approx(-2 / 3, abs=1e-12)

    def test_repset(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("1\n-2\n")
        code, out, _ = run_cli(
            capsys, "estimate", "--sample", str(path),
            "--repset", '{"sorted_domain":false,"vertices":[[1,0],[0,1]]}',
        )
        assert code == 0
        doc = strict_json(out)
        assert doc["schema"] == "riskcore/1"
        assert doc["value"] == 2.0 and doc["argmax_index"] == 1


class TestWeightAlgebra:
    def test_weights_uniform(self, capsys):
        code, out, _ = run_cli(
            capsys, "weights", "--spectrum", '{"type":"uniform"}', "--n", "3"
        )
        doc = strict_json(out)
        assert np.allclose(doc["weights"], [1 / 3] * 3, atol=1e-15)

    def test_weights_of_a_nearly_flat_exponential_spectrum(self, capsys):
        code, out, err = run_cli(
            capsys, "weights", "--spectrum", '{"type":"exponential","k":1e-12}',
            "--n", "3",
        )
        assert code == 0, err
        weights = strict_json(out)["weights"]
        assert weights == sorted(weights, reverse=True)
        assert np.allclose(weights, [1 / 3] * 3, rtol=1e-12, atol=0)

    def test_decompose_compose_round_trip(self, capsys):
        weights = "[0.5, 0.3333333333333333, 0.16666666666666666]"
        code, out, _ = run_cli(capsys, "decompose", "--weights", weights)
        assert code == 0
        mixture = strict_json(out)["mixture"]
        assert np.allclose(mixture, [1 / 6, 1 / 3, 1 / 2], atol=1e-12)
        code, out, _ = run_cli(
            capsys, "compose", "--mixture", json.dumps(mixture)
        )
        assert np.allclose(
            strict_json(out)["weights"], [1 / 2, 1 / 3, 1 / 6], atol=1e-12
        )

    def test_decompose_rejects_increasing(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "--weights", "[0.2, 0.8]")
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1


class TestOracleCommands:
    def test_recover_des(self, capsys):
        code, out, _ = run_cli(
            capsys, "recover", "--oracle", f"{DES_ORACLE} 2", "--n", "3"
        )
        assert code == 0
        assert np.allclose(strict_json(out)["weights"], [0.5, 0.5, 0.0],
                           atol=1e-12)

    def test_axioms_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "axioms", "--oracle", f"{DES_ORACLE} 2", "--n", "3",
            "--trials", "40", "--seed", "5",
        )
        assert code == 0
        doc = strict_json(out)
        assert doc["passed"] and all(doc["axioms"].values())

    def test_axioms_foil_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "axioms", "--oracle", STD_ORACLE, "--n", "5",
            "--trials", "40", "--seed", "5",
        )
        assert code == 1
        doc = strict_json(out)
        assert not doc["passed"]
        assert "cash_additivity" in doc["counterexamples"]

    def test_report_is_the_library_report_as_json(self, capsys):
        from riskcore import RngSpec, check_axioms

        code, out, _ = run_cli(
            capsys, "axioms", "--oracle", STD_ORACLE, "--n", "5",
            "--trials", "40", "--seed", "5",
        )
        with SubprocessOracle(STD_ORACLE) as oracle:
            report = check_axioms(oracle, n=5, trials=40, rng=RngSpec(5))
        assert code == 1
        assert out == json.dumps(report.to_dict()) + "\n"

    def test_non_finite_report_is_refused(self, capsys, tmp_path):
        # the reply 1e308 makes a comonotonic-additivity side infinite
        path = tmp_path / "huge_oracle.py"
        path.write_text("import sys\n"
                        "for line in sys.stdin:\n"
                        "    print('1e308', flush=True)\n")
        code, out, err = run_cli(
            capsys, "axioms", "--oracle", f"{sys.executable} {path}",
            "--n", "3", "--trials", "3", "--seed", "1",
        )
        assert code == 2 and out == ""
        assert err == "error: counterexamples is not finite\n"

    def test_axioms_requires_seed(self, capsys):
        code, _, err = run_cli(
            capsys, "axioms", "--oracle", STD_ORACLE, "--n", "3",
            "--trials", "5",
        )
        assert code == 2 and "--seed" in err

    @pytest.mark.parametrize("argv", [
        ["recover", "--n", "3"],
        ["axioms", "--n", "3", "--trials", "5", "--seed", "1"],
    ])
    def test_silent_oracle_times_out(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "ORACLE_TIMEOUT_S", 0.5)
        started = time.monotonic()
        code, out, err = run_cli(
            capsys, argv[0], "--oracle", SILENT_ORACLE, *argv[1:]
        )
        assert time.monotonic() - started < 10.0
        assert code == 2 and out == ""
        assert "did not answer within 0.5 s" in err
        assert err.count("\n") == 1

    def test_request_larger_than_the_pipe_times_out(self, monkeypatch):
        # the oracle never reads, so the request cannot be written out
        monkeypatch.setattr(cli, "ORACLE_TIMEOUT_S", 0.5)
        sleeper = f"{sys.executable} -c 'import time; time.sleep(60)'"
        with SubprocessOracle(sleeper) as oracle:
            with pytest.raises(RiskError, match="did not answer"):
                oracle(np.zeros(100_000))
            assert oracle.proc.wait(timeout=5) is not None


class TestPipelinedOracle:
    """SubprocessOracle.batch writes requests while it reads replies."""

    # what each failure of partial_oracle.py after its 7th reply must say
    FAILURES = {
        "stall": ["did not answer within 0.5 s"],
        "exit": ["closed its output stream", "oracle process failed"],
        "abc": ["replied with a non-number: 'abc'"],
        "inf": ["oracle returned inf on a sample of {n} values"],
        "extra": ["oracle wrote more replies than requests"],
    }

    @pytest.mark.parametrize("mode", list(FAILURES))
    @pytest.mark.parametrize("argv", [
        ["recover", "--n", "300"],
        ["recover", "--n", "2000"],
        ["axioms", "--n", "5", "--trials", "50", "--seed", "1"],
    ])
    def test_failure_mid_batch_is_one_line(self, capsys, monkeypatch, mode,
                                          argv):
        monkeypatch.setattr(cli, "ORACLE_TIMEOUT_S", 0.5)
        started = time.monotonic()
        code, out, err = run_cli(
            capsys, argv[0], "--oracle", f"{PARTIAL_ORACLE} {mode} 7", *argv[1:]
        )
        assert time.monotonic() - started < 10.0
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 100
        n = argv[argv.index("--n") + 1]
        assert any(want.format(n=n) in err for want in self.FAILURES[mode]), err

    def test_requests_beyond_both_pipes_do_not_deadlock(self):
        # 1001 probes of 1000 values are ~4.5 MB of requests, far beyond
        # both pipe buffers; they stream through and the weights are exact
        out = subprocess.run(
            [sys.executable, "-m", "riskcore.cli", "recover", "--oracle",
             f"{DES_ORACLE} 16", "--n", "1000"],
            capture_output=True, text=True, timeout=30,
        )
        assert out.returncode == 0, out.stderr
        weights = strict_json(out.stdout)["weights"]
        assert weights == [1 / 16] * 16 + [0.0] * 984

    def test_many_small_requests_do_not_deadlock(self, monkeypatch):
        # 50,000 one-value rows: ~200 KB of requests and ~250 KB of
        # replies, so both pipes would fill if replies were read only
        # after every request was written
        monkeypatch.setattr(cli, "ORACLE_TIMEOUT_S", 5.0)
        with SubprocessOracle(f"{DES_ORACLE} 1") as oracle:
            values = oracle.batch(np.full(1, float(i)) for i in range(50_000))
        assert values.tolist() == [-float(i) for i in range(50_000)]

    def test_last_reply_without_newline_is_read(self):
        script = "import sys; sys.stdin.readline(); sys.stdout.write('0.25')"
        command = f"{sys.executable} -c {shlex.quote(script)}"
        with SubprocessOracle(command) as oracle:
            assert oracle(np.zeros(3)) == 0.25
            with pytest.raises(RiskError, match=r"^oracle process "
                               r"(failed|closed its output stream)"):
                oracle(np.zeros(3))

    def test_an_extra_reply_after_the_batch_is_refused_at_close(self):
        # the second line comes after the batch has returned, so only
        # close() can see it
        script = ("import sys, time; sys.stdin.readline(); "
                  "print(1.0, flush=True); time.sleep(0.2); print(2.0)")
        oracle = SubprocessOracle(f"{sys.executable} -c {shlex.quote(script)}")
        assert oracle(np.zeros(3)) == 1.0
        with pytest.raises(RiskError, match="^oracle wrote more replies "
                           "than requests$"):
            oracle.close()

    def test_a_reply_line_at_the_cap_is_read(self):
        spaces = cli.REPLY_MAX_BYTES - 1
        with SubprocessOracle(f"{LONG_REPLY_ORACLE} {spaces}") as oracle:
            assert oracle.batch([np.zeros(3), np.ones(2)]).tolist() == [1.0, 1.0]

    def test_a_reply_line_past_the_cap_is_refused(self):
        spaces = cli.REPLY_MAX_BYTES
        with SubprocessOracle(f"{LONG_REPLY_ORACLE} {spaces}") as oracle:
            with pytest.raises(RiskError, match="^oracle reply exceeds "
                               "4096 bytes$"):
                oracle(np.zeros(3))

    def test_a_long_unterminated_reply_is_refused_at_once(self, capsys):
        # 40 MiB before the line break: a parse that copied the pending
        # bytes on every read took ~15 s over each reply
        started = time.monotonic()
        code, out, err = run_cli(
            capsys, "recover", "--oracle", f"{LONG_REPLY_ORACLE} {40 << 20}",
            "--n", "1")
        assert time.monotonic() - started < 5.0
        assert (code, out, err) == (
            2, "", "error: oracle reply exceeds 4096 bytes\n")

    def test_unsent_requests_stay_bounded(self, monkeypatch):
        # an oracle that never reads: rows are pulled only to keep about
        # REQUEST_BUFFER_BYTES unsent beyond what the pipe has taken
        monkeypatch.setattr(cli, "ORACLE_TIMEOUT_S", 0.3)
        pulled = []

        def rows():
            for _ in range(2000):
                pulled.append(1)
                yield np.zeros(100)     # 400 bytes a request line

        sleeper = f"{sys.executable} -c 'import time; time.sleep(60)'"
        with SubprocessOracle(sleeper) as oracle:
            with pytest.raises(RiskError, match="did not answer"):
                oracle.batch(rows())
        assert len(pulled) * 400 < 4 * cli.REQUEST_BUFFER_BYTES

    def recording_oracle(self, path):
        # writes every request line it receives to `path`, replies 0
        script = (
            "import sys\n"
            f"out = open({str(path)!r}, 'w')\n"
            "for line in sys.stdin:\n"
            "    out.write(line); out.flush(); print(0.0, flush=True)\n"
        )
        return SubprocessOracle(f"{sys.executable} -c {shlex.quote(script)}")

    def test_request_bytes_match_fmt(self, tmp_path):
        rows = [
            np.array([-0.0, 5e-324, 1e308, 0.1]),
            np.random.default_rng(3).standard_normal(50),
        ]
        path = tmp_path / "requests.txt"
        with self.recording_oracle(path) as oracle:
            assert list(oracle.batch(rows)) == [0.0, 0.0]
        want = "".join(" ".join(fmt(v) for v in row) + "\n" for row in rows)
        assert path.read_text() == want

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_request_is_refused_unsent(self, tmp_path, bad):
        path = tmp_path / "requests.txt"
        with self.recording_oracle(path) as oracle:
            with pytest.raises(RiskError, match="not finite"):
                oracle(np.array([1.0, bad]))
            # the refused row wrote nothing, so the next reply is in step
            assert oracle.batch([[2.0], [3.0]]).tolist() == [0.0, 0.0]
            # rows before a refused row are answered; rows after it unsent
            with pytest.raises(RiskError, match="2 values"):
                oracle.batch([[4.0], [bad, 1.0], [5.0]])
            assert oracle(np.array([6.0])) == 0.0
        assert path.read_text() == "2.0\n3.0\n4.0\n6.0\n"


class TestResourceHygiene:
    """No pipe is left open and no oracle unreaped, under -X dev."""

    DEV = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning"]

    @pytest.mark.parametrize("argv", [
        ["recover", "--oracle", f"{DES_ORACLE} 3", "--n", "200"],
        ["axioms", "--oracle", f"{DES_ORACLE} 3", "--n", "6", "--trials",
         "100", "--seed", "2"],
    ])
    def test_successful_runs_warn_nothing(self, argv):
        out = subprocess.run(
            [*self.DEV, "-m", "riskcore.cli", *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0
        assert out.stderr == ""

    def test_timed_out_oracle_warns_nothing(self):
        # the timeout is shortened in the child, which then runs the CLI
        script = (
            "import sys\n"
            "from riskcore import cli\n"
            "cli.ORACLE_TIMEOUT_S = 0.5\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        out = subprocess.run(
            [*self.DEV, "-c", script, "recover", "--oracle", SILENT_ORACLE,
             "--n", "3"],
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 2
        assert out.stderr == "error: oracle did not answer within 0.5 s\n"

    def test_extra_replies_warn_nothing(self):
        out = subprocess.run(
            [*self.DEV, "-m", "riskcore.cli", "recover", "--oracle",
             f"{PARTIAL_ORACLE} extra 0", "--n", "3"],
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 2
        assert out.stderr == "error: oracle wrote more replies than requests\n"


class TestOracleStderr:
    """An oracle's stderr is its own: riskcore passes it through unread,
    and adds at most one `error:` line, last."""

    def recover(self, mode):
        return subprocess.run(
            [sys.executable, "-m", "riskcore.cli", "recover", "--oracle",
             f"{PARTIAL_ORACLE} {mode}", "--n", "3"],
            capture_output=True, text=True, timeout=60,
        )

    def test_a_traceback_comes_before_the_one_error_line(self):
        out = self.recover("raise 2")
        lines = out.stderr.splitlines()
        assert out.returncode == 2 and out.stdout == ""
        assert "RuntimeError: failing on request 3" in lines
        assert lines[-1].startswith("error: oracle ")
        assert [l for l in lines if l.startswith("error:")] == lines[-1:]

    def test_a_megabyte_of_stderr_does_not_stall_the_run(self):
        out = self.recover("noisy 0")
        assert out.returncode == 0, out.stderr[-200:]
        assert strict_json(out.stdout)["weights"] == [1.0, 0.0, 0.0]
        assert out.stderr == ("x" * (1 << 20) + "\n") * 4


class TestExperiments:
    CLT_CONFIG = json.dumps({
        "spectrum": {"type": "uniform"},
        "dist": {"type": "uniform", "a": 0, "b": 1},
        "n": 200, "reps": 120, "threshold": 0.2,
    })

    def test_clt_runs_and_replays_byte_identically(self, capsys):
        code, out1, _ = run_cli(
            capsys, "clt", "--config", self.CLT_CONFIG, "--seed", "1"
        )
        assert code == 0
        code, out2, _ = run_cli(
            capsys, "clt", "--config", self.CLT_CONFIG, "--seed", "1",
            "--threads", "3",
        )
        assert code == 0
        assert out1 == out2
        doc = strict_json(out1)
        assert doc["schema"] == "riskcore/1" and doc["passed"]

    CONFIGS = {
        "clt": CLT_CONFIG,
        "bootstrap": json.dumps({
            "spectrum": {"type": "linear", "slope": 2.0},
            "dist": {"type": "normal", "mean": 0, "sd": 1},
            "n": 200, "B": 120,
        }),
        "consistency": json.dumps({
            "class": "bundled", "dist": {"type": "exponential", "rate": 1},
            "n_grid": [50, 400], "reps": 5, "threshold": 0.5,
        }),
        "rate": json.dumps({
            "class": [{"type": "uniform"}],
            "dist": {"type": "uniform", "a": 0, "b": 1},
            "n_grid": [100, 1000], "reps": 5,
        }),
    }

    @pytest.mark.parametrize("command, config", list(CONFIGS.items()))
    def test_threads_flag_is_accepted_and_ignored(self, capsys, command,
                                                  config):
        plain = run_cli(capsys, command, "--config", config, "--seed", "4")
        threaded = run_cli(capsys, command, "--config", config, "--seed", "4",
                           "--threads", "2")
        assert plain[0] in (0, 1)
        assert threaded == plain

    @pytest.mark.parametrize("command", list(CONFIGS))
    def test_report_is_the_library_report_as_json(self, capsys, command):
        from riskcore import (
            LipschitzClass,
            RngSpec,
            bootstrap_check,
            bundled_lipschitz_class,
            clt_check,
            consistency_sweep,
            distribution_from_json,
            rate_experiment,
            spectrum_from_json,
        )

        config = json.loads(self.CONFIGS[command])
        code, out, _ = run_cli(
            capsys, command, "--config", self.CONFIGS[command], "--seed", "1"
        )
        dist = distribution_from_json(config["dist"])
        # written out per driver, so the CLI's table is not checked against
        # itself; absent optional fields take the drivers' own defaults
        report = {
            "clt": lambda: clt_check(
                spectrum_from_json(config["spectrum"]), dist, config["n"],
                config["reps"], RngSpec(1), config["threshold"]),
            "bootstrap": lambda: bootstrap_check(
                spectrum_from_json(config["spectrum"]), dist, config["n"],
                config["B"], RngSpec(1)),
            "consistency": lambda: consistency_sweep(
                bundled_lipschitz_class(), dist, config["n_grid"],
                config["reps"], RngSpec(1), config["threshold"]),
            "rate": lambda: rate_experiment(
                LipschitzClass([spectrum_from_json(s)
                                for s in config["class"]]),
                dist, config["n_grid"], config["reps"], RngSpec(1)),
        }[command]()
        assert code == (1 if report.passed is False else 0)
        assert out == report.to_json() + "\n"

    def test_config_from_file(self, capsys, tmp_path):
        path = tmp_path / "clt.json"
        path.write_text(self.CLT_CONFIG)
        code, out, _ = run_cli(capsys, "clt", "--config", str(path),
                               "--seed", "1")
        assert code == 0

    def test_replay_from_embedded_config(self, capsys):
        # a report replays byte-identically from its own config echo + seed
        code, out1, _ = run_cli(
            capsys, "clt", "--config", self.CLT_CONFIG, "--seed", "1"
        )
        doc = strict_json(out1)
        code, out2, _ = run_cli(
            capsys, "clt", "--config", json.dumps(doc["config"]),
            "--seed", str(doc["seed"]),
        )
        assert code == 0 and out2 == out1

    def test_failed_threshold_exits_one(self, capsys):
        config = json.loads(self.CLT_CONFIG)
        config["threshold"] = 1e-6
        code, out, _ = run_cli(
            capsys, "clt", "--config", json.dumps(config), "--seed", "1"
        )
        assert code == 1
        assert strict_json(out)["passed"] is False

    def test_missing_seed_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "clt", "--config", self.CLT_CONFIG)
        assert code == 2 and "--seed" in err

    def test_bootstrap_runs(self, capsys):
        config = json.dumps({
            "spectrum": {"type": "linear", "slope": 2.0},
            "dist": {"type": "normal", "mean": 0, "sd": 1},
            "n": 120, "B": 80, "threshold": 0.3, "grid_m": 10,
        })
        code, out, _ = run_cli(capsys, "bootstrap", "--config", config,
                               "--seed", "2")
        assert code == 0
        res = strict_json(out)["results"]
        assert res["d_K_m"] <= res["d_K"]

    def test_bootstrap_with_a_huge_grid_m_runs(self, capsys):
        # a grid of 2 * 10^10 points if it were built whole
        config = json.dumps({
            "spectrum": {"type": "linear", "slope": 2.0},
            "dist": {"type": "normal", "mean": 0, "sd": 1},
            "n": 120, "B": 80, "threshold": 0.3, "grid_m": 100_000,
        })
        code, out, err = run_cli(capsys, "bootstrap", "--config", config,
                                 "--seed", "2")
        assert code in (0, 1) and err == ""
        doc = strict_json(out)
        assert doc["config"]["grid_m"] == 100_000
        assert 0.0 < doc["results"]["d_K_m"] <= doc["results"]["d_K"]

    def test_consistency_bundled_class(self, capsys):
        config = json.dumps({
            "class": "bundled",
            "dist": {"type": "uniform", "a": 0, "b": 1},
            "n_grid": [500], "reps": 3, "threshold": 0.2,
        })
        code, out, _ = run_cli(capsys, "consistency", "--config", config,
                               "--seed", "3")
        assert code == 0
        assert strict_json(out)["passed"]

    def test_rate_runs(self, capsys):
        config = json.dumps({
            "class": [{"type": "uniform"}],
            "dist": {"type": "normal", "mean": 0, "sd": 1},
            "n_grid": [100, 1000], "reps": 10,
        })
        code, out, _ = run_cli(capsys, "rate", "--config", config,
                               "--seed", "4")
        assert code == 0
        assert "slope" in strict_json(out)["results"]

    GRID = '{"class":"bundled","dist":{"type":"normal","mean":0,"sd":1},' \
           '"reps":2,"n_grid":%s}'

    def test_unsorted_grid_is_refused_by_the_rule_that_holds(self, capsys):
        # the check is non-decreasing order, so a repeated size runs; the
        # refusal said "increasing"
        code, out, err = run_cli(capsys, "consistency", "--seed", "1",
                                 "--config", self.GRID % "[20,10]")
        assert (code, out) == (2, "")
        assert err == ("error: n_grid must be a non-empty non-decreasing "
                       "sequence\n")
        code, out, err = run_cli(capsys, "consistency", "--seed", "1",
                                 "--config", self.GRID % "[5,5]")
        assert (code, err) == (0, "")
        assert [row["n"] for row in strict_json(out)["results"]["per_n"]] \
            == [5, 5]

    @pytest.mark.parametrize("command, fields, message", [
        ("consistency", '[10],"threshold":0.5,"min_pass_fraction":5',
         "min_pass_fraction must lie in (0, 1], got 5.0"),
        ("consistency", '[10],"threshold":0.5,"min_pass_fraction":-1',
         "min_pass_fraction must lie in (0, 1], got -1.0"),
        ("consistency", '[10],"min_pass_fraction":0',
         "min_pass_fraction must lie in (0, 1], got 0.0"),
        ("rate", '[10,20],"slope_band":[1,-1]',
         "slope_band must be [low, high] with low <= high, got [1.0, -1.0]"),
    ])
    def test_a_field_that_fixes_the_verdict_is_refused(self, capsys, command,
                                                       fields, message):
        # min_pass_fraction 5 always failed and -1 always passed; a
        # reversed slope_band exited 1 on every input
        code, out, err = run_cli(capsys, command, "--seed", "1",
                                 "--config", self.GRID % fields)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    LAW = '"spectrum":{"type":"linear","slope":2},' \
          '"dist":{"type":"normal","mean":0,"sd":1}'

    @pytest.mark.parametrize("command, sizes, message", [
        ("clt", '"n":0,"reps":20', "n must be >= 1, got 0"),
        ("clt", '"n":-3,"reps":20', "n must be >= 1, got -3"),
        ("clt", '"n":50,"reps":0', "reps must be >= 1, got 0"),
        ("clt", '"n":0,"reps":0', "reps must be >= 1, got 0"),
        ("bootstrap", '"n":50,"B":0', "B must be >= 1, got 0"),
        ("bootstrap", '"n":50,"B":-1', "B must be >= 1, got -1"),
        ("bootstrap", '"n":0,"B":0', "n must be >= 1, got 0"),
    ])
    def test_size_is_refused_before_the_variance(self, capsys, monkeypatch,
                                                 command, sizes, message):
        # sigma^2 and the population risk were integrated, and the base
        # sample drawn, before n or B was refused
        def no_variance(*args):
            raise AssertionError("the variance was integrated")

        monkeypatch.setattr(harness, "asymptotic_variance", no_variance)
        code, out, err = run_cli(capsys, command, "--seed", "1", "--config",
                                 "{%s,%s}" % (self.LAW, sizes))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command, config, message", [
        ("clt", '{%s,"n":50,"reps":20,"threshold":2}' % LAW,
         "threshold must lie in (0, 1], got 2.0"),
        ("clt", '{%s,"n":50,"reps":20,"threshold":0}' % LAW,
         "threshold must lie in (0, 1], got 0.0"),
        ("clt", '{%s,"n":50,"reps":20,"threshold":-1}' % LAW,
         "threshold must lie in (0, 1], got -1.0"),
        ("bootstrap", '{%s,"n":50,"B":20,"threshold":1.5}' % LAW,
         "threshold must lie in (0, 1], got 1.5"),
        ("bootstrap", '{%s,"n":50,"B":20,"threshold":0}' % LAW,
         "threshold must lie in (0, 1], got 0.0"),
        ("consistency", GRID % '[10],"threshold":0',
         "threshold must be > 0, got 0.0"),
        ("consistency", GRID % '[10],"threshold":-1',
         "threshold must be > 0, got -1.0"),
    ])
    def test_a_threshold_that_fixes_the_verdict_is_refused(
            self, capsys, monkeypatch, command, config, message):
        # d_K lies in [0, 1], so clt passed every run at threshold 2 and
        # failed every run at 0; no consistency error is below 0. The
        # refusal comes before the variance or any draw
        def no_work(*args):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(harness, "asymptotic_variance", no_work)
        monkeypatch.setattr(harness, "sample_from", no_work)
        code, out, err = run_cli(capsys, command, "--seed", "1", "--config",
                                 config)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestErrorPaths:
    def test_bad_spectrum_json(self, capsys, three_file):
        code, _, err = run_cli(
            capsys, "estimate", "--sample", three_file, "--spectrum", "{nope"
        )
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bad_sample_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\nwat\n")
        code, _, err = run_cli(capsys, "es", "--sample", str(path), "--k", "1")
        assert code == 2 and "line 2" in err

    def test_missing_sample_file(self, capsys):
        code, _, err = run_cli(capsys, "es", "--sample", "/nope.csv", "--k", "1")
        assert code == 2

    def test_alpha_zero_spectrum(self, capsys, three_file):
        code, _, err = run_cli(
            capsys, "estimate", "--sample", three_file,
            "--spectrum", '{"type":"es","alpha":0}',
        )
        assert code == 2

    def test_k_out_of_range(self, capsys, three_file):
        code, _, err = run_cli(capsys, "es", "--sample", three_file, "--k", "9")
        assert code == 2

    LINEAR = '{"type":"linear","slope":2}'
    NORMAL = '{"type":"normal","mean":0,"sd":1}'
    CLT = '{"spectrum":%s,"dist":%s,"n":50,"reps":20,' % (LINEAR, NORMAL)
    CLASS = '{"class":"bundled","dist":%s,"reps":2,' % NORMAL

    @pytest.mark.parametrize("argv", [
        ["clt", "--config", CLT + '"n":"abc"}'],
        ["clt", "--config", CLT + '"n":[5]}'],
        ["clt", "--config", CLT + '"reps":1e400}'],
        ["clt", "--config", CLT + '"threshold":"x"}'],
        ["clt", "--config", CLT + '"threshold":NaN}'],
        ["rate", "--config", CLASS + '"n_grid":[10,20],"slope_band":[1]}'],
        # one distinct size: numpy warned of a rank-deficient fit
        ["rate", "--config", CLASS + '"n_grid":[100,100]}'],
        # a later key wins: n is -1, which numpy's draw refused
        ["bootstrap", "--config", CLT + '"B":5,"n":-1}'],
        ["consistency", "--config", CLASS + '"n_grid":5}'],
        # sizes above core.MAX_SIZE, refused before any array is allocated
        ["clt", "--config", CLT + '"n":1e308}'],
        ["consistency", "--config", CLASS + '"n_grid":[1e308]}'],
        ["bootstrap", "--config", CLT + '"B":5,"grid_m":1e308}'],
        ["weights", "--spectrum", LINEAR, "--n", str(10**20)],
        ["recover", "--oracle", DES_ORACLE, "--n", str(10**20)],
        ["axioms", "--oracle", DES_ORACLE, "--n", str(10**20), "--trials", "1",
         "--seed", "1"],
        ["variance", "--spectrum", LINEAR, "--dist",
         '{"type":"normal","mean":0,"sd":"x"}'],
        ["variance", "--spectrum", LINEAR, "--dist",
         '{"type":"normal","mean":Infinity,"sd":1}'],
        ["variance", "--spectrum", LINEAR, "--dist",
         '{"type":"uniform","a":0,"b":Infinity}'],
        ["variance", "--spectrum", LINEAR, "--dist",
         '{"type":"exponential","rate":Infinity}'],
        ["variance", "--dist", NORMAL, "--spectrum", '{"type":"es","alpha":"x"}'],
        ["variance", "--dist", NORMAL, "--spectrum",
         '{"type":"exponential","k":1e-320}'],
        ["variance", "--dist", NORMAL, "--spectrum",
         '{"type":"piecewise_linear","knots":[[0,"a"],[1,1]]}'],
        ["compose", "--mixture", '{"mixture":[0.5,null]}'],
        ["weights", "--n", "3", "--spectrum",
         '{"type":"piecewise_linear","knots":[[0,NaN],[1,1]]}'],
        ["estimate", "--sample", "{sample}", "--repset", '{"vertices":[[1,"x"]]}'],
        ["estimate", "--sample", "{sample}", "--repset", '{"vertices":5}'],
        ["variance", "--spectrum", LINEAR, "--dist", '{"type":{}}'],
        ["variance", "--dist", NORMAL, "--spectrum", '{"type":["es"]}'],
    ])
    def test_malformed_json_value_is_one_line(self, capsys, three_file, argv):
        argv = [a.replace("{sample}", three_file) for a in argv]
        if argv[0] in ("clt", "bootstrap", "rate", "consistency"):
            argv += ["--seed", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    HUGE_UNIFORM = '{"type":"uniform","a":-1e308,"b":1e308}'
    HUGE_CONFIG = ('{"spectrum":%s,"dist":%s,"n":20,"reps":5,"B":5}'
                   % (LINEAR, HUGE_UNIFORM))

    @pytest.mark.parametrize("argv", [
        ["variance", "--spectrum", LINEAR, "--dist", HUGE_UNIFORM],
        ["clt", "--seed", "1", "--config", HUGE_CONFIG],
        ["bootstrap", "--seed", "1", "--config", HUGE_CONFIG],
        ["variance", "--spectrum", LINEAR, "--dist",
         '{"type":"normal","mean":1e308,"sd":1e308}'],
    ])
    def test_law_whose_quantile_range_overflows_is_one_line(self, capsys,
                                                            argv):
        # refused before any quadrature, which warned or raised on them
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "quantile range that overflows" in err


    def test_out_of_memory_is_one_line(self, capsys, monkeypatch, three_file):
        def exhausted(path):
            raise MemoryError

        monkeypatch.setattr(cli, "read_sample", exhausted)
        code, out, err = run_cli(capsys, "es", "--sample", three_file, "--k", "1")
        assert (code, out, err) == (2, "", "error: out of memory\n")

    STEEP = '{"type":"exponential","k":1e200}'
    UNIT = '{"type":"uniform","a":0,"b":1}'

    @pytest.mark.parametrize("argv", [
        ["weights", "--spectrum", STEEP, "--n", "3"],
        ["variance", "--spectrum", STEEP, "--dist", UNIT],
        ["clt", "--seed", "1", "--config",
         '{"spectrum":%s,"dist":%s,"n":20,"reps":5}' % (STEEP, UNIT)],
        ["consistency", "--seed", "1", "--config",
         '{"class":[%s],"dist":%s,"n_grid":[100],"reps":2}' % (STEEP, UNIT)],
    ], ids=["weights", "variance", "clt", "consistency"])
    def test_a_spectrum_too_steep_for_float64_is_one_line(self, capsys, argv):
        # k * k overflows: variance printed 0.0 and weights [1.0, 0.0, 0.0]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == ("error: exponential spectrum needs a finite bound and "
                       "Lipschitz constant, got 1e+200 and inf\n")


NORMAL = '{"type":"normal","mean":0,"sd":1}'


class TestNumericConfigFields:
    """Numeric config fields read JSON numbers only; int fields read only
    integral ones."""

    LAW = '"spectrum":{"type":"linear","slope":2},"dist":{"type":"normal","mean":0,"sd":1}'

    def clt(self, capsys, fields):
        return run_cli(capsys, "clt", "--seed", "1", "--config",
                       "{%s,%s}" % (self.LAW, fields))

    @pytest.mark.parametrize("fields, message", [
        pytest.param('"n":true,"reps":20', "'n' has a malformed value: True",
                     id="boolean-int"),
        pytest.param('"n":50,"reps":20,"threshold":false',
                     "'threshold' has a malformed value: False",
                     id="boolean-float"),
        pytest.param('"n":50,"reps":"20"', "'reps' has a malformed value: '20'",
                     id="string-int"),
        pytest.param('"n":50,"reps":20,"threshold":"0.05"',
                     "'threshold' has a malformed value: '0.05'",
                     id="string-float"),
        pytest.param('"n":50,"reps":50.7', "'reps' has a malformed value: 50.7",
                     id="non-integral-int"),
    ])
    def test_refused(self, capsys, fields, message):
        code, out, err = self.clt(capsys, fields)
        assert code == 2 and out == ""
        assert err == f"error: config field {message}\n"

    @pytest.mark.parametrize("spectrum, dist, message", [
        pytest.param('{"type":"linear","slope":"2"}', NORMAL,
                     "spectrum JSON field 'slope' has a malformed value: '2'",
                     id="string-slope"),
        pytest.param('{"type":"es","alpha":true}', NORMAL,
                     "spectrum JSON field 'alpha' has a malformed value: True",
                     id="boolean-alpha"),
        pytest.param('{"type":"uniform"}', '{"type":"normal","mean":0,"sd":"1"}',
                     "distribution JSON field 'sd' has a malformed value: '1'",
                     id="string-sd"),
        pytest.param('{"type":"uniform"}', '{"type":"exponential","rate":null}',
                     "distribution JSON field 'rate' has a malformed value: None",
                     id="null-rate"),
    ])
    def test_nested_fields_refused(self, capsys, spectrum, dist, message):
        # the nested documents go through the same reader as the config
        code, out, err = run_cli(
            capsys, "clt", "--seed", "1", "--config",
            '{"spectrum":%s,"dist":%s,"n":50,"reps":20}' % (spectrum, dist))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_integral_float_reads_as_int(self, capsys):
        code, out, _ = self.clt(capsys, '"n":50.0,"reps":20.0')
        assert (code, out) == self.clt(capsys, '"n":50,"reps":20')[:2]
        assert strict_json(out)["config"]["n"] == 50
        assert '"reps": 20,' in out


class TestJsonReader:
    """Every numeric field of every JSON input reads JSON numbers only, and
    a refusal is one line that names the field."""

    UNIFORM = '{"type":"uniform"}'
    ENTRY_POINTS = {
        "alpha": (["weights", "--n", "4", "--spectrum",
                   '{"type":"es","alpha":@}'], "'alpha'"),
        "slope": (["weights", "--n", "4", "--spectrum",
                   '{"type":"linear","slope":@}'], "'slope'"),
        "k": (["weights", "--n", "4", "--spectrum",
               '{"type":"exponential","k":@}'], "'k'"),
        "knots": (["weights", "--n", "4", "--spectrum",
                   '{"type":"piecewise_linear","knots":[[0,2],[1,@]]}'],
                  "'knots'[1][1]"),
        "a": (["variance", "--spectrum", UNIFORM, "--dist",
               '{"type":"uniform","a":@,"b":1}'], "'a'"),
        "b": (["variance", "--spectrum", UNIFORM, "--dist",
               '{"type":"uniform","a":0,"b":@}'], "'b'"),
        "mean": (["variance", "--spectrum", UNIFORM, "--dist",
                  '{"type":"normal","mean":@,"sd":1}'], "'mean'"),
        "sd": (["variance", "--spectrum", UNIFORM, "--dist",
                '{"type":"normal","mean":0,"sd":@}'], "'sd'"),
        "rate": (["variance", "--spectrum", UNIFORM, "--dist",
                  '{"type":"exponential","rate":@}'], "'rate'"),
        "c": (["variance", "--spectrum", UNIFORM, "--dist",
               '{"type":"point_mass","c":@}'], "'c'"),
        "clt-spectrum": (["clt", "--seed", "1", "--config",
                          '{"spectrum":{"type":"linear","slope":@},'
                          '"dist":%s,"n":20,"reps":5}' % NORMAL], "'slope'"),
        "clt-dist": (["clt", "--seed", "1", "--config",
                      '{"spectrum":%s,"dist":{"type":"normal","mean":0,'
                      '"sd":@},"n":20,"reps":5}' % UNIFORM], "'sd'"),
        "weights": (["decompose", "--weights", "[0.5,@]"], "'weights'[1]"),
        "estimate-weights": (["estimate", "--sample", "{sample}", "--weights",
                              '{"weights":[0.5,@,0]}'], "'weights'[1]"),
        "mixture": (["compose", "--mixture", "[@,0.5]"], "'mixture'[0]"),
        "repset": (["estimate", "--sample", "{sample}", "--repset",
                    '{"vertices":[[1,0,0],[0.5,0.5,@]]}'],
                   "'vertices'[1][2]"),
    }

    @pytest.mark.parametrize("value", ['"0.5"', "true", "false", "null"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_refused_naming_the_field(self, capsys, three_file, entry, value):
        template, field = self.ENTRY_POINTS[entry]
        argv = [a.replace("{sample}", three_file).replace("@", value)
                for a in template]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"field {field} has a malformed value: " in err

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_a_number_is_read(self, capsys, three_file, entry):
        # the control: with a number in its place the value is read, though
        # some of the documents are then refused for what they mean
        template, _ = self.ENTRY_POINTS[entry]
        argv = [a.replace("{sample}", three_file).replace("@", "0.5")
                for a in template]
        _, _, err = run_cli(capsys, *argv)
        assert "malformed" not in err

    @pytest.mark.parametrize("config", [
        {"n_grid": [*range(1, 20001), "x"], "reps": 2},
        {"n_grid": [10, 20], "reps": [1] * 20000},
        {"n_grid": [10, 20], "reps": 2, "slope_band": [-0.5] * 20000},
        {"n_grid": [10, 20], "reps": 2,
         "class": [{"type": ["es"] * 20000}]},
    ], ids=["bad-entry", "list-for-int", "long-pair", "long-type"])
    def test_diagnostic_of_a_long_list_is_short(self, capsys, config):
        config = {"class": "bundled", "dist": {"type": "uniform", "a": 0,
                                               "b": 1}, **config}
        code, out, err = run_cli(capsys, "rate", "--seed", "1", "--config",
                                 json.dumps(config))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and len(err) < 200

    def test_first_bad_entry_is_named(self, capsys):
        config = {"class": "bundled", "dist": {"type": "uniform", "a": 0,
                                               "b": 1},
                  "n_grid": [*range(1, 20001), "x"], "reps": 2}
        code, _, err = run_cli(capsys, "consistency", "--seed", "1",
                               "--config", json.dumps(config))
        assert code == 2
        assert err == ("error: config field 'n_grid'[20000] has a malformed "
                       "value: 'x'\n")


class TestSortedDomain:
    SAMPLE = "1\n4\n-2\n"
    FORMS = {
        "--repset": '{"vertices":[[0.5,0.5,0]],"sorted_domain":%s}',
        "--weights": '{"weights":[0.5,0.5,0],"sorted_domain":%s}',
    }

    @pytest.mark.parametrize("flag", ['"no"', '"false"', "null", "0", "1",
                                      "[]"])
    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_only_a_json_boolean_is_read(self, capsys, tmp_path, form, flag):
        path = tmp_path / "x.csv"
        path.write_text(self.SAMPLE)
        code, out, err = run_cli(capsys, "estimate", "--sample", str(path),
                                 form, self.FORMS[form] % flag)
        assert code == 2 and out == ""
        assert err == (f"error: 'sorted_domain' must be true or false, "
                       f"not {json.loads(flag)!r}\n")

    @pytest.mark.parametrize("flag, value", [
        ("true", 0.5),     # the losses 2 and -1 of the sorted sample
        ("false", -2.5),   # the losses -1 and -4 of the first two values
    ])
    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_booleans_pick_the_domain(self, capsys, tmp_path, form, flag,
                                      value):
        path = tmp_path / "x.csv"
        path.write_text(self.SAMPLE)
        code, out, _ = run_cli(capsys, "estimate", "--sample", str(path),
                               form, self.FORMS[form] % flag)
        assert code == 0
        result = strict_json(out)["value"] if form == "--repset" else out
        assert float(result) == value


def reference_read(text, path):
    """read_sample as a loop over every line: the rules of the sample
    format, kept here as the reference of the array-native reader."""
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            if not values and lineno == 1:
                continue  # header
            raise RiskError(
                f"sample line {lineno} is not a number: {line!r}"
            ) from None
    if not values:
        raise RiskError(f"sample file {path} contains no values")
    return Sample(values)


def outcome(read):
    """Bit pattern of the values read, or the error's type and message."""
    try:
        return read().values.tobytes()
    except RiskError as exc:
        return type(exc), str(exc)


#: tokens float() and numpy's readers disagree on, or that only float()
#: reads, or that no reader takes
TRAP_TOKENS = [
    "1_0", "\u0661\u0662", "nan", "-inf", "Infinity", "1e999", "-0.0",
    "5e-324", "+1", ".5", "5.", "-.5E+2", "1e", "e5", "--1", "1-2", "1 2",
    "1\t2", "1\x002", "0x10", "1,5", "pnl", "P&L \u20ac", "\udcff",
]
#: every break str.splitlines knows; numpy's readers know only a few
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
               "\x1e", "\x85", "\u2028", "\u2029"]
PADS = ["", " ", "\t", "\xa0", " \t "]

decimals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
)
sample_lines = st.one_of(
    decimals,
    st.sampled_from(TRAP_TOKENS),
    st.tuples(st.sampled_from(PADS), st.sampled_from(TRAP_TOKENS + ["2.5"]),
              st.sampled_from(PADS)).map("".join),
    st.sampled_from(PADS),      # blank and whitespace-only lines
)
mixed_texts = st.tuples(
    st.lists(st.tuples(sample_lines, st.one_of(
        st.just("\n"), st.sampled_from(LINE_BREAKS))), max_size=50),
    st.sampled_from(["", "7"]),     # with and without a last line break
).map(lambda drawn: "".join(map("".join, drawn[0])) + drawn[1])
# decimals below a header or not, the texts read without the loop, with
# at most one line that is not
plain_texts = st.tuples(
    st.sampled_from(["", "\n", "pnl\n", "1 2\n", "\udcff\n", "nan\n"]),
    st.lists(st.one_of(decimals, st.just("")), max_size=49),
    st.sampled_from([[], ["1 2"], [" 2.5\t"], ["nan"], ["1_0"], ["1e999"]]),
    st.integers(0, 49),
    st.sampled_from(["\n", "\r\n"]),
).map(lambda drawn: drawn[0] + drawn[4].join(
    drawn[1][:drawn[3]] + drawn[2] + drawn[1][drawn[3]:]))
sample_texts = st.one_of(plain_texts, mixed_texts)


@pytest.fixture(scope="module")
def sample_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("samples")


class TestSampleIo:
    def test_round_trip_exact(self, tmp_path):
        gen = np.random.default_rng(3)
        values = gen.standard_normal(64) * 1e5
        path = tmp_path / "x.csv"
        path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        back = read_sample(str(path))
        assert np.array_equal(back.values, values)

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(text=sample_texts, chunk=st.sampled_from([1, 16, 1 << 18]))
    def test_reader_matches_the_line_loop(self, sample_dir, text, chunk):
        # a file, a text stdin with no binary buffer, and a stdin with one
        data = text.encode("utf-8", "surrogateescape")
        path = sample_dir / "sample.txt"
        path.write_bytes(data)
        expected = outcome(lambda: reference_read(text, str(path)))
        stdin_expected = outcome(lambda: reference_read(text, "-"))
        stdins = [io.StringIO(text),
                  io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")]
        with mock.patch.object(cli, "_PLAIN_CHUNK", chunk):
            assert outcome(lambda: read_sample(str(path))) == expected
            for stdin in stdins:
                with mock.patch.object(sys, "stdin", stdin):
                    assert outcome(lambda: read_sample("-")) == stdin_expected

    def test_plain_lines_skip_the_line_loop(self, tmp_path, monkeypatch):
        values = np.random.default_rng(5).standard_t(3, 1000)
        path = tmp_path / "x.csv"
        path.write_bytes(("pnl\r\n" + "\r\n".join(map(repr, values.tolist())))
                         .encode())
        monkeypatch.setattr(cli, "_line_values", None)
        assert np.array_equal(read_sample(str(path)).values, values)

    @pytest.mark.parametrize("values", [
        [-0.0], [5e-324], [1e308], [0.1],
        [0.1, -0.0, 5e-324],        # a partial last piece
        [0.1, -0.0, 5e-324, 1e308],  # pieces end with the array
        [],
    ])
    def test_float_array_writer_matches_json_dumps(self, capsys, monkeypatch,
                                                   values):
        monkeypatch.setattr(cli, "_JSON_CHUNK", 2)
        cli._print_document(n=len(values), weights=np.array(values),
                            monotone=True)
        expected = json.dumps({"schema": "riskcore/1", "n": len(values),
                               "weights": values, "monotone": True})
        assert capsys.readouterr().out == expected + "\n"

    def test_float_array_writer_refuses_non_finite(self, capsys):
        with pytest.raises(RiskError, match="weights is not finite"):
            cli._print_document(weights=np.array([0.5, np.nan]))
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("value", [
        float("inf"), float("nan"), {"d_K": 0.1, "sigma2": float("-inf")},
        {"axiom": {"x": [1.0, float("nan")], "lhs": 0.0}},
    ])
    def test_writer_refuses_non_finite_in_any_field(self, capsys, value):
        # the array comes first, and is not written either
        with pytest.raises(RiskError, match="^results is not finite$"):
            cli._print_document(weights=np.array([0.5, 0.5]), results=value)
        assert capsys.readouterr().out == ""


class TestConsoleEntry:
    def test_module_invocation(self, three_file):
        out = subprocess.run(
            [sys.executable, "-m", "riskcore.cli", "es", "--sample",
             three_file, "--k", "2"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert out.stdout.strip() == "-0.5"

    def test_closed_stdout_is_one_line(self):
        # about 4 MB of weights: the writer is still writing when the
        # reader stops after 20 bytes
        proc = subprocess.Popen(
            [sys.executable, "-m", "riskcore.cli", "weights", "--spectrum",
             '{"type":"uniform"}', "--n", "200000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.read(20) == b'{"schema": "riskcore'
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 2
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        assert err == "error: standard output was closed\n"

    def test_stack_traces_never_leak(self, three_file):
        out = subprocess.run(
            [sys.executable, "-m", "riskcore.cli", "es", "--sample",
             three_file, "--k", "99"],
            capture_output=True, text=True,
        )
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert out.stderr.count("\n") == 1

    def test_undecodable_sample_is_one_line_from_file_and_stdin(
            self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"pnl\n1.0\n\xff\xfe\n")
        argv = [sys.executable, "-m", "riskcore.cli", "es", "--k", "1",
                "--sample"]
        from_file = subprocess.run(argv + [str(path)], capture_output=True,
                                   timeout=60)
        # the stdin reader may not depend on the locale's error handler
        env = dict(os.environ, PYTHONIOENCODING="utf-8:strict")
        with open(path, "rb") as fh:
            from_stdin = subprocess.run(argv + ["-"], stdin=fh, env=env,
                                        capture_output=True, timeout=60)
        for out in (from_file, from_stdin):
            assert out.returncode == 2 and out.stdout == b""
            assert out.stderr == (
                b"error: sample line 3 is not a number: '\\udcff\\udcfe'\n"
            )

    # a cold call loads the riskcore modules its subcommand runs and no
    # other: compiling and building the rest is most of riskcore's share of
    # a cold start. scipy.special, which only normal laws need, costs more
    # than all of them; dataclasses, which no value class on these paths
    # uses, cost milliseconds.
    CHEAP = {"cli", "core", "errors", "estimators"}

    @pytest.mark.parametrize("argv,modules,oracle", [
        (None, set(), False),
        (["es", "--sample", "{sample}", "--k", "2"], CHEAP, False),
        (["decompose", "--weights", "[0.5,0.3,0.2]"], CHEAP, False),
        (["compose", "--mixture", "[0.5,0.3,0.2]"], CHEAP, False),
        (["estimate", "--sample", "{sample}", "--weights", "[0.5,0.3,0.2]"],
         CHEAP, False),
        (["estimate", "--sample", "{sample}", "--mixture", "[0.5,0.3,0.2]"],
         CHEAP, False),
        (["estimate", "--sample", "{sample}", "--repset",
          '{"vertices":[[0.5,0.3,0.2]]}'], CHEAP, False),
        (["weights", "--spectrum", '{"type":"exponential","k":2}', "--n", "5"],
         CHEAP | {"spectra"}, False),
        (["estimate", "--sample", "{sample}", "--spectrum", '{"type":"uniform"}'],
         CHEAP | {"spectra"}, False),
        (["recover", "--oracle", DES_ORACLE, "--n", "4"], CHEAP, True),
    ], ids=["import", "es", "decompose", "compose", "estimate-weights",
            "estimate-mixture", "estimate-repset", "weights",
            "estimate-spectrum", "recover"])
    def test_cold_call_loads_only_its_modules(self, three_file, argv, modules,
                                              oracle):
        if argv is None:
            run = "import riskcore"
        else:
            argv = [a.replace("{sample}", three_file) for a in argv]
            run = "from riskcore.cli import main; assert main(sys.argv[1:]) == 0"
        out = subprocess.run(
            [sys.executable, "-c",
             f"import sys; {run}; print(*sys.modules, file=sys.stderr)",
             *(argv or [])],
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        loaded = set(out.stderr.split())
        assert {m for m in loaded if m.startswith("riskcore.")} == {
            "riskcore." + m for m in modules}
        assert "riskcore" in loaded
        assert ("subprocess" in loaded) is oracle
        assert ("select" in loaded) is oracle
        assert not any(m.split(".")[0] == "scipy" for m in loaded)
        assert "dataclasses" not in loaded


class TestParser:
    def test_two_calls_build_the_parser_once(self, capsys, monkeypatch,
                                             three_file):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        assert run_cli(capsys, "es", "--sample", three_file, "--k", "2")[0] == 0
        first = len(built)
        assert run_cli(capsys, "es", "--sample", three_file, "--k", "1")[0] == 0
        assert first > 0 and len(built) == first
        build_parser.cache_clear()


class TestBadInputs:
    def test_axioms_n_zero_exits_instead_of_hanging(self):
        # an empty request line gets no reply, so n = 0 must never reach
        # the oracle
        out = subprocess.run(
            [sys.executable, "-m", "riskcore.cli", "axioms", "--oracle",
             DES_ORACLE, "--n", "0", "--trials", "10", "--seed", "1"],
            capture_output=True, text=True, timeout=30,
        )
        assert out.returncode == 2
        assert out.stdout == ""
        assert "n must be >= 1" in out.stderr
        assert out.stderr.count("\n") == 1

    def test_trials_above_the_ceiling_exits_instead_of_running(self):
        # a missing oracle command exits 2 as well, so the message must
        # name the ceiling
        out = subprocess.run(
            [sys.executable, "-m", "riskcore.cli", "axioms", "--oracle",
             DES_ORACLE, "--n", "3", "--trials", str(10**20), "--seed", "1"],
            capture_output=True, text=True, timeout=30,
        )
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == (
            f"error: --trials exceeds the size ceiling 2147483647: {10**20}\n"
        )

    def test_overflowing_es_is_an_error(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("1e308\n1e308\n")
        out = subprocess.run(
            [sys.executable, "-m", "riskcore.cli", "es", "--sample",
             str(path), "--k", "2"],
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 2
        assert out.stdout == ""
        assert "not finite" in out.stderr
        assert "Warning" not in out.stderr
        assert out.stderr.count("\n") == 1

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_fmt_rejects_non_finite(self, value):
        with pytest.raises(RiskError, match=r"^result is not finite: "):
            fmt(value)
