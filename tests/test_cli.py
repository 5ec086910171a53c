"""Command-line surface: parsing, output formats, exit codes, replay."""

import argparse
import io
import json
import pathlib
import shlex
import subprocess
import sys
import time

import numpy as np
import pytest

from riskcore import cli
from riskcore.cli import (
    SubprocessOracle,
    build_parser,
    fmt,
    main,
    read_sample,
    write_sample,
)
from riskcore.errors import OracleFailure, RiskError

ORACLES = pathlib.Path(__file__).parent / "oracles"
DES_ORACLE = f"{sys.executable} {ORACLES / 'des_oracle.py'}"
STD_ORACLE = f"{sys.executable} {ORACLES / 'std_oracle.py'}"
SILENT_ORACLE = f"{sys.executable} {ORACLES / 'silent_oracle.py'}"
PARTIAL_ORACLE = f"{sys.executable} {ORACLES / 'partial_oracle.py'}"


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
        doc = json.loads(out)
        assert doc["schema"] == "riskcore/1"
        assert doc["value"] == 2.0 and doc["argmax_index"] == 1


class TestWeightAlgebra:
    def test_weights_uniform(self, capsys):
        code, out, _ = run_cli(
            capsys, "weights", "--spectrum", '{"type":"uniform"}', "--n", "3"
        )
        doc = json.loads(out)
        assert np.allclose(doc["weights"], [1 / 3] * 3, atol=1e-15)

    def test_decompose_compose_round_trip(self, capsys):
        weights = "[0.5, 0.3333333333333333, 0.16666666666666666]"
        code, out, _ = run_cli(capsys, "decompose", "--weights", weights)
        assert code == 0
        mixture = json.loads(out)["mixture"]
        assert np.allclose(mixture, [1 / 6, 1 / 3, 1 / 2], atol=1e-12)
        code, out, _ = run_cli(
            capsys, "compose", "--mixture", json.dumps(mixture)
        )
        assert np.allclose(
            json.loads(out)["weights"], [1 / 2, 1 / 3, 1 / 6], atol=1e-12
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
        assert np.allclose(json.loads(out)["weights"], [0.5, 0.5, 0.0],
                           atol=1e-12)

    def test_axioms_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "axioms", "--oracle", f"{DES_ORACLE} 2", "--n", "3",
            "--trials", "40", "--seed", "5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] and all(doc["axioms"].values())

    def test_axioms_foil_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "axioms", "--oracle", STD_ORACLE, "--n", "5",
            "--trials", "40", "--seed", "5",
        )
        assert code == 1
        doc = json.loads(out)
        assert not doc["passed"]
        assert "cash_additivity" in doc["counterexamples"]

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
            with pytest.raises(OracleFailure, match="did not answer"):
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
        weights = json.loads(out.stdout)["weights"]
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
            with pytest.raises(OracleFailure):
                oracle(np.zeros(3))

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
            with pytest.raises(OracleFailure, match="did not answer"):
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
        doc = json.loads(out1)
        assert doc["schema"] == "riskcore/1" and doc["passed"]

    @pytest.mark.parametrize("command, config", [
        ("clt", CLT_CONFIG),
        ("bootstrap", json.dumps({
            "spectrum": {"type": "linear", "slope": 2.0},
            "dist": {"type": "normal", "mean": 0, "sd": 1},
            "n": 200, "B": 120,
        })),
        ("consistency", json.dumps({
            "class": "bundled", "dist": {"type": "exponential", "rate": 1},
            "n_grid": [50, 400], "reps": 5, "threshold": 0.5,
        })),
        ("rate", json.dumps({
            "class": [{"type": "uniform"}],
            "dist": {"type": "uniform", "a": 0, "b": 1},
            "n_grid": [100, 1000], "reps": 5,
        })),
    ])
    def test_threads_flag_is_accepted_and_ignored(self, capsys, command,
                                                  config):
        plain = run_cli(capsys, command, "--config", config, "--seed", "4")
        threaded = run_cli(capsys, command, "--config", config, "--seed", "4",
                           "--threads", "2")
        assert plain[0] in (0, 1)
        assert threaded == plain

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
        doc = json.loads(out1)
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
        assert json.loads(out)["passed"] is False

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
        res = json.loads(out)["results"]
        assert res["d_K_m"] <= res["d_K"]

    def test_consistency_bundled_class(self, capsys):
        config = json.dumps({
            "class": "bundled",
            "dist": {"type": "uniform", "a": 0, "b": 1},
            "n_grid": [500], "reps": 3, "threshold": 0.2,
        })
        code, out, _ = run_cli(capsys, "consistency", "--config", config,
                               "--seed", "3")
        assert code == 0
        assert json.loads(out)["passed"]

    def test_rate_runs(self, capsys):
        config = json.dumps({
            "class": [{"type": "uniform"}],
            "dist": {"type": "normal", "mean": 0, "sd": 1},
            "n_grid": [100, 1000], "reps": 10,
        })
        code, out, _ = run_cli(capsys, "rate", "--config", config,
                               "--seed", "4")
        assert code == 0
        assert "slope" in json.loads(out)["results"]


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


class TestSampleIo:
    def test_round_trip_exact(self, tmp_path):
        gen = np.random.default_rng(3)
        values = gen.standard_normal(64) * 1e5
        path = tmp_path / "x.csv"
        with open(path, "w") as fh:
            write_sample(values, fh)
        back = read_sample(str(path))
        assert np.array_equal(back.values, values)


class TestConsoleEntry:
    def test_module_invocation(self, three_file):
        out = subprocess.run(
            [sys.executable, "-m", "riskcore.cli", "es", "--sample",
             three_file, "--k", "2"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert out.stdout.strip() == "-0.5"

    def test_stack_traces_never_leak(self, three_file):
        out = subprocess.run(
            [sys.executable, "-m", "riskcore.cli", "es", "--sample",
             three_file, "--k", "99"],
            capture_output=True, text=True,
        )
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert out.stderr.count("\n") == 1

    def test_cli_import_leaves_scipy_out(self):
        # scipy.special is most of the cold start; only normal laws need it
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, riskcore.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0
        assert out.stdout.strip() == "False"


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
        with pytest.raises(RiskError):
            fmt(value)
