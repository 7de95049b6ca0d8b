"""Every public CLI failure path exits 1 (domain errors) or 2 (usage
errors) with a one-line ``repro:`` message — never a traceback — and
the ``faults`` verb is byte-identical across reruns."""

import pytest

from repro.cli import main
from repro.sweep import CompileCache, set_cache


@pytest.fixture(autouse=True)
def fresh_cache():
    previous = set_cache(CompileCache())
    yield
    set_cache(previous)


def run_cli(argv):
    """Invoke the CLI; returns (exit_code, stdout, stderr)."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


class TestExitCodes:
    def test_success_is_zero(self):
        code, out, err = run_cli(["faults", "tinymlp", "--rate", "0"])
        assert code == 0
        assert "Baseline vs degraded" in out
        assert err == ""

    def test_unknown_network_exits_2(self):
        code, _, err = run_cli(["faults", "no-such-net"])
        assert code == 2
        assert err.startswith("repro: unknown network")
        assert "Traceback" not in err

    def test_bad_rate_exits_2(self):
        code, _, err = run_cli(["faults", "tinymlp", "--rate", "2.0"])
        assert code == 2
        assert "rate must be in [0, 1]" in err
        assert "Traceback" not in err

    def test_bad_kind_exits_2(self):
        code, _, err = run_cli(["faults", "tinymlp", "--kind", "bogus"])
        assert code == 2
        assert "unknown fault kind" in err
        assert "Traceback" not in err

    def test_unmappable_exits_1_without_traceback(self):
        code, _, err = run_cli(
            ["faults", "alexnet", "--rate", "0.93", "--seed", "3"]
        )
        assert code == 1
        assert err.startswith("repro: ")
        assert "capacity exhausted" in err
        assert "Traceback" not in err

    def test_sweep_unknown_network_exits_2(self, tmp_path):
        code, _, err = run_cli(
            ["sweep", "no-such-net",
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert err.startswith("repro:")

    def test_sweep_bad_fault_kind_exits_2(self, tmp_path):
        code, _, err = run_cli(
            ["sweep", "tinymlp", "--fault-rate", "0.1",
             "--fault-kind", "bogus", "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert "unknown fault kind" in err

    def test_sweep_with_failed_job_exits_1_after_completing(
        self, tmp_path
    ):
        # An unmappable fault rate fails every job, but the sweep still
        # writes results and reports the failures as rows.
        out_path = tmp_path / "r.json"
        code, out, err = run_cli(
            ["sweep", "tinymlp", "--fault-rate", "0.95",
             "--fault-seed", "3", "--retries", "0",
             "--out", str(out_path)]
        )
        assert code == 1
        assert out_path.exists()
        assert "FAILED" in out
        assert "repro: job" in err

    def test_sweep_fail_fast_exits_1(self, tmp_path):
        code, _, err = run_cli(
            ["sweep", "tinymlp", "--fault-rate", "0.95",
             "--fault-seed", "3", "--retries", "0", "--fail-fast",
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 1
        assert "fail-fast" in err

    def test_validate_zero_batch_exits_2(self):
        # 0 is a bad knob, not "use the default".
        code, out, err = run_cli(["validate", "tiny", "--batch", "0"])
        assert code == 2
        assert err.startswith("repro: speedup batch must be a positive")
        assert "Traceback" not in err
        assert out == ""

    def test_validate_negative_batch_exits_2(self):
        code, out, err = run_cli(["validate", "tiny", "--batch", "-3"])
        assert code == 2
        assert "got -3" in err
        assert "Traceback" not in err
        assert out == ""

    def test_validate_zoo_rejects_bad_batch(self):
        from repro.dnn.zoo import tiny_cnn
        from repro.errors import ConfigError
        from repro.sim.validation import measure_speedup, validate_zoo

        with pytest.raises(ConfigError, match="got 0"):
            validate_zoo(["tiny"], speedup_batch=0)
        with pytest.raises(ConfigError, match="got -1"):
            measure_speedup(tiny_cnn(), batch=-1)


class TestFaultsVerb:
    def test_rerun_byte_identical(self):
        argv = ["faults", "vgg_e", "--rate", "0.02", "--seed", "7"]
        first = run_cli(argv)
        set_cache(CompileCache())  # cold cache: output must not change
        second = run_cli(argv)
        assert first == second
        assert first[0] == 0

    def test_reports_remap_and_ratio(self):
        code, out, _ = run_cli(
            ["faults", "vgg_e", "--rate", "0.02", "--seed", "7"]
        )
        assert code == 0
        assert "fault mask" in out
        assert "remapped" in out
        assert "ratio" in out

    def test_all_kinds_accepted(self):
        code, out, _ = run_cli(
            ["faults", "tinycnn", "--rate", "0.05", "--seed", "1",
             "--kind", "all"]
        )
        assert code == 0
        assert "Baseline vs degraded" in out
