"""CLI: config parsing, validation, CSV emission, determinism."""

import os
import re
import subprocess
import sys
import time
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from statvol import cli, engine


def write_config(tmp_path, name="run.cfg", **overrides):
    base = {
        "model": "heston",
        "s0": 50.0,
        "r": 0.05,
        "rho": 0.5,
        "k": 2.0,
        "theta": 0.01,
        "sigma_v": 0.1,
        "strikes": "44,50,56",
        "maturity": 1.0,
        "n_iters": 2000,
        "seed": 2024,
        "parity": "on",
        "replications": 1,
        "threads": 1,
    }
    base.update(overrides)
    lines = [f"{k} = {v}" for k, v in base.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestConfigParsing:
    def test_roundtrip_and_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nmodel = heston\nstrikes = 44, 50 , 56\n"
                     "parity = off  # trailing comment\nn_iters=123\n")
        cfg = cli.load_config(p)
        assert cfg.model == "heston"
        assert cfg.strikes == (44.0, 50.0, 56.0)
        assert cfg.parity is False
        assert cfg.n_iters == 123

    def test_unknown_key_rejected(self, tmp_path):
        # a misspelling, and keys of removed model options
        for key, raw in [("modle", "heston"), ("compensate_jumps", "on"),
                         ("x_init", "3"), ("y_init", "0"), ("v_init", "0.01"),
                         ("truncation_umax", "0.5")]:
            p = tmp_path / "c.cfg"
            p.write_text(f"{key} = {raw}\n")
            with pytest.raises(cli.ConfigError, match=f"unknown key '{key}'"):
                cli.load_config(p)

    def test_schema_documents_exactly_the_config_keys(self):
        text = (Path(cli.__file__).parent / "config_schema.txt").read_text()
        # the key table follows the first bare '#' line; an entry names its
        # keys (comma-separated) before a run of spaces, and continuation
        # lines start indented
        table = text.split("\n#\n", 1)[1]
        documented = set()
        for line in table.splitlines():
            entry = line[2:]
            if entry and not entry.startswith(" "):
                documented.update(re.split(r"\s{2,}", entry, maxsplit=1)[0].split(", "))
        assert documented == {f.name for f in fields(cli.RunConfig)}

    def test_bad_value_rejected(self, tmp_path):
        # unparsable, and non-finite numbers (scalar keys and list elements)
        cases = [
            ("n_iters", "many"),
            ("maturity", "inf"),
            ("maturities", "0.5,nan"),
            ("hist_lo", "-inf"),
            ("strikes", "44,nan"),
            ("r", "nan"),
            ("s0", "inf"),
        ]
        for key, raw in cases:
            p = tmp_path / f"{key}.cfg"
            p.write_text(f"model = heston\n{key} = {raw}\n")
            with pytest.raises(cli.ConfigError,
                               match=re.escape(f"{p}:2: bad value for {key}: ")):
                cli.load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.load_config(tmp_path / "absent.cfg")


class TestExitCodes:
    def test_config_error_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, model="garch")
        rc = cli.main(["price-asian", "--config", str(cfg), "--out",
                       str(tmp_path / "o.csv")])
        assert rc == 2

    def test_field_validation_names_field(self, tmp_path, capsys):
        # (command, key, value, other keys): each value lies outside the key's domain
        bns = {"model": "bns", "rho": -1.0}
        cases = [
            ("price-asian", "replications", 0, {}),
            ("stationary-stats", "hist_bins", 0, {}),
            ("check-schedule", "scan_max", 9, {}),
            ("oracle", "oracle_paths", 1, {}),
            ("oracle", "oracle_fine_step", 0.0, {}),
            ("oracle", "oracle_fine_step", 0.5, {}),
            ("vol-surface", "maturities", ",", {}),
            ("vol-surface", "maturities", "", {}),
            ("price-asian", "jump_lambda", 0.0, bns),
            ("price-asian", "jump_alpha", 1.5, bns),
            ("price-asian", "jump_c", 0.0, bns),
            ("price-asian", "truncation_power", 0.5, bns),
            ("price-asian", "s0", 0.0, {}),
            ("price-asian", "rho", 2.0, {}),
        ]
        for command, key, value, other in cases:
            cfg = write_config(tmp_path, **{**other, key: value})
            rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
            err = capsys.readouterr().err
            assert rc == 2, (command, key, value, err)
            assert key in err, (command, key, value, err)

    def test_unwritable_out_exit_2(self, tmp_path, capsys, monkeypatch):
        swept, run = [], engine.run

        def watched_run(*args, **kwargs):
            swept.append(1)
            return run(*args, **kwargs)

        monkeypatch.setattr(engine, "run", watched_run)
        cfg = write_config(tmp_path, n_iters=50)
        # a missing directory, and a directory in place of the file
        for out in (tmp_path / "missing" / "o.csv", tmp_path):
            rc = cli.main(["price-asian", "--config", str(cfg), "--out", str(out)])
            assert rc == 2
            assert str(out) in capsys.readouterr().err
        assert not swept  # failed before any simulation

    def test_ok_exit_0(self, tmp_path):
        cfg = write_config(tmp_path, n_iters=500)
        rc = cli.main(["price-asian", "--config", str(cfg), "--out",
                       str(tmp_path / "o.csv")])
        assert rc == 0

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # gamma_1 * mu > 1: the variance contraction overshoots below zero
        # and the per-step validity check trips
        cfg = write_config(tmp_path, model="bns", rho=-1.0, mu=5.0,
                           strikes="50", n_iters=2000)
        rc = cli.main(["price-asian", "--config", str(cfg), "--out",
                       str(tmp_path / "o.csv")])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


    def test_large_step_with_large_truncation_power_runs(self, tmp_path):
        # gamma_n = 2 n^(-1/3) >= 1 on every step the 4 windows read, so each
        # threshold is the cap 1; 2.0 ** 2000 itself would overflow
        cfg = write_config(tmp_path, model="bns", rho=-1.0, mu=0.5, c2=2.0,
                           truncation_power=2000, strikes="50", n_iters=4)
        rc = cli.main(["price-asian", "--config", str(cfg), "--out",
                       str(tmp_path / "o.csv")])
        assert rc == 0

    def test_runaway_poisson_mean_exit_3(self, tmp_path, capsys):
        # gamma_9 = 2 * 9^(-1/3) = 0.9615 is the first step below 1: its
        # threshold 0.9615 ** 2000 = 7.9e-35 expects about 2.2e15 jumps, so
        # the step fails before it draws them one at a time
        cfg = write_config(tmp_path, model="bns", rho=-1.0, mu=0.5, c2=2.0,
                           truncation_power=2000, strikes="50", n_iters=100)
        t0 = time.perf_counter()
        rc = cli.main(["price-asian", "--config", str(cfg), "--out",
                       str(tmp_path / "o.csv")])
        assert rc == 3
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        assert "driver step to index 9 failed" in err
        assert "jumps in one step" in err


class TestPriceAsianCommand:
    def test_row_per_strike(self, tmp_path):
        cfg = write_config(tmp_path, n_iters=500)
        out = tmp_path / "o.csv"
        assert cli.main(["price-asian", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "strike,estimate,std_error,n,seed"
        assert len(lines) == 4
        assert lines[1].startswith("44,")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, n_iters=800, replications=3)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["price-asian", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["price-asian", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path, n_iters=800, replications=3)
        outs = []
        for threads in (1, 4):
            out = tmp_path / f"t{threads}.csv"
            rc = cli.main(["price-asian", "--config", str(cfg), "--out", str(out),
                           "--threads", str(threads)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, n_iters=500, seed=1)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["price-asian", "--config", str(cfg), "--out", str(out1)])
        cli.main(["price-asian", "--config", str(cfg), "--out", str(out2),
                  "--seed", "2"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_bns_model_runs(self, tmp_path):
        cfg = write_config(tmp_path, model="bns", rho=-1.0, n_iters=500,
                           truncation_power=2.0)
        out = tmp_path / "o.csv"
        assert cli.main(["price-asian", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4


class TestVolSurfaceCommand:
    def test_grid_cardinality_and_flags(self, tmp_path):
        cfg = write_config(tmp_path, n_iters=4000,
                           strikes=",".join(str(k) for k in range(44, 57)),
                           maturities="0.1")
        out = tmp_path / "s.csv"
        assert cli.main(["vol-surface", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "strike,maturity,price,implied_vol,status"
        assert len(lines) == 14
        for line in lines[1:]:
            status = line.split(",")[-1]
            assert status in ("ok", "band_violation")

    def test_scheme_warning_raised_once(self, tmp_path):
        # the benchmark Heston parameters violate the sufficient
        # scheme-convergence condition; the run validates them once, not
        # once per replication and maturity
        cfg = write_config(tmp_path, n_iters=200, maturities="0.5,1,2", replications=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["vol-surface", "--config", str(cfg), "--out",
                           str(tmp_path / "s.csv")])
        assert rc == 0
        scheme = [w for w in caught if issubclass(w.category, RuntimeWarning)
                  and "scheme-convergence" in str(w.message)]
        assert len(scheme) == 1

    def test_single_point_composes_with_inversion(self, tmp_path):
        cfg = write_config(tmp_path, n_iters=4000, strikes="50", maturity=1.0)
        out = tmp_path / "s.csv"
        assert cli.main(["vol-surface", "--config", str(cfg), "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[-1] == "ok"
        iv = float(row[3])
        assert 0.0 < iv < 1.0


class TestStationaryStatsCommand:
    def test_histogram_mass_and_checkpoints(self, tmp_path):
        cfg = write_config(tmp_path, n_iters=1000, hist_lo=0.0, hist_hi=0.05)
        out = tmp_path / "m.csv"
        assert cli.main(["stationary-stats", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        moments = [l for l in lines[1:] if l.startswith("moment")]
        hist = [l for l in lines[1:] if l.startswith("histogram")]
        # n_iters = 1000 is a power of ten: floor(log10 n) + 1 checkpoints
        assert len(moments) == 4
        mass = sum(float(l.split(",")[-1]) for l in hist)
        assert mass == pytest.approx(1.0, abs=1e-12)
        final_mean = float(moments[-1].split(",")[2])
        assert 0.005 < final_mean < 0.02

    def test_bns_variance_marginal(self, tmp_path):
        # the stationary mean of v is c Gamma(1-alpha) lam^(alpha-1) / mu = 0.0177
        cfg = write_config(tmp_path, model="bns", rho=-1.0, mu=1.0, n_iters=2000,
                           hist_lo=0.0, hist_hi=0.05)
        out = tmp_path / "m.csv"
        assert cli.main(["stationary-stats", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        means = [float(r[2]) for r in rows if r[0] == "moment"]
        assert all(m > 0.0 for m in means)
        assert 0.005 <= means[-1] <= 0.04
        mass = sum(float(r[-1]) for r in rows if r[0] == "histogram")
        assert mass == pytest.approx(1.0, abs=1e-12)


class TestCheckScheduleCommand:
    def test_three_conditions_reported(self, tmp_path):
        cfg = write_config(tmp_path, scan_max=20000)
        out = tmp_path / "d.csv"
        assert cli.main(["check-schedule", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        verdicts = [l.split(",")[1] for l in lines[1:]]
        assert verdicts == ["pass", "pass", "pass"]


class TestOracleCommand:
    def test_rows_and_heston_only(self, tmp_path):
        cfg = write_config(tmp_path, strikes="50", oracle_paths=400,
                           oracle_fine_step=1e-3)
        out = tmp_path / "o.csv"
        assert cli.main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "strike,estimate,std_error,n_paths,seed"
        assert len(lines) == 2
        bad = write_config(tmp_path, name="bns.cfg", model="bns", rho=-1.0)
        assert cli.main(["oracle", "--config", str(bad), "--out", str(out)]) == 2


def _fresh_modules(code):
    """The modules loaded after running ``code`` in a fresh interpreter."""
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print('\\n'.join(sys.modules))"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    return set(out.stdout.split())


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.special", "mpmath",
                                    "statvol.oracles", "concurrent.futures"])
def test_cli_import_leaves_heavy_modules_unloaded(module):
    # scipy.integrate serves only levy's quadrature, which no command calls,
    # and mpmath only the tests; the BNS jump rates run on numpy alone.  The
    # oracles serve only the oracle command, and the thread pool only a run
    # with more than one thread and replication.  Each would add its load
    # time to every run's set-up
    assert module not in _fresh_modules("import statvol.cli")


def _run_loads_scipy_or_mpmath(tmp_path, command, **overrides):
    """The scipy and mpmath modules a ``command`` run loads in a fresh interpreter."""
    cfg = write_config(tmp_path, name=f"{command}.cfg", **overrides)
    loaded = _fresh_modules(
        "from statvol import cli\n"
        f"assert cli.main([{command!r}, '--config', {str(cfg)!r}, "
        f"'--out', {str(tmp_path / (command + '.csv'))!r}]) == 0"
    )
    return {m for m in loaded if m.split(".")[0] in ("scipy", "mpmath")}


def test_heston_run_loads_no_scipy_or_mpmath(tmp_path):
    assert not _run_loads_scipy_or_mpmath(tmp_path, "price-asian", strikes="50", n_iters=200)


@pytest.mark.parametrize("command", ["price-asian", "stationary-stats"])
def test_bns_run_loads_no_scipy_or_mpmath(tmp_path, command):
    # the jump rates of every block come from levy's own incomplete gamma
    assert not _run_loads_scipy_or_mpmath(
        tmp_path, command, model="bns", rho=-1.0, strikes="50", n_iters=200,
        truncation_power=2.0)


def test_no_command_needs_mpmath(tmp_path):
    # mpmath is a test-only dependency: every command runs with its import blocked
    cfg = write_config(tmp_path, strikes="50", n_iters=200, oracle_paths=50,
                       scan_max=1000)
    _fresh_modules(
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from statvol import cli\n"
        f"for command in {list(cli._COMMANDS)!r}:\n"
        f"    assert cli.main([command, '--config', {str(cfg)!r}, "
        f"'--out', {str(tmp_path / 'o.csv')!r}]) == 0, command\n"
    )
