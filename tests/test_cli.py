import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

import recallsearch
from recallsearch import analytics, cli, driver
from recallsearch.cli import _OPTIONS, SIMULATE_MAX_M, parse_config, run_command
from recallsearch.search import FULL_MAX_N

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(argv):
    return run_command(parse_config(argv))


def read_lines(path):
    return path.read_text().splitlines()


# The package's public surface: adding or removing a name changes this list.
PUBLIC_NAMES = [
    "Budgeted", "ComplexityReport", "FULL", "IdealSampler", "OVERALL", "PER_STEP",
    "ProblemInstance", "QuantumSampler", "QuantumState", "SUBSPACE", "SearchParams",
    "StepPlan", "TrialOutcome", "TrialStats", "Unbounded", "apply_diffusion_phase",
    "apply_oracle_phase", "build_plan", "chi_square_uniformity", "compare_models",
    "derive_search_params", "duality_queries", "execute_trial", "f_of_delta_curve",
    "f_of_m_curve", "final_state", "marked_mass", "measure", "resolve_step_delta",
    "run_search_once", "run_trials", "step_budget", "step_budgets", "success_probability",
    "total_runs_closed_form", "trial_stream",
]


def test_public_names_are_pinned():
    assert sorted(recallsearch.__all__) == PUBLIC_NAMES
    assert all(hasattr(recallsearch, name) for name in PUBLIC_NAMES)


def test_traced_names_resolve():
    # The benchmark's tracer wraps these names; one that no longer resolves
    # drops its per-layer metrics from a traced run. It is read, not changed.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("recallsearch_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = []
    for module_name, qualname, _ in tracer.TARGETS:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{module_name}.{qualname}")
    assert unresolved == []
    # the tracer wraps driver.step_budget wherever a module holds that same
    # function, so the kernel's scalar fallbacks in analytics are counted
    assert driver.step_budget is analytics.step_budget


class TestParseConfig:
    def test_analyze_basics(self):
        config = parse_config(["analyze", "--n", "1024", "--m", "2", "--delta", "0.01"])
        assert config.command == "analyze"
        assert config.n_states == 1024
        assert config.n_marked == 2
        assert config.delta == 0.01

    def test_delta_out_of_range_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["analyze", "--n", "16", "--m", "2", "--delta", "1.5"])
        assert exc.value.code == 2
        assert "(0, 1)" in capsys.readouterr().err

    def test_m_exceeding_n_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["analyze", "--n", "4", "--m", "9", "--delta", "0.1"])
        assert exc.value.code == 2
        assert "--m" in capsys.readouterr().err

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta=0.01\nn=64\nm=2\n")
        config = parse_config(
            ["analyze", "--config", str(cfg), "--delta", "0.05"]
        )
        assert config.delta == 0.05
        assert config.n_states == 64

    def test_config_file_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# experiment defaults\n\nn=32  # states\nm=3\ndelta=0.2\n")
        config = parse_config(["analyze", "--config", str(cfg)])
        assert (config.n_states, config.n_marked, config.delta) == (32, 3, 0.2)

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("shots=100\n")
        with pytest.raises(SystemExit) as exc:
            parse_config(["analyze", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "shots" in capsys.readouterr().err

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["analyze", "--n", "16"])
        assert exc.value.code == 2

    def test_explicit_marked_overrides_m(self):
        config = parse_config(
            ["simulate", "--n", "64", "--m", "9", "--marked", "3,5", "--delta", "0.1"]
        )
        assert config.marked == (3, 5)
        assert config.n_marked == 2

    def test_duplicate_marked_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["simulate", "--n", "64", "--marked", "3,3", "--delta", "0.1"])
        assert exc.value.code == 2

    def test_seed_env_default(self, monkeypatch):
        monkeypatch.setenv("RECALL_SEED", "777")
        config = parse_config(["analyze", "--n", "16", "--m", "1", "--delta", "0.1"])
        assert config.master_seed == 777

    def test_seed_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("RECALL_SEED", "777")
        config = parse_config(
            ["analyze", "--n", "16", "--m", "1", "--delta", "0.1", "--seed", "5"]
        )
        assert config.master_seed == 5

    def test_parser_is_built_once(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("parse_config built a parser")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        assert parse_config(["analyze", "--n", "16", "--m", "1", "--delta", "0.1"]).n_states == 16

    @pytest.mark.parametrize("marked", ["-1,3", "3,64", ","])
    @pytest.mark.parametrize("command", ["analyze", "simulate", "compare"])
    def test_marked_below_zero_exits_2(self, capsys, command, marked):
        # out of [0, N) below or above, or no index at all: --marked is named
        with pytest.raises(SystemExit) as exc:
            parse_config([command, "--n", "64", "--marked", marked, "--delta", "0.1"])
        assert exc.value.code == 2
        assert "--marked" in capsys.readouterr().err


# settings every command needs, as config-file keys and values
BASE = {
    "analyze": {"n": "64", "m": "3", "delta": "0.1"},
    "simulate": {"n": "64", "m": "3", "delta": "0.1"},
    "compare": {"n": "64", "delta": "0.1", "m-range": "1:2"},
    "curves": {"preset": "fig2"},
    "quantum-check": {},
}

# one non-default value for every option, and a command that takes it
SAMPLES = {
    "out": ("analyze", "out.json"),
    "seed": ("analyze", "5"),
    "format": ("curves", "json"),
    "n": ("analyze", "128"),
    "m": ("analyze", "2"),
    "marked": ("simulate", "1,5"),
    "delta": ("analyze", "0.2"),
    "delta-mode": ("analyze", "overall"),
    "preset": ("curves", "fig3"),
    "stride": ("curves", "7"),
    "points": ("curves", "9"),
    "trials": ("simulate", "50"),
    "strategy": ("simulate", "unbounded"),
    "sampler": ("simulate", "quantum"),
    "representation": ("simulate", "subspace"),
    "workers": ("simulate", "2"),
    "max-n": ("quantum-check", "64"),
    "m-range": ("compare", "2:4"),
}


def _argv(command, settings):
    argv = [command]
    for key, value in settings.items():
        argv += [f"--{key}", value]
    return argv


class TestOptionTable:
    @pytest.mark.parametrize("key", sorted(_OPTIONS))
    def test_flag_and_config_file_resolve_alike(self, key, tmp_path):
        command, value = SAMPLES[key]
        assert command in _OPTIONS[key].commands
        base = {k: v for k, v in BASE[command].items() if k != key}
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        from_flag = parse_config(_argv(command, {**base, key: value}))
        from_file = parse_config(_argv(command, base) + ["--config", str(cfg)])
        assert from_flag == from_file
        assert from_flag != parse_config(_argv(command, BASE[command]))

    @pytest.mark.parametrize("command,line", [
        ("simulate", "strategy=foo"),
        ("simulate", "representation=bogus"),
        ("curves", "format=xml"),
        ("simulate", "trials=0"),
        # keys of options the command does not take
        ("compare", "delta-mode=overall"),
        ("analyze", "sampler=quantum"),
    ])
    def test_invalid_config_value_exits_2(self, command, line, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            parse_config(_argv(command, BASE[command]) + ["--config", str(cfg)])
        assert exc.value.code == 2
        assert f"'{line.split('=')[0]}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "simulate", "compare"])
    def test_n_beyond_float_range_exits_2(self, command, capsys):
        # N/m no longer fits in a float (2**1024 - 1 rounds up to 2**1024)
        settings = {**BASE[command], "n": str(2**1024 - 1), "m": "1"}
        with pytest.raises(SystemExit) as exc:
            parse_config(_argv(command, settings))
        assert exc.value.code == 2
        assert "--n" in capsys.readouterr().err

    def test_largest_n_is_analyzed(self, capsys):
        n = int(sys.float_info.max)
        for m in ("1", "2"):
            assert run_cli(["analyze", "--n", str(n), "--m", m, "--delta", "0.1"]) == 0
            assert json.loads(capsys.readouterr().out)["N"] == n


class TestAnalyze:
    def test_report_json(self, capsys):
        code = run_cli(["analyze", "--n", "1024", "--m", "2", "--delta", "0.01"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["N"] == 1024
        assert payload["m"] == 2
        assert payload["q_duality"] == 18.0
        assert payload["r_integer"] == 8
        assert payload["meta"]["tool"] == "recallsearch"
        assert payload["meta"]["seed"] == 0

    def test_overall_delta_mode_tightens_steps(self, capsys):
        run_cli(["analyze", "--n", "1024", "--m", "10", "--delta", "0.05",
                 "--delta-mode", "overall"])
        overall = json.loads(capsys.readouterr().out)
        run_cli(["analyze", "--n", "1024", "--m", "10", "--delta", "0.05"])
        per_step = json.loads(capsys.readouterr().out)
        assert overall["delta"] < per_step["delta"]
        assert overall["r_integer"] >= per_step["r_integer"]

    def test_tiny_overall_delta_keeps_precision(self, capsys):
        assert run_cli(["analyze", "--n", "1048576", "--m", "1000", "--delta", "1e-17",
                        "--delta-mode", "overall"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta"] == pytest.approx(1e-17 / 999, rel=1e-14)

    def test_subnormal_delta_is_planned(self, capsys):
        assert run_cli(["analyze", "--n", "1024", "--m", "2", "--delta", "1e-310"]) == 0
        assert json.loads(capsys.readouterr().out)["r_integer"] == 1 + 1030

    def test_overall_delta_underflow_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["analyze", "--n", "2000000", "--m", "1000000",
                          "--delta", "1e-320", "--delta-mode", "overall"])
        assert exc.value.code == 2
        assert "--delta" in capsys.readouterr().err


class TestCurves:
    def test_fig2_shape(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run_cli(["curves", "--preset", "fig2", "--out", str(out)]) == 0
        lines = read_lines(out)
        assert lines[0].startswith("# recallsearch")
        assert "preset=fig2" in lines[0]
        assert lines[1] == "x,f"
        assert lines[2] == "1,1"
        assert len(lines) == 202
        values = [float(line.split(",")[1]) for line in lines[2:]]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_fig1_strided_is_monotone_and_covers_range(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert run_cli(
            ["curves", "--preset", "fig1", "--stride", "5000", "--out", str(out)]
        ) == 0
        lines = read_lines(out)
        xs = [int(line.split(",")[0]) for line in lines[2:]]
        values = [float(line.split(",")[1]) for line in lines[2:]]
        assert xs[0] == 1
        assert xs[-1] == 100000
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_fig3_decreasing_in_delta(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert run_cli(
            ["curves", "--preset", "fig3", "--points", "40", "--out", str(out)]
        ) == 0
        lines = read_lines(out)
        xs = [float(line.split(",")[0]) for line in lines[2:]]
        values = [float(line.split(",")[1]) for line in lines[2:]]
        assert len(xs) == 40
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_requires_preset(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["curves"])
        assert exc.value.code == 2


class TestSimulate:
    def test_repeat_is_byte_identical(self, tmp_path):
        args = ["simulate", "--n", "64", "--m", "4", "--delta", "0.05",
                "--trials", "500", "--seed", "42"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_workers_do_not_change_bytes(self, tmp_path):
        base = ["simulate", "--n", "64", "--m", "4", "--delta", "0.05",
                "--trials", "500", "--seed", "9", "--sampler", "quantum"]
        out1, out2 = tmp_path / "w1.json", tmp_path / "w4.json"
        assert run_cli(base + ["--out", str(out1), "--workers", "1"]) == 0
        assert run_cli(base + ["--out", str(out2), "--workers", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_workers_start_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("simulate started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert run_cli(["simulate", "--n", "64", "--m", "4", "--delta", "0.05",
                        "--trials", "50", "--workers", "2"]) == 0

    def test_payload_consistency(self, tmp_path):
        out = tmp_path / "sim.json"
        assert run_cli(
            ["simulate", "--n", "256", "--m", "3", "--delta", "0.05",
             "--trials", "400", "--seed", "3", "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["n_trials"] == 400
        assert payload["mean_queries"] == pytest.approx(
            payload["mean_runs"] * payload["queries_per_run"], rel=1e-12
        )
        assert len(payload["per_step_success_rate"]) == 3
        assert payload["meta"]["config"]["sampler"] == "ideal"

    def test_unbounded_strategy(self, capsys):
        assert run_cli(
            ["simulate", "--n", "32", "--m", "4", "--delta", "0.1",
             "--trials", "200", "--seed", "1", "--strategy", "unbounded"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overall_success_rate"] == 1.0
        assert payload["mean_runs"] >= 4.0


    # sha256 of stdout, recorded before SUBSPACE evolution went closed-form,
    # FULL evolution in place and the quantum sampler's CDF was cached
    GOLDEN = [
        (["--n", "16384", "--m", "8", "--trials", "200", "--seed", "7",
          "--representation", "full"],
         "690e6043a1faa65ec7bdcd5c605492495d4cb1abe69c616e46a39178fa1465ab"),
        (["--n", "16384", "--m", "8", "--trials", "200", "--seed", "7",
          "--representation", "subspace"],
         "c94a7d3771dd80a1fa94351cf096d45cd3300033d5b6237a564c42a939bcbde2"),
        (["--n", "4096", "--m", "50", "--strategy", "unbounded", "--trials", "50",
          "--representation", "subspace", "--seed", "3"],
         "c0ce540dbf609e426f82ea38ee3239087f7ab7a1a0f9ee28cb584a5a9a0956e5"),
    ]

    @pytest.mark.parametrize("args,digest", GOLDEN, ids=["full", "subspace", "unbounded"])
    def test_quantum_output_matches_golden_hash(self, args, digest, capsys):
        argv = ["simulate", "--sampler", "quantum", "--delta", "0.05"] + args
        assert run_cli(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    # sha256 of stdout, recorded before the trial engine became one sequential
    # loop with one draw path
    GOLDEN_ENGINE = [
        ("--n 64 --m 8 --delta 0.05 --trials 2000 --seed 42 --sampler quantum --workers 4",
         "7c3a5ab7fa3371ada22caadf1e8e5fa853e17739ba317952fdb4e2dbc3764485"),
        # 3% of trials fail
        ("--n 1048576 --m 200 --delta 0.05 --delta-mode overall --trials 100 --seed 5",
         "09ff1d4ee28b82d1b4b8f423fcdefbe158c43259819cf16ca6bd91563798d4f9"),
        ("--n 1048576 --m 200 --delta 0.05 --strategy unbounded --trials 100 --seed 6",
         "4136a17641f151bf8bbd145f94e0168e995c9181ae7569f49f180b58c49d8fad"),
        ("--n 4096 --m 16 --delta 0.05 --strategy unbounded --sampler quantum "
         "--representation full --trials 300 --seed 8",
         "27fceb192b0507217e1b872497a0db50ee212624e26523f47d4ab07ae54066a9"),
        # most trials exhaust a step's budget
        ("--n 256 --m 20 --delta 0.3 --sampler quantum --representation full "
         "--trials 500 --seed 9",
         "05cdb911a9a9a27b4e3a5e6859ba6b45c8de02d05dc8f4434250d18af3bd0744"),
    ]

    @pytest.mark.parametrize("args,digest", GOLDEN_ENGINE, ids=[
        "readme", "ideal-budgeted", "ideal-unbounded", "full-unbounded", "full-exhausted"])
    def test_trial_engine_matches_golden_hash(self, args, digest, capsys):
        assert run_cli(["simulate"] + args.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_settings_from_config_file_match_golden_hash(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n=256\nm=5\ndelta=0.02\ntrials=300\nseed=11\nstrategy=unbounded\n"
                       "sampler=quantum\nrepresentation=subspace\n")
        assert run_cli(["simulate", "--config", str(cfg)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "157eb4395889f775eed6962fb226cdf4f39a57090760f2842b0db01c61043a53")

    def test_subspace_beyond_2_27(self, capsys):
        # ~8k rounds: a round-by-round product drifts past the norm check here
        assert run_cli(["simulate", "--n", "134217728", "--m", "1", "--sampler", "quantum",
                        "--representation", "subspace", "--delta", "0.05",
                        "--trials", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overall_success_rate"] == 1.0

    def test_full_above_cap_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["simulate", "--n", str(FULL_MAX_N + 1), "--m", "1",
                          "--sampler", "quantum", "--representation", "full",
                          "--delta", "0.05"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--n" in err and "--representation" in err


    @pytest.mark.parametrize("n,m", [(2**64, 2**63), (2 * SIMULATE_MAX_M, SIMULATE_MAX_M + 1)],
                             ids=["2**63", "limit+1"])
    def test_m_above_the_limit_exits_2(self, n, m, capsys):
        # 2**63 used to end in an OverflowError traceback from len(range(m))
        with pytest.raises(SystemExit) as done:
            cli.main(["simulate", "--n", str(n), "--m", str(m), "--delta", "0.1", "--trials", "1"])
        assert done.value.code == 2
        err = capsys.readouterr().err
        assert f"--m must be <= {SIMULATE_MAX_M}" in err and "Traceback" not in err

    def test_m_at_the_limit_is_accepted(self):
        config = parse_config(["simulate", "--n", str(2 * SIMULATE_MAX_M),
                               "--m", str(SIMULATE_MAX_M), "--delta", "0.1"])
        assert config.n_marked == SIMULATE_MAX_M


class TestCompare:
    def test_csv_schema_and_values(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert run_cli(
            ["compare", "--n", "1024", "--delta", "0.01", "--m-range", "1:4",
             "--out", str(out)]
        ) == 0
        lines = read_lines(out)
        assert lines[1] == "m,N,delta,r_real,r_int,q_real,q_int,q_duality"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 4
        by_m = {int(r[0]): r for r in rows}
        assert by_m[2][7] == "18"
        assert float(by_m[2][5]) == pytest.approx(145.23, abs=0.01)
        assert by_m[1][3] == "1"

    def test_round_trip_determinism(self, tmp_path):
        args = ["compare", "--n", "4096", "--delta", "0.01", "--m-range", "1:32"]
        out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_requires_m_range(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["compare", "--n", "64", "--delta", "0.1"])
        assert exc.value.code == 2

    def test_rejects_delta_mode(self, capsys):
        # compare prices per-step deltas only; it does not take --delta-mode
        with pytest.raises(SystemExit) as exc:
            parse_config(["compare", "--n", "4096", "--delta", "0.05", "--m-range", "8:9",
                          "--delta-mode", "overall"])
        assert exc.value.code == 2
        assert "--delta-mode" in capsys.readouterr().err


class TestQuantumCheck:
    def test_small_grid_passes(self, capsys):
        assert run_cli(["quantum-check", "--max-n", "64"]) == 0
        output = capsys.readouterr().out
        assert "max deviation over grid" in output
        assert output.strip().endswith("ok")

    def test_rejects_tiny_max_n(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["quantum-check", "--max-n", "2"])
        assert exc.value.code == 2

    def test_max_n_above_full_cap_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["quantum-check", "--max-n", str(2 * FULL_MAX_N)])
        assert exc.value.code == 2
        assert "--max-n" in capsys.readouterr().err

    def test_deviation_beyond_threshold_exits_3(self, monkeypatch, capsys):
        import recallsearch.cli as cli

        monkeypatch.setattr(cli, "success_probability", lambda *a, **k: 0.5)
        assert run_cli(["quantum-check", "--max-n", "8"]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_nan_deviation_fails_and_exits_3(self, monkeypatch, capsys):
        # max(0.0, nan) is 0.0: a NaN must not fold away into a passing sweep
        monkeypatch.setattr(cli, "success_probability", lambda *a, **k: float("nan"))
        assert run_cli(["quantum-check", "--max-n", "8"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:3] == ["N=4: worst |1 - p_success| = nan",
                              "N=8: worst |1 - p_success| = nan"]
        assert lines[3] == "max deviation over grid: nan (threshold 1.0e-09) FAIL"


class TestAlternateFormats:
    def test_header_fields_are_sorted_once(self, monkeypatch):
        config = parse_config(["compare", "--n", "64", "--delta", "0.1", "--m-range", "1:3"])
        header = cli._comment_line(config)

        def refuse(*args, **kwargs):
            raise AssertionError("fields() called per header")

        monkeypatch.setattr(cli, "fields", refuse)
        assert cli._comment_line(config) == header
        names = [k for k, _ in cli._resolved_pairs(config)]
        assert names == sorted(names) and "output_path" not in cli._IDENTITY_FIELDS

    def test_curves_json_rows(self, capsys):
        assert run_cli(
            ["curves", "--preset", "fig4", "--points", "5", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"] == ["x", "f"]
        assert len(payload["rows"]) == 5
        values = [f for _, f in payload["rows"]]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_compare_json_rows(self, capsys):
        assert run_cli(
            ["compare", "--n", "64", "--delta", "0.1", "--m-range", "1:3",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["m"] for row in payload["rows"]] == [1, 2, 3]
        assert payload["rows"][0]["N"] == 64

    def test_analyze_rejects_csv(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(
                ["analyze", "--n", "16", "--m", "1", "--delta", "0.1",
                 "--format", "csv"]
            )
        assert exc.value.code == 2


class TestErrors:
    def test_unwritable_output_is_runtime_failure(self, tmp_path):
        missing_dir = tmp_path / "nope" / "out.csv"
        code = run_cli(["curves", "--preset", "fig2", "--out", str(missing_dir)])
        assert code == 1

    def test_unwritable_output_fails_before_the_work(self, tmp_path, monkeypatch, capsys):
        import recallsearch.cli as cli

        def refuse(*args):
            raise AssertionError("run_trials was called")

        monkeypatch.setattr(cli, "run_trials", refuse)
        code = run_cli(["simulate", "--n", "64", "--m", "2", "--delta", "0.1",
                        "--out", str(tmp_path / "nope" / "x.json")])
        assert code == 1
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("exc,code", [
        (ValueError("overall delta 1e-300 over 9 steps\nunderflows to 0"), 2),
        (OSError(28, "No space left on device"), 1),
    ], ids=["value-error", "os-error"])
    def test_main_maps_escaped_errors_to_exit_codes(self, exc, code, monkeypatch, capsys):
        import recallsearch.cli as cli

        def fail(config):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "analyze", (fail, "raises"))
        with pytest.raises(SystemExit) as done:
            cli.main(["analyze", "--n", "1024", "--m", "2", "--delta", "0.01"])
        assert done.value.code == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert str(exc).splitlines()[-1] in captured.err


# sha256 of stdout, recorded before the options moved into one table
GOLDEN_OUTPUTS = [
    (["analyze", "--n", "1048576", "--m", "100", "--delta", "0.01"],
     "22da55f087b56260f5e2d043c6af2490952af58cf717f8cce0158718bbbf74a5"),
    (["analyze", "--n", "1048576", "--m", "100", "--delta", "0.05", "--delta-mode", "overall"],
     "b3c80f0ea5ab2bd29b0ec50ef2b0afb6176d5f7f05ec343201cfffe4e2c5c160"),
    (["curves", "--preset", "fig2"],
     "795578a0b09b722ae546c905f03cbbc15e9f229b8e745aa9c6409aeb2295557a"),
    (["curves", "--preset", "fig3", "--points", "20", "--format", "json"],
     "e57be4cb8fc2dde3664384a1eb049ad4fe8e600c0a807b3d39dd330d5a88fef1"),
    (["compare", "--n", "4096", "--delta", "0.01", "--m-range", "1:32"],
     "2474cc0f7e5b3de1743ab21f8f252da14be6728e472df2473ba23979de68f0aa"),
    (["compare", "--n", "4096", "--delta", "0.01", "--m-range", "1:32", "--format", "json"],
     "1cb31f106d045b0c7c57e6c8b20e50d1c1008469304e46bb94d0695c6db3089a"),
    (["quantum-check", "--max-n", "256"],
     "1796864e968a31760e2d1e75c2833f44136a7db6132cb37e9d43dafad8d511a7"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_OUTPUTS, ids=[
    "analyze-per-step", "analyze-overall", "curves-fig2", "curves-fig3-json",
    "compare-csv", "compare-json", "quantum-check"])
def test_output_matches_golden_hash(argv, digest, capsys):
    assert run_cli(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of stdout at scale, recorded before the k-sum and the step budgets
# were computed in numpy blocks: fig1 sums 5e7 k-sum terms, compare and the
# m=1e5 reports add up every step budget, and delta=1e-310 is subnormal.
GOLDEN_AT_SCALE = [
    (["curves", "--preset", "fig1"],
     "13ef5858861ef709c3a79c20c8a75b47fb20fac2dc9d1e7219cebc49b8ab91af"),
    (["compare", "--n", "1048576", "--delta", "0.01", "--m-range", "1:1024"],
     "1d5c5a5a66a63b111c6b289f707eec5bf95fc620fac025008664a6178ceb7e7d"),
    (["analyze", "--n", "1099511627776", "--m", "100000", "--delta", "1e-12"],
     "ed3f9121436f50b8f9af824bbf64f66772611323b95a2f39dbec4c0bc0a72ebf"),
    (["analyze", "--n", "1099511627776", "--m", "100000", "--delta", "0.05",
      "--delta-mode", "overall"],
     "c3176983cfa3816bd1cc25d1cad698362cbf3a55f39b129243b79fedc78aaacd"),
    (["analyze", "--n", "1024", "--m", "2", "--delta", "1e-310"],
     "67df241362a9ebf3450d396e37611f90fc71a8edd39a841dcecd8f9f9fc73889"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_AT_SCALE, ids=[
    "curves-fig1", "compare-1-1024", "analyze-1e5-per-step", "analyze-1e5-overall",
    "analyze-subnormal-delta"])
def test_output_at_scale_matches_golden_hash(argv, digest, capsys):
    assert run_cli(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of stdout, recorded before the step budgets were read off the
# k-sum's log1p terms: subnormal delta, where the last ulp of p**r is a large
# share of delta; delta = 1 - 2**-53, where every budget above step 1 is
# ceil(x) = 1 or just above it; and a budgeted simulate that lists its
# step_budgets.
GOLDEN_BUDGETS = [
    (["compare", "--n", "1048576", "--delta", "1e-320", "--m-range", "1:300"],
     "0438f1200a5ddd4f8808f9bff740893b6ef4c7408e4c127201b559526c0ac276"),
    (["compare", "--n", "1048576", "--delta", "0.9999999999999999", "--m-range", "1:300"],
     "391ebc8dc2e9fee659e1e2108afc352d0a70a5cb352980b99b7803e5f8acc446"),
    (["analyze", "--n", "1099511627776", "--m", "100000", "--delta", "1e-320"],
     "57ce5febac97334b8459242acdf643bad0bd7393cef1bed619e007e4062f6fb9"),
    (["simulate", "--n", "1048576", "--m", "200", "--delta", "1e-300", "--trials", "50",
      "--seed", "21"],
     "ff1b2ee2bce62d2e411ba2ae67ec6203354b25bad9d0eabfdd912e5f1bf67f6e"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_BUDGETS, ids=[
    "compare-subnormal-delta", "compare-delta-near-1", "analyze-1e5-subnormal-delta",
    "simulate-ideal-budgeted-1e-300"])
def test_budget_paths_match_golden_hash(argv, digest, capsys):
    assert run_cli(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of stdout, recorded before problems kept range marked sets and FULL
# rounds indexed the marked amplitudes by slice: the exactness sweep at the
# benchmark's size, and explicit --marked sets, which take the index-array
# path when unsorted and the slice path when consecutive.
UNSORTED = "3000,17,2049,5,1024,4095,999"
GOLDEN_MARKED = [
    (["quantum-check", "--max-n", "131072"],
     "282fc15883964ced735867d565574b225f3af6b0d47012673b8e6f5192fb5fb8"),
    (["simulate", "--n", "4096", "--marked", UNSORTED, "--delta", "0.05", "--sampler",
      "quantum", "--representation", "full", "--trials", "300", "--seed", "12"],
     "7e0fa3f56da456f1f05774a610508fa1abf4d3eb8fb287b33624e520890a4d17"),
    (["simulate", "--n", "4096", "--marked", UNSORTED, "--delta", "0.05", "--sampler",
      "quantum", "--representation", "full", "--strategy", "unbounded", "--trials", "200",
      "--seed", "13"],
     "8eb22bc0e76b6addb8014379d6841eb57777901e724735088bce2275b7d958d2"),
    (["simulate", "--n", "4096", "--marked", UNSORTED, "--delta", "0.05", "--sampler",
      "quantum", "--representation", "subspace", "--trials", "300", "--seed", "12"],
     "84d030ac8486e5bd8570bac75629feb264be11afe0c571387ebed9faead9d450"),
    (["simulate", "--n", "4096", "--marked", UNSORTED, "--delta", "0.05", "--trials", "300",
      "--seed", "12"],
     "878e3082306f6229d3190d3955c7094896e4de4a3866e5a29e7538601096a5a9"),
    (["simulate", "--n", "4096", "--marked", "7,8,9,10,11", "--delta", "0.05", "--sampler",
      "quantum", "--representation", "full", "--trials", "300", "--seed", "15"],
     "df106f4012c328282c0195e215fe6974af09da2fbf85ca8ec29b22d1a452611f"),
    (["simulate", "--n", "1024", "--m", "40", "--delta", "0.05", "--sampler", "quantum",
      "--representation", "full", "--trials", "200", "--seed", "14"],
     "bdb3d0279c047347b363a5ff8bd085e4f93dfaf052a85e1b3357b77b571cebdd"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_MARKED, ids=[
    "quantum-check-131072", "full-unsorted", "full-unsorted-unbounded",
    "subspace-unsorted", "ideal-unsorted", "full-consecutive", "full-m40"])
def test_marked_paths_match_golden_hash(argv, digest, capsys):
    assert run_cli(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_quantum_check_memory_bound(capsys):
    # the sweep evolves at most two statevectors at a time, in place: at
    # N = 2^17 that is 2 MiB of amplitudes each, with no m-element index set
    # and no copies
    argv = ["quantum-check", "--max-n", "131072"]
    tracemalloc.start()
    try:
        assert run_cli(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 6 * 2**20


QC_ARGV, QC_DIGEST = GOLDEN_MARKED[0]


class TestQuantumCheckLanes:
    """The long FULL evolutions run in two lanes, one on a thread."""

    def test_each_deviation_equals_sequential_evaluation(self, monkeypatch, capsys):
        from recallsearch import search

        seen, threads = {}, set()

        def recording(problem, params, representation):
            p = search.success_probability(problem, params, representation)
            seen[problem.n_states, problem.n_marked, representation] = p
            threads.add(threading.current_thread() is threading.main_thread())
            return p

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "success_probability", recording)
        before = threading.active_count()
        assert run_cli(QC_ARGV) == 0
        assert threading.active_count() == before
        capsys.readouterr()
        assert threads == {True, False}
        expected = {}
        n = 4
        while n <= 131072:
            for m in sorted({1, 2, 3, n // 4, n // 2, n}):
                problem = search.ProblemInstance(n_states=n, marked=range(m), delta=0.5)
                params = search.derive_search_params(problem)
                for rep in (search.SUBSPACE, search.FULL):
                    p = search.success_probability(problem, params, rep)
                    expected[n, m, rep] = abs(1.0 - p).hex()
            n *= 2
        assert {k: abs(1.0 - p).hex() for k, p in seen.items()} == expected

    def test_one_cpu_starts_no_thread(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started with one usable CPU")

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(threading, "Thread", refuse)
        assert run_cli(QC_ARGV) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == QC_DIGEST

    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_worker_lane_error_surfaces_after_join(self, monkeypatch, capsys):
        from recallsearch import search

        error = ValueError("worker lane failed")
        unhandled = []

        def failing_off_main(*args):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.3)  # still running when the main lane is done
                raise error
            return search.success_probability(*args)

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "success_probability", failing_off_main)
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        before = threading.active_count()
        with pytest.raises(ValueError) as exc:
            run_cli(QC_ARGV)
        assert exc.value is error
        assert threading.active_count() == before
        with pytest.raises(SystemExit) as exc:
            cli.main(QC_ARGV)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: worker lane failed\n"
        assert threading.active_count() == before
        assert unhandled == []


FIG1_ARGV, FIG1_DIGEST = GOLDEN_AT_SCALE[0]


def stdout_with_lanes(monkeypatch, capsys, argv, cpus):
    monkeypatch.setattr(analytics, "_usable_cpus", lambda: cpus)
    assert run_cli(argv) == 0
    return capsys.readouterr().out


class TestPricingLanes:
    """A pricing call of LANE_TERMS k-sum terms or more runs in two lanes,
    one on a thread."""

    @pytest.mark.parametrize("argv", [
        ["curves", "--preset", "fig1", "--stride", "37"],
        ["analyze", "--n", str(2**40), "--m", "2097152", "--delta", "1e-320"],
    ], ids=["fig1-stride-37", "analyze-2-pow-21-subnormal-delta"])
    def test_two_lanes_print_the_bytes_of_one(self, argv, monkeypatch, capsys):
        lanes, price_blocks = set(), analytics._price_blocks

        def recording(*args):
            lanes.add(threading.current_thread() is threading.main_thread())
            price_blocks(*args)

        monkeypatch.setattr(analytics, "_price_blocks", recording)
        one = stdout_with_lanes(monkeypatch, capsys, argv, 1)
        assert lanes == {True}
        before = threading.active_count()
        assert stdout_with_lanes(monkeypatch, capsys, argv, 2) == one
        assert lanes == {True, False}
        assert threading.active_count() == before

    def test_one_cpu_starts_no_thread(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started with one usable CPU")

        monkeypatch.setattr(threading, "Thread", refuse)
        out = stdout_with_lanes(monkeypatch, capsys, FIG1_ARGV, 1)
        assert hashlib.sha256(out.encode()).hexdigest() == FIG1_DIGEST

    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_worker_lane_error_surfaces_after_join(self, monkeypatch, capsys):
        error = ValueError("worker lane failed")
        unhandled, price_blocks = [], analytics._price_blocks

        def failing_off_main(*args):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.3)  # still running when the main lane is done
                raise error
            price_blocks(*args)

        monkeypatch.setattr(analytics, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(analytics, "_price_blocks", failing_off_main)
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        before = threading.active_count()
        with pytest.raises(ValueError) as exc:
            run_cli(FIG1_ARGV)
        assert exc.value is error
        assert threading.active_count() == before
        with pytest.raises(SystemExit) as exc:
            cli.main(FIG1_ARGV)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: worker lane failed\n"
        assert threading.active_count() == before
        assert unhandled == []

    def test_fig1_under_warnings_as_errors(self):
        # a fresh interpreter with the host's own CPUs: nothing is printed
        # after the command returns, and no warning is raised anywhere
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-W", "error", "-m", "recallsearch", *FIG1_ARGV],
                              env=env, capture_output=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, b"")
        assert hashlib.sha256(done.stdout).hexdigest() == FIG1_DIGEST


@pytest.mark.parametrize("module", ["recallsearch", "recallsearch.cli"])
def test_module_entry_point(module, capsys):
    argv = ["analyze", "--n", "1024", "--m", "2", "--delta", "0.01"]
    assert run_cli(argv) == 0
    expected = capsys.readouterr().out.encode()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected
