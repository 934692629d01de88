import argparse
import csv
import dataclasses
import io
import os
import subprocess
import sys

import pytest

from onlinelp import cli
from onlinelp.cli import _build_parser, _parse_gen_spec, build_parser, main
from onlinelp.instances import (MkpParams, ResultRecord, generate_mkp, read_results_csv,
                                write_results_csv)
from onlinelp.model import relative_optimality
from onlinelp.online import RunConfig, solve_online
from onlinelp.sifting import SiftRound
from onlinelp.simplex import solve_lp


def run_cli(args):
    return main(list(args))


def csv_fields(source) -> list[dict]:
    """The rows of a results CSV as written, every field but wall_time_s."""
    if not hasattr(source, "read"):
        source = open(source, newline="")
    with source:
        rows = list(csv.DictReader(source))
    for row in rows:
        del row["wall_time_s"]
    return rows


def library_rows(cells) -> list[dict]:
    """csv_fields of the rows that the library's pass gives for ``cells``
    of (params, method, K, run seed, enforce), each with its rel_opt
    against an exact solve."""
    records = []
    for params, method, k, seed, enforce in cells:
        inst = generate_mkp(params)
        config = RunConfig(method=method, duplication=k, seed=seed,
                           enforce_feasibility=enforce)
        sol = solve_online(inst, config)
        records.append(ResultRecord(
            params.label(), method, k, sol.gamma, seed, sol.objective, sol.violation,
            rel_opt=relative_optimality(inst, sol.x_hat, solve_lp(inst).obj)))
    buf = io.StringIO(newline="")
    write_results_csv(records, buf)
    buf.seek(0)
    return csv_fields(buf)


class TestGen:
    def test_writes_mps(self, tmp_path, capsys):
        out = tmp_path / "inst.mps"
        code = run_cli(["gen", "--m", "4", "--n", "30", "--tau", "0.3",
                        "--seed", "5", "--out", str(out)])
        assert code == 0
        assert out.exists()
        text = out.read_text()
        assert text.startswith("NAME") and text.rstrip().endswith("ENDATA")
        assert "resolved params" in capsys.readouterr().out


class TestSolve:
    def test_gen_solve_echoes_config(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = run_cli(["solve", "--gen", "m=4,n=40,tau=0.3,seed=2",
                        "--method", "implicit", "--k", "2",
                        "--enforce-feasibility", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "resolved gamma" in captured
        assert "objective" in captured
        recs = read_results_csv(out)
        assert len(recs) == 1
        assert recs[0].method == "implicit" and recs[0].k == 2
        assert recs[0].violation <= 1e-9

    def test_solve_mps_toy_with_gamma(self, tmp_path, capsys):
        mps = tmp_path / "toy.mps"
        mps.write_text(
            "NAME T\nOBJSENSE\n    MAX\nROWS\n N  OBJ\n L  CAP\nCOLUMNS\n"
            "    X1  OBJ  1.0  CAP  1.0\n    X2  OBJ  1.0  CAP  1.0\n"
            "RHS\n    RHS  CAP  0.5\nBOUNDS\n UP B  X1  1.0\n UP B  X2  1.0\n"
            "ENDATA\n")
        code = run_cli(["solve", "--mps", str(mps), "--method", "implicit",
                        "--stepsize", "0.005", "--enforce-feasibility"])
        assert code == 0
        out = capsys.readouterr().out
        obj = float(next(l for l in out.splitlines()
                         if l.startswith("objective")).split()[1])
        assert abs(obj - 0.5) <= 1e-9

    def test_a_float_stepsize_is_the_runs_gamma(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        assert run_cli(["solve", "--gen", "m=4,n=40,tau=0.3,seed=2",
                        "--stepsize", "0.005", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "resolved stepsize = 0.005" in text and "resolved gamma = 0.005" in text
        assert read_results_csv(out)[0].gamma == 0.005

    def test_until_eps_terminates_or_caps(self, capsys):
        code = run_cli(["solve", "--gen", "m=3,n=30,tau=0.5,seed=1",
                        "--method", "implicit", "--until-eps", "0.2",
                        "--max-k", "64", "--enforce-feasibility"])
        out = capsys.readouterr().out
        resid = float(next(l for l in out.splitlines()
                           if l.startswith("residual")).split()[1])
        if code == 0:
            assert resid <= 0.2
        else:
            assert code == 5

    def test_replay_from_record_is_bitwise(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["solve", "--gen", "m=5,n=60,tau=0.2,seed=9", "--method",
                "explicit", "--k", "4", "--enforce-feasibility"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        a, b = read_results_csv(out1)[0], read_results_csv(out2)[0]
        assert a.objective == b.objective
        assert a.violation == b.violation

    def test_echoes_engine_and_records_the_runs_gamma(self, tmp_path, capsys, monkeypatch):
        import onlinelp.online as online_mod
        calls = []

        def counted(fn):
            return lambda *a, **k: calls.append(1) or fn(*a, **k)

        monkeypatch.setattr(online_mod, "compute_stats", counted(online_mod.compute_stats))
        out = tmp_path / "res.csv"
        assert run_cli(["solve", "--gen", "m=5,n=60,tau=0.2,seed=9", "--k", "4",
                        "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        echoed = dict(l[len("resolved "):].split(" = ", 1) for l in lines
                      if l.startswith("resolved "))
        assert echoed["engine"] == online_mod.explicit_engine()
        assert read_results_csv(out)[0].gamma == float(echoed["gamma"])
        assert len(calls) == 1   # the pass itself; the echo reads its gamma

    def test_until_eps_echoes_and_records_the_last_pass(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        run_cli(["solve", "--gen", "m=3,n=30,tau=0.5,seed=1", "--until-eps", "1e-9",
                 "--max-k", "8", "--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        echoed = dict(l[len("resolved "):].split(" = ", 1) for l in lines
                      if l.startswith("resolved "))
        printed_k = int(next(l for l in lines if l.startswith("K ")).split()[1])
        rec = read_results_csv(out)[0]
        assert echoed["K"] == "1" and printed_k == rec.k == 8
        assert rec.gamma == float(echoed["gamma"])

    def test_explicit_row_matches_the_library_pass(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        assert run_cli(["solve", "--gen", "m=5,n=60,tau=0.2,seed=9", "--method", "explicit",
                        "--k", "4", "--run-seed", "3", "--enforce-feasibility", "--exact",
                        "--out", str(out)]) == 0
        capsys.readouterr()
        params = MkpParams(m=5, n=60, tightness=0.2, seed=9)
        assert csv_fields(out) == library_rows([(params, "explicit", 4, 3, True)])

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.mps"
        bad.write_text("NAME X\nROWS\n")
        code = run_cli(["solve", "--mps", str(bad)])
        capsys.readouterr()
        assert code == 3

    def test_solve_failure_exit_code_and_netlib_rescue(self, tmp_path, capsys):
        # a zero rhs breaks the positivity precondition of the pass; the
        # clamping transform rescues it
        mps = tmp_path / "zero_rhs.mps"
        mps.write_text(
            "NAME Z\nOBJSENSE\n    MAX\nROWS\n N  OBJ\n L  CAP\nCOLUMNS\n"
            "    X  OBJ  1.0  CAP  1.0\nRHS\nBOUNDS\n UP B  X  1.0\nENDATA\n")
        code = run_cli(["solve", "--mps", str(mps)])
        capsys.readouterr()
        assert code == 4
        code = run_cli(["solve", "--mps", str(mps), "--netlib-modify"])
        capsys.readouterr()
        assert code == 0


class TestSift:
    def test_defaults_run_and_report(self, tmp_path, capsys):
        out = tmp_path / "sift.csv"
        trace = tmp_path / "trace.csv"
        code = run_cli(["sift", "--gen", "m=5,n=200,tau=0.15,seed=3",
                        "--out", str(out), "--trace-out", str(trace)])
        assert code == 0
        text = capsys.readouterr().out
        assert "rounds" in text and "rdc" in text
        recs = read_results_csv(out)
        assert recs[0].rounds >= 1
        assert f"resolved gamma = {recs[0].gamma}" in text.splitlines()
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "working", "priced", "objective", "wall_time_s",
                           "solve_s", "price_s", "iterations", "warm_started"]
        assert len(rows) == recs[0].rounds + 1
        assert rows[1][-1] == "0"  # the first round has no basis to start from
        assert all(int(r[-2]) >= 0 and r[-1] in ("0", "1") for r in rows[1:])

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_a_non_finite_pricing_tolerance_is_a_usage_error(self, capsys, tol):
        # a NaN tolerance priced nothing and certified the first working optimum
        with pytest.raises(SystemExit) as exc:
            run_cli(["sift", "--gen", "m=20,n=2000,tau=0.05,seed=0", f"--pricing-tol={tol}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "pricing_tolerance must be finite" in err and "Traceback" not in err

    def test_defaults_are_the_librarys(self):
        from onlinelp.cli import _sift_configs
        from onlinelp.sifting import SiftConfig
        pre, config = _sift_configs(build_parser().parse_args(["sift", "--gen", "m=1,n=1,tau=1"]))
        assert config == SiftConfig()
        # --prepass-k 2 is the command's own
        assert pre == RunConfig(duplication=2)

    def test_an_implicit_prepass_runs(self):
        from onlinelp.cli import _sift_configs
        args = build_parser().parse_args(["sift", "--gen", "m=1,n=1,tau=1",
                                          "--prepass-method", "implicit"])
        assert _sift_configs(args)[0].method == "implicit"
        assert run_cli(["sift", "--gen", "m=4,n=120,tau=0.2,seed=6",
                        "--prepass-method", "implicit"]) == 0

    def test_echoes_every_setting_that_changes_its_result(self, capsys):
        argv = ["sift", "--gen", "m=4,n=120,tau=0.2,seed=6", "--prepass-start", "ones",
                "--max-rounds", "7", "--max-new-cols", "13"]
        args = build_parser().parse_args(argv)
        assert run_cli(argv) == 0
        echoed = dict(line[len("resolved "):].split(" = ", 1)
                      for line in capsys.readouterr().out.splitlines()
                      if line.startswith("resolved "))
        assert echoed["prepass_start"] == args.prepass_start == "ones"
        assert echoed["max_rounds"] == str(args.max_rounds) == "7"
        assert echoed["max_new_cols"] == str(args.max_new_cols) == "13"

    def test_echoes_engine(self, capsys):
        from onlinelp.online import explicit_engine
        assert run_cli(["sift", "--gen", "m=4,n=120,tau=0.2,seed=6"]) == 0
        assert f"resolved engine = {explicit_engine()}" in capsys.readouterr().out.splitlines()

    @pytest.fixture
    def sifts(self, monkeypatch):
        """The results of the command's sift calls; its own solve_lp raises."""
        import onlinelp.cli as cli
        results, sift = [], cli.sift

        def recording(*args, **kwargs):
            try:
                results.append(sift(*args, **kwargs))
            except cli.SiftRoundLimit as exc:
                results.append(exc.partial)
                raise
            return results[-1]

        def no_solve(*args, **kwargs):
            raise AssertionError("onlinelp sift ran a solve of its own")

        monkeypatch.setattr(cli, "sift", recording)
        monkeypatch.setattr(cli, "solve_lp", no_solve)
        return results

    def test_acc_comes_from_sifts_own_optimum(self, capsys, sifts):
        import numpy as np
        from onlinelp.cli import SUPPORT_TOL
        from onlinelp.sifting import basis_metrics
        assert run_cli(["sift", "--gen", "m=3,n=20001,tau=0.2,seed=1"]) == 0
        (result,) = sifts
        support = np.flatnonzero(result.x > SUPPORT_TOL)
        acc = basis_metrics(support, result.initial_working_set, 20001)[0]
        assert f"acc         {acc:.4f}" in capsys.readouterr().out.splitlines()

    def test_a_round_limited_run_has_no_acc(self, capsys, sifts):
        assert run_cli(["sift", "--gen", "m=4,n=120,tau=0.2,seed=6", "--max-rounds", "1"]) == 5
        assert len(sifts) == 1
        assert "acc         n/a" in capsys.readouterr().out.splitlines()


class TestBench:
    @pytest.mark.parametrize("extra", [[], ["--sigma", "0.5"]], ids=["dense", "sparse"])
    def test_custom_grid_csv_shape(self, tmp_path, capsys, extra):
        out = tmp_path / "grid.csv"
        code = run_cli(["bench", "--sizes", "3x20,4x30", "--taus", "0.2,0.5",
                        "--ks", "1,2", "--methods", "explicit", "--reps", "2",
                        "--exact", "--enforce-feasibility", "--out", str(out), *extra])
        assert code == 0
        capsys.readouterr()
        recs = read_results_csv(out)
        assert len(recs) == 2 * 2 * 2 * 1 * 2
        assert all(r.rel_opt is not None for r in recs)

    def test_explicit_rows_match_the_library_pass(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert run_cli(["bench", "--sizes", "3x24,5x60", "--taus", "0.3,0.05",
                        "--ks", "1,4", "--methods", "explicit", "--reps", "2", "--seed", "4",
                        "--sigma", "0.5", "--exact", "--enforce-feasibility",
                        "--out", str(out)]) == 0
        capsys.readouterr()
        cells = [(MkpParams(m=m, n=n, tightness=tau, density=0.5, seed=4 + rep),
                  "explicit", k, 4 + rep, True)
                 for m, n in ((3, 24), (5, 60)) for tau in (0.3, 0.05) for k in (1, 4)
                 for rep in range(2)]
        assert csv_fields(out) == library_rows(cells)

    def test_records_the_runs_gamma(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        assert run_cli(["bench", "--sizes", "3x20", "--taus", "0.2", "--ks", "2",
                        "--methods", "explicit", "--out", str(out)]) == 0
        capsys.readouterr()
        inst = generate_mkp(MkpParams(m=3, n=20, tightness=0.2, density=1.0, seed=0))
        want = solve_online(inst, RunConfig(duplication=2, seed=0)).gamma
        assert read_results_csv(out)[0].gamma == want

    def test_each_instance_is_generated_and_solved_once(self, tmp_path, capsys, monkeypatch):
        import onlinelp.cli as cli
        calls = {"generate_mkp": 0, "solve_lp": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        out = tmp_path / "grid.csv"
        assert run_cli(["bench", "--sizes", "3x20", "--taus", "0.25",
                        "--ks", "1,2,4,8,16,32", "--methods", "explicit,implicit",
                        "--reps", "2", "--exact", "--out", str(out)]) == 0
        capsys.readouterr()
        assert calls == {"generate_mkp": 2, "solve_lp": 2}
        # the rows a cell-by-cell run gives, in its order
        recs = read_results_csv(out)
        cells = [(k, method, seed) for k in (1, 2, 4, 8, 16, 32)
                 for method in ("explicit", "implicit") for seed in (0, 1)]
        assert [(r.k, r.method, r.seed) for r in recs] == cells
        for rec, (k, method, seed) in zip(recs, cells):
            inst = generate_mkp(MkpParams(m=3, n=20, tightness=0.25, seed=seed))
            sol = solve_online(inst, RunConfig(method=method, duplication=k, seed=seed))
            assert (rec.gamma, rec.objective, rec.violation) == \
                (sol.gamma, sol.objective, sol.violation)
            assert rec.rel_opt == relative_optimality(inst, sol.x_hat, solve_lp(inst).obj)

    def test_empty_grid_header_only(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        code = run_cli(["bench", "--sizes", "3x20", "--taus", "0.2",
                        "--ks", "1", "--methods", "explicit", "--reps", "0",
                        "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        assert read_results_csv(out) == []

    def test_fig2_preset_shape(self, tmp_path, capsys):
        # the README's fig-2 K sweep, on one small size
        out = tmp_path / "fig2.csv"
        code = run_cli(["bench", "--sizes", "3x24", "--taus", "0.3",
                        "--ks", "1,2,4,8,16,32", "--methods", "explicit,implicit",
                        "--reps", "2", "--enforce-feasibility", "--exact",
                        "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        recs = read_results_csv(out)
        # sizes x K values x methods x reps
        assert len(recs) == 1 * 6 * 2 * 2
        assert {r.k for r in recs} == {1, 2, 4, 8, 16, 32}
        assert all(r.rel_opt is not None for r in recs)

    def test_reference_solve_refused_leaves_rel_opt_empty(self, tmp_path, capsys):
        out = tmp_path / "wide.csv"
        code = run_cli(["bench", "--sizes", "2001x1", "--methods", "explicit",
                        "--exact", "--out", str(out)])
        assert code == 0
        assert "warning: exact reference solve skipped" in capsys.readouterr().err
        recs = read_results_csv(out)
        assert len(recs) == 1 and recs[0].rel_opt is None


class TestPlumbing:
    def test_env_var_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ONLINELP_OUT_DIR", str(tmp_path))
        code = run_cli(["gen", "--m", "3", "--n", "10", "--tau", "0.5",
                        "--out", "inst.mps"])
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "inst.mps").exists()

    def test_config_file_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("method = implicit\nk = 2\n")
        code = run_cli(["--config", str(cfg), "solve",
                        "--gen", "m=3,n=20,tau=0.4,seed=0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "method = implicit" in out
        assert "K = 2" in out

    @pytest.mark.parametrize("value, expected", [("true", True), ("false", False)])
    def test_config_file_sets_flag(self, tmp_path, capsys, value, expected):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"enforce-feasibility = {value}\n")
        code = run_cli(["--config", str(cfg), "solve",
                        "--gen", "m=3,n=20,tau=0.4,seed=0"])
        assert code == 0
        assert f"enforce_feasibility = {expected}" in capsys.readouterr().out

    def test_config_file_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("method = implicit\nno-such-option = 1\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["--config", str(cfg), "solve", "--gen", "m=3,n=20,tau=0.4,seed=0"])
        assert exc.value.code == 2
        assert "no_such_option" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["lazy", "alpha", "prepass_lazy"])
    def test_config_file_key_of_no_flag_is_usage_error(self, tmp_path, capsys, key):
        # deleted flags, and the one hidden flag, take no --config key either
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{key} = true\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["--config", str(cfg), "sift", "--gen", "m=3,n=20,tau=0.4,seed=0"])
        assert exc.value.code == 2
        assert f"no subcommand has option(s) {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["solve", "--lazy"], ["bench", "--lazy"],
        # the retired sift settings, even at their old defaults
        ["sift", "--init-threshold", "2.0"], ["sift", "--alpha", "0.4"], ["sift", "--no-anchor"],
    ], ids=["solve-lazy", "bench-lazy", "sift-init_threshold", "sift-alpha", "sift-no_anchor"])
    def test_a_deleted_flag_is_unrecognized(self, tmp_path, capsys, args):
        target = ["--out", str(tmp_path / "x.csv")] if args[0] == "bench" else \
            ["--gen", "m=3,n=20,tau=0.4,seed=0"]
        with pytest.raises(SystemExit) as exc:
            run_cli(args + target)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(args[1:])}" in capsys.readouterr().err

    def test_the_one_hidden_flag_is_prepass_lazy(self):
        parser, commands = _build_parser()
        hidden = [(name, action.option_strings)
                  for name, command in [("onlinelp", parser), *commands.items()]
                  for action in command._actions if action.help is argparse.SUPPRESS]
        assert hidden == [("sift", ["--prepass-lazy"])]

    @pytest.mark.parametrize("args, message", [
        (["solve", "--k", "0"], "duplication must be an integer >= 1, got 0"),
        (["solve", "--stepsize", "-1"], "fixed stepsize must be positive"),
        (["solve", "--stepsize", "inf"], "fixed stepsize must be positive and finite"),
        (["solve", "--stepsize", "nan"], "fixed stepsize must be positive and finite"),
        (["solve", "--stepsize", "fast"], "stepsize mode must be one of"),
        (["sift", "--prepass-k", "0"], "duplication must be an integer >= 1, got 0"),
        (["bench", "--sizes", "5"], "size '5' is not MxN"),
        (["bench", "--sizes", "5x"], "invalid literal for int()"),
        (["bench", "--taus", "0.2,,0.3"], "could not convert string to float"),
        (["bench", "--methods", "foo"], "method must be one of"),
        (["bench", "--reps", "-2"], "reps must be an integer >= 0, got -2"),
        (["solve", "--max-k", "0", "--until-eps", "1e-9"], "max_k must be >= k (1)"),
        (["solve", "--k", "8", "--max-k", "4", "--until-eps", "1e-9"], "max_k must be >= k (8)"),
        # a target that is never met doubled K up to the cap and exited 5
        (["solve", "--until-eps", "nan"], "until_eps must be >= 0, got nan"),
        (["solve", "--until-eps", "-1"], "until_eps must be >= 0, got -1.0"),
        (["solve", "--until-eps=-inf", "--max-k", "0"], "until_eps must be >= 0, got -inf"),
        # negative seeds failed mid-run: a traceback, "solve failed", every cell failed
        (["gen", "--m", "3", "--n", "20", "--tau", "0.4", "--seed", "-2"],
         "seed must be an integer >= 0, got -2"),
        (["solve", "--run-seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["sift", "--run-seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["bench", "--sizes", "3x20", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
    ])
    def test_out_of_range_setting_is_usage_error(self, tmp_path, capsys, args, message):
        target = ["--out", str(tmp_path / "x.csv")] if args[0] in ("gen", "bench") else \
            ["--gen", "m=3,n=20,tau=0.4,seed=0"]
        with pytest.raises(SystemExit) as exc:
            run_cli(args + target)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()   # not even a header-only grid

    @pytest.mark.parametrize("args, what", [
        (["gen", "--m", "3", "--n", "20", "--tau", "0.4", "--out"], "MPS"),
        (["solve", "--gen", "m=3,n=20,tau=0.4", "--out"], "results"),
        (["sift", "--gen", "m=3,n=20,tau=0.4", "--out"], "results"),
        (["sift", "--gen", "m=3,n=20,tau=0.4", "--trace-out"], "trace"),
        (["bench", "--out"], "results"),
    ], ids=["gen-out", "solve-out", "sift-out", "sift-trace_out", "bench-out"])
    def test_an_unwritable_output_is_a_file_error(self, tmp_path, capsys, args, what):
        path = str(tmp_path / "no-such-dir" / "out")
        code = run_cli(args + [path])
        err = capsys.readouterr().err
        assert code == 3
        assert err.splitlines()[-1].startswith(f"error: cannot write {what} to {path!r}: ")

    @pytest.mark.parametrize("spec, message", [
        ("m=3,n=20,tau=0.4,sigm=0.5", "unknown key(s) sigm"),
        ("m=3,n=20,tau=0.4,perturb=yes", "key perturb takes 0, 1, true or false, not 'yes'"),
        ("m=3,m=4,n=20,tau=0.4", "repeats key m"),
        ("m=3,n=20,tau=0.4,seed=1, seed =2", "repeats key seed"),
        ("m=3,n=20,tau=0.4,=5", "has a part with no key: '=5'"),
        ("m=3,n=20, =5,tau=0.4", "has a part with no key: ' =5'"),
    ])
    def test_a_gen_spec_refuses_what_it_does_not_read(self, capsys, spec, message):
        code = run_cli(["solve", "--gen", spec])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: --gen spec ") and message in err

    @pytest.mark.parametrize("value, expected", [("0", False), ("1", True),
                                                 ("false", False), ("true", True)])
    def test_a_gen_spec_reads_perturb(self, value, expected):
        assert _parse_gen_spec(f"m=3,n=20,tau=0.4,perturb={value}").perturb_a3 is expected

    @pytest.mark.parametrize("spec, message", [
        ("m=3,m=4,n=20,tau=0.4", "--gen spec repeats key m"),
        ("m=3,n=20,tau=0.4,=5", "--gen spec has a part with no key: '=5'"),
    ])
    def test_a_gen_spec_names_a_repeated_or_empty_key(self, spec, message):
        with pytest.raises(ValueError) as caught:
            _parse_gen_spec(spec)
        assert str(caught.value) == message

    @pytest.mark.parametrize("args", [
        ["gen", "--m", "3", "--n", "20", "--tau", "0.4", "--out"],
        ["solve", "--gen", "m=3,n=20,tau=0.4", "--out"],
        ["sift", "--gen", "m=3,n=20,tau=0.4", "--trace-out"],
        ["bench", "--sizes", "5x100,8x1000", "--taus", "0.25,1.0", "--ks", "1,8", "--reps", "3",
         "--out"],
    ], ids=["gen", "solve", "sift", "bench"])
    def test_an_unwritable_output_stops_the_run_before_any_work(self, tmp_path, capsys,
                                                                monkeypatch, args):
        work = []
        monkeypatch.setattr(cli, "generate_mkp", lambda *a: work.append(a))
        monkeypatch.setattr(cli, "solve_online", lambda *a: work.append(a))
        assert run_cli(args + [str(tmp_path / "no-such-dir" / "out")]) == 3
        assert work == []
        assert "resolved" not in capsys.readouterr().out
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("existing", [True, False])
    def test_a_failed_solve_leaves_its_output_as_it_was(self, tmp_path, capsys, existing):
        # a zero rhs breaks the pass's positivity precondition: exit 4
        mps = tmp_path / "zero_rhs.mps"
        mps.write_text(
            "NAME Z\nOBJSENSE\n    MAX\nROWS\n N  OBJ\n L  CAP\nCOLUMNS\n"
            "    X  OBJ  1.0  CAP  1.0\nRHS\nBOUNDS\n UP B  X  1.0\nENDATA\n")
        out = tmp_path / "res.csv"
        if existing:
            out.write_bytes(b"earlier rows\r\n")
        assert run_cli(["solve", "--mps", str(mps), "--out", str(out)]) == 4
        capsys.readouterr()
        if existing:
            assert out.read_bytes() == b"earlier rows\r\n"
        else:
            assert not out.exists()

    @pytest.mark.parametrize("spec, message", [
        ("m=abc,n=20,tau=0.4", "key m takes an integer, not 'abc'"),
        ("m=3,n=20,tau=0.4,sigma=half", "key sigma takes a number, not 'half'"),
    ])
    def test_a_gen_spec_names_the_key_it_cannot_read(self, capsys, spec, message):
        code = run_cli(["solve", "--gen", spec])
        err = capsys.readouterr().err
        assert code == 3
        assert err == f"error: --gen spec {message}\n"

    def test_the_trace_csv_is_byte_exact(self, tmp_path, capsys, monkeypatch):
        trace = (SiftRound(1, 30, 200, 1 / 3, 0.0123, 0.01, 0.002, 17, False),
                 SiftRound(2, 41, 200, 1234.5678901234567, 1e-5, 6e-6, 3e-6, 0, True))
        real = cli.sift
        monkeypatch.setattr(cli, "sift", lambda *a: dataclasses.replace(real(*a), trace=trace))
        path = tmp_path / "trace.csv"
        assert run_cli(["sift", "--gen", "m=3,n=40,tau=0.4", "--trace-out", str(path)]) == 0
        capsys.readouterr()
        assert path.read_bytes() == (
            b"round,working,priced,objective,wall_time_s,solve_s,price_s,iterations,"
            b"warm_started\r\n"
            b"1,30,200,0.33333333333333331,0.0123,0.01,0.002,17,0\r\n"
            b"2,41,200,1234.5678901234567,1.0000000000000001e-05,6.0000000000000002e-06,"
            b"3.0000000000000001e-06,0,1\r\n")

    def test_a_trace_that_cannot_be_written_names_it(self, tmp_path, capsys, monkeypatch):
        # past the check made before the run, the writer words its own failure alike
        monkeypatch.setattr(cli, "_check_writable", lambda path, what: None)
        path = str(tmp_path / "no-such-dir" / "trace.csv")
        assert run_cli(["sift", "--gen", "m=3,n=40,tau=0.4", "--trace-out", path]) == 3
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == (f"error: cannot write trace to {path!r}: "
                       f"[Errno 2] No such file or directory: {path!r}")

    def test_console_script_help(self):
        # the child finds the package as this process does, installed or not
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "onlinelp.cli", "--help"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "gen" in proc.stdout and "bench" in proc.stdout
