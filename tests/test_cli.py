"""Command-line interface tests driven through main(argv)."""

import argparse
import re
from pathlib import Path

import numpy as np
import pytest

from frictionobs import ESTIMATES_HEADER, MEASURED_HEADER, SIM_HEADER, read_columns
from frictionobs.cli import (
    EXIT_CONFIG,
    EXIT_DESIGN,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_SCHEMA,
    build_parser,
    main,
)

SHORT_CFG = """\
plant.m = 0.052
friction.c_f = 0.2143
friction.sigma = 2.0
friction.beta = 0.002
friction.s_scale = 2000
sim.dt = 5e-4
sim.t_end = 0.4
sim.noise_std = 1e-6
sim.seed = 3
scenario.pulses = 0.05,0.01,1.6
observer.poles = -350, -10
"""


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(SHORT_CFG, encoding="utf-8")
    return p


def test_simulate_writes_both_files(cfg_file, tmp_path, capsys):
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--config", str(cfg_file), "--out", str(out)])
    assert rc == EXIT_OK
    assert "wrote" in capsys.readouterr().out
    t, x, v, f, u = read_columns(out, SIM_HEADER)
    assert len(t) == 801
    tm, xm, um = read_columns(tmp_path / "sim_measured.csv", MEASURED_HEADER)
    assert np.array_equal(tm, t) and np.array_equal(um, u)
    assert not np.array_equal(xm, x)  # noise applied to the measured copy


def test_simulate_missing_config(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "no.cfg"), "--out", str(tmp_path / "s.csv")])
    assert rc == EXIT_CONFIG


def test_simulate_diverged(tmp_path):
    p = tmp_path / "d.cfg"
    p.write_text("sim.v_max = 0.05\nsim.t_end = 0.2\nscenario.pulses = 0.0,0.2,5.0\n",
                 encoding="utf-8")
    rc = main(["simulate", "--config", str(p), "--out", str(tmp_path / "s.csv")])
    assert rc == EXIT_DIVERGED


def test_simulate_multi_run_seeds(cfg_file, tmp_path, capsys):
    out = tmp_path / "batch.csv"
    rc = main(["simulate", "--config", str(cfg_file), "--out", str(out), "--runs", "2"])
    assert rc == EXIT_OK
    txt = capsys.readouterr().out
    assert "seed 3" in txt and "seed 4" in txt
    x0 = read_columns(tmp_path / "batch_measured_run000.csv", MEASURED_HEADER)[1]
    x1 = read_columns(tmp_path / "batch_measured_run001.csv", MEASURED_HEADER)[1]
    assert not np.array_equal(x0, x1)  # different seeds, different noise
    s0 = read_columns(tmp_path / "batch_run000.csv", SIM_HEADER)[1]
    s1 = read_columns(tmp_path / "batch_run001.csv", SIM_HEADER)[1]
    assert np.array_equal(s0, s1)  # truth does not depend on the seed


def test_design_pass_and_fail(capsys):
    rc = main(["design", "--poles", "-350,-10", "--m", "0.052"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "l1 = 360.0" in out and "l2 = -182.0" in out and "cond_b = true" in out
    rc = main(["design", "--poles", "-350,-10", "--m", "0.052", "--kappa", "2000"])
    assert rc == EXIT_DESIGN
    assert "cond_b = false" in capsys.readouterr().out


def test_design_bad_poles():
    assert main(["design", "--poles", "-350"]) == EXIT_CONFIG
    assert main(["design", "--poles", "-350,ten"]) == EXIT_CONFIG
    assert main(["design", "--poles", "-350,10"]) == EXIT_CONFIG


def test_observe_roundtrip(cfg_file, tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    est = tmp_path / "est.csv"
    main(["simulate", "--config", str(cfg_file), "--out", str(sim)])
    capsys.readouterr()
    rc = main(["observe", "--config", str(cfg_file),
               "--measured", str(tmp_path / "sim_measured.csv"),
               "--out", str(est), "--truth", str(sim)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "rms_e_obs = " in out
    assert "rms_velocity_error = " in out
    assert "rms_e_model = " in out
    cols = read_columns(est, ESTIMATES_HEADER)
    assert len(cols[0]) == 801


def test_observe_schema_errors(cfg_file, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    rc = main(["observe", "--config", str(cfg_file), "--measured", str(bad),
               "--out", str(tmp_path / "e.csv")])
    assert rc == EXIT_SCHEMA


def test_observe_nonuniform_grid(cfg_file, tmp_path, capsys):
    p = tmp_path / "m.csv"
    p.write_text("t,x,u\n0.0,0.0,0.0\n0.0005,0.0,0.0\n0.002,0.0,0.0\n", encoding="utf-8")
    rc = main(["observe", "--config", str(cfg_file), "--measured", str(p),
               "--out", str(tmp_path / "e.csv")])
    assert rc == EXIT_SCHEMA
    # the third data line breaks the grid; read_columns numbers data lines from 1
    err = capsys.readouterr().err
    assert err.startswith("measured CSV rejected: ") and ": row 3: t = 0.002 " in err


def test_observe_truth_grid_mismatch(cfg_file, tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    main(["simulate", "--config", str(cfg_file), "--out", str(sim)])
    capsys.readouterr()
    t, x, v, f, u = read_columns(sim, SIM_HEADER)
    from frictionobs import write_columns

    short = tmp_path / "short.csv"
    write_columns(short, SIM_HEADER, [t[:-5], x[:-5], v[:-5], f[:-5], u[:-5]])
    rc = main(["observe", "--config", str(cfg_file),
               "--measured", str(tmp_path / "sim_measured.csv"),
               "--out", str(tmp_path / "e.csv"), "--truth", str(short)])
    assert rc == EXIT_SCHEMA


def test_observe_empty_measured(cfg_file, tmp_path, capsys):
    p = tmp_path / "m.csv"
    p.write_text("t,x,u\n", encoding="utf-8")
    rc = main(["observe", "--config", str(cfg_file), "--measured", str(p),
               "--out", str(tmp_path / "e.csv")])
    assert rc == EXIT_OK
    assert "no samples" in capsys.readouterr().out
    assert (tmp_path / "e.csv").read_text(encoding="utf-8").strip() == ",".join(ESTIMATES_HEADER)


def test_observe_bad_gains_is_config_error(tmp_path, capsys):
    # gains that break l1 > 0 are a config error for observe; simulate and
    # identify do not use the gains and run as before
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "sim.dt = 1e-3\nsim.t_end = 0.08\nsim.noise_std = 0\n"
        "scenario.pulses = 0.01,0.005,1.0\nobserver.l1 = -5\n",
        encoding="utf-8",
    )
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "sim.csv")]) == EXIT_OK
    measured = str(tmp_path / "sim_measured.csv")
    capsys.readouterr()
    rc = main(["observe", "--config", str(bad), "--measured", measured,
               "--out", str(tmp_path / "e.csv")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "l1 > 0" in err
    assert err.count("\n") == 1
    rc = main(["identify", "--config", str(bad), "--measured", measured,
               "--out", str(tmp_path / "fit.txt")])
    assert rc == EXIT_OK


def test_observe_truth_single_sample(cfg_file, tmp_path, capsys):
    m = tmp_path / "m.csv"
    m.write_text("t,x,u\n0.0,0.0,0.0\n", encoding="utf-8")
    truth = tmp_path / "truth.csv"
    truth.write_text("t,x,v,f,u\n0.0,0.0,0.0,0.0,0.0\n", encoding="utf-8")
    rc = main(["observe", "--config", str(cfg_file), "--measured", str(m),
               "--out", str(tmp_path / "e.csv"), "--truth", str(truth)])
    assert rc == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "--truth needs at least 2 samples" in err and err.count("\n") == 1


def test_observe_checks_truth_before_the_observer(cfg_file, short_run, tmp_path, capsys,
                                                  monkeypatch):
    # a rejected --truth must not cost an observer pass
    def fail(*args):
        raise AssertionError("run_observer ran")

    monkeypatch.setattr("frictionobs.cli.run_observer", fail)
    out = tmp_path / "e.csv"
    rc = main(["observe", "--config", str(cfg_file), "--measured", str(short_run[1]),
               "--out", str(out), "--truth", str(tmp_path / "missing.csv")])
    captured = capsys.readouterr()
    assert rc == EXIT_SCHEMA
    assert captured.err.startswith("truth CSV rejected: ") and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


def _record(path, u, x=None):
    """A measured CSV on a 5e-4 s grid with these u cells (x zero unless given)."""
    x = [0.0] * len(u) if x is None else x
    path.write_text("t,x,u\n" + "".join(f"{k * 5e-4!r},{xk!r},{uk!r}\n"
                                          for k, (xk, uk) in enumerate(zip(x, u))),
                    encoding="utf-8")


def test_identify_no_finite_residual(tmp_path, capsys, cfg_file):
    # a 1e7 N cell in u makes the forward run diverge from the start: exit 2, no report
    m = tmp_path / "m.csv"
    _record(m, [0.0, 1e7, 0.0, 0.0, 0.0, 0.0])
    report = tmp_path / "fit.txt"
    rc = main(["identify", "--config", str(cfg_file), "--measured", str(m), "--out", str(report)])
    assert rc == EXIT_DIVERGED
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "finite residual" in captured.err
    assert "converged" not in captured.out
    assert not report.exists()


def test_identify_runs_and_reports(tmp_path, capsys):
    # noise-free short record, fitter started at the generating values
    cfg = tmp_path / "i.cfg"
    cfg.write_text(
        "sim.dt = 1e-3\nsim.t_end = 0.08\nsim.noise_std = 0\n"
        "scenario.pulses = 0.01,0.005,1.0\n",
        encoding="utf-8",
    )
    sim = tmp_path / "sim.csv"
    main(["simulate", "--config", str(cfg), "--out", str(sim)])
    capsys.readouterr()
    report = tmp_path / "fit.txt"
    rc = main(["identify", "--config", str(cfg),
               "--measured", str(tmp_path / "sim_measured.csv"), "--out", str(report)])
    assert rc == EXIT_OK
    txt = report.read_text(encoding="utf-8")
    for key in ("sigma = ", "beta = ", "s_scale = ", "amplitude = ", "width = ",
                "rms_residual = ", "iterations = ", "converged = ", "beta_insensitive = "):
        assert key in txt
    # started at the truth, the fit must stay in its basin
    vals = dict(line.split(" = ") for line in txt.strip().splitlines())
    assert abs(float(vals["sigma"]) - 2.0) / 2.0 < 0.10
    assert float(vals["rms_residual"]) < 1e-6


def test_identify_fits_with_the_config_deadband(tmp_path, capsys):
    # the forward model runs the configured deadband, so a noise-free record
    # made with a wide one is fitted back to the truth exactly
    cfg = tmp_path / "i.cfg"
    cfg.write_text(
        "sim.t_end = 0.3\nsim.noise_std = 0\nscenario.pulses = 0.01,0.005,1.0\n"
        "observer.deadband = 0.02\n",
        encoding="utf-8",
    )
    main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim.csv")])
    report = tmp_path / "fit.txt"
    assert main(["identify", "--config", str(cfg),
                 "--measured", str(tmp_path / "sim_measured.csv"), "--out", str(report)]) == EXIT_OK
    vals = dict(line.split(" = ") for line in report.read_text(encoding="utf-8").splitlines())
    got = [float(vals[k]) for k in ("sigma", "beta", "s_scale", "amplitude", "width")]
    assert got == [2.0, 0.002, 2000.0, 1.0, 0.005]
    assert float(vals["rms_residual"]) == 0.0


def _identify(tmp_path, amplitude, regrid=None):
    """The identify report on a noise-free 601-sample record of one pulse of this amplitude.

    regrid, if given, maps the record's t column to the t that identify reads.
    """
    name = f"amp{amplitude}" + ("_regrid" if regrid else "")
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text("sim.t_end = 0.3\nsim.noise_std = 0\n"
                   f"scenario.pulses = 0.01,0.005,{amplitude}\n", encoding="utf-8")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / f"{name}.csv")])
    assert rc == EXIT_OK
    measured = tmp_path / f"{name}_measured.csv"
    if regrid:
        from frictionobs import write_columns

        t, x, u = read_columns(measured, MEASURED_HEADER)
        write_columns(measured, MEASURED_HEADER, [regrid(t), x, u])
    report = tmp_path / f"{name}.txt"
    rc = main(["identify", "--config", str(cfg), "--measured", str(measured),
               "--out", str(report)])
    assert rc == EXIT_OK
    return report.read_text(encoding="utf-8")


def test_identify_negative_pulse_keeps_its_sign(tmp_path, capsys):
    # the plant is odd in u: a -1.0 pulse is the +1.0 fit with the amplitude negated
    positive = _identify(tmp_path, 1.0)
    assert "amplitude = 1.0\n" in positive and "rms_residual = 0.0\n" in positive
    assert _identify(tmp_path, -1.0) == positive.replace("amplitude = 1.0", "amplitude = -1.0")
    assert capsys.readouterr().err == ""


def test_identify_runs_every_sample_of_a_grid_within_tolerance(tmp_path, capsys):
    # steps of (1 - 5e-7) dt after the first pass as uniform, but t[-1]/dt then
    # floors to 599: the forward runs must still take all 601 samples
    def shrink(t):
        dt = t[1]
        return np.concatenate(([0.0], dt + np.arange(len(t) - 1) * ((1 - 5e-7) * dt)))

    assert _identify(tmp_path, 1.0, regrid=shrink) == _identify(tmp_path, 1.0)
    assert capsys.readouterr().err == ""


def test_identify_reads_the_onset_from_the_record(tmp_path, capsys):
    # the record's pulse starts at 0.05 s: the fit runs the record's u and does
    # not read the config's pulses, so a config that puts it at 0.01 s fits the same
    reports = []
    for start in ("0.05", "0.01"):
        cfg = tmp_path / f"at{start}.cfg"
        cfg.write_text("sim.t_end = 0.3\nsim.noise_std = 0\n"
                       f"scenario.pulses = {start},0.005,1.0\n", encoding="utf-8")
        if start == "0.05":
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0
        report = tmp_path / f"at{start}.txt"
        rc = main(["identify", "--config", str(cfg), "--measured",
                   str(tmp_path / "s_measured.csv"), "--out", str(report)])
        assert rc == EXIT_OK
        reports.append(report.read_text(encoding="utf-8"))
    assert reports[0] == reports[1]
    assert "sigma = 2.0\n" in reports[0] and "rms_residual = 0.0\n" in reports[0]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("case", ["all_zero"])
def test_identify_rejects_a_record_without_one_pulse(tmp_path, capsys, cfg_file, case):
    # x cannot depend on theta when nothing excites the plant
    m = tmp_path / "m.csv"
    _record(m, [0.0] * 3)
    report = tmp_path / "r.txt"
    rc = main(["identify", "--config", str(cfg_file), "--measured", str(m), "--out", str(report)])
    captured = capsys.readouterr()
    assert rc == EXIT_SCHEMA
    assert captured.err.startswith("measured CSV rejected: u ") and captured.err.count("\n") == 1
    assert captured.out == "" and not report.exists()


def test_identify_rejects_an_input_too_small_to_move_the_plant(tmp_path, capsys, cfg_file):
    # a 1e-300 N cell moves x by less than a rounding step, so the Jacobian is
    # zero in every column: one line and exit 4, not a LinAlgError traceback
    m = tmp_path / "m.csv"
    _record(m, [0.0, 1e-300, 0.0, 0.0, 0.0, 0.0], x=[0.0, 1e-3, 2e-3, 1e-3, 0.0, 0.0])
    report = tmp_path / "r.txt"
    rc = main(["identify", "--config", str(cfg_file), "--measured", str(m), "--out", str(report)])
    captured = capsys.readouterr()
    assert rc == EXIT_SCHEMA
    assert captured.err == ("measured CSV rejected: x does not respond to theta: "
                            "u is too small to move the plant\n")
    assert captured.out == "" and not report.exists()


def test_identify_rejects_impulse_start(tmp_path, capsys, cfg_file):
    # the onset is read from the record, so the option that set it is gone
    m = tmp_path / "m.csv"
    m.write_text(TWO_ROWS, encoding="utf-8")
    rc = main(["identify", "--config", str(cfg_file), "--measured", str(m),
               "--out", str(tmp_path / "r.txt"), "--impulse-start", "0.01"])
    captured = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert "unrecognized arguments: --impulse-start 0.01" in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_identify_bad_bounds_factor(tmp_path, cfg_file):
    m = tmp_path / "m.csv"
    m.write_text("t,x,u\n0.0,0.0,0.0\n0.001,0.0,0.0\n", encoding="utf-8")
    rc = main(["identify", "--config", str(cfg_file), "--measured", str(m),
               "--out", str(tmp_path / "r.txt"), "--bounds-factor", "0.5"])
    assert rc == EXIT_CONFIG


def test_identify_nonuniform_grid_rejected(cfg_file, tmp_path, capsys):
    m = tmp_path / "m.csv"
    m.write_text("t,x,u\n0.0,0.0,0.0\n0.001,0.0,0.0\n0.003,0.0,0.0\n", encoding="utf-8")
    rc = main(["identify", "--config", str(cfg_file), "--measured", str(m),
               "--out", str(tmp_path / "r.txt")])
    assert rc == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("measured CSV rejected: ") and ": row 3: t = 0.003 " in err


@pytest.mark.parametrize("command", ["observe", "identify"])
@pytest.mark.parametrize("row", ["0.0005,nan,0.0", "nan,0.0,0.0", "0.0005,inf,0.0"],
                         ids=["nan_x", "nan_t", "inf_x"])
def test_non_finite_cell_rejected(cfg_file, tmp_path, capsys, command, row):
    m = tmp_path / "m.csv"
    m.write_text(f"t,x,u\n0.0,0.0,0.0\n{row}\n0.001,0.0,0.0\n", encoding="utf-8")
    rc = main([command, "--config", str(cfg_file), "--measured", str(m),
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "row 2" in err
    assert not (tmp_path / "out").exists()


def test_compare_merges(cfg_file, tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    est = tmp_path / "est.csv"
    merged = tmp_path / "merged.csv"
    script = tmp_path / "plot.py"
    main(["simulate", "--config", str(cfg_file), "--out", str(sim)])
    main(["observe", "--config", str(cfg_file),
          "--measured", str(tmp_path / "sim_measured.csv"), "--out", str(est)])
    capsys.readouterr()
    rc = main(["compare", "--sim", str(sim), "--estimates", str(est),
               "--out", str(merged), "--plot-script", str(script)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "rows = 801" in out and "rms_velocity_error = " in out
    header = ("t", "x", "v", "f", "u", "w2_tilde", "w3_tilde", "phi", "e_obs")
    cols = read_columns(merged, header)
    assert len(cols) == 9 and len(cols[0]) == 801
    assert "matplotlib" in script.read_text(encoding="utf-8")


def test_compare_length_mismatch(cfg_file, tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    est = tmp_path / "est.csv"
    main(["simulate", "--config", str(cfg_file), "--out", str(sim)])
    main(["observe", "--config", str(cfg_file),
          "--measured", str(tmp_path / "sim_measured.csv"), "--out", str(est)])
    capsys.readouterr()
    from frictionobs import write_columns

    cols = read_columns(est, ESTIMATES_HEADER)
    write_columns(est, ESTIMATES_HEADER, [c[:-1] for c in cols])
    rc = main(["compare", "--sim", str(sim), "--estimates", str(est),
               "--out", str(tmp_path / "m.csv")])
    assert rc == EXIT_SCHEMA


def test_readme_synopsis_matches_the_parser():
    # the flags of each command in README's "Command line" block are its parser's options
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {}
    for line in block.splitlines():
        if line.startswith("frictionobs "):
            command = line.split()[1]
        documented.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
              for name, p in sub.choices.items()}
    assert documented == parsed


def test_unknown_subcommand_maps_to_config_error():
    assert main(["frobnicate"]) == EXIT_CONFIG
    assert main([]) == EXIT_CONFIG


TWO_ROWS = "t,x,u\n0.0,0.0,0.0\n0.001,0.0,0.0\n"


@pytest.mark.parametrize("config_line, argv", [
    ("sim.noise_std = nan", ["simulate"]),
    ("sim.noise_std = inf", ["simulate"]),
    ("sim.quant = inf", ["simulate"]),
    ("sim.seed = -1", ["simulate"]),
    ("", ["identify", "--bounds-factor", "nan"]),
    ("", ["identify", "--bounds-factor", "inf"]),
    ("", ["design", "--kappa", "nan"]),
    ("", ["design", "--kappa", "inf"]),
    ("sim.t_end = 1e300\nsim.dt = 1e-10", ["simulate"]),
], ids=["noise_nan", "noise_inf", "quant_inf", "seed_negative", "bounds_factor_nan",
        "bounds_factor_inf", "kappa_nan", "kappa_inf", "sample_count_overflow"])
def test_bad_value_is_config_error(tmp_path, capsys, config_line, argv):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SHORT_CFG + config_line + "\n", encoding="utf-8")
    m = tmp_path / "m.csv"
    m.write_text(TWO_ROWS, encoding="utf-8")
    out = tmp_path / "out.csv"
    if argv[0] == "design":
        argv = argv + ["--poles=-350,-10"]
    else:
        argv = argv + ["--config", str(cfg), "--out", str(out)]
        if argv[0] == "identify":
            argv += ["--measured", str(m)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists() and not (tmp_path / "out_measured.csv").exists()


@pytest.mark.parametrize("t_end, prefix", [
    # 2e15 samples: a 14 PiB time grid, which no process can map, so
    # nothing is allocated
    ("1e12", "out of memory: "),
    # past sys.maxsize bytes a float64 column cannot even be addressed
    ("1e17", "config error: "),
    ("1e300", "config error: "),
])
def test_record_too_long_to_hold_is_one_error_line(tmp_path, capsys, t_end, prefix):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SHORT_CFG + f"sim.t_end = {t_end}\n", encoding="utf-8")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
    captured = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == [cfg]


@pytest.fixture
def short_run(cfg_file, tmp_path, capsys):
    """A simulated short run: (sim CSV, measured CSV)."""
    sim = tmp_path / "sim.csv"
    main(["simulate", "--config", str(cfg_file), "--out", str(sim)])
    capsys.readouterr()
    return sim, tmp_path / "sim_measured.csv"


@pytest.mark.parametrize("case", ["truth_bad_grid", "truth_one_sample", "truth_missing",
                                  "truth_missing_empty_measured", "identify_shifted_grid"])
def test_rejected_input_writes_nothing(cfg_file, short_run, tmp_path, capsys, case):
    _, measured = short_run
    out = tmp_path / "out.csv"
    one = tmp_path / "one.csv"
    one.write_text("t,x,v,f,u\n0.0,0.0,0.0,0.0,0.0\n", encoding="utf-8")
    if case == "identify_shifted_grid":
        t, x, u = read_columns(measured, MEASURED_HEADER)
        from frictionobs import write_columns

        write_columns(measured, MEASURED_HEADER, [t + 0.5, x, u])
        argv = ["identify", "--measured", str(measured)]
        expect = "t[0] = 0.5"
    else:
        # the one-sample truth is off the grid of the 801-sample record
        truth = tmp_path / "missing.csv" if case.startswith("truth_missing") else one
        if case == "truth_one_sample":
            measured = tmp_path / "m1.csv"
            measured.write_text("t,x,u\n0.0,0.0,0.0\n", encoding="utf-8")
        if case == "truth_missing_empty_measured":
            measured = tmp_path / "m0.csv"
            measured.write_text("t,x,u\n", encoding="utf-8")
        argv = ["observe", "--measured", str(measured), "--truth", str(truth)]
        expect = "truth CSV rejected: "
    rc = main(argv + ["--config", str(cfg_file), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == EXIT_SCHEMA
    assert expect in captured.err and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "simulate_measured_out", "simulate_runs",
                                     "observe", "identify", "compare", "compare_plot_script"])
def test_unwritable_output_is_config_error(cfg_file, short_run, tmp_path, capsys, command):
    sim, measured = short_run
    est = tmp_path / "est.csv"
    main(["observe", "--config", str(cfg_file), "--measured", str(measured), "--out", str(est)])
    capsys.readouterr()
    unwritable = str(tmp_path / "missing_dir" / "out.csv")
    # the second run's measured CSV cannot be written, after three files were
    (tmp_path / "b_measured_run001.csv").mkdir()
    out = {"compare_plot_script": str(tmp_path / "merged.csv"),
           "simulate_measured_out": str(tmp_path / "s.csv"),
           "simulate_runs": str(tmp_path / "b.csv")}.get(command, unwritable)
    before = sorted(tmp_path.rglob("*"))
    argv = {
        "simulate": ["simulate", "--config", str(cfg_file)],
        "simulate_measured_out": ["simulate", "--config", str(cfg_file),
                                  "--measured-out", unwritable],
        "simulate_runs": ["simulate", "--config", str(cfg_file), "--runs", "2"],
        "observe": ["observe", "--config", str(cfg_file), "--measured", str(measured)],
        "identify": ["identify", "--config", str(cfg_file), "--measured", str(measured),
                     "--bounds-factor", "1.01"],
        "compare": ["compare", "--sim", str(sim), "--estimates", str(est),
                    "--plot-script", str(tmp_path / "plot.py")],
        "compare_plot_script": ["compare", "--sim", str(sim), "--estimates", str(est),
                                "--plot-script", unwritable],
    }[command]
    rc = main(argv + ["--out", out])
    captured = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert captured.err.startswith("cannot write output: ") and captured.err.count("\n") == 1
    # a command prints its report only once every output is written
    assert captured.out == ""
    # and no command leaves any of its outputs behind when another fails
    assert sorted(tmp_path.rglob("*")) == before


def test_measured_out_naming_out_is_config_error(cfg_file, tmp_path, capsys, monkeypatch):
    # one file named by a relative and by an absolute path
    monkeypatch.chdir(tmp_path)
    rc = main(["simulate", "--config", str(cfg_file), "--out", "s.csv",
               "--measured-out", str(tmp_path / "s.csv")])
    captured = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert captured.err == "config error: --measured-out names the --out file\n"
    assert captured.out == "" and not (tmp_path / "s.csv").exists()


def test_plot_script_naming_out_is_config_error(cfg_file, short_run, tmp_path, capsys,
                                                monkeypatch):
    sim, measured = short_run
    est = tmp_path / "est.csv"
    main(["observe", "--config", str(cfg_file), "--measured", str(measured), "--out", str(est)])
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    # one file named by a relative and by an absolute path
    rc = main(["compare", "--sim", str(sim), "--estimates", str(est), "--out", "p.py",
               "--plot-script", str(tmp_path / "p.py")])
    captured = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert captured.err == "config error: --plot-script names the --out file\n"
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


def test_non_utf8_input_rejected(cfg_file, tmp_path, capsys):
    m = tmp_path / "m.csv"
    m.write_bytes(b"t,x,u\n0.0,\xff,0.0\n")
    rc = main(["observe", "--config", str(cfg_file), "--measured", str(m),
               "--out", str(tmp_path / "e.csv")])
    assert rc == EXIT_SCHEMA
    assert "row 1 column 'x'" in capsys.readouterr().err
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"sim.t_end = 0.1\xff\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
    assert rc == EXIT_CONFIG
    assert "sim.t_end" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["observe", "identify"])
def test_overlong_cell_rejected(cfg_file, tmp_path, capsys, command):
    m = tmp_path / "m.csv"
    m.write_text("t,x,u\n0.0,0.0,0.0\n0.0005," + "1" * 131073 + ",0.0\n", encoding="utf-8")
    rc = main([command, "--config", str(cfg_file), "--measured", str(m),
               "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == EXIT_SCHEMA
    assert captured.err.count("\n") == 1
    assert "row 2: field larger than field limit" in captured.err
    assert captured.out == "" and not (tmp_path / "out").exists()


def _huge_x_record(path, magnitude, n=50):
    rows = [f"{k * 5e-4!r},{magnitude * (-1) ** k!r},0.0" for k in range(n)]
    path.write_text("t,x,u\n" + "\n".join(rows) + "\n", encoding="utf-8")


@pytest.mark.parametrize("magnitude", [1e306, 1.7e308])
def test_observe_non_finite_estimates_is_divergence(cfg_file, tmp_path, capsys, magnitude):
    # finite cells whose estimates overflow: exit 2, no estimates file
    m = tmp_path / "m.csv"
    _huge_x_record(m, magnitude)
    out = tmp_path / "e.csv"
    rc = main(["observe", "--config", str(cfg_file), "--measured", str(m), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == EXIT_DIVERGED
    assert captured.err.startswith("observer diverged: ") and captured.err.count("\n") == 1
    assert "sample 0" in captured.err
    assert captured.out == "" and not out.exists()


def test_observe_huge_finite_estimates_keep_rms_finite(cfg_file, tmp_path, capsys):
    # x near 1e200 overflows x*x inside rms, but not the estimates
    m = tmp_path / "m.csv"
    _huge_x_record(m, 1e200)
    out = tmp_path / "e.csv"
    rc = main(["observe", "--config", str(cfg_file), "--measured", str(m), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == EXIT_OK and captured.err == ""
    value = float(captured.out.splitlines()[0].removeprefix("rms_e_obs = "))
    assert np.isfinite(value) and value > 1e199
    assert all(np.isfinite(c).all() for c in read_columns(out, ESTIMATES_HEADER))


def test_simulate_subnormal_quant_is_one_config_error(tmp_path, capsys):
    cfg = tmp_path / "q.cfg"
    cfg.write_text("sim.quant = 5e-324\nsim.t_end = 0.01\n", encoding="utf-8")
    out = tmp_path / "s.csv"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert captured.err.startswith("config error: sim.noise_std/sim.quant: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_later_seed_overflow_leaves_no_files(tmp_path, capsys):
    # seed 9's noise stays finite at this std, seed 10's overflows x
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SHORT_CFG.replace("sim.noise_std = 1e-6", "sim.noise_std = 5.6e307")
                   .replace("sim.seed = 3", "sim.seed = 9"), encoding="utf-8")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv"),
               "--runs", "2"])
    captured = capsys.readouterr()
    assert rc == EXIT_CONFIG and captured.out == ""
    assert captured.err.startswith("config error: sim.noise_std/sim.quant: ")
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_argparse_rejection_is_one_config_error_line(capsys):
    rc = main(["design", "--poles=-350,-10", "--m", "abc"])
    captured = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert captured.err == "config error: argument --m: invalid float value: 'abc'\n"
    assert captured.out == ""
    for argv in (["frobnicate"], [], ["simulate", "--out", "s.csv"]):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


def test_help_exits_zero_on_stdout(capsys):
    for argv in (["--help"], ["design", "-h"]):
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: frictionobs") and captured.err == ""


def _printed(out):
    """The `name = value` lines of a command's stdout, values as floats."""
    return {k: float(v) for k, _, v in (line.partition(" = ") for line in out.splitlines()) if v}


def test_observe_truth_on_record_not_starting_at_zero(cfg_file, short_run, tmp_path, capsys):
    # the nominal model runs from rest at row 0, row for row, whatever t[0] is
    from frictionobs import write_columns

    sim, measured = short_run
    argv = ["observe", "--config", str(cfg_file), "--out", str(tmp_path / "e.csv")]
    assert main(argv + ["--measured", str(measured), "--truth", str(sim)]) == EXIT_OK
    base = _printed(capsys.readouterr().out)["rms_e_model"]
    for path, header in ((sim, SIM_HEADER), (measured, MEASURED_HEADER)):
        cols = read_columns(path, header)
        write_columns(path, header, [cols[0] + 0.5, *cols[1:]])
    rc = main(argv + ["--measured", str(measured), "--truth", str(sim)])
    captured = capsys.readouterr()
    assert rc == EXIT_OK and captured.err == ""
    assert _printed(captured.out)["rms_e_model"] == pytest.approx(base, rel=1e-9)


def test_compare_overflowing_difference_stays_finite(tmp_path, capsys):
    # w2 - v overflows in its first row; the RMS itself, sqrt(1.25) * 1e308, does not
    from frictionobs import write_columns

    t, z = np.arange(4) * 5e-4, np.zeros(4)
    sim, est = tmp_path / "s.csv", tmp_path / "e.csv"
    write_columns(sim, SIM_HEADER, [t, z, np.array([1e308, -1e308, 0.0, 0.0]), z, z])
    write_columns(est, ESTIMATES_HEADER, [t, np.array([-1e308, 0.0, 0.0, 0.0]), z, z, z])
    rc = main(["compare", "--sim", str(sim), "--estimates", str(est),
               "--out", str(tmp_path / "m.csv")])
    captured = capsys.readouterr()
    assert rc == EXIT_OK and captured.err == ""
    printed = _printed(captured.out)
    assert printed["rms_velocity_error"] == pytest.approx(1.25 ** 0.5 * 1e308, rel=1e-15)
    assert printed["rms_force_error"] == 0.0
