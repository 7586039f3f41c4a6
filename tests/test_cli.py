"""Command-line interface tests driven through main(argv)."""

import argparse
import builtins
import errno
import io
import itertools
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import frictionobs
from frictionobs import ESTIMATES_HEADER, MEASURED_HEADER, SIM_HEADER, cli, csvio, read_columns
from frictionobs.cli import (
    EXIT_CONFIG,
    EXIT_DESIGN,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_SCHEMA,
    build_parser,
    main,
)
from test_csvio import _assert_no_child, _set_cpus

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


# poles whose product underflows: l2 = sigma/beta, which breaks l2 < sigma/beta
TINY_POLES = "observer.poles = -1e-200, -1e-200\n"


def test_observe_bad_gains_is_config_error(tmp_path, capsys):
    # gains that break l2 < sigma/beta are a config error for observe;
    # simulate and identify do not use the gains and run as before
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "sim.dt = 1e-3\nsim.t_end = 0.08\nsim.noise_std = 0\n"
        "scenario.pulses = 0.01,0.005,1.0\n" + TINY_POLES,
        encoding="utf-8",
    )
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "sim.csv")]) == EXIT_OK
    measured = str(tmp_path / "sim_measured.csv")
    capsys.readouterr()
    rc = main(["observe", "--config", str(bad), "--measured", measured,
               "--out", str(tmp_path / "e.csv")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "l2 < sigma/beta" in err
    assert err.count("\n") == 1
    rc = main(["identify", "--config", str(bad), "--measured", measured,
               "--out", str(tmp_path / "fit.txt")])
    assert rc == EXIT_OK


def test_observe_bad_gains_come_before_a_diverging_model(cfg_file, short_run, tmp_path,
                                                        capsys):
    # the model diverges at once under this v_max, but the gain condition is
    # what is reported, whichever of the two runs first
    bad = tmp_path / "bad.cfg"
    bad.write_text(SHORT_CFG + TINY_POLES + "sim.v_max = 1e-9\n", encoding="utf-8")
    out = tmp_path / "e.csv"
    rc = main(["observe", "--config", str(bad), "--measured", str(short_run[1]),
               "--out", str(out), "--truth", str(short_run[0])])
    captured = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert captured.err == ("config error: gains (l1=2e-200, l2=1000.0) violate l1 > 0, "
                            "l2 < sigma/beta = 1000.0\n")
    assert captured.out == "" and not out.exists()
    # with gains that hold, the model's divergence is what is reported
    bad.write_text(SHORT_CFG + "sim.v_max = 1e-9\n", encoding="utf-8")
    rc = main(["observe", "--config", str(bad), "--measured", str(short_run[1]),
               "--out", str(out), "--truth", str(short_run[0])])
    captured = capsys.readouterr()
    assert rc == EXIT_DIVERGED
    assert captured.err.startswith("simulation diverged: ") and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


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
    # one key = value line each, and every value one token
    vals = dict(line.split(" = ") for line in txt.strip().splitlines())
    assert list(vals) == ["sigma", "beta", "s_scale", "amplitude", "width", "rms_residual",
                          "iterations", "converged", "sigma_rel_se", "beta_rel_se",
                          "s_scale_rel_se", "max_corr", "max_corr_pair"]
    assert all(v and len(v.split()) == 1 for v in vals.values())
    # started at the truth, the fit must stay in its basin
    assert abs(float(vals["sigma"]) - 2.0) / 2.0 < 0.10
    assert float(vals["rms_residual"]) < 1e-6


# records that pin the parameters down poorly or perfectly: each prints a
# defined spread, never nan. The noise-level record (0.001 N, 10 ms, 2e-6 m
# noise) is fitted from sigma x1.3, beta and s_scale x0.75.
NOISE_LEVEL_START = "friction.sigma = 2.6\nfriction.beta = 0.0015\nfriction.s_scale = 1500.0\n"
INF = float("inf")


@pytest.mark.parametrize("record, start, rel_se, max_corr", [
    # 3 samples, n = p: no C and no degree of freedom
    ("sim.dt = 1e-3\nsim.t_end = 0.002\nscenario.pulses = 0,0.005,1.0\n", "", [INF] * 3, 0.0),
    # 4 samples: J^T J singular to working precision
    ("sim.dt = 1e-3\nsim.t_end = 0.003\nscenario.pulses = 0,0.005,1.0\n", "", [INF] * 3, 0.0),
    # a noise-free record fitted from the truth: zero residual, C from J alone
    ("sim.t_end = 0.3\nsim.noise_std = 0\nscenario.pulses = 0.01,0.005,0.18\n", "",
     [0.0] * 3, pytest.approx(-0.968, abs=1e-3)),
    ("sim.t_end = 0.3\nscenario.pulses = 0.01,0.01,0.001\n", NOISE_LEVEL_START,
     pytest.approx([8.378, 159.08, 0.7028], rel=1e-3), pytest.approx(-0.9958, abs=1e-4)),
], ids=["three_samples", "four_samples", "zero_residual", "noise_level"])
def test_identify_spread_on_degenerate_records(tmp_path, capsys, record, start, rel_se,
                                               max_corr):
    (tmp_path / "r.cfg").write_text(record, encoding="utf-8")
    (tmp_path / "f.cfg").write_text(record + start, encoding="utf-8")
    assert main(["simulate", "--config", str(tmp_path / "r.cfg"),
                 "--out", str(tmp_path / "sim.csv")]) == EXIT_OK
    capsys.readouterr()
    rc = main(["identify", "--config", str(tmp_path / "f.cfg"), "--bounds-factor", "4",
               "--measured", str(tmp_path / "sim_measured.csv"),
               "--out", str(tmp_path / "fit.txt")])
    out, err = capsys.readouterr()
    assert rc == EXIT_OK and err == ""
    assert "nan" not in out
    vals = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
    assert [float(vals[f"{name}_rel_se"]) for name in ("sigma", "beta", "s_scale")] == rel_se
    assert float(vals["max_corr"]) == max_corr


def test_identify_fits_with_the_config_deadband(tmp_path, capsys):
    # the forward model runs the configured deadband, so a noise-free record
    # made with a wide one is fitted back to the truth exactly
    cfg = tmp_path / "i.cfg"
    cfg.write_text(
        "sim.t_end = 0.3\nsim.noise_std = 0\nscenario.pulses = 0.01,0.005,1.0\n"
        "friction.deadband = 0.02\n",
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


@pytest.mark.parametrize("u", [[1.6, 0.0], [0.0, 1.6], [0.0, 0.0, 1.6, 0.0]])
def test_identify_rejects_a_record_that_ends_before_x_responds(tmp_path, capsys, cfg_file, u):
    # x responds to theta only from two samples after u's first nonzero row
    m = tmp_path / "m.csv"
    _record(m, u, x=[0.0] * (len(u) - 1) + [1e-6])
    report = tmp_path / "r.txt"
    rc = main(["identify", "--config", str(cfg_file), "--measured", str(m), "--out", str(report)])
    captured = capsys.readouterr()
    k = u.index(1.6)
    assert rc == EXIT_SCHEMA
    assert captured.err == (
        "measured CSV rejected: the record is too short: x responds to theta only from two "
        f"samples after u's first nonzero row ({k}), so it needs at least {k + 3} samples, "
        f"not {len(u)}\n")
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
    # the rows are spliced from the inputs' lines, byte for byte what
    # formatting the parsed columns anew writes
    from frictionobs import write_columns

    write_columns(tmp_path / "formatted.csv", header,
                  read_columns(sim, SIM_HEADER) + read_columns(est, ESTIMATES_HEADER)[1:])
    assert merged.read_bytes() == (tmp_path / "formatted.csv").read_bytes()
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


@pytest.mark.parametrize("config_line, argv, names", [
    ("sim.noise_std = nan", ["simulate"], None),
    ("sim.noise_std = inf", ["simulate"], None),
    ("sim.quant = inf", ["simulate"], None),
    ("sim.seed = -1", ["simulate"], None),
    ("", ["identify", "--bounds-factor", "nan"], "--bounds-factor nan"),
    ("", ["identify", "--bounds-factor", "inf"], "--bounds-factor inf"),
    ("", ["design", "--kappa", "nan"], "kappa must be finite and >= 0, got nan"),
    ("", ["design", "--kappa", "inf"], "kappa must be finite and >= 0, got inf"),
    ("", ["design", "--m", "nan"], "m must be finite and > 0, got nan"),
    ("", ["design", "--m", "inf"], "m must be finite and > 0, got inf"),
    ("", ["design", "--sob", "nan"], "sob must be finite, got nan"),
    ("", ["design", "--sob", "inf"], "sob must be finite, got inf"),
    ("sim.t_end = 1e300\nsim.dt = 1e-10", ["simulate"], None),
], ids=["noise_nan", "noise_inf", "quant_inf", "seed_negative", "bounds_factor_nan",
        "bounds_factor_inf", "kappa_nan", "kappa_inf", "m_nan", "m_inf", "sob_nan", "sob_inf",
        "sample_count_overflow"])
def test_bad_value_is_config_error(tmp_path, capsys, config_line, argv, names):
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
    # a non-finite flag is named with its value, not blamed on what it feeds
    assert names is None or names in captured.err
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


# (command, input flag, output flag); compare's cases keep their first ids
_NAMING = [("compare", i, o) for i in ("--estimates", "--sim") for o in ("--out", "--plot-script")]
_NAMING += [("observe", "--config", "--out"), ("observe", "--measured", "--out"),
            ("observe", "--truth", "--out"), ("identify", "--config", "--out"),
            ("identify", "--measured", "--out"), ("simulate", "--config", "--out"),
            ("simulate", "--config", "--measured-out")]


@pytest.mark.parametrize("command, in_flag, out_flag", [
    pytest.param(c, i, o, id=f"{i}-{o}" if c == "compare" else f"{c}:{i}-{o}")
    for c, i, o in _NAMING])
def test_output_naming_an_input_is_config_error(cfg_file, short_run, tmp_path, capsys,
                                                monkeypatch, command, in_flag, out_flag):
    # every command reads an input while it writes, or after it has written,
    # an output, so an output that names an input would lose it
    sim, measured = short_run
    est = tmp_path / "est.csv"
    main(["observe", "--config", str(cfg_file), "--measured", str(measured), "--out", str(est)])
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    files = {"--config": cfg_file, "--measured": measured, "--truth": sim, "--sim": sim,
             "--estimates": est}
    inputs = {p: p.read_bytes() for p in files.values()}
    before = sorted(tmp_path.rglob("*"))
    argv = {
        "compare": ["--sim", str(sim), "--estimates", str(est), "--out", "merged.csv",
                    "--plot-script", "plot.py"],
        "observe": ["--config", str(cfg_file), "--measured", str(measured), "--truth", str(sim),
                    "--out", "e.csv"],
        "identify": ["--config", str(cfg_file), "--measured", str(measured), "--out", "fit.txt"],
        "simulate": ["--config", str(cfg_file), "--out", "s.csv", "--measured-out", "m.csv"],
    }[command]
    # one file named by a relative and by an absolute path
    argv[argv.index(out_flag) + 1] = files[in_flag].name
    rc = main([command, *argv])
    captured = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert captured.err == f"config error: {out_flag} names the {in_flag} file\n"
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before
    assert {p: p.read_bytes() for p in files.values()} == inputs


@pytest.mark.skipif(not hasattr(os, "link"), reason="no hard links")
def test_output_hard_linked_to_an_input_is_config_error(cfg_file, short_run, tmp_path, capsys):
    # a hard link is the input file under another name, which no path resolves away
    measured = short_run[1]
    link = tmp_path / "link.csv"
    os.link(measured, link)
    data = measured.read_bytes()
    rc = main(["observe", "--config", str(cfg_file), "--measured", str(measured),
               "--out", str(link)])
    captured = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert captured.err == "config error: --out names the --measured file\n"
    assert captured.out == "" and measured.read_bytes() == data


def test_compare_formats_inputs_that_are_not_plain(cfg_file, short_run, tmp_path):
    # a space-padded estimates CSV is read row by row, and its cells are
    # written anew in repr() form, as when the file was written
    sim, measured = short_run
    est = tmp_path / "est.csv"
    main(["observe", "--config", str(cfg_file), "--measured", str(measured), "--out", str(est)])
    argv = ["compare", "--sim", str(sim), "--estimates", str(est), "--out"]
    assert main(argv + [str(tmp_path / "plain.csv")]) == EXIT_OK
    est.write_bytes(est.read_bytes().replace(b",", b", "))
    assert main(argv + [str(tmp_path / "padded.csv")]) == EXIT_OK
    assert (tmp_path / "padded.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


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
    # the truth CSV is written before the noise is drawn, but a config that
    # measure rejects is still reported before an output that cannot be written
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "no" / "s.csv")])
    assert rc == EXIT_CONFIG and capsys.readouterr().err == captured.err
    assert sorted(tmp_path.iterdir()) == [cfg]


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


def _traced_peak(argv):
    """main(argv)'s exit code and its peak traced memory in bytes."""
    tracemalloc.start()
    try:
        return main(argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_and_observe_peak_bytes_a_sample(tmp_path, capsys):
    # each column is freed once it has been read for the last time. On this
    # 20,001-sample record simulate peaks at 114.3 bytes a sample (122.3 when
    # the noisy x was drawn before the truth CSV was written) and observe
    # --truth at 142.7 (182.8 with the truth's t, the model's columns and the
    # estimates all held); one 4096-row block of formatted cells is about 70
    # of each
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SHORT_CFG.replace("sim.t_end = 0.4", "sim.t_end = 10.0"), encoding="utf-8")
    n = 20001
    # numpy.random is imported on first use; its import is no cost of a sample
    np.random.default_rng
    sim = tmp_path / "sim.csv"
    rc, peak = _traced_peak(["simulate", "--config", str(cfg), "--out", str(sim)])
    assert rc == EXIT_OK and len(read_columns(sim, SIM_HEADER)[0]) == n
    assert peak <= 118 * n
    rc, peak = _traced_peak(["observe", "--config", str(cfg), "--measured",
                             str(tmp_path / "sim_measured.csv"), "--out",
                             str(tmp_path / "e.csv"), "--truth", str(sim)])
    assert rc == EXIT_OK and "rms_e_model = " in capsys.readouterr().out
    assert peak <= 160 * n


# a child interpreter that may write files of at most argv[1] bytes, with
# SIGXFSZ ignored so that a longer write fails with EFBIG, runs the CLI on
# the rest of argv
UNDER_FILE_SIZE_LIMIT = """\
import resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
limit = int(sys.argv.pop(1))
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
from frictionobs.cli import entry
entry()
"""


@pytest.mark.parametrize("command, limit", [
    *itertools.product(["simulate", "simulate_runs", "observe", "compare"],
                       [200_000, 400_000, 600_000]),
    ("identify", 100), ("compare_plot", 500),
])
def test_failed_write_leaves_no_partial_file(tmp_path, command, limit):
    # the default 5.6 s record has 3 blocks of rows: its sim CSV is 0.85 MB,
    # 0.29 MB of it in the first block. Written in two parts, the first part
    # fails at 200 kB, the worker's part at 400 kB, and, in simulate, the
    # append of the worker's part at 600 kB; compare's splice fails at each.
    # The identify report (about 270 B) and the plot script (about 900 B)
    # fail part way at 100 and 500 B
    cfg = tmp_path / "default.cfg"
    cfg.write_text("", encoding="utf-8")
    s, e = str(tmp_path / "s.csv"), str(tmp_path / "e.csv")
    measured = str(tmp_path / "s_measured.csv")
    simulate = ["simulate", "--config", str(cfg), "--out", s]
    observe = ["observe", "--config", str(cfg), "--measured", measured, "--out", e]
    identify = ["identify", "--config", str(cfg), "--measured", measured,
                "--out", str(tmp_path / "fit.txt")]
    compare = ["compare", "--sim", s, "--estimates", e, "--out", str(tmp_path / "m.csv")]
    argv, inputs = {"simulate": (simulate, []), "simulate_runs": (simulate + ["--runs", "2"], []),
                    "observe": (observe, [simulate]), "identify": (identify, [simulate]),
                    "compare": (compare, [simulate, observe]),
                    "compare_plot": (compare + ["--plot-script", str(tmp_path / "plot.py")],
                                     [simulate, observe])}[command]
    for prior in inputs:
        assert main(prior) == EXIT_OK
    before = sorted(tmp_path.iterdir())
    path = [str(Path(frictionobs.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", UNDER_FILE_SIZE_LIMIT, str(limit), *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_CONFIG and proc.stdout == ""
    # every part meets EFBIG, and the error reads the same whether this
    # process or a worker met it
    assert proc.stderr == f"cannot write output: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n"
    assert sorted(tmp_path.iterdir()) == before


# a child interpreter whose address space is capped at argv[1] bytes runs
# the CLI on the rest of argv
UNDER_MEMORY_LIMIT = """\
import resource, sys
limit = int(sys.argv.pop(1))
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from frictionobs.cli import entry
entry()
"""


@pytest.mark.parametrize("runs", ["0", "1001", "99999999999999999999"])
def test_simulate_rejects_runs_out_of_range_first(tmp_path, runs):
    # --runs is checked before a path is built for each run, so a count that
    # would take more memory than the machine has is one error line; the
    # child runs under a cap and a timeout, so a regression fails here
    # instead of using up the machine's memory
    path = [str(Path(frictionobs.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", UNDER_MEMORY_LIMIT, str(1 << 30), "simulate",
                           "--config", str(tmp_path / "missing.cfg"), "--out",
                           str(tmp_path / "s.csv"), "--runs", runs],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_CONFIG and proc.stdout == ""
    assert proc.stderr == "config error: --runs must be between 1 and 1000\n"
    assert list(tmp_path.iterdir()) == []


class _DiskFull(io.FileIO):
    """A file on a disk that fills up once the file holds 4096 bytes.

    It hides its descriptor, so every byte goes through write(): no copy in
    the kernel can go around the full disk.
    """

    def write(self, b):
        room = 4096 - self.tell()
        if room <= 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(memoryview(b)[:room])

    def fileno(self):
        raise io.UnsupportedOperation("fileno")


def test_failed_runs_copy_leaves_no_partial_file(cfg_file, tmp_path, capsys, monkeypatch):
    # every run after the first copies the first run's truth CSV; the disk
    # fills part way through that copy, which a file-size limit cannot show
    # since the copy is no larger than the file it copies
    def opener(path, mode="r", *args, **kwargs):
        if Path(path).name == "s_run001.csv":
            return io.BufferedWriter(_DiskFull(path, "w"))
        return io.open(path, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", opener)
    before = sorted(tmp_path.iterdir())
    rc = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "s.csv"),
               "--runs", "2"])
    captured = capsys.readouterr()
    assert rc == EXIT_CONFIG and captured.out == ""
    assert captured.err == f"cannot write output: [Errno 28] {os.strerror(errno.ENOSPC)}\n"
    assert sorted(tmp_path.iterdir()) == before


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


# -- observe --truth and compare in two processes ---------------------------------------


def _observe_and_compare(cfg_file, sim, measured, tmp_path, capsys, tag):
    """stdout and output bytes of observe --truth, then compare on its estimates."""
    est, merged = tmp_path / f"est_{tag}.csv", tmp_path / f"merged_{tag}.csv"
    assert main(["observe", "--config", str(cfg_file), "--measured", str(measured),
                 "--out", str(est), "--truth", str(sim)]) == EXIT_OK
    assert main(["compare", "--sim", str(sim), "--estimates", str(est),
                 "--out", str(merged)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    _assert_no_child()
    return captured.out.replace(str(est), "EST").replace(str(merged), "MERGED"), \
        est.read_bytes(), merged.read_bytes()


@pytest.mark.parametrize("case", [None, 1, "no_temporary_file"])
def test_observe_and_compare_give_the_same_bytes_on_any_cpu_count(cfg_file, short_run, tmp_path,
                                                                   capsys, monkeypatch, case):
    # two CPUs: the truth's model run and compare's --sim side run in a forked child
    sim, measured = short_run
    _set_cpus(monkeypatch, 2)
    forked = _observe_and_compare(cfg_file, sim, measured, tmp_path, capsys, "forked")
    monkeypatch.undo()
    if case == "no_temporary_file":
        # a directory that takes no temporary file: this process writes every row itself
        def refused(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr("frictionobs.csvio.tempfile.TemporaryFile", refused)
    else:
        _set_cpus(monkeypatch, case)
    assert _observe_and_compare(cfg_file, sim, measured, tmp_path, capsys, "other") == forked


@pytest.mark.parametrize("how", ["killed", "memory"])
@pytest.mark.parametrize("command", ["observe", "compare", "simulate"])
def test_a_child_that_dies_leaves_no_output_and_no_child(cfg_file, short_run, tmp_path, capsys,
                                                         monkeypatch, command, how):
    sim, measured = short_run
    est = tmp_path / "est.csv"
    assert main(["observe", "--config", str(cfg_file), "--measured", str(measured),
                 "--out", str(est)]) == EXIT_OK
    capsys.readouterr()
    # 8201 rows, three blocks: the truth CSV is written in two halves
    long_cfg = tmp_path / "long.cfg"
    long_cfg.write_text(SHORT_CFG.replace("sim.t_end = 0.4", "sim.t_end = 4.1"), encoding="utf-8")

    def die(*args, **kwargs):
        if how == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        raise MemoryError("cannot allocate the column")

    write_rows = csvio._write_rows
    read = cli._read

    def die_in_second_half(fh, columns, lo, hi):
        return die() if lo else write_rows(fh, columns, lo, hi)

    def die_reading_sim(path, header, role):
        return die() if role == "sim" else read(path, header, role)

    # each is called, or dies, in the forked child only
    monkeypatch.setattr(*{"observe": ("frictionobs.cli.simulate_forced", die),
                          "compare": (cli, "_read", die_reading_sim),
                          "simulate": (csvio, "_write_rows", die_in_second_half)}[command])
    _set_cpus(monkeypatch, 2)
    out = tmp_path / "out.csv"
    before = sorted(tmp_path.rglob("*"))
    argv = {"observe": ["observe", "--config", str(cfg_file), "--measured", str(measured),
                        "--truth", str(sim)],
            "compare": ["compare", "--sim", str(sim), "--estimates", str(est)],
            "simulate": ["simulate", "--config", str(long_cfg)]}[command]
    rc = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert captured.err == {
        "killed": "process failed: a forked process was killed by signal 9 before it handed "
                  "back its result\n",
        "memory": "out of memory: cannot allocate the column\n"}[how]
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before
    _assert_no_child()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("bad", ["both", "estimates_blank_line"])
def test_compare_reports_the_sim_rejection_first(cfg_file, short_run, tmp_path, capsys,
                                                 monkeypatch, cpus, bad):
    # the --sim side runs in the child, yet its rejection still comes before the
    # estimates'; an estimates line the splice cannot split is rejected as such
    sim, measured = short_run
    est = tmp_path / "est.csv"
    assert main(["observe", "--config", str(cfg_file), "--measured", str(measured),
                 "--out", str(est)]) == EXIT_OK
    est.write_bytes(est.read_bytes().replace(b"\n", b"\n\n", 2).replace(b"\n\n", b"\n", 1))
    if bad == "both":
        sim.write_bytes(sim.read_bytes() + b"1.0\n")
    capsys.readouterr()
    _set_cpus(monkeypatch, cpus)
    out = tmp_path / "m.csv"
    rc = main(["compare", "--sim", str(sim), "--estimates", str(est), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == EXIT_SCHEMA
    role = "sim" if bad == "both" else "estimates"
    assert captured.err.startswith(f"{role} CSV rejected: ") and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()
    _assert_no_child()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_failed_write_through_a_symlink_leaves_the_link(cfg_file, short_run, tmp_path, capsys):
    # only a regular file that --out names is removed on a failure. Never name a
    # device itself as a test's output: a command that removed what it failed
    # to write would delete the device node
    _, measured = short_run
    link = tmp_path / "link.csv"
    link.symlink_to("/dev/full")
    rc = main(["observe", "--config", str(cfg_file), "--measured", str(measured),
               "--out", str(link)])
    captured = capsys.readouterr()
    assert rc == EXIT_CONFIG and captured.out == ""
    assert captured.err == f"cannot write output: [Errno 28] {os.strerror(errno.ENOSPC)}\n"
    assert link.is_symlink() and os.readlink(link) == "/dev/full"


@pytest.mark.parametrize("sendfile", ["not_a_socket", "missing"])
def test_compare_appends_without_sendfile(cfg_file, short_run, tmp_path, capsys, monkeypatch,
                                          sendfile):
    # os.sendfile copies only to a socket on macOS and is missing on Windows;
    # the merged rows reach --out through write() on every platform
    sim, measured = short_run
    est = tmp_path / "est.csv"
    assert main(["observe", "--config", str(cfg_file), "--measured", str(measured),
                 "--out", str(est)]) == EXIT_OK
    argv = ["compare", "--sim", str(sim), "--estimates", str(est), "--out"]
    assert main(argv + [str(tmp_path / "default.csv")]) == EXIT_OK
    if sendfile == "missing":
        monkeypatch.delattr(os, "sendfile")
    else:
        def not_a_socket(*args):
            raise OSError(errno.ENOTSOCK, os.strerror(errno.ENOTSOCK))

        monkeypatch.setattr(os, "sendfile", not_a_socket)
    _set_cpus(monkeypatch, None)
    capsys.readouterr()
    assert main(argv + [str(tmp_path / "m.csv")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()
