"""Golden bytes: the CLI's CSVs on the default configuration must not change.

The digests are SHA-256 of the files written by ``simulate`` (default config,
seed 7), ``simulate --runs 2`` (seeds 7 and 8) and ``observe --truth`` over
the first simulation, and of the ``identify`` report on a short noisy record
with the default deadband. They were recorded on x86-64 Linux with CPython 3.11
and numpy 2.4; a refactor that changes any byte of these outputs fails here.
"""

import hashlib

from frictionobs.cli import EXIT_OK, main

GOLDEN = {
    "sim.csv": "e1e7d572101dfbb0916a48e9a32612904650aeb8743a65505f3fe4dd65706d47",
    "sim_measured.csv": "362a98a9d295a38eab61be48272408c71799d04c12cb385c1e4ff15c4118e932",
    "batch_run000.csv": "e1e7d572101dfbb0916a48e9a32612904650aeb8743a65505f3fe4dd65706d47",
    "batch_run001.csv": "e1e7d572101dfbb0916a48e9a32612904650aeb8743a65505f3fe4dd65706d47",
    "batch_measured_run000.csv": "362a98a9d295a38eab61be48272408c71799d04c12cb385c1e4ff15c4118e932",
    "batch_measured_run001.csv": "c485da98214c83309172ee68dddf5a19a62ef62adc86646933fa6bb13a03056b",
    # the default gains placed from observer.poles = -1300, -120
    "est.csv": "314df2400b09adcf17e204a68cb0cef01947c3187b8b90746ccd4512d59ba8a0",
}


def test_default_config_outputs_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "default.cfg"
    cfg.write_text("", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim.csv")]) == EXIT_OK
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "batch.csv"),
                 "--runs", "2"]) == EXIT_OK
    assert main(["observe", "--config", str(cfg),
                 "--measured", str(tmp_path / "sim_measured.csv"),
                 "--out", str(tmp_path / "est.csv"),
                 "--truth", str(tmp_path / "sim.csv")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert got == GOLDEN


IDENTIFY_REPORT = "730f0ca1501b303d5574a1db67f42711936693ce14bb808a2ab790a6776b3364"


def test_identify_report_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "i.cfg"
    cfg.write_text("sim.dt = 1e-3\nsim.t_end = 0.08\nscenario.pulses = 0.01,0.005,1.0\n",
                   encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim.csv")]) == EXIT_OK
    assert main(["identify", "--config", str(cfg),
                 "--measured", str(tmp_path / "sim_measured.csv"),
                 "--out", str(tmp_path / "fit.txt")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert hashlib.sha256((tmp_path / "fit.txt").read_bytes()).hexdigest() == IDENTIFY_REPORT
