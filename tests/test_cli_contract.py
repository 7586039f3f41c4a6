"""The CLI exit-code contract on fuzzed config files and CSV bodies.

Whatever the input, ``main`` returns a documented code (0-4) and lets no
exception escape. A failure prints exactly one stderr line, and a success
prints nothing there, numpy warnings included. A config always ends with
bounded ``sim.dt``/``sim.t_end`` lines (at most 801 samples). Values and
cells are ordinary numbers, finite ones near +-1.7e308, or come from a
fixed set of special and malformed ones: nan, inf, 1e400, negatives,
empty, text, extra commas.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frictionobs import ESTIMATES_HEADER, MEASURED_HEADER, SIM_HEADER
from frictionobs.cli import EXIT_OK, main

# ordinary values per key; any key may instead get one of VALUES
GOOD = {
    "plant.m": ["0.052", "0.1"],
    "friction.c_f": ["0.2143", "0.5"],
    "friction.sigma": ["2.0", "5"],
    "friction.beta": ["0.002", "0.01"],
    "friction.s_scale": ["2000", "500"],
    "friction.z_floor": ["1e-4", "1e-3"],
    "observer.l1": ["360", "200"],
    "observer.l2": ["-182", "-100"],
    "observer.deadband": ["1e-4", "0"],
    "observer.poles": ["-350, -10", "-100,-20"],
    "sim.noise_std": ["2e-6", "0"],
    "sim.quant": ["0", "1e-7"],
    "sim.seed": ["7", "0"],
    "sim.v_max": ["1e3", "10"],
    "scenario.pulses": ["0.05,0.01,1.6", "0.002,0.004,-1; 0.1,0.01,2", "0.01,0.01,1e7"],
}
VALUES = st.sampled_from([
    "0", "-1", "0.5", "1e-6", "1e6", "nan", "inf", "-inf", "", "abc", "-350", "1,2",
    "0.1,0,1", "nan,0.01,1", "0.05,0.01,1e7", "1e400",
])
JUNK_LINES = st.one_of(
    st.sampled_from(["", "# comment", "no equals sign", "bogus.key = 1", "=", "plant.m"]),
    st.text(max_size=12),
)
# ordinary cells, and now and then one near the float limits, where sums and
# differences of two finite cells overflow
BIG = 1.7976931348623157e308
NUMBERS = st.one_of(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
    st.floats(1e307, BIG), st.floats(-BIG, -1e307),
).map(repr)
BAD_CELLS = st.sampled_from(["nan", "inf", "-inf", "", "x", " 1 ", "1,2", "1e400"])


@st.composite
def config_lines(draw):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(JUNK_LINES)
    key = draw(st.sampled_from(sorted(GOOD)))
    value = draw(VALUES) if kind == 1 else draw(st.sampled_from(GOOD[key]))
    return f"{key} = {value}"


@st.composite
def configs(draw):
    lines = draw(st.lists(config_lines(), max_size=4))
    lines.append("sim.dt = " + draw(st.sampled_from(["5e-4", "1e-3", "0.01"] * 4
                                                    + ["0", "-1e-3", "nan", "inf", "dt"])))
    lines.append("sim.t_end = " + draw(st.sampled_from(["0", "0.02", "0.2", "0.4"] * 3
                                                       + ["-1", "nan", "inf", "end"])))
    return "\n".join(lines) + "\n"


@st.composite
def csv_bodies(draw, header, dt, n):
    """A CSV on the grid k*dt, k < n, with at most one defect drawn into it."""
    lines = [",".join(header)]
    lines += [",".join([repr(k * dt)] + [draw(NUMBERS) for _ in header[1:]]) for k in range(n)]
    defect = draw(st.sampled_from([None, None, None, "header", "cell", "row", "tail"]))
    row = draw(st.integers(1, n)) if n else 0
    if defect == "header":
        lines[0] = draw(st.sampled_from([",".join(header[:-1]), "a,b,c", "", " "]))
    elif defect == "cell" and n:
        cells = lines[row].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(BAD_CELLS)
        lines[row] = ",".join(cells)
    elif defect == "row" and n:
        lines[row] = ",".join(draw(st.lists(NUMBERS | BAD_CELLS, max_size=len(header) + 1)))
    elif defect == "tail":
        lines.append(draw(st.text(max_size=12)))
    return "\n".join(lines) + "\n"


@st.composite
def record_pairs(draw, first, second, max_rows=40):
    """Two CSV bodies (either may be None: the file is missing) on one drawn grid."""
    dt = draw(st.sampled_from([5e-4, 1e-3, 0.01]))
    n = draw(st.integers(0, max_rows))
    bodies = []
    for header in (first, second):
        # most often present and on the shared grid, so success is reached
        m = draw(st.sampled_from([n, n, n, max(n - 1, 0)]))
        missing = draw(st.sampled_from([False] * 7 + [True]))
        bodies.append(None if missing else draw(csv_bodies(header, dt, m)))
    return tuple(bodies)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    assert rc in range(5)
    assert not caught, [str(w.message) for w in caught]
    stderr = err.getvalue()
    if rc == EXIT_OK:
        assert stderr == ""
    else:
        assert stderr.count("\n") == 1 and stderr.endswith("\n"), stderr


def write(directory, name, text):
    """Write text, or nothing if it is None; return the path either way."""
    path = Path(directory) / name
    if text is not None:
        path.write_text(text, encoding="utf-8")
    return str(path)


CONTRACT = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@CONTRACT
@given(configs(), st.sampled_from(["1", "2", "0"]))
def test_simulate_contract(config, runs):
    with tempfile.TemporaryDirectory() as d:
        run(["simulate", "--config", write(d, "c.cfg", config),
             "--out", str(Path(d) / "s.csv"), "--runs", runs])


@CONTRACT
@given(configs(), record_pairs(MEASURED_HEADER, SIM_HEADER))
def test_observe_contract(config, bodies):
    measured, truth = bodies
    with tempfile.TemporaryDirectory() as d:
        argv = ["observe", "--config", write(d, "c.cfg", config),
                "--measured", write(d, "m.csv", measured), "--out", str(Path(d) / "e.csv")]
        if truth is not None:
            argv += ["--truth", write(d, "t.csv", truth)]
        run(argv)


@CONTRACT
@given(record_pairs(SIM_HEADER, ESTIMATES_HEADER))
def test_compare_contract(bodies):
    sim, est = bodies
    with tempfile.TemporaryDirectory() as d:
        run(["compare", "--sim", write(d, "s.csv", sim), "--estimates", write(d, "e.csv", est),
             "--out", str(Path(d) / "m.csv"), "--plot-script", str(Path(d) / "p.py")])


def with_pulse(body, start, rows, value):
    """body with the u cell of data row i set to value for start <= i < start + rows, else 0.

    Rows that do not have 3 cells keep their defect.
    """
    lines = body.split("\n")
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) == 3:
            cells[2] = value if start <= i < start + rows else "0.0"
            lines[i + 1] = ",".join(cells)
    return "\n".join(lines)


@settings(CONTRACT, max_examples=15)
@given(configs(), record_pairs(MEASURED_HEADER, MEASURED_HEADER, max_rows=12),
       st.sampled_from([[], [], ["--bounds-factor", "2"], ["--bounds-factor", "1"],
                        ["--bounds-factor", "inf"]]),
       st.none() | st.tuples(st.integers(0, 6), st.integers(1, 12), NUMBERS))
def test_identify_contract(config, bodies, flags, pulse):
    # u is mostly rewritten to one pulse of a drawn value, so that a bad u cell
    # does not stop most records before the fit, which then meets the fuzzed x
    # and a u of any size
    measured = bodies[0]
    if measured is not None and pulse is not None:
        measured = with_pulse(measured, *pulse)
    with tempfile.TemporaryDirectory() as d:
        run(["identify", "--config", write(d, "c.cfg", config),
             "--measured", write(d, "m.csv", measured), "--out", str(Path(d) / "r.txt"),
             *flags])
