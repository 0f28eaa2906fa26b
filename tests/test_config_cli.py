import csv
import math
import subprocess
import sys
from pathlib import Path

import pytest

from katolab.config import RunConfig, parse_config_text
from katolab.errors import ConfigError

MINIMAL = """\
kernel.family = gaussian
kernel.dim = 1
measure.kind = point_masses
measure.atoms = 0:1.0
sweep.p = 1
sweep.centers_explicit = 0
sweep.centers_support = 0
sweep.centers_random = 0
"""


# --------------------------------------------------------------------------
# config parsing


def test_parse_config_basic():
    kv = parse_config_text("a.b = 1  # comment\n\nc.d = x = y\n")
    assert kv == {"a.b": "1", "c.d": "x = y"}


def test_parse_config_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("a.b = 1\nnot an assignment\n")


def test_parse_config_rejects_undotted_keys():
    with pytest.raises(ConfigError, match="dotted"):
        parse_config_text("plainkey = 1\n")


def test_parse_config_rejects_duplicates():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a.b = 1\na.b = 2\n")


def test_run_config_from_dict():
    run = RunConfig.from_dict(parse_config_text(MINIMAL))
    assert run.model.family == "gaussian"
    assert run.measure.dim == 1
    assert run.p_list == [1.0]


def test_run_config_bad_kernel_block():
    with pytest.raises(ConfigError, match="kernel"):
        RunConfig.from_dict(parse_config_text(
            "kernel.family = gaussian\nkernel.nonsense = 3\n"))


@pytest.mark.parametrize("line", [
    "kernal.family = stable_estimate",  # a misspelt section
    "space.nu = 3",  # no alias of the kernel section
    "sweep.center_random = 0",  # a misspelt sweep key
    "sweep.centers = 2",
])
def test_run_config_rejects_unknown_keys(line):
    with pytest.raises(ConfigError, match="unknown config key"):
        RunConfig.from_dict(parse_config_text(MINIMAL + line + "\n"))


@pytest.mark.parametrize("lines,key", [
    ("measure.kind = sphere_surface\nmeasure.radious = 2.0", "radious"),
    ("measure.kind = lebesgue\nmeasure.atoms = 0,0,0:1.0", "atoms"),
    ("kernel.family = stable_estimate\nkernel.alpha = 1.2\nkernel.mass = 1", "mass"),
    ("kernel.alpha = 1.5", "alpha"),  # the gaussian family has no alpha
], ids=["sphere-radious", "lebesgue-atoms", "stable-mass", "gaussian-alpha"])
def test_run_config_rejects_keys_the_kind_does_not_read(lines, key):
    with pytest.raises(ConfigError, match=f"no key '{key}'"):
        RunConfig.from_dict(parse_config_text("kernel.dim = 3\n" + lines + "\n"))


@pytest.mark.parametrize("key,value", [
    ("sweep.p", "1, abc"),
    ("sweep.seed", "x"),
    ("sweep.grid_depth", "9.5"),
    ("sweep.centers_random", "two"),
    ("sweep.center_window", "wide"),
    ("sweep.centers_explicit", "0; a"),
    ("measure.atoms", "0:heavy"),  # the weight
    ("measure.atoms", "zero:1.0"),
    ("kernel.alpha", "x"),
    ("measure.dim", "3.0"),
])
def test_run_config_rejects_values_that_are_not_numbers(key, value):
    kv = parse_config_text(MINIMAL)
    kv[key] = value
    with pytest.raises(ConfigError, match=f"{key}: '.*' is not an? (number|integer)"):
        RunConfig.from_dict(kv)


def test_run_config_atoms_parse():
    run = RunConfig.from_dict(parse_config_text(
        "kernel.family = gaussian\nkernel.dim = 2\n"
        "measure.kind = point_masses\nmeasure.atoms = 0,0:1.0; 1,2:0.5\n"
        "sweep.p = 1\n"))
    assert run.measure.points.shape == (2, 2)
    assert run.measure.weights.tolist() == [1.0, 0.5]


@pytest.mark.parametrize("measure", [
    "measure.kind = sphere_surface\nmeasure.center = 0,0,0\n",
    "measure.kind = lebesgue\nmeasure.dim = 3\n",
], ids=["sphere", "lebesgue-dim3"])
def test_run_config_rejects_measure_of_other_dimension(measure):
    # a 3-d measure under a 2-d kernel would be classified against the
    # wrong kernel; the sphere reads measure.dim (the kernel's, by default)
    # and takes only 3, the built lebesgue measure is checked against it
    with pytest.raises(ConfigError, match="dimension"):
        RunConfig.from_dict(parse_config_text(
            "kernel.family = gaussian\nkernel.dim = 2\n" + measure + "sweep.p = 1\n"))


def test_shipped_configs_load():
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    assert len(configs) == 7
    for cfg in configs:
        run = RunConfig.from_file(str(cfg))
        assert run.measure.dim == run.model.space.ambient_dim


# --------------------------------------------------------------------------
# CLI end to end


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "katolab.cli", *args],
                          capture_output=True, text=True)


def test_cli_classify_round_trip(tmp_path: Path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL)
    out = tmp_path / "out"
    proc = _run_cli("classify", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.txt").exists()
    with open(out / "classify.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    # full-precision round trip: re-parsing the CSV reproduces the floats
    for row in rows:
        v = float(row["value"])
        assert f"{v:.16e}" == row["value"]


def test_cli_classify_csv_header(tmp_path: Path):
    # the fifth column is the estimate's error bar
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL)
    out = tmp_path / "out"
    proc = _run_cli("classify", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out / "classify.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["p", "criterion", "scale", "value", "error", "verdict"]


def test_cli_classify_deterministic(tmp_path: Path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    p1 = _run_cli("classify", "--config", str(cfg), "--out", str(out1))
    p2 = _run_cli("classify", "--config", str(cfg), "--out", str(out2))
    assert p1.returncode == p2.returncode == 0
    assert (out1 / "classify.csv").read_text() == \
        (out2 / "classify.csv").read_text()


def test_cli_error_exit_code(tmp_path: Path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kernel.family = no-such-family\n")
    proc = _run_cli("classify", "--config", str(cfg),
                    "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr.strip()


def test_cli_missing_config_file(tmp_path: Path):
    proc = _run_cli("classify", "--config", str(tmp_path / "nope.cfg"),
                    "--out", str(tmp_path / "out"))
    assert proc.returncode == 1


def test_cli_p_override(tmp_path: Path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL)
    out = tmp_path / "out"
    proc = _run_cli("classify", "--config", str(cfg), "--out", str(out),
                    "--p", "1,2")
    assert proc.returncode == 0, proc.stderr
    with open(out / "classify.csv") as fh:
        ps = {row["p"] for row in csv.DictReader(fh)}
    assert len(ps) == 2


@pytest.mark.parametrize("how", ["flag", "file"])
def test_cli_p_flag_is_the_config_key(tmp_path: Path, how):
    # --p sets sweep.p and is checked as the key is
    cfg = Path(__file__).resolve().parents[1] / "configs" / "brownian-d3-lebesgue.cfg"
    if how == "file":
        text = cfg.read_text().replace("sweep.p = 1, 2, 2.8, 3, 3.5", "sweep.p = 0.5, 1")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
    flags = ["--p", "0.5,1"] if how == "flag" else []
    proc = _run_cli("sweep-p", "--config", str(cfg), "--out", str(tmp_path / "out"), *flags)
    assert proc.returncode == 1
    assert "sweep.p entries must be >= 1" in proc.stderr
    assert proc.stdout == ""


def test_cli_p_flag_that_is_not_a_number_is_a_config_error(tmp_path: Path):
    cfg = Path(__file__).resolve().parents[1] / "configs" / "delta0-d1.cfg"
    proc = _run_cli("classify", "--config", str(cfg), "--out", str(tmp_path / "out"),
                    "--p", "1,abc")
    assert proc.returncode == 1
    assert proc.stderr == "error: sweep.p: 'abc' is not a number\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("flag,key", [("--seed", "seed"), ("--grid-depth", "grid_depth"),
                                      ("--centers", "centers_random")])
def test_a_flag_that_is_not_an_integer_is_a_config_error(tmp_path: Path, flag, key):
    # argparse read these flags and exited 2 with its usage text
    cfg = Path(__file__).resolve().parents[1] / "configs" / "delta0-d1.cfg"
    proc = _run_cli("classify", "--config", str(cfg), "--out", str(tmp_path / "out"),
                    flag, "2.5")
    assert proc.returncode == 1
    assert proc.stderr == f"error: sweep.{key}: '2.5' is not an integer\n"
    assert proc.stdout == ""


def test_cli_sweep_p(tmp_path: Path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "kernel.family = gaussian\nkernel.dim = 3\n"
        "measure.kind = lebesgue\nmeasure.dim = 3\n"
        "sweep.p = 1, 2\nsweep.centers_explicit = 0,0,0\n"
        "sweep.centers_support = 0\nsweep.centers_random = 0\n")
    out = tmp_path / "out"
    proc = _run_cli("sweep-p", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out / "sweep_p.csv") as fh:
        rows = list(csv.DictReader(fh))
    got = {float(r["p"]): float(r["delta_hat"]) for r in rows}
    assert got[1.0] == pytest.approx(1.0, rel=1e-3)
    assert got[2.0] == pytest.approx(0.25, rel=1e-3)


def test_cli_kernel_check(tmp_path: Path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel.family = gaussian\nkernel.dim = 1\n"
                   "measure.kind = lebesgue\nmeasure.dim = 1\n")
    out = tmp_path / "out"
    proc = _run_cli("kernel-check", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    text = (out / "kernel_check.csv").read_text()
    assert "phi1 <= phi2" in text


def test_cli_classify_exits_2_when_any_verdict_undecided(tmp_path: Path):
    cfg = Path(__file__).resolve().parents[1] / "configs" / "ahlfors-eta2.cfg"
    proc = _run_cli("classify", "--config", str(cfg),
                    "--out", str(tmp_path / "out"), "--p", "1.5,1.955")
    assert "p = 1.5: Kato in, Dynkin in" in proc.stdout
    assert "p = 1.955: Kato undecided" in proc.stdout
    assert proc.returncode == 2, proc.stderr


def test_zero_measure_config_builds_and_classifies_in(tmp_path: Path):
    # an empty atom list is the zero measure: its dim comes from the kernel
    text = MINIMAL.replace("measure.atoms = 0:1.0", "measure.atoms =")
    run = RunConfig.from_dict(parse_config_text(text))
    assert run.measure.dim == 1 and run.measure.points.shape == (0, 1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.replace("sweep.centers_random = 0", "sweep.centers_random = 2"))
    proc = _run_cli("classify", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert "p = 1: Kato in, Dynkin in" in proc.stdout
    assert proc.returncode == 0, proc.stderr


def test_density_config_is_an_unknown_measure_kind(tmp_path: Path):
    # a config cannot give a callable f: the density kind would have kept the
    # string and failed at the first f call with an uncaught TypeError
    text = MINIMAL.replace("measure.kind = point_masses\nmeasure.atoms = 0:1.0",
                           "measure.kind = density\nmeasure.f = power:-1")
    with pytest.raises(ConfigError, match="bad measure block: unknown measure kind 'density'"):
        RunConfig.from_dict(parse_config_text(text))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    proc = _run_cli("classify", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: bad measure block: unknown measure kind 'density'")
    assert "Traceback" not in proc.stderr


def test_an_empty_radius_grid_on_atoms_is_an_error_not_a_traceback(tmp_path: Path):
    # grid depth 1 leaves no radius; on atoms that raised ValueError from max()
    cfg = Path(__file__).resolve().parents[1] / "configs" / "delta0-d1.cfg"
    proc = _run_cli("classify", "--config", str(cfg), "--out", str(tmp_path / "out"),
                    "--grid-depth", "1")
    assert proc.returncode == 1
    assert proc.stderr == "error: need >= 6 positive finite samples, got 0\n"


@pytest.mark.parametrize("lines,message", [
    ("measure.kind = lebesgue\nsweep.centers_explicit = 1,2\n",
     "center [1.0, 2.0] needs 3 coordinates"),
    ("measure.kind = sphere_surface\nsweep.centers_explicit = 0,0,0; 1,2\n",
     "center [1.0, 2.0] needs 3 coordinates"),
    ("measure.kind = radial_density\nmeasure.profile = power:-1\nmeasure.origin = 1,2\n",
     "bad measure block: origin needs 3 coordinates"),
    ("measure.kind = radial_density\nmeasure.profile = power:-1\n"
     "measure.support_radius = -1\n", "bad measure block: support_radius must be >= 0"),
    ("kernel.family = stable_estimate\nkernel.alpha = 1\nkernel.m = -1\n",
     "bad kernel block: m must be >= 0"),
    # kappa = d_w / (d_J - 1) ended in a ZeroDivisionError traceback
    ("kernel.family = stretched_exponential\nkernel.d_f = 2\nkernel.d_w = 3\nkernel.d_J = 1\n",
     "bad kernel block: d_J must differ from 1"),
    # accepted, then every classify failed with "t must lie in ]0, t0[", naming no key
    ("kernel.family = custom\nkernel.nu = 3\nkernel.beta = 2\nkernel.profile = exp:2.0\n"
     "kernel.t0 = -1\n", "bad kernel block: t0 must be > 0"),
], ids=["lebesgue-center", "sphere-center", "origin", "support-radius", "stable-m", "d-j-one",
        "t0-negative"])
def test_a_malformed_config_value_is_an_error_not_a_verdict(tmp_path: Path, lines, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel.dim = 3\n" + lines + "sweep.p = 1\nsweep.centers_support = 0\n"
                   "sweep.centers_random = 0\n")
    proc = _run_cli("classify", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {message}"), proc.stderr


@pytest.mark.parametrize("lines,message", [
    ("kernel.dim = 1\nmeasure.kind = lebesgue\nsweep.centers_explicit = 0\nsweep.p = nan\n",
     "sweep.p: 'nan' is not finite"),
    ("kernel.dim = 1\nmeasure.kind = lebesgue\nsweep.centers_explicit = 0\nsweep.p = inf\n",
     "sweep.p: 'inf' is not finite"),
    ("kernel.dim = 3\nmeasure.kind = sphere_surface\nsweep.centers_explicit = nan,0,0\n"
     "sweep.p = 1.5\n", "sweep.centers_explicit: 'nan' is not finite"),
    ("kernel.dim = 1\nmeasure.kind = lebesgue\nsweep.centers_random = 2\n"
     "sweep.center_window = nan\nsweep.p = 1\n", "sweep.center_window: 'nan' is not finite"),
    ("kernel.dim = 3\nmeasure.kind = ahlfors\nmeasure.eta = nan\nsweep.p = 1.5\n",
     "measure.eta: 'nan' is not finite"),
    ("kernel.dim = 3\nmeasure.kind = ahlfors\nmeasure.eta = 2\nmeasure.r0 = nan\nsweep.p = 2.5\n",
     "measure.r0: 'nan' is not finite"),
    ("kernel.dim = 3\nmeasure.kind = ahlfors\nmeasure.eta = 2\nmeasure.c_upper = inf\n"
     "sweep.p = 1.5\n", "measure.c_upper: 'inf' is not finite"),
    ("kernel.dim = 3\nmeasure.kind = sphere_surface\nmeasure.total_mass = inf\nsweep.p = 1.5\n",
     "measure.total_mass: 'inf' is not finite"),
    ("kernel.dim = 3\nmeasure.kind = sphere_surface\nmeasure.radius = nan\nsweep.p = 1.5\n",
     "measure.radius: 'nan' is not finite"),
    ("kernel.dim = 3\nmeasure.kind = radial_density\nmeasure.profile = power:nan\nsweep.p = 1\n",
     "measure.profile: 'nan' is not finite"),
    ("kernel.family = stable_estimate\nkernel.dim = 1\nkernel.alpha = 1\nkernel.m = inf\n"
     "measure.kind = lebesgue\nsweep.centers_explicit = 0\nsweep.p = 1\n",
     "kernel.m: 'inf' is not finite"),
], ids=["p-nan", "p-inf", "center-nan", "window-nan", "eta-nan", "r0-nan", "c-upper-inf",
        "total-mass-inf", "radius-nan", "profile-nan", "m-inf"])
def test_a_config_value_that_is_not_finite_is_an_error_not_a_verdict(tmp_path: Path, lines,
                                                                      message):
    # each read verdicts and exited 0, or (the window) ended in a traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines + "sweep.centers_support = 0\n")
    proc = _run_cli("classify", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("lines,flags,message", [
    ("sweep.centers_support = -1\n", [], "sweep.centers_support: '-1' is negative"),
    ("sweep.centers_random = -3\n", [], "sweep.centers_random: '-3' is negative"),
    ("", ["--centers", "-3"], "sweep.centers_random: '-3' is negative"),
    ("sweep.centers_random = 2\nsweep.center_window = -2\n", [],
     "sweep.center_window: '-2' is negative"),
], ids=["support", "random", "centers-flag", "window"])
def test_a_negative_center_setting_is_an_error_not_a_verdict(tmp_path: Path, lines, flags,
                                                             message):
    # a negative count read as no centers and classify exited 0; a negative
    # window ended in numpy's traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel.dim = 1\nmeasure.kind = lebesgue\nsweep.p = 1\n" + lines)
    proc = _run_cli("classify", "--config", str(cfg), "--out", str(tmp_path / "out"), *flags)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("lines,flags", [("sweep.seed = -1\n", []), ("", ["--seed", "-1"])],
                         ids=["key", "flag"])
def test_a_negative_seed_is_an_error_not_a_traceback(tmp_path: Path, lines, flags):
    # numpy's "expected non-negative integer" ended the run in a traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel.dim = 1\nmeasure.kind = lebesgue\nsweep.p = 1\n" + lines)
    proc = _run_cli("classify", "--config", str(cfg), "--out", str(tmp_path / "out"), *flags)
    assert proc.returncode == 1
    assert proc.stderr == "error: sweep.seed: '-1' is negative\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("measure,p,bound", [
    # eta_hat = 2 on the unit sphere in R^3 (nu = 3, beta = 2): not nu
    ("kernel.dim = 3\nmeasure.kind = sphere_surface\nmeasure.center = 0,0,0\n"
     "sweep.centers_explicit = 1,0,0\n", "1.5, 2.5", [1.0 / 6.0, -0.1]),
    # eta_hat = 0 for a point mass on the line (nu = 1, beta = 2)
    ("kernel.dim = 1\nmeasure.kind = point_masses\nmeasure.atoms = 0:1.0\n"
     "sweep.centers_explicit = 0\n", "1", [0.5]),
    # the zero measure has no ball-mass growth to fit
    ("kernel.dim = 1\nmeasure.kind = point_masses\nmeasure.atoms =\n"
     "sweep.centers_explicit = 0\n", "1", [math.nan]),
], ids=["sphere-d3", "delta0-d1", "zero-d1"])
def test_cli_sweep_p_bound_reads_the_fitted_eta(tmp_path: Path, measure, p, bound):
    # bound = (eta - p (nu - beta)) / (p beta), eta = min(eta_hat, nu) as
    # classify's p* reads it
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"kernel.family = gaussian\n{measure}sweep.p = {p}\n"
                   "sweep.centers_support = 0\nsweep.centers_random = 0\n")
    out = tmp_path / "out"
    proc = _run_cli("sweep-p", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out / "sweep_p.csv") as fh:
        got = [float(r["bound"]) for r in csv.DictReader(fh)]
    assert got == pytest.approx(bound, rel=1e-9, abs=1e-12, nan_ok=True)
