import concurrent.futures
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from types import SimpleNamespace

import pytest

import kslab.cli as cli
import kslab.dynamics as dyn
import kslab.operators as ops
from kslab.cli import main
from kslab.config import (
    MAX_STENCIL_ORDER,
    ConfigError,
    RunConfig,
    load_config,
    parse_config_json,
    parse_config_text,
)
from kslab.dynamics import (ATOL, CERTIFY_FRACTION, TABLE_NODES,
                            TABLE_PROBES, EvolveParams)
from kslab.grid import RadialGrid
from kslab.profiles import B_MAX, B_MIN


def run_child(args, out):
    # `python *args` in a child process, which imports kslab from the same
    # place this process did and writes under out
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, KSLAB_OUT=str(out), PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def run_cli(args, out):
    # `python -m kslab.cli` in a child process; the other tests call main()
    # in process
    return run_child(["-m", "kslab.cli", *args], out)


def test_config_parse_and_validate(tmp_path):
    cfg = parse_config_text("""
# comment
profile.b0 = 5e-3
profile.M = 12
solver.s_max = 10.0
output.cadence = 4
""").validate()
    assert cfg.params.b0 == 5e-3
    assert cfg.params.cadence == 4


# a value for every config key, none of them its default
OTHER_VALUES = {
    "grid": {"r_max": 900.0, "h_core": 0.03, "nodes_per_decade": 40,
             "stencil_order": 6},
    "profile": {"b0": 5e-3, "M": 12.5},
    "solver": {"ds_init": 2e-3, "ds_max": 0.25, "db_rel_cap": 5e-4,
               "lam_stop": 0.25, "t_max": 3.5, "s_max": float("inf"),
               "b_min": 1e-3},
    "perturbation": {"delta": 1e-4, "seed": 9},
    "output": {"cadence": 3},
}


@pytest.mark.parametrize("values", [RunConfig().to_dict(), OTHER_VALUES])
def test_config_keys_round_trip(values):
    assert {s: set(v) for s, v in values.items()} == {
        s: set(v) for s, v in RunConfig().to_dict().items()}
    text = "".join("%s.%s = %s\n" % (s, k, v) for s, entries in values.items()
                   for k, v in entries.items())
    assert parse_config_text(text).to_dict() == values
    assert parse_config_json(json.dumps(values)).to_dict() == values


@pytest.mark.parametrize("key", ["perturbation.count", "output.dir",
                                 "solver.lift_every", "grid.b0",
                                 "solver.frame"])
def test_config_unknown_keys_are_named(key):
    section, name = key.split(".")
    with pytest.raises(ConfigError, match=key):
        parse_config_text("%s = 1\n" % key)
    with pytest.raises(ConfigError, match=key):
        parse_config_json(json.dumps({section: {name: 1}}))


def test_config_run_defaults():
    # a config run stops at lam = 0.5 or s = 2000; the library runs on
    cfg, lib = asdict(RunConfig().params), asdict(EvolveParams())
    assert {k for k in cfg if cfg[k] != lib[k]} == {"lam_stop", "s_max"}
    assert (cfg["lam_stop"], cfg["s_max"]) == (0.5, 2000.0)


def test_config_json_alternative(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"profile": {"b0": 4e-3},
                                "solver": {"s_max": 5.0}}))
    cfg = load_config(path).validate()
    assert cfg.params.b0 == 4e-3


def test_config_collects_all_violations():
    cfg = RunConfig()
    cfg.params.b0 = 0.5
    cfg.params.db_rel_cap = 0.1
    cfg.params.cadence = 0
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert len(err.value.violations) == 3
    doc = json.loads(err.value.to_json())
    assert doc["error"] == "invalid configuration"


def test_config_json_coerces_like_text(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"profile": {"b0": "1e-2"},
                                "output": {"cadence": 4.0}}))
    cfg = load_config(path).validate()
    assert cfg.params.b0 == 1e-2 and isinstance(cfg.params.b0, float)
    assert cfg.params.cadence == 4 and isinstance(cfg.params.cadence, int)


def test_config_json_rejects_non_integral_int(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"output": {"cadence": 2.5}}))
    with pytest.raises(ConfigError, match="output.cadence"):
        load_config(path)


@pytest.mark.parametrize("text", ['{"profile": {"b0": 1e-2', '{"grid": 3}'])
def test_config_json_malformed_or_non_object(tmp_path, text):
    path = tmp_path / "c.json"
    path.write_text(text)
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("text", ['{"profile": {"b0": 1e-2', '{"grid": 3}',
                                  '{"output": {"cadence": 2.5}}',
                                  '{"grid": {"h_core": NaN}}',
                                  '{"grid": {"r_max": NaN}}',
                                  '{"grid": {"r_max": -5}}',
                                  '{"solver": {"ds_max": NaN}}',
                                  '{"profile": {"M": NaN}}',
                                  '{"solver": {"db_rel_cap": NaN}}',
                                  '{"solver": {"s_max": NaN}}',
                                  '{"solver": {"lam_stop": Infinity}}',
                                  '{"perturbation": {"seed": -1}}'])
def test_json_config_errors_exit_cleanly(tmp_path, capsys, command, text):
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "invalid configuration"


# the last two give one run directory, sweep_b8.000e-03, to both runs
@pytest.mark.parametrize("b0", ["8e-3,0.5", "8e-3,abc", "8e-3,8e-3",
                                "8e-3,8.0001e-3"])
def test_sweep_rejects_a_bad_b0_list(tmp_path, capsys, b0):
    path = tmp_path / "sweep.cfg"
    path.write_text("profile.b0 = 8e-3\nsolver.s_max = 1.0\n")
    assert main(["sweep", "--config", str(path), "--b0", b0,
                 "--out", str(tmp_path)]) == 1
    assert "b0" in capsys.readouterr().err
    assert not list(tmp_path.glob("sweep_b*"))


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_a_nonpositive_worker_count(tmp_path, capsys, workers):
    path = tmp_path / "sweep.cfg"
    path.write_text("solver.s_max = 1.0\n")
    assert main(["sweep", "--config", str(path), "--workers", workers,
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "--workers: must be >= 1, got %s\n" % workers)
    assert not list(tmp_path.glob("sweep_b*"))


@pytest.mark.parametrize("M", ["abc", "0", "-5", "nan", "50,abc"])
def test_spectral_rejects_a_bad_M_list(tmp_path, capsys, M):
    assert main(["spectral", "check", "--M", M, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("--M: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("spectral_M*"))


@pytest.mark.parametrize("args, flag", [
    (["spectral", "check", "--M", "50", "--h-core", "0"], "--h-core"),
    (["spectral", "check", "--M", "50", "--h-core", "nan"], "--h-core"),
    (["spectral", "check", "--M", "50", "--h-core", "-1"], "--h-core"),
    (["spectral", "check", "--M", "50", "--nodes-per-decade", "0"],
     "--nodes-per-decade"),
    (["spectral", "check", "--M", "50", "--nodes-per-decade", "11"],
     "--nodes-per-decade"),
    (["profile", "build", "--b", "1e-4", "--r-max", "inf"], "--r-max"),
    (["profile", "build", "--b", "1e-4", "--r-max", "-100"], "--r-max"),
    (["profile", "build", "--b", "1e-4", "--r-max", "nan"], "--r-max"),
])
def test_cli_rejects_a_bad_grid_flag(tmp_path, capsys, args, flag):
    assert main([*args, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(flag + ": ") and err.count("\n") == 1
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("b0, pools", [("8e-3", []), ("8e-3,6e-3", [2])])
def test_sweep_caps_workers_at_the_run_count(tmp_path, monkeypatch, b0, pools):
    # a fork pool starts every worker at once: never more than there are runs
    class RecordingPool:
        def __init__(self, max_workers):
            pools_made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    pools_made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(cli, "run_one", lambda cfg, outdir, offset: {
        "status": "s_max"})
    path = tmp_path / "sweep.cfg"
    path.write_text("profile.b0 = 8e-3\n")
    assert main(["sweep", "--config", str(path), "--b0", b0, "--workers", "8",
                 "--out", str(tmp_path)]) == 0
    assert pools_made == pools


@pytest.mark.parametrize("ds_init", ["0", "-1"])
def test_config_rejects_a_nonpositive_first_step(ds_init):
    # ds_init = 0 never advances s; a negative one fails inside the run
    cfg = parse_config_text("solver.ds_init = %s\n" % ds_init)
    with pytest.raises(ConfigError, match="solver.ds_init"):
        cfg.validate()


def test_config_time_limits_may_be_infinite():
    cfg = parse_config_text("solver.t_max = inf\nsolver.s_max = inf\n")
    assert cfg.validate().params.s_max == float("inf")


def test_config_r_max_guard_names_B1():
    cfg = RunConfig()
    cfg.params.r_max = 50.0
    with pytest.raises(ConfigError, match="4\\*B1"):
        cfg.validate()


# grid settings that validation passed while the run's setup rejected them
# ("radiation region identities violated" at b0 or in the solver's table),
# and the default grid
COARSE_GRIDS = {"grid.nodes_per_decade = 12": "m outer 4.08e-05",
                "grid.nodes_per_decade = 24": "m outer 1.01e-06",
                "grid.h_core = 0.2": "inner 8.25e-07",
                "": None}


@pytest.mark.parametrize("text", COARSE_GRIDS)
def test_config_rejects_a_grid_too_coarse_for_the_radiation(text):
    cfg = parse_config_text(text)
    if COARSE_GRIDS[text] is None:
        cfg.validate()
        return
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    (violation,) = err.value.violations
    assert violation.startswith("grid.")
    assert "radiation region identities violated" in violation
    assert COARSE_GRIDS[text] in violation


def test_simulate_rejects_a_grid_too_small_for_phi_m(tmp_path, capsys):
    # r_max = 200 carries the family at b0 (4 B1 = 184.2) but not Phi_M at
    # M = 30, which needs 10 M = 300: a config violation, not a traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_text("profile.b0 = 1e-2\nprofile.M = 30\ngrid.r_max = 200\n")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err)["violations"] == [
        "grid.r_max: Phi_M requires r_max >= 10*M = 300.0, got 200.0"]


@pytest.mark.parametrize("grid", ["", "grid.r_max = 600\n"])
def test_simulate_rejects_a_degenerate_phi_m(tmp_path, capsys, grid):
    # at M = 2, |<Phi_0, Lambda Q>| is 0.78 x 32 pi: a config violation,
    # with the grid derived or given, not a traceback from the solver
    cfg = tmp_path / "run.cfg"
    cfg.write_text("profile.M = 2\n" + grid)
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err)["violations"] == [
        "profile.M too small for Phi_M: <Phi_0, Lambda Q> nearly degenerate "
        "below M = 2.5, got 2"]


def test_profile_build_outputs(tmp_path, capsys):
    assert main(["profile", "build", "--b", "1e-4",
                 "--out", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "c_b" in payload and payload["b"] == 1e-4
    outdir = tmp_path / "profile_b1.000e-04"
    for name in ("profile.json", "T1.csv", "S1grad.csv", "T2.csv",
                 "S2grad.csv", "Psi1.csv", "Psi2grad.csv"):
        assert (outdir / name).exists()


def test_profile_build_rejects_large_b(tmp_path, capsys):
    assert main(["profile", "build", "--b", "0.5",
                 "--out", str(tmp_path)]) == 1
    assert "admissible" in capsys.readouterr().err


@pytest.mark.parametrize("b", ["1e-150", "1e-300"])
def test_profile_build_rejects_a_nan_family(tmp_path, capsys, b):
    # below B_MIN the grid's powers of r overflow: b is rejected before the
    # grid is built, so no numpy warning precedes the one rejection line
    assert main(["profile", "build", "--b", b, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "profile build rejected: b=%s outside the admissible range "
        "[%g, %g]" % (b, B_MIN, B_MAX)]


def test_profile_build_at_B_MIN_is_finite(tmp_path, recwarn):
    # the smallest admissible b: its grid is within the largest radius of
    # order 6, and the family comes out finite without a numpy warning
    # (its residual is flagged out of family, as at every tiny b)
    assert main(["profile", "build", "--b", repr(B_MIN),
                 "--out", str(tmp_path)]) == 2
    assert len(recwarn) == 0
    out = tmp_path / ("profile_b%.3e" % B_MIN) / "profile.json"
    payload = json.loads(out.read_text())
    assert all(math.isfinite(x) for x in payload["norm_report"].values())
    assert math.isfinite(payload["c_b"]) and math.isfinite(payload["B1"])


def test_profile_build_list_exits_with_the_worst_status(tmp_path, capsys):
    assert main(["profile", "build", "--b", "1e-4,0.5",
                 "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().out)["b"] == 1e-4
    assert (tmp_path / "profile_b1.000e-04" / "profile.json").exists()
    assert (tmp_path / "profile_error.json").exists()


def test_spectral_list_matches_single_runs(tmp_path, capsys):
    # a coarse grid is fast, and too coarse to resolve the kernel (gap about
    # 1.5, alignment about 0.95: status 2); a non-integer M gets its own file
    grid = ["--nodes-per-decade", "16", "--h-core", "0.2"]
    status = main(["spectral", "check", "--M", "10,10.5",
                   "--out", str(tmp_path / "list"), *grid])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    single = []
    for M, line in zip(("10", "10.5"), lines):
        single.append(main(["spectral", "check", "--M", M,
                            "--out", str(tmp_path / M), *grid]))
        assert capsys.readouterr().out.splitlines() == [line]
        name = "spectral_M%s.json" % M
        assert (json.loads((tmp_path / "list" / name).read_text())
                == json.loads((tmp_path / M / name).read_text()))
    assert status == max(single) == 2


def test_spectral_finds_the_kernel_at_large_M(tmp_path, capsys):
    # one-hot constraints are dropped by index, so no rank cut loses the
    # Lambda Q mode at M >= 400 on the default grid
    assert main(["spectral", "check", "--M", "400,800",
                 "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line in lines:
        kg = json.loads(line)["kernel_gap"]
        assert kg["gap"] > 100.0 and kg["alignment"] > 0.99


def test_spectral_refuses_a_dense_dimension_too_large(tmp_path, capsys,
                                                      monkeypatch):
    # 1e6 nodes per decade lay out 2.4e6 nodes at M = 50: one dense matrix
    # of dimension 4.8e6 would take 167 TiB.  Refused before a grid is built
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")
    monkeypatch.setattr(RadialGrid, "__init__", no_grid)
    assert main(["spectral", "check", "--M", "50", "--nodes-per-decade",
                 "1000000", "--out", str(tmp_path)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("spectral check rejected: operator grid at M=50: "
                           "dense dimension 4.8e+06 exceeds MAX_DENSE_DIM")
    assert not list(tmp_path.glob("spectral_M*"))


def test_spectral_too_small_M(tmp_path, capsys):
    for M in ("1.2", "2"):
        assert main(["spectral", "check", "--M", M,
                     "--out", str(tmp_path)]) == 1
        assert "M too small" in capsys.readouterr().err


def test_spectral_rejects_a_kernel_gap_failure(tmp_path, capsys,
                                               monkeypatch):
    # r <= 0 leaves kernel_gap no free direction: a one-line rejection with
    # status 1, not a traceback, and no file
    monkeypatch.setattr(ops, "KERNEL_SUPPORT_RADIUS", 0.0)
    assert main(["spectral", "check", "--M", "50",
                 "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "spectral check rejected: kernel_gap: 1 kept coordinates under 1 "
        "dense constraints leave 0 free directions, needs 2"]
    assert not list(tmp_path.glob("spectral_M*"))


def test_spectral_writes_the_cut(tmp_path, capsys):
    # M = 800 on the default grid drops two directions below SV_TOL
    assert main(["spectral", "check", "--M", "800",
                 "--out", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["modes_cut"] == 2
    assert json.loads((tmp_path / "spectral_M800.json").read_text()) == payload


@pytest.mark.parametrize("alignment, gap, code", [
    (0.999, 1.0e4, 0), (0.98, 1.0e4, 2), (0.999, 100.0, 2)])
def test_spectral_lost_kernel_fails(monkeypatch, capsys, tmp_path,
                                    alignment, gap, code):
    # the kernel verdict is faked to reach each branch of the check
    monkeypatch.setattr(
        ops, "kernel_gap", lambda bundle: {"mu0": 1.0, "mu1": gap, "gap": gap,
                                           "alignment": alignment})
    assert main(["--out", str(tmp_path), "spectral", "check", "--M", "10",
                 "--nodes-per-decade", "16", "--h-core", "0.2"]) == code
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["kernel_gap"]["gap"] == gap
    assert json.loads((tmp_path / "spectral_M10.json").read_text()) == payload
    assert ("kernel lost" in err) == (code != 0)


def test_simulate_missing_config(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)]) == 1
    assert "config file not found" in capsys.readouterr().err


def test_simulate_invalid_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("profile.b0 = 0.9\n")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 1
    assert "violations" in capsys.readouterr().err


# config -> (the keys its violation names, what the violation says): what
# only the run's setup build rejects.  At b0 = 1e-8 the profile's initial
# density is not positive on the run's grid; h_core = 1e-9 asks for 1e10
# nodes, refused before they are laid out
SETUP_ERRORS = {
    "profile.b0 = 1e-8": ("profile.b0", "initial density not positive"),
    "grid.h_core = 1e-9": ("grid.h_core",
                           "a grid of 1e+10 nodes exceeds MAX_NODES"),
}


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_run_setup_errors_exit_cleanly(tmp_path, capsys, command):
    # validation builds the run's setup, so its failure is a config
    # violation of the setup keys that differ from their defaults, not a
    # traceback
    cfg = tmp_path / "run.cfg"
    for text, (keys, message) in SETUP_ERRORS.items():
        cfg.write_text(text + "\n")
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1
        (violation,) = json.loads(capsys.readouterr().err)["violations"]
        assert violation.startswith(keys + ": ")
        assert message in violation


def test_simulate_refuses_a_table_that_does_not_certify(tmp_path):
    # at M = 200 (b0 = 1e-2, derived grid) the profile table misses its
    # target at every level, by a factor of three: one violation that
    # names the one key set and states its bound in f_scale, and no
    # traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_text("profile.M = 200\n")
    done = run_cli(["simulate", "--config", str(cfg)], tmp_path)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    (violation,) = json.loads(done.stderr)["violations"]
    assert violation.startswith(
        "profile.M: the profile table does not certify at 1152 nodes: error "
        "bound ")
    assert violation.endswith(" f_scale, above its target 5e-11 f_scale")


# a refusal -> (the config text or command line, the keys or flag its
# one-line reason starts with): a config's setup failure names exactly the
# keys set, also where the failure shows up elsewhere (the stencil order
# moves the table's error bound and the largest radius; profile.M sets the
# derived run radius; a radius too large for the profile leaves the
# initial density not positive), and a radius past the largest of its
# stencil order is refused before a node is laid out
REFUSALS = {
    "stencil_order": ("grid.stencil_order = 16",
                      "grid.stencil_order: the profile table does not "
                      "certify"),
    "M": ("profile.M = 1e300",
          "profile.M: a grid of radius 1.05e+301 exceeds the largest radius "
          "of stencil order 4"),
    "M_density": ("profile.M = 1e30\nsolver.s_max = 1", "profile.M: "),
    "r_max_density": ("grid.r_max = 1e35\nsolver.s_max = 1", "grid.r_max: "),
    "r_max": (["profile", "build", "--b", "1e-4", "--r-max", "1e300"],
              "--r-max: must be at most 3.4e+38, the largest radius of "
              "stencil order 6"),
    "M_order16": ("grid.stencil_order = 16\nprofile.M = 1e20\n"
                  "solver.s_max = 1",
                  "grid.stencil_order, profile.M: a grid of radius "
                  "1.05e+21 exceeds the largest radius of stencil order 16"),
    "r_max_order16": ("grid.stencil_order = 16\ngrid.r_max = 1e20\n"
                      "solver.s_max = 1",
                      "grid.r_max, grid.stencil_order: a grid of radius 1e+20 "
                      "exceeds the largest radius of stencil order 16"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_name_the_key_that_caused_them(tmp_path, case):
    given, reason = REFUSALS[case]
    if isinstance(given, str):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(given + "\n")
        given = ["simulate", "--config", str(cfg)]
    done = run_cli(given, tmp_path)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "RuntimeWarning" not in done.stderr
    if given[0] == "simulate":
        (line,) = json.loads(done.stderr)["violations"]
    else:
        (line,) = done.stderr.splitlines()
    assert line.startswith(reason)


def test_commands_without_a_run_do_not_import_the_splines(tmp_path):
    # scipy.interpolate serves only the state splines of a run, and the
    # process pool only a sweep on more than one worker
    code = ("import sys\n"
            "from kslab.cli import main\n"
            "main(['profile', 'build', '--b', '1e-4'])\n"
            "main(['spectral', 'check', '--M', '50'])\n"
            "print([name in sys.modules for name in ('scipy.interpolate', "
            "'concurrent.futures.process', 'multiprocessing')])\n")
    done = run_child(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[False, False, False]"


def test_validate_bounds_the_stencil_order(recwarn):
    # orders past MAX_STENCIL_ORDER are one violation, found before the
    # setup build: an order of 40 broke the radiation there, 150 overflowed
    # the stencil weights with a dozen warnings, 1000 outgrew the grid
    for order in (40, 150, 1000):
        cfg = RunConfig()
        cfg.params.stencil_order = order
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert err.value.violations == [
            "grid.stencil_order must lie in [2, %d]" % MAX_STENCIL_ORDER]
        assert cfg.setup is None
    assert len(recwarn) == 0
    for order in (4, 6):
        cfg = RunConfig()
        cfg.params.stencil_order = order
        assert cfg.validate().setup.grid.stencil_order == order


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_run_start_errors_exit_cleanly(tmp_path, capsys, monkeypatch,
                                       command):
    # a sampler without a single try finds no positive perturbation: the
    # valid config's run is rejected at its start with one line
    monkeypatch.setattr(dyn, "PERTURBATION_TRIES", 0)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("perturbation.delta = 1e-4\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "%s rejected: no positive perturbation found in 0 tries" % command]


@pytest.mark.parametrize("command, runs", [
    (["simulate"], 1),
    (["sweep", "--b0", "8e-3,6e-3", "--workers", "1"], 2)])
def test_each_run_builds_one_setup(tmp_path, monkeypatch, command, runs):
    # one grid and one modulation solver per run: validation builds them,
    # and the run, its perturbation sampler included, reuses them
    builds = []
    grid_of = dyn.dynamics_grid
    solver_init = dyn.ModulationSolver.__init__

    def counted_init(self, *args):
        builds.append("solver")
        solver_init(self, *args)
    monkeypatch.setattr(dyn, "dynamics_grid",
                        lambda params: builds.append("grid")
                        or grid_of(params))
    monkeypatch.setattr(dyn.ModulationSolver, "__init__", counted_init)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("profile.b0 = 8e-3\nsolver.s_max = 1.0\n"
                   "perturbation.delta = 1e-4\n")
    load_config(cfg).validate()
    assert builds == ["grid", "solver"]
    builds.clear()
    assert main([*command, "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    assert builds == ["grid", "solver"] * runs


def test_simulate_deterministic(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("profile.b0 = 8e-3\nsolver.s_max = 4.0\n"
                   "solver.lam_stop = 0\noutput.cadence = 5\n")
    r1 = run_cli(["simulate", "--config", str(cfg), "--name", "a"], tmp_path)
    r2 = run_cli(["simulate", "--config", str(cfg), "--name", "b"], tmp_path)
    assert r1.returncode == 0 and r2.returncode == 0
    ts_a = (tmp_path / "a" / "timeseries.csv").read_bytes()
    ts_b = (tmp_path / "b" / "timeseries.csv").read_bytes()
    assert ts_a == ts_b
    sum_a = (tmp_path / "a" / "summary.json").read_bytes()
    assert sum_a == (tmp_path / "b" / "summary.json").read_bytes()
    sa = json.loads(sum_a)
    assert sa["status"] in ("s_max", "b_min", "lam_stop", "t_max")
    assert "seed" in sa
    assert "reason" not in sa
    # the table certifies at its first level, and every model converges,
    # so the exact profile of a decomposition is evaluated only where a
    # record reads it
    counters = sa["counters"]
    assert counters["profile_evals_decompose"] == sa["records"]
    assert counters["table_nodes"] == TABLE_NODES[0]
    assert counters["profile_evals_table"] == TABLE_NODES[0] + TABLE_PROBES
    assert 0.0 < counters["table_error_bound"] <= CERTIFY_FRACTION * ATOL
    # the state is read once per decomposition at its guess, once per
    # Newton step whose bound does not spare the read (no step is halved),
    # and once on each record's first read
    assert counters["damping_halvings"] == 0
    assert 0 < counters["confirmations_skipped"] <= counters["decompose_calls"]
    assert counters["state_reads"] == (
        counters["decompose_calls"] + counters["model_iterations"]
        - counters["confirmations_skipped"] + sa["records"])


def test_simulate_grid_exhausted(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.r_max = 186\noutput.cadence = 5\n"
                   "solver.s_max = 200\n")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["status"] == "grid_exhausted"
    assert "outside the profile table" in summary["reason"]
    assert summary["records"] == 6
    assert (tmp_path / "run" / "timeseries.csv").exists()


@pytest.mark.parametrize("before", [True, False])
def test_out_before_or_after_subcommand(tmp_path, monkeypatch, before):
    monkeypatch.setenv("KSLAB_OUT", str(tmp_path / "env"))
    out = ["--out", str(tmp_path / "flag")]
    cmd = ["profile", "build", "--b", "0.5"]
    assert main(out + cmd if before else cmd + out) == 1
    assert (tmp_path / "flag" / "profile_error.json").exists()
    assert not (tmp_path / "env").exists()


def test_sweep_fans_out(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("profile.b0 = 8e-3\nsolver.s_max = 2.0\n"
                   "solver.lam_stop = 0\noutput.cadence = 5\n")
    assert main(["sweep", "--config", str(cfg), "--b0", "8e-3,6e-3",
                 "--workers", "2", "--out", str(tmp_path)]) == 0
    merged = json.loads((tmp_path / "merged_summary.json").read_text())
    assert len(merged["runs"]) == 2 and merged["all_ok"]
    assert (tmp_path / "sweep_b8.000e-03" / "timeseries.csv").exists()
    assert (tmp_path / "sweep_b6.000e-03" / "timeseries.csv").exists()


@pytest.mark.parametrize("suite", ["hardy", "loghls", "spectral", "profiles"])
def test_verify_bounds_suites(tmp_path, suite):
    assert main(["verify-bounds", "--suite", suite,
                 "--out", str(tmp_path)]) == 0
    verdict = json.loads((tmp_path / ("verify_%s.json" % suite)).read_text())
    assert verdict["ok"] is True


@pytest.mark.parametrize("halflog, psi1_b5, code", [
    (1.0, 1.0, 0), (1.3, 1.0, 2), (0.7, 1.0, 2), (1.0, 2.0e6, 2)])
def test_verify_bounds_profiles_can_fail(monkeypatch, capsys, tmp_path,
                                         halflog, psi1_b5, code):
    # a faked family: c_b |log b|/2 = halflog and |Psi1|^2 = psi1_b5 b^5
    def family(grid, b):
        return SimpleNamespace(c_b=2.0 * halflog / abs(math.log(b)),
                               norm_report={"psi1_sq": psi1_b5 * b ** 5})
    monkeypatch.setattr(cli.profiles, "build_profile_family", family)
    assert main(["verify-bounds", "--suite", "profiles",
                 "--out", str(tmp_path)]) == code
    verdict = json.loads((tmp_path / "verify_profiles.json").read_text())
    assert verdict["ok"] is (code == 0)
