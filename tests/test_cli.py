"""End-to-end command-line checks."""

import json
import os
import subprocess
import sys

import pytest

import quasimodes
from quasimodes.cli import main

CUBIC = "domain: line\n0 1 3 0\n"
QUARTIC = "domain: line\n1 1 4 0\n"
REAL = "domain: line\n1 0 2 0\n"
HALFLINE = "domain: halfline\n1 0 -2 0\n1 1 2 0\n"
#: a region call but for --potential and --h
REGION = ["region", "--a-min", "0.5", "--a-max", "1.5", "--a-count", "3",
          "--eta-min", "-1", "--eta-max", "1", "--eta-count", "2"]


@pytest.fixture
def cubic_file(tmp_path):
    path = tmp_path / "cubic.txt"
    path.write_text(CUBIC)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_quasimode_json(capsys, cubic_file):
    code, out, err = run(
        capsys, "quasimode", "--potential", cubic_file,
        "--a", "1", "--eta", "1", "--h", "0.1", "--allow-large-h",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["z_re"] == pytest.approx(1.0)
    assert doc["z_im"] == pytest.approx(1.0)
    assert doc["lower_bound"] * doc["r"] == pytest.approx(1.0)


def test_quasimode_csv_and_outfile(capsys, cubic_file, tmp_path):
    out_path = tmp_path / "cert.csv"
    code, out, err = run(
        capsys, "quasimode", "--potential", cubic_file,
        "--a", "1", "--eta", "1", "--h", "0.1", "--allow-large-h",
        "--format", "csv", "--out", str(out_path),
    )
    assert code == 0 and out == ""
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert "lower_bound" in header and "r" in header


def test_quasimode_solves_anchor_from_z(capsys, cubic_file):
    code, out, _ = run(
        capsys, "quasimode", "--potential", cubic_file,
        "--z-re", "1", "--z-im", "1", "--h", "0.1", "--allow-large-h",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["z_re"] == pytest.approx(1.0, abs=1e-8)


def test_reruns_are_byte_identical(capsys, cubic_file):
    args = ("quasimode", "--potential", cubic_file,
            "--a", "1", "--eta", "1", "--h", "0.1", "--allow-large-h")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_config_file_defaults(capsys, cubic_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a = 1\neta = 1\nh = 0.1\nallow-large-h is not a key\n")
    # bad config line -> usage error
    code, _, err = run(
        capsys, "quasimode", "--potential", cubic_file, "--config", str(cfg)
    )
    assert code == 2 and "error:usage" in err
    # parser state, flag-only options and prefixes are not config keys
    for line in ("formats = csv", "allow-large-h = true", "config = other.cfg",
                 "ord = 1"):
        cfg.write_text(f"a = 1\neta = 1\nh = 0.1\n{line}\n")
        code, out, err = run(
            capsys, "quasimode", "--potential", cubic_file, "--config", str(cfg)
        )
        lines = err.splitlines()
        assert code == 2 and out == "" and len(lines) == 1
        assert lines[0].startswith("error:usage:") and line.split()[0] in lines[0]
    cfg.write_text("a = 1\neta = 1\nh = 0.1\n")
    code, out, _ = run(
        capsys, "quasimode", "--potential", cubic_file,
        "--config", str(cfg), "--allow-large-h",
    )
    assert code == 0
    assert json.loads(out)["h"] == pytest.approx(0.1)
    # the potential file may come from the config too
    cfg.write_text(f"potential = {cubic_file}\na = 1\neta = 1\nh = 0.1\n")
    code, out, _ = run(capsys, "quasimode", "--config", str(cfg), "--allow-large-h")
    assert code == 0
    assert json.loads(out)["h"] == pytest.approx(0.1)


def test_config_comments_and_blank_lines_are_ignored(capsys, cubic_file, tmp_path):
    plain, annotated = tmp_path / "plain.cfg", tmp_path / "annotated.cfg"
    plain.write_text("a = 1\neta = 1\nh = 0.1\n")
    annotated.write_text("# an anchor of i x^3\n\na = 1  # its point\n   \neta = 1\nh = 0.1\n")
    outputs = [run(capsys, "quasimode", "--potential", cubic_file, "--config",
                   str(cfg), "--allow-large-h") for cfg in (plain, annotated)]
    assert outputs[0][0] == 0 and outputs[1] == outputs[0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep-h", "--a", "1", "--eta", "1", "--h-list", ","],
         "argument --h-list: empty numeric list"),
        ([*REGION[:5], "--a-count", "0", *REGION[7:], "--h", "0.05"],
         "--a-count must be >= 1"),
    ],
    ids=["h-list-empty", "a-count-zero"],
)
def test_a_refusal_names_its_option(capsys, cubic_file, argv, message):
    code, out, err = run(capsys, *argv, "--potential", cubic_file)
    assert (code, out, err) == (2, "", f"error:usage: {message}\n")


def test_flag_wins_over_config(capsys, cubic_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a = 1\neta = 1\nh = 0.2\n")
    code, out, _ = run(
        capsys, "quasimode", "--potential", cubic_file,
        "--config", str(cfg), "--h", "0.1", "--allow-large-h",
    )
    assert code == 0
    assert json.loads(out)["h"] == pytest.approx(0.1)


def test_sweep_h(capsys, cubic_file):
    code, out, err = run(
        capsys, "sweep-h", "--potential", cubic_file,
        "--a", "1", "--eta", "1", "--h-list", "0.2,0.1,0.05",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "h,r,lower_bound"
    assert len(lines) == 4
    assert "slope" in err


def test_region(capsys, cubic_file):
    code, out, _ = run(
        capsys, "region", "--potential", cubic_file, "--h", "0.05",
        "--a-min", "0.5", "--a-max", "1.5", "--a-count", "3",
        "--eta-min", "-1", "--eta-max", "1", "--eta-count", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,eta,z_re,z_im"
    assert len(lines) == 1 + 3 * 2


def test_region_with_one_a(capsys, cubic_file):
    code, out, _ = run(capsys, *REGION, "--potential", cubic_file, "--h", "0.05",
                       "--a-count", "1")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()] == ["a", "0.5", "0.5"]


@pytest.mark.parametrize("term", ["nan 1 3 0", "0 1 3 inf"])
def test_non_finite_potential_is_one_usage_line(capsys, tmp_path, term):
    path = tmp_path / "family.txt"
    path.write_text(f"domain: line\n{term}\n")
    code, out, err = run(capsys, *REGION, "--potential", str(path), "--h", "0.05")
    assert code == 2 and out == ""
    assert err.startswith("error:usage: ") and len(err.splitlines()) == 1


def test_high_energy(capsys, tmp_path):
    path = tmp_path / "quartic.txt"
    path.write_text(QUARTIC)
    code, out, _ = run(
        capsys, "high-energy", "--potential", str(path),
        "--z-re", "0.9238795325112867", "--z-im", "0.3826834323650898",
        "--sigma-list", "1e2,1e3", "--order", "0",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    lows = [float(line.split(",")[2]) for line in lines[1:]]
    assert lows[1] > lows[0]


def test_high_energy_keeps_rows_before_a_failure(capsys, tmp_path):
    path = tmp_path / "quartic.txt"
    path.write_text(QUARTIC)
    code, out, err = run(
        capsys, "high-energy", "--potential", str(path),
        "--z-re", "0.9238795325112867", "--z-im", "0.3826834323650898",
        "--sigma-list", "1e2,1e3,0.5", "--order", "0",
    )
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "sigma,h,lower_bound_on_resolvent_at_sigma_z"
    assert [float(line.split(",")[0]) for line in lines[1:]] == [1e2, 1e3]
    assert err.splitlines() == ["error:usage: sigma must be finite and >= 1, got 0.5"]


def test_validate(capsys, cubic_file):
    code, out, _ = run(
        capsys, "validate", "--potential", cubic_file,
        "--a", "1", "--eta", "1", "--h", "0.1", "--allow-large-h",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True


def test_validate_on_a_given_grid(capsys, cubic_file):
    code, out, _ = run(
        capsys, "validate", "--potential", cubic_file,
        "--a", "1", "--eta", "1", "--h", "0.1", "--allow-large-h",
        "--x-lo", "-2", "--x-hi", "4", "--grid-n", "1500",
    )
    assert code == 0
    doc = json.loads(out)
    grid = doc["grid"]
    assert (grid["x_lo"], grid["x_hi"], grid["n_interior"]) == (-2.0, 4.0, 1500)
    assert doc["pass"] is True


@pytest.mark.parametrize(
    "command, fmt, via",
    [
        ("sweep-h", "json", "flag"),
        ("region", "json", "flag"),
        ("high-energy", "json", "flag"),
        ("validate", "csv", "flag"),
        ("quasimode", "xml", "config"),
    ],
)
def test_format_not_written_is_refused(capsys, cubic_file, tmp_path, command, fmt, via):
    argv = [command, "--potential", cubic_file]
    if via == "flag":
        argv += ["--format", fmt]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"format = {fmt}\n")
        argv += ["--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    lines = err.splitlines()
    assert code == 2 and out == "" and len(lines) == 1
    assert lines[0].startswith("error:usage:") and "--format" in lines[0]


@pytest.mark.parametrize(
    "command, options",
    [
        ("quasimode", {"a": "1", "eta": "1", "h": "0.1"}),
        ("quasimode", {"potential": None, "a": "x", "eta": "1", "h": "0.1"}),
        ("region", {"potential": None, "h": "0.05", "a-min": "0.5",
                    "a-max": "1.5", "eta-min": "-1", "eta-max": "1",
                    "eta-count": "2"}),
        ("validate", {"potential": None, "a": "1", "eta": "1", "h": "0.05",
                      "x-lo": "-4", "x-hi": "6"}),
        ("quasimode", {"potential": None, "eta": "5", "z-re": "1", "z-im": "1",
                       "h": "0.05"}),
        ("quasimode", {"potential": None, "a": "1", "eta": "1", "z-re": "1",
                       "z-im": "1", "h": "0.05"}),
        # region certifies nothing, so it takes no --order
        ("region", {"potential": None, "h": "0.05", "a-min": "0.5",
                    "a-max": "1.5", "a-count": "3", "eta-min": "-1",
                    "eta-max": "1", "eta-count": "2", "order": "1"}),
    ],
    ids=["missing-potential", "bad-float", "missing-a-count", "partial-grid",
         "eta-with-z", "a-eta-with-z", "region-order"],
)
@pytest.mark.parametrize("via", ["flag", "config"])
def test_usage_error_is_one_line(capsys, cubic_file, tmp_path, command, options, via):
    options = {k: cubic_file if v is None else v for k, v in options.items()}
    argv = [command]
    if via == "flag":
        for key, val in options.items():
            argv += [f"--{key}", val]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in options.items()))
        argv += ["--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    lines = err.splitlines()
    assert code == 2 and out == "" and len(lines) == 1
    assert lines[0].startswith("error:usage:")


@pytest.mark.parametrize(
    "argv",
    [
        ["quasimode", "--a", "1", "--eta", "1", "--h", "0"],
        ["sweep-h", "--a", "1", "--eta", "1", "--h-list", "0.1,0.05,0"],
        ["validate", "--a", "1", "--eta", "1", "--h", "0"],
        ["quasimode", "--a", "1", "--eta", "1", "--h", "nan"],
        ["quasimode", "--a", "nan", "--eta", "1", "--h", "0.1"],
        ["quasimode", "--a", "1", "--eta", "nan", "--h", "0.1"],
        ["quasimode", "--z-re", "nan", "--z-im", "1", "--h", "0.1"],
        ["quasimode", "--a", "1", "--eta", "-inf", "--h", "0.1"],
        ["sweep-h", "--a", "1", "--eta", "1", "--h-list", "0.1,0.1,0.1"],
        ["high-energy", "--z-re", "0.92", "--z-im", "0.38", "--sigma-list", "nan"],
        ["high-energy", "--z-re", "0.92", "--z-im", "0.38", "--sigma-list", "inf"],
        # finite numbers whose potential or energy overflows
        ["quasimode", "--a", "1e200", "--eta", "1", "--h", "0.1"],
        ["quasimode", "--a", "1", "--eta", "1e200", "--h", "0.1"],
        ["sweep-h", "--a", "1", "--eta", "1e200", "--h-list", "0.1,0.05,0.025"],
        ["validate", "--a", "1", "--eta", "1e200", "--h", "0.1"],
        [*REGION, "--h", "0"],
        [*REGION, "--h", "-1"],
    ],
    ids=["h-zero", "h-list-zero", "validate-h-zero", "h-nan", "a-nan", "eta-nan",
         "z-nan", "eta-inf", "h-list-repeated", "sigma-nan", "sigma-inf",
         "a-overflows", "z-overflows", "sweep-z-overflows", "validate-z-overflows",
         "region-h-zero", "region-h-negative"],
)
def test_bad_number_is_one_usage_line(capsys, tmp_path, argv):
    path = tmp_path / "family.txt"
    path.write_text(QUARTIC if argv[0] == "high-energy" else CUBIC)
    code, out, err = run(capsys, *argv, "--potential", str(path))
    lines = err.splitlines()
    assert code == 2 and out == "" and len(lines) == 1
    assert lines[0].startswith("error:usage:")


def test_import_leaves_scipy_linalg_unloaded(tmp_path):
    # a full validate run, the one command that solves with the oracle
    path = tmp_path / "cubic.txt"
    path.write_text(CUBIC)
    src = os.path.dirname(os.path.dirname(os.path.abspath(quasimodes.__file__)))
    code = (
        "import sys; from quasimodes.cli import main; "
        f"code = main(['validate', '--potential', {str(path)!r}, '--a', '1', "
        "'--eta', '1', '--h', '0.05', '--format', 'json']); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("command", [["validate", "--format", "json"], ["quasimode"]])
def test_cli_call_loads_no_numpy_random_or_polynomial(tmp_path, command):
    # a CLI call runs on the numpy modules that `import numpy` loads
    path = tmp_path / "cubic.txt"
    path.write_text(CUBIC)
    src = os.path.dirname(os.path.dirname(os.path.abspath(quasimodes.__file__)))
    argv = command[:1] + ["--potential", str(path), "--a", "1", "--eta", "1",
                          "--h", "0.05"] + command[1:]
    code = (
        "import sys; from quasimodes.cli import main; "
        f"code = main({argv!r}); "
        "print(code, sorted(m for m in sys.modules "
        "if m.startswith(('numpy.random', 'numpy.polynomial'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.splitlines()[-1] == "0 []"


def fresh_python(code):
    """The finished process of ``python -c code`` run on this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(quasimodes.__file__)))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_refused_format_loads_no_numpy(tmp_path):
    path = tmp_path / "cubic.txt"
    path.write_text(CUBIC)
    argv = ["region", "--potential", str(path), "--h", "0.05", "--a-min", "0.5",
            "--a-max", "1.5", "--a-count", "5", "--eta-min", "-2", "--eta-max",
            "2", "--eta-count", "5", "--format", "json"]
    proc = fresh_python(
        "import sys; from quasimodes.cli import main; "
        f"code = main({argv!r}); print(code, 'numpy' in sys.modules)"
    )
    assert proc.stdout == "2 False\n"
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:usage:")


def test_help_loads_no_numpy():
    proc = fresh_python(
        "import sys\nfrom quasimodes.cli import main\n"
        "try:\n    main(['--help'])\nexcept SystemExit as exc:\n"
        "    print(exc.code, 'numpy' in sys.modules)"
    )
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_package_import_loads_no_numpy():
    proc = fresh_python("import sys, quasimodes; print('numpy' in sys.modules)")
    assert proc.stdout == "False\n"


def test_star_import_binds_every_export_from_its_submodule():
    proc = fresh_python(
        "import sys, quasimodes\nfrom quasimodes import *\n"
        "import quasimodes.jwkb\n"
        "names = quasimodes.__all__\n"
        "same = [globals()[n] is getattr(sys.modules[globals()[n].__module__], n) "
        "for n in names]\n"
        "print(len(names), all(same), certify is quasimodes.jwkb.certify)"
    )
    assert proc.stdout == "37 True True\n"


def test_submodule_resolves_after_plain_import():
    proc = fresh_python(
        "import quasimodes; print(quasimodes.jwkb.__name__, "
        "quasimodes.jwkb.certify is quasimodes.certify)"
    )
    assert proc.stdout == "quasimodes.jwkb True\n"


@pytest.mark.parametrize("module", ["quasimodes", "quasimodes.cli"])
def test_unknown_attribute_raises_attribute_error(module):
    proc = fresh_python(
        f"import {module} as m\n"
        "try:\n    m.no_such_name\nexcept AttributeError as exc:\n"
        "    print('no_such_name' in str(exc))"
    )
    assert proc.stdout == "True\n"


def test_accuracy_error_is_one_line(tmp_path):
    # exp(-psi) overflows in the quadrature for this anchor at n = 2
    path = tmp_path / "half.txt"
    path.write_text(HALFLINE)
    src = os.path.dirname(os.path.dirname(os.path.abspath(quasimodes.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "quasimodes.cli", "quasimode",
         "--potential", str(path), "--a", "0.62", "--eta", "0.6", "--h", "0.2",
         "--order", "2", "--allow-large-h"],
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr.splitlines() == ["error:accuracy: quadrature is not finite"]


@pytest.mark.parametrize("potential, a, eta", [
    (CUBIC, "1", "1e-9"), ("domain: line\n0 1 1 0\n", "0", "1e-120"),
])
def test_an_anchor_whose_expansion_is_not_finite_is_one_line(tmp_path, potential, a, eta):
    # a subprocess, so that a numpy warning would reach stderr
    path = tmp_path / "pot.txt"
    path.write_text(potential)
    src = os.path.dirname(os.path.dirname(os.path.abspath(quasimodes.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "quasimodes.cli", "quasimode", "--potential",
         str(path), "--a", a, "--eta", eta, "--h", "0.1", "--allow-large-h"],
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error:degenerate_anchor: the expansion at the anchor is not finite"
    ]


@pytest.mark.parametrize("h", ["1e-30", "1e-300"])
def test_a_quadrature_too_large_to_allocate_is_an_accuracy_error(capsys, cubic_file, h):
    code, out, err = run(
        capsys, "quasimode", "--potential", cubic_file,
        "--a", "1", "--eta", "1", "--h", h,
    )
    assert code == 4 and out == ""
    assert err == (
        f"error:accuracy: h = {h} needs more quadrature nodes than numpy can allocate\n"
    )


@pytest.mark.parametrize("case", ["missing", "potential-dir", "config-dir",
                                  "out-dir", "potential-not-utf8"])
def test_missing_potential_file(capsys, cubic_file, tmp_path, case):
    # a file that cannot be read or written is one usage line, not a traceback
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(CUBIC.encode() + b"# caf\xe9\n")
    potential = {"missing": "/nonexistent/pot.txt", "potential-dir": str(tmp_path),
                 "potential-not-utf8": str(latin1)}.get(case, cubic_file)
    extra = {"config-dir": ("--config", str(tmp_path)),
             "out-dir": ("--out", str(tmp_path))}.get(case, ())
    code, out, err = run(
        capsys, "quasimode", "--potential", potential,
        "--a", "1", "--eta", "1", "--h", "0.1", "--allow-large-h", *extra,
    )
    assert code == 2 and out == ""
    assert err.startswith("error:usage: ") and len(err.splitlines()) == 1


def test_degenerate_anchor_exit_code(capsys, tmp_path):
    path = tmp_path / "real.txt"
    path.write_text(REAL)
    code, _, err = run(
        capsys, "quasimode", "--potential", str(path),
        "--a", "1", "--eta", "1", "--h", "0.1",
    )
    assert code == 3 and "error:degenerate_anchor" in err


def test_sector_exit_code(capsys, tmp_path):
    path = tmp_path / "quartic.txt"
    path.write_text(QUARTIC)
    code, _, err = run(
        capsys, "high-energy", "--potential", str(path),
        "--z-re", "1", "--z-im", "-0.5", "--sigma-list", "1e2",
    )
    assert code == 2 and err.startswith("error:sector:")


def test_missing_anchor_options(capsys, cubic_file):
    code, _, err = run(
        capsys, "quasimode", "--potential", cubic_file, "--h", "0.1"
    )
    assert code == 2 and "error:usage" in err
