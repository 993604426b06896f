"""Commands that evaluate no zeta or gamma must not import scipy, and neither
must importing ``tractal.nystrom``; counting commands and ``import tractal``
must not import numpy either.  No command imports ``dataclasses`` or
``inspect``, and counting commands load neither ``tractal.tractability`` nor
``tractal.nystrom`` nor ``tractal.verify``.

Each case runs in a fresh interpreter, since these imports dominate a
command's start-up and an import anywhere in the package would load them for
every command."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tractal import cli

SRC = Path(__file__).resolve().parent.parent / "src"

WATCHED = ("scipy", "numpy", "dataclasses", "inspect",
           "tractal.tractability", "tractal.nystrom", "tractal.verify")
# runs the command, then reports on stderr whether each watched module was imported
PROBE = ("import sys\n"
         "from tractal import cli\n"
         "code = cli.main(sys.argv[1:])\n"
         f"for name in {WATCHED!r}:\n"
         "    print(name, 'loaded:', name in sys.modules, file=sys.stderr)\n"
         "sys.exit(code)\n")
# what no command loads, and what counting commands load beside it
NEVER = ("dataclasses", "inspect")
NOT_COUNTING = ("tractal.tractability", "tractal.nystrom", "tractal.verify")

KOROBOV_DOC = {"family": "korobov", "r": {"kind": "constant", "c": 1},
               "g": {"kind": "power", "c": 1, "alpha": -2}}
GAUSS_DOC = {"family": "gaussian", "gamma_sq": {"kind": "power", "c": 1, "alpha": -1}}
EULER_DOC = {"family": "euler", "r": {"kind": "constant", "c": 0}}


def fresh_run(code, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("doc, argv", [
    (KOROBOV_DOC, ["sweep", "--epsilon", "0.5,0.25", "--d", "1:6"]),
    (GAUSS_DOC, ["sweep", "--epsilon", "0.5,0.25", "--d", "1:6"]),
    (KOROBOV_DOC, ["classify", "--criterion", "nor"]),
], ids=["korobov-sweep", "gaussian-sweep", "korobov-classify"])
def test_command_without_special_functions_leaves_scipy_unloaded(tmp_path, doc, argv):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    code, out, err = fresh_run(PROBE, argv[0], "--family", str(path), *argv[1:])
    assert code == 0 and out
    assert "scipy loaded: False" in err
    for name in NEVER:
        assert f"{name} loaded: False" in err


def test_euler_abs_classify_loads_scipy_and_matches_in_process(tmp_path, capsys):
    path = tmp_path / "euler.json"
    path.write_text(json.dumps(EULER_DOC))
    argv = ["classify", "--family", str(path), "--criterion", "abs"]
    code, out, err = fresh_run(PROBE, *argv)
    assert code == 0
    assert "scipy loaded: True" in err
    assert cli.main(argv) == 0
    assert out == capsys.readouterr().out and json.loads(out)["p_star"]


@pytest.mark.parametrize("doc", [KOROBOV_DOC, GAUSS_DOC], ids=["korobov", "gaussian"])
@pytest.mark.parametrize("argv", [
    ["sweep", "--epsilon", "0.5,0.25", "--d", "1:6"],
    ["sweep", "--epsilon", "0.5", "--d", "31,34"],
    ["complexity", "--epsilon", "0.25", "--d", "5"],
    ["complexity", "--epsilon", "0.5", "--d", "35"],
    ["sweep", "--criterion", "nor", "--epsilon", "0.5,0.1,0.01", "--d", "1:20,31:34"],
    ["sweep", "--criterion", "abs", "--epsilon", "0.5,0.1,0.01", "--d", "1:20,31:34"],
    ["complexity", "--criterion", "nor", "--epsilon", "0.01", "--d", "35"],
    ["complexity", "--criterion", "abs", "--epsilon", "0.01", "--d", "35"],
], ids=["sweep-direct", "sweep-log-space", "complexity-direct", "complexity-log-space",
        "sweep-grid-nor", "sweep-grid-abs", "complexity-nor", "complexity-abs"])
def test_counting_commands_leave_numpy_unloaded(tmp_path, capsys, doc, argv):
    # d > 30 counts in log space; both spaces run on the standard library
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    argv = argv[:1] + ["--family", str(path)] + argv[1:]
    code, out, err = fresh_run(PROBE, *argv)
    assert code == 0 and out
    assert "numpy loaded: False" in err and "scipy loaded: False" in err
    for name in NEVER + NOT_COUNTING:
        assert f"{name} loaded: False" in err
    assert cli.main(argv) == 0
    assert out == capsys.readouterr().out


def test_package_import_leaves_numpy_unloaded():
    code, out, _ = fresh_run("import sys, tractal; print('numpy' in sys.modules)")
    assert code == 0 and out.strip() == "False"


def test_package_import_loads_no_submodule():
    # the package resolves its exports on first use
    code, out, _ = fresh_run("import sys, tractal\n"
                             "print(sorted(m for m in sys.modules if m.startswith('tractal')))")
    assert code == 0 and out.strip() == "['tractal']"


# every name ``tractal`` exported when it imported its submodules eagerly
EXPORTS = {
    "sequences": ["SequenceDescriptor"],
    "spectra": ["ABS", "NOR", "FactorSpectrum", "Family", "FamilySpec", "TailModel",
                "analytic_korobov", "custom_tabulated", "euler", "factor_eigenvalue",
                "gaussian", "gaussian_omega", "korobov", "korobov_exp_weights",
                "second_ratio", "second_ratio_limits", "tail_sum_H", "tau_zero", "wiener"],
    "products": ["CountResult", "ProductProblem", "brute_force_oracle", "count_products_above",
                 "log_trace_sum", "product_eigenvalues_top", "trace_sum"],
    "complexity": ["ComplexityQuery", "ComplexityResult", "info_complexity", "lemma_bound",
                   "minimal_error", "pt_functional", "qpt_functional"],
    "tractability": ["TractabilityReport", "classify", "euler_abs_spt_exponent", "g_function",
                     "g_root", "korobov_exp_weight_spt_exponent", "qpt_exponent",
                     "riemann_zeta", "spt_exponent"],
    "xreal": ["Interval", "two_over"],
}


def test_every_export_resolves_and_star_import_binds_it():
    import importlib

    import tractal

    names = [name for group in EXPORTS.values() for name in group]
    assert sorted(tractal.__all__) == sorted(names)
    assert set(names) <= set(dir(tractal))
    for module, group in EXPORTS.items():
        source = importlib.import_module(f"tractal.{module}")
        for name in group:
            assert getattr(tractal, name) is getattr(source, name)
    namespace = {}
    exec("from tractal import *", namespace)
    assert set(names) <= set(namespace)
    assert tractal.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        tractal.no_such_name


def test_oracle_compare_loads_numpy_and_passes(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(GAUSS_DOC))
    code, out, err = fresh_run(PROBE, "oracle-compare", "--family", str(path),
                               "--d", "3", "--m", "100", "--j", "20")
    assert code == 0 and json.loads(out)["pass"] is True
    assert "numpy loaded: True" in err


def test_nystrom_import_leaves_scipy_unloaded():
    # the Legendre rule imports scipy.linalg when first built, not at import
    code, out, _ = fresh_run("import sys, tractal.nystrom; print('scipy' in sys.modules)")
    assert code == 0 and out.strip() == "False"
