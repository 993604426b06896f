"""Commands that evaluate no zeta or gamma must not import scipy, and neither
must importing ``tractal.nystrom``; counting commands and ``import tractal``
must not import numpy either.  No command imports ``dataclasses`` or
``inspect``.  Counting commands load neither ``tractal.tractability`` nor
``tractal.nystrom`` nor ``tractal.verify``, nor the modules that hold what
no count runs (top-m, the box oracle, traces) or ``tractal.special``: with
no bytecode cache, each module loaded is compiled.

Each case runs in a fresh interpreter, since these imports dominate a
command's start-up and an import anywhere in the package would load them for
every command."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tractal import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WATCHED = ("scipy", "numpy", "dataclasses", "inspect",
           "tractal.tractability", "tractal.nystrom", "tractal.verify", "tractal.topm",
           "tractal.oracle", "tractal.traces", "tractal.special")
# runs the command, then reports on stderr whether each watched module was imported
PROBE = ("import sys\n"
         "from tractal import cli\n"
         "code = cli.main(sys.argv[1:])\n"
         f"for name in {WATCHED!r}:\n"
         "    print(name, 'loaded:', name in sys.modules, file=sys.stderr)\n"
         "sys.exit(code)\n")
# what no command loads, what counting commands load beside it, and what
# neither counting nor classifying loads
NEVER = ("dataclasses", "inspect")
NOT_COUNTING = tuple(name for name in WATCHED if name.startswith("tractal."))
NO_TOP_M = ("tractal.topm", "tractal.oracle")

KOROBOV_DOC = {"family": "korobov", "r": {"kind": "constant", "c": 1},
               "g": {"kind": "power", "c": 1, "alpha": -2}}
GAUSS_DOC = {"family": "gaussian", "gamma_sq": {"kind": "power", "c": 1, "alpha": -1}}
EULER_DOC = {"family": "euler", "r": {"kind": "constant", "c": 0}}
# 40 tables, so that its sweeps reach log space (d > 30)
CUSTOM_DOC = {"family": "custom", "tables": [[1.0, 0.5 / k, 0.25 / k] for k in range(1, 41)],
              "tail": {"kind": "geometric", "ratio": 0.5}}


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
    for name in NEVER + NO_TOP_M:
        assert f"{name} loaded: False" in err


def test_euler_abs_classify_loads_scipy_and_matches_in_process(tmp_path, capsys):
    path = tmp_path / "euler.json"
    path.write_text(json.dumps(EULER_DOC))
    argv = ["classify", "--family", str(path), "--criterion", "abs"]
    code, out, err = fresh_run(PROBE, *argv)
    assert code == 0
    assert "scipy loaded: True" in err
    for name in NO_TOP_M:
        assert f"{name} loaded: False" in err
    assert cli.main(argv) == 0
    assert out == capsys.readouterr().out and json.loads(out)["p_star"]


@pytest.mark.parametrize("doc", [KOROBOV_DOC, GAUSS_DOC, CUSTOM_DOC],
                         ids=["korobov", "gaussian", "custom"])
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


# names bench/tracer.py wraps that no version of the package defined
NEVER_DEFINED = {("spectra", "factor_power_sum"), ("spectra", "normalized_factor_power_sum"),
                 ("spectra", "h_descriptor"), ("spectra", "truncation_index"),
                 ("tractability", "limit_A_star"), ("tractability", "limit_B")}
# the wrapped names whose code moved to a module loaded on first use, and that module
MOVED = {("products", "product_eigenvalues_top"): "topm", ("products", "trace_sum"): "traces",
         ("products", "log_trace_sum"): "traces", ("products", "brute_force_oracle"): "oracle",
         ("products", "oracle_validity_floor"): "oracle", ("spectra", "tail_sum_H"): "traces",
         ("spectra", "second_ratio"): "tractability", ("spectra", "tau_zero"): "tractability",
         ("spectra", "factor_eigenvalue"): "tractability", ("complexity", "minimal_error"): "topm",
         ("complexity", "lemma_bound"): "traces", ("complexity", "log_normalized_trace"): "traces",
         ("complexity", "pt_functional"): "traces", ("complexity", "qpt_functional"): "traces"}
# for each (layer, name): whether vars(module) held it before its first use,
# where it is defined, whether it is that module's object, and whether
# vars(module) holds that object after its first use
NAMES_PROBE = ("import importlib, json, sys\n"
               "rows = []\n"
               "for layer, name in json.loads(sys.argv[1]):\n"
               "    module = importlib.import_module('tractal.' + layer)\n"
               "    cached = name in vars(module)\n"
               "    value = getattr(module, name)\n"
               "    home = value.__module__\n"
               "    rows.append([layer, name, cached, home,\n"
               "                 getattr(sys.modules[home], name) is value,\n"
               "                 vars(module).get(name) is value])\n"
               "print(json.dumps(rows))\n")


def _traced_names():
    """The module-level names in bench/tracer.py's WRAPPED, as (layer, name) pairs."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    wrapped = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "WRAPPED")
    return [(layer, name) for layer, names in wrapped.items() for name in names if "." not in name]


def test_every_traced_name_resolves_on_its_old_module():
    """The bench's tracer wraps a name where vars(module) holds it, and
    callers reach it there; a moved name resolves on its old module to the
    object its new module defines, and sits in vars(module) once used."""
    names = [pair for pair in _traced_names() if pair not in NEVER_DEFINED]
    code, out, err = fresh_run(NAMES_PROBE, json.dumps(names))
    assert code == 0, err
    moved = {}
    for layer, name, cached, home, same, kept in json.loads(out):
        assert same and kept, (layer, name)
        if home != f"tractal.{layer}":
            assert not cached, (layer, name)
            moved[layer, name] = home
    assert moved == {pair: f"tractal.{module}" for pair, module in MOVED.items()}


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
