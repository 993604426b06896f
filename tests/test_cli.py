import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractal import cli, nystrom, products, spectra, tractability, verify
from tractal.errors import TractalError

import helpers


@pytest.fixture
def family_file(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


KOROBOV_DOC = {"family": "korobov", "r": {"kind": "constant", "c": 1},
               "g": {"kind": "power", "c": 1, "alpha": -2}}
GAUSS_DOC = {"family": "gaussian", "gamma_sq": {"kind": "constant", "c": 1}}
UNIT_KOROBOV_DOC = {"family": "korobov", "r": {"kind": "constant", "c": 1},
                    "g": {"kind": "constant", "c": 1}}


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_korobov(capsys, family_file):
    path = family_file("k.json", KOROBOV_DOC)
    code, out, _ = run(capsys, ["classify", "--family", path, "--criterion", "nor"])
    assert code == 0
    doc = json.loads(out)
    assert doc["spt"] is True
    assert doc["p_star"] == {"lo": 1.0, "hi": 1.0}
    assert doc["criterion"] == "nor"


@pytest.mark.parametrize("doc, criterion, a_star", [
    ({"family": "euler", "r": {"kind": "constant", "c": 1}}, "abs", None),
    (GAUSS_DOC, "abs", None),
    ({"family": "wiener", "r": {"kind": "constant", "c": 1}}, "nor", None),
    (KOROBOV_DOC, "nor", "closed-form"),
    ({"family": "korobov", "r": {"kind": "constant", "c": 1},
      "g": {"kind": "explicit", "values": [1, 0.5, 0.25]}}, "nor", "declared"),
], ids=["euler-abs", "gaussian-abs", "wiener-nor", "korobov-power", "korobov-explicit"])
def test_classify_documents(capsys, family_file, doc, criterion, a_star):
    path = family_file("f.json", doc)
    code, out, _ = run(capsys, ["classify", "--family", path, "--criterion", criterion])
    assert code == 0
    assert a_star is None or f'"a_star": "{a_star}"' in out  # the provenance label


def test_classify_unsupported_criterion(capsys, family_file):
    path = family_file("w.json", {"family": "wiener", "r": {"kind": "constant", "c": 1}})
    code, _, err = run(capsys, ["classify", "--family", path, "--criterion", "abs"])
    assert code == 2
    assert "not supported" in err


def test_classify_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["classify", "--family", str(path)])
    assert code == 3 and "malformed" in err


def test_unknown_field_rejected(capsys, family_file):
    doc = dict(KOROBOV_DOC)
    doc["weights"] = [1, 2]
    path = family_file("k2.json", doc)
    code, _, err = run(capsys, ["classify", "--family", path])
    assert code == 3 and "unknown fields" in err


def test_unknown_sequence_kind_rejected(capsys, family_file):
    path = family_file("k3.json", {"family": "gaussian",
                                   "gamma_sq": {"kind": "geometric", "q": 0.5}})
    code, _, err = run(capsys, ["classify", "--family", path])
    assert code == 3


def test_complexity_output(capsys, family_file):
    path = family_file("g.json", GAUSS_DOC)
    code, out, _ = run(capsys, ["complexity", "--family", path, "--criterion", "nor",
                                "--epsilon", "0.5", "--d", "2"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["epsilon", "d", "criterion", "n", "saturated", "threshold"]
    assert doc["n"] == 3 and doc["saturated"] is False


def test_complexity_epsilon_out_of_range(capsys, family_file):
    path = family_file("g.json", GAUSS_DOC)
    code, _, _ = run(capsys, ["complexity", "--family", path, "--epsilon", "1.5", "--d", "2"])
    assert code == 3


def test_complexity_strict_saturation(capsys, family_file):
    path = family_file("uk.json", UNIT_KOROBOV_DOC)
    code, out, _ = run(capsys, ["complexity", "--family", path, "--criterion", "nor",
                                "--epsilon", "0.5", "--d", "12", "--cap", "500", "--strict"])
    assert code == 4
    assert json.loads(out)["saturated"] is True


def test_sweep_csv(capsys, family_file, tmp_path):
    path = family_file("g.json", GAUSS_DOC)
    out_path = str(tmp_path / "sweep.csv")
    code, _, _ = run(capsys, ["sweep", "--family", path, "--criterion", "nor",
                              "--epsilon", "0.5,0.25,0.125", "--d", "1:4",
                              "--out", out_path])
    assert code == 0
    lines = open(out_path).read().splitlines()
    assert lines[0] == "family,criterion,epsilon,d,n,saturated"
    assert len(lines) == 13  # 3 epsilon x 4 d data rows
    # d-major, epsilon descending inside each d
    assert lines[1].startswith("gaussian,nor,0.5,1,")
    assert lines[2].startswith("gaussian,nor,0.25,1,")
    assert lines[4].startswith("gaussian,nor,0.5,2,")
    # n nonincreasing in epsilon within fixed d
    for base in (1, 4, 7, 10):
        ns = [int(lines[base + i].split(",")[4]) for i in range(3)]
        assert ns[0] <= ns[1] <= ns[2]
    # an empty token in a list is skipped
    code, out, _ = run(capsys, ["sweep", "--family", path, "--criterion", "nor",
                                "--epsilon", "0.5", "--d", "1,,3"])
    assert code == 0 and [line.split(",")[3] for line in out.splitlines()[1:]] == ["1", "3"]


def test_a_repeated_sweep_point_is_walked_once(capsys, family_file, monkeypatch):
    """eps = 1/16 puts korobov g_k = k**-2 products on the threshold, so the
    walk decides borderline tuples; a repeated eps decides them no more
    often than one eps does, and repeats its row."""
    path = family_file("k.json", KOROBOV_DOC)
    decisions = []
    accepts = products._Point.accepts
    monkeypatch.setattr(products._Point, "accepts",
                        lambda point, chain: decisions.append(chain) or accepts(point, chain))
    outs = []
    for eps in ("0.0625", "0.0625,0.0625"):
        decisions.clear()
        code, out, _ = run(capsys, ["sweep", "--family", path, "--epsilon", eps, "--d", "20"])
        assert code == 0
        outs.append((len(decisions), out))
    row = "korobov,nor,0.0625,20,407,false\n"
    assert outs == [(22, "family,criterion,epsilon,d,n,saturated\n" + row),
                    (22, "family,criterion,epsilon,d,n,saturated\n" + row * 2)]


def test_sweep_byte_stability(capsys, family_file, tmp_path):
    path = family_file("g.json", GAUSS_DOC)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out_path in (a, b):
        code, _, _ = run(capsys, ["sweep", "--family", path, "--epsilon", "0.5,0.3",
                                  "--d", "1,2,3", "--out", out_path])
        assert code == 0
    assert open(a, "rb").read() == open(b, "rb").read()


GAUSS_POWER_DOC = {"family": "gaussian", "gamma_sq": {"kind": "power", "c": 1, "alpha": -1}}


@pytest.mark.parametrize("doc, criterion", [
    (KOROBOV_DOC, "nor"), (GAUSS_POWER_DOC, "nor"), (GAUSS_POWER_DOC, "abs"),
], ids=["korobov-nor", "gaussian-nor", "gaussian-abs"])
def test_sweep_rows_are_complexity_points(capsys, family_file, doc, criterion):
    """Under nor each eps is one band over all d; the gaussian leading
    eigenvalues are below 1, so under abs each point is its own band.  Either
    way a sweep row is the point counted alone."""
    path = family_file("f.json", doc)
    code, csv, _ = run(capsys, ["sweep", "--family", path, "--criterion", criterion,
                                "--epsilon", "0.5,0.1,0.01", "--d", "1:20,31:34"])
    assert code == 0
    rows = csv.splitlines()
    for d in (20, 31, 34):
        code, out, _ = run(capsys, ["complexity", "--family", path, "--criterion", criterion,
                                    "--epsilon", "0.01", "--d", str(d)])
        r = json.loads(out)
        assert code == 0
        assert (f"{doc['family']},{r['criterion']},{r['epsilon']!r},{r['d']},{r['n']},"
                f"{str(r['saturated']).lower()}") in rows


def test_tiny_epsilon_counts_in_log_space(capsys, family_file):
    """Below eps ~ 1.5e-162, eps*eps underflows to 0.0; the threshold is then
    assembled in log space instead of being rejected as zero."""
    path = family_file("g.json", GAUSS_POWER_DOC)
    p = products.ProductProblem.from_family(cli.parse_family(GAUSS_POWER_DOC), 1)
    n = {}
    for criterion in ("abs", "nor"):
        for eps in (1e-150, 1e-170):
            code, out, _ = run(capsys, ["complexity", "--family", path, "--criterion", criterion,
                                        "--epsilon", repr(eps), "--d", "1"])
            assert code == 0
            n[criterion, eps] = json.loads(out)["n"]
        log_T = 2.0 * math.log(1e-170) + (p.log_leading_product if criterion == "nor" else 0.0)
        assert n[criterion, 1e-170] == products.count_products_above_log(p, log_T).count
        assert n[criterion, 1e-170] >= n[criterion, 1e-150]
    code, out, _ = run(capsys, ["sweep", "--family", path, "--criterion", "abs",
                                "--epsilon", "1e-150,1e-200", "--d", "1"])
    assert code == 0
    assert [int(line.split(",")[4]) for line in out.splitlines()[1:]] == [
        n["abs", 1e-150], products.count_products_above_log(p, 2.0 * math.log(1e-200)).count]


CUSTOM_TWO_TABLES = {"family": "custom", "tables": [[1.0, 0.5, 0.25], [1.0, 0.25]], "tau0": 0.0}
EULER_UNDERFLOW_AT_3 = {"family": "euler", "r": {"kind": "explicit", "values": [0, 0, 1000]}}


@pytest.mark.parametrize("doc, argv, code, message", [
    (GAUSS_DOC, ["--epsilon", "0.5,0.3", "--d", "0:2"], 3, "d must be >= 1, got 0"),
    (GAUSS_DOC, ["--epsilon", "2,0.5", "--d", "1:3"], 3, "epsilon must lie in (0,1), got 2.0"),
    (GAUSS_DOC, ["--epsilon", "0.5,-1", "--d", "1:3", "--cap", "0"], 3, "cap must be >= 1, got 0"),
    ({"family": "wiener", "r": {"kind": "constant", "c": 1}},
     ["--criterion", "abs", "--epsilon", "0.5,-1", "--d", "1:3"], 2, "not supported"),
    (CUSTOM_TWO_TABLES, ["--epsilon", "0.5,1.5", "--d", "1,5"], 3, "epsilon must lie in (0,1)"),
    (CUSTOM_TWO_TABLES, ["--epsilon", "0.5", "--d", "1,5"], 3,
     "custom spec provides 2 tables, requested d=5"),
    (EULER_UNDERFLOW_AT_3, ["--epsilon", "0.5,2", "--d", "1,3"], 3, "epsilon must lie in (0,1)"),
    (EULER_UNDERFLOW_AT_3, ["--epsilon", "0.5", "--d", "1,3"], 3,
     "leading eigenvalue underflows below the smallest double at k=3"),
    # lists the argument parser cannot read
    (GAUSS_DOC, ["--epsilon", "abc"], 3, "bad float list 'abc'"),
    (GAUSS_DOC, ["--epsilon", ","], 3, "empty value list"),
    (GAUSS_DOC, ["--d", "x"], 3, "bad integer 'x'"),
    (GAUSS_DOC, ["--d", ","], 3, "empty value list"),
    (GAUSS_DOC, ["--d", "1:x"], 3, "bad range '1:x'"),
    (GAUSS_DOC, ["--d", "3:"], 3, "bad range '3:'"),
    (GAUSS_DOC, ["--d", "5:3"], 3, "empty value list"),
])
def test_sweep_reports_the_first_error_in_grid_order(capsys, family_file, doc, argv, code,
                                                      message):
    """One walk counts the grid, but the inputs are checked point by point in
    the grid's order, so the error is the one a loop over the points meets
    first: the same as the per-point oracle's."""
    path = family_file("f.json", doc)
    got, out, err = run(capsys, ["sweep", "--family", path] + argv)
    assert (got, out) == (code, "") and message in err
    args = cli.build_parser().parse_args(["sweep", "--family", path] + argv)
    with pytest.raises(TractalError) as oracle:
        helpers.per_point_complexity(cli.parse_family(doc), args.criterion,
                                     sorted(set(cli._parse_int_list(args.d))),
                                     sorted(cli._parse_float_list(args.epsilon), reverse=True),
                                     args.cap)
    assert err == f"error: {oracle.value}\n"


def test_sweep_strict_abort_leaves_no_file(capsys, family_file, tmp_path):
    path = family_file("uk.json", UNIT_KOROBOV_DOC)
    out_path = str(tmp_path / "never.csv")
    code, _, _ = run(capsys, ["sweep", "--family", path, "--criterion", "nor",
                              "--epsilon", "0.5", "--d", "10,12", "--cap", "100",
                              "--strict", "--out", out_path])
    assert code == 4
    assert not os.path.exists(out_path)


@pytest.mark.parametrize("command, target", [
    (["complexity", "--epsilon", "0.5", "--d", "2"], "missing/x.json"),
    (["sweep", "--epsilon", "0.5", "--d", "1:3"], "existing"),
], ids=["complexity-missing-directory", "sweep-onto-directory"])
def test_unwritable_out_is_invalid_input(capsys, family_file, tmp_path, command, target):
    path = family_file("g.json", GAUSS_DOC)
    (tmp_path / "existing").mkdir()
    code, _, err = run(capsys, command[:1] + ["--family", path, "--out",
                                              str(tmp_path / target)] + command[1:])
    assert code == 3
    assert err.startswith("error: cannot write output file")
    assert not list(tmp_path.rglob(".tractal-*"))


@pytest.mark.parametrize("argv", [
    ["classify", "--d", "3"],
    ["classify", "--strict"],
    ["oracle-compare", "--d", "2", "--epsilon", "0.5"],
    ["oracle-compare", "--d", "2", "--criterion", "abs"],
    # complexity reads one epsilon and one d, not the rest of a list
    ["complexity", "--epsilon", "0.5,0.3", "--d", "2"],
    ["complexity", "--epsilon", "0.5", "--d", "2,3"],
])
def test_options_a_command_does_not_read_are_rejected(capsys, family_file, argv):
    path = family_file("g.json", GAUSS_DOC)
    code, out, err = run(capsys, argv[:1] + ["--family", path] + argv[1:])
    assert (code, out) == (3, "") and err.count("error: ") == 1
    assert ("takes a single epsilon and a single d" if argv[0] == "complexity"
            else "unrecognized arguments") in err


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, ["verify", "--suite", "nope"])
    assert code == 3 and "unknown suite" in err


def test_verify_exponent_crosscheck(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "exponent-crosscheck"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert all(set(c) == {"name", "deviation", "threshold", "pass"} for c in doc["checks"])


@pytest.mark.parametrize("suite, names", [
    ("euler-nystrom", ["euler-r0-400-nodes", "euler-r1-400-nodes"]),
    ("wiener-nystrom", ["wiener-r0-400-nodes"]),
    ("gaussian-nystrom", [f"gaussian-g2-{g2}-100-nodes" for g2 in (0.25, 1.0, 4.0)]),
    ("eq21-identity", ["eq21-trace-30-cases", "eq21-box-30-cases"]),
    ("counting-oracle", ["counting-oracle-200-instances"]),
    ("korobov-nystrom", ["korobov-a1-b1-400-nodes"]),
    ("g-function", ["g-at-2", "g-root-residual", "g-root-bracket",
                    *[f"g-reduction-vs-series-x{x}" for x in (1.2, 1.5, 3.0)]]),
    ("exponent-crosscheck", ["exp-weight-crosscheck-growing-r",
                             "exp-weight-crosscheck-constant-r"]),
])
def test_verify_suite_checks(suite, names):
    # the acceptance tests run every row; this pins which rows a suite runs
    assert [row.name for row in verify.CHECKS if row.suite == suite] == names


def test_verify_failure_exit_code(capsys, monkeypatch):
    broken = verify.Check("broken", "broken", 0, 0.1, lambda: 1.0)
    monkeypatch.setattr(verify, "CHECKS", (broken,))
    code, out, _ = run(capsys, ["verify", "--suite", "broken"])
    assert code == 1
    assert json.loads(out) == {"suite": "broken", "pass": False, "checks": [
        {"name": "broken", "deviation": 1.0, "threshold": 0.1, "pass": False}]}


@pytest.mark.parametrize("failing", [None] + [row.name for row in verify.CHECKS])
def test_verify_all_runs_every_row_once_in_table_order(capsys, monkeypatch, failing):
    """``verify --suite all`` runs each row of the table once, in table
    order, and exits 1 exactly when a row fails.  Each row's measure is
    stubbed: the acceptance tests run the real rows."""
    measured = []

    def stub(row):
        dev = row.threshold if row.name == failing else 0.0
        return row._replace(measure=lambda: measured.append(row.name) or dev)

    monkeypatch.setattr(verify, "CHECKS", tuple(map(stub, verify.CHECKS)))
    code, out, _ = run(capsys, ["verify", "--suite", "all"])
    names = [row.name for row in verify.CHECKS]
    assert len(set(names)) == len(names) and measured == names
    assert code == (0 if failing is None else 1)
    assert json.loads(out) == {"suite": "all", "pass": failing is None, "checks": [
        {"name": row.name, "deviation": row.threshold if row.name == failing else 0.0,
         "threshold": row.threshold, "pass": row.name != failing} for row in verify.CHECKS]}


def _planted_defect(row):
    """(module, attribute, original -> defective replacement) for a row."""
    def shift(delta):
        return lambda original: lambda *args: original(*args) + delta

    def scale(factor):
        return lambda original: lambda *args: original(*args) * factor

    def count_plus_one(original):
        return lambda *args: products.CountResult(original(*args).count + 1, False,
                                                  products.COUNTING_CAP)

    def estimate_off_by(rel):  # the closed form, off by rel; no quadrature runs
        return lambda original: lambda spec, n_nodes, m: nystrom.SpectrumEstimate(
            nystrom.closed_form_eigenvalues(spec, m) * (1.0 + rel), n_nodes, None)

    if row.suite.endswith("-nystrom"):
        return nystrom, "spectrum_estimate", estimate_off_by(2.0 * row.threshold)
    if row.name.startswith("g-reduction-vs-series"):
        return tractability, "g_function", scale(1.0 + 2.0 * row.threshold)
    return {
        "eq21-trace-30-cases": (products, "trace_sum", scale(1.0 + 1e-8)),
        "eq21-box-30-cases": (products, "box_products", scale(1.0 + 1e-10)),
        "counting-oracle-200-instances": (products, "count_products_above", count_plus_one),
        "g-at-2": (tractability, "g_function", shift(1e-9)),
        "g-root-residual": (tractability, "g_function", shift(1e-9)),
        "g-root-bracket": (tractability, "g_function", shift(1.0)),
        "exp-weight-crosscheck-growing-r": (
            tractability, "korobov_exp_weight_spt_exponent",
            lambda original: lambda r: original(r) and original(r) + 1e-11),
        "exp-weight-crosscheck-constant-r": (
            tractability, "korobov_exp_weight_spt_exponent", lambda original: lambda r: 1.0),
    }[row.name]


@pytest.mark.parametrize("row", verify.CHECKS, ids=lambda row: row.name)
def test_every_verify_row_fails_on_a_planted_defect(capsys, monkeypatch, row):
    module, name, plant = _planted_defect(row)
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    code, out, _ = run(capsys, ["verify", "--suite", row.suite])
    assert code == 1
    (result,) = [c for c in json.loads(out)["checks"] if c["name"] == row.name]
    assert result["pass"] is False


def test_oracle_compare(capsys, family_file):
    path = family_file("g.json", GAUSS_DOC)
    for m, j in (("150", "20"), ("200", "30")):
        code, out, _ = run(capsys, ["oracle-compare", "--family", path, "--d", "3",
                                    "--m", m, "--j", j])
        assert code == 0
        doc = json.loads(out)
        assert doc["top_max_abs_deviation"] == 0.0
        assert doc["count_mismatches"] == 0


@pytest.mark.parametrize("defect", ["count", "top"])
def test_oracle_compare_fails_on_a_planted_defect(capsys, family_file, monkeypatch, defect):
    """A count one too high, or top-m values scaled by 1 + 2**-50, exits 1
    with the report on stdout naming the disagreement."""
    if defect == "count":
        count = products.count_products_above

        def one_too_many(*args):
            result = count(*args)
            return result._replace(count=result.count + 1)

        monkeypatch.setattr(products, "count_products_above", one_too_many)
    else:
        top = products.product_eigenvalues_top
        monkeypatch.setattr(products, "product_eigenvalues_top",
                            lambda p, m: top(p, m) * (1.0 + 2.0 ** -50))
    path = family_file("g.json", GAUSS_DOC)
    code, out, _ = run(capsys, ["oracle-compare", "--family", path, "--d", "3",
                                "--m", "150", "--j", "20"])
    doc = json.loads(out)
    assert code == 1 and doc["pass"] is False
    if defect == "count":
        assert (doc["count_mismatches"], doc["top_max_abs_deviation"]) == (15, 0.0)
    else:
        assert doc["count_mismatches"] == 0 and 0.0 < doc["top_max_abs_deviation"] <= 2.0 ** -50


def test_oracle_compare_skips_values_below_the_box_floor(capsys, family_file):
    """With J = 30 the 200th korobov product lies below the box's validity
    floor, where the box misses products; only the values above it compare."""
    path = family_file("k.json", KOROBOV_DOC)
    code, out, _ = run(capsys, ["oracle-compare", "--family", path, "--d", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 200 and 0 < doc["top_compared"] < 200
    assert doc["top_max_abs_deviation"] == 0.0 and doc["pass"] is True
    code, out, _ = run(capsys, ["oracle-compare", "--family", path, "--d", "2", "--j", "60"])
    assert code == 0 and json.loads(out)["top_compared"] == 200


def test_oracle_compare_box_over_the_cap(capsys, family_file):
    path = family_file("g.json", GAUSS_DOC)  # 30**5 > 10**7 box products
    code, out, err = run(capsys, ["oracle-compare", "--family", path, "--d", "5", "--j", "30"])
    assert code == 4 and out == "" and "exceeds" in err


@pytest.mark.parametrize("command", [["sweep"], ["complexity"], ["oracle-compare", "--m", "5"]])
@pytest.mark.parametrize("d", [str(10 ** 20), f"1:{10 ** 12}", f"{-10 ** 12}:5",
                               f"1:{products.DIMENSION_CAP},2:3"],
                         ids=["huge-d", "huge-range", "long-range", "long-list"])
def test_dimension_past_the_cap_exits_4_building_no_factor(capsys, family_file, monkeypatch,
                                                           command, d):
    """A d past DIMENSION_CAP is refused before the table reads its first
    row or builds its first factor, and a range before it is expanded.
    Every row and factor reads its eigenvalues through ``spectra._value``,
    so a read fails the test at once rather than going on to fill the memory."""
    def refuse(*args):
        raise AssertionError("a row or a factor was read")

    monkeypatch.setattr(spectra.FactorSpectrum, "__init__", refuse)
    monkeypatch.setattr(spectra, "_value", refuse)
    spectra._factor.cache_clear()
    path = family_file("k.json", KOROBOV_DOC)
    code, out, err = run(capsys, command[:1] + ["--family", path, f"--d={d}"] + command[1:])
    assert (code, out) == (4, "")
    assert "dimension cap" in err


@pytest.mark.parametrize("command, module, worker", [
    (["sweep", "--d", "1:5"], cli.complexity, "info_complexity_grid"),
    (["classify"], tractability, "classify"),
])
def test_out_of_memory_exits_4_with_one_line(capsys, family_file, monkeypatch, command, module,
                                             worker):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(module, worker, exhausted)
    path = family_file("k.json", KOROBOV_DOC)
    assert run(capsys, command[:1] + ["--family", path] + command[1:]) == (
        4, "", "error: out of memory\n")


@pytest.mark.parametrize("gamma_sq", [4e32, 1e40])
@pytest.mark.parametrize("command", [["classify"], ["sweep", "--d", "1:3"]])
def test_gaussian_whose_ratio_rounds_to_one_exits_3(capsys, family_file, gamma_sq, command):
    """omega < 1 makes the family QPT, but past gamma^2 ~ 3e32 it rounds to
    1.0: the spec is refused rather than answered as if omega were 1."""
    path = family_file("g.json", {"family": "gaussian",
                                  "gamma_sq": {"kind": "power", "c": gamma_sq, "alpha": -1}})
    code, out, err = run(capsys, command[:1] + ["--family", path] + command[1:])
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and err.startswith(f"error: gamma_sq(1) = {gamma_sq!r}")
    assert "omega rounds to 1" in err


def test_gaussian_just_below_the_rounding_is_answered(capsys, family_file):
    path = family_file("g.json", {"family": "gaussian", "gamma_sq": {"kind": "constant", "c": 1e32}})
    code, out, err = run(capsys, ["classify", "--family", path, "--criterion", "nor"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["spt"], doc["qpt"]) == (False, True)
    assert doc["b"] == -math.log(spectra.gaussian_omega(1e32)) > 0.0


def test_dimension_cap_admits_a_range_to_the_cap():
    assert cli._parse_int_list(f"1:{products.DIMENSION_CAP}")[-1] == products.DIMENSION_CAP


def test_unit_lead_family_counts_past_the_dimension_cap(capsys, family_file):
    """Korobov's leads are 1.0 and its g_k nonincreasing by kind, so its
    count at d = 10**9 is the one at 10**5, and a range may pass 10**5."""
    path = family_file("k.json", KOROBOV_DOC)
    docs = []
    for d in ("100000", "1000000000"):
        code, out, err = run(capsys, ["complexity", "--family", path, "--d", d,
                                      "--epsilon", "0.01"])
        assert (code, err) == (0, "")
        docs.append(json.loads(out))
    assert docs[0]["n"] == docs[1]["n"] == 14423 and docs[1]["d"] == 10 ** 9
    code, out, _ = run(capsys, ["sweep", "--family", path, "--d", "99999:100001,1000000000",
                                "--epsilon", "0.01"])
    assert code == 0 and [line.split(",")[4] for line in out.split()[1:]] == ["14423"] * 4


def test_unit_lead_count_past_the_rows_of_the_cap_exits_4(capsys, family_file, monkeypatch):
    """Under a constant g_k = 0.5 no bound on h_k falls below the threshold,
    so the count at d = 10**9 would read rows without end: it exits 4 at
    the row past DIMENSION_CAP, having read no more rows than that."""
    read = []
    value = spectra._value
    monkeypatch.setattr(spectra, "_value", lambda spec, k: read.append(k) or value(spec, k))
    spectra._factor.cache_clear()
    path = family_file("k.json", {"family": "korobov", "r": {"kind": "constant", "c": 1},
                                  "g": {"kind": "constant", "c": 0.5}})
    code, out, err = run(capsys, ["complexity", "--family", path, "--d", "1000000000",
                                  "--epsilon", "0.1"])
    assert (code, out) == (4, "") and "dimension cap" in err
    assert read == list(range(1, products.DIMENSION_CAP + 1))


@pytest.mark.parametrize("command, doc, d", [
    (["complexity"], GAUSS_DOC, products.DIMENSION_CAP + 1),
    (["sweep"], GAUSS_DOC, f"5,{products.DIMENSION_CAP + 1}"),
    (["sweep"], GAUSS_DOC, f"{products.DIMENSION_CAP}:{products.DIMENSION_CAP + 1}"),
    (["oracle-compare", "--m", "5"], KOROBOV_DOC, products.DIMENSION_CAP + 1),
    (["complexity"], KOROBOV_DOC, products.UNIT_LEAD_DIMENSION_CAP + 1),
], ids=["gaussian", "gaussian-list", "gaussian-range", "korobov-oracle", "korobov"])
def test_each_cap_is_checked_before_any_row_is_read(capsys, family_file, monkeypatch,
                                                    command, doc, d):
    def refuse(*args):
        raise AssertionError("a row or a factor was read")

    monkeypatch.setattr(spectra.FactorSpectrum, "__init__", refuse)
    monkeypatch.setattr(spectra, "_value", refuse)
    spectra._factor.cache_clear()
    path = family_file("f.json", doc)
    code, out, err = run(capsys, command[:1] + ["--family", path, f"--d={d}"] + command[1:])
    assert (code, out) == (4, "") and "dimension cap" in err


@pytest.mark.parametrize("d", ["2:4", "2,3"])
def test_oracle_compare_takes_one_dimension(capsys, family_file, d):
    path = family_file("k.json", KOROBOV_DOC)
    code, out, err = run(capsys, ["oracle-compare", "--family", path, "--d", d])
    assert code == 3 and out == "" and "one --d value" in err


def test_oracle_compare_box_underflow_is_invalid_input(capsys, family_file):
    """Products of three tables led by 1e-110 lie below the smallest double."""
    row = [1e-110, 5e-111, 1e-111]
    path = family_file("u.json", {"family": "custom", "tables": [row, row, row],
                                  "tail": {"kind": "geometric", "ratio": 0.5}})
    code, out, err = run(capsys, ["oracle-compare", "--family", path, "--d", "3",
                                  "--m", "50", "--j", "20"])
    assert code == 3 and out == ""
    assert err.startswith("error:") and "underflow" in err and "Traceback" not in err


@pytest.mark.parametrize("tables, d", [([[1e200, 1e199]] * 3, 3), ([[1e11, 1e10]] * 31, 30),
                                       ([[1e11, 1e10]] * 31, 31)], ids=["1e600", "1e330", "1e341"])
def test_leading_products_past_the_double_range_count_in_log_space(capsys, family_file, tables, d):
    """A leading product past the largest double is inf, so the problem
    counts in log space at any d: complexity and sweep exit 0 and report a
    threshold past the range as "inf", and oracle-compare exits 3 with one
    error line, as for a box that underflows."""
    path = family_file("big.json", {"family": "custom", "tables": tables})
    problem = products.ProductProblem.from_family(spectra.custom_tabulated(tables), d)
    assert problem.leading_product == math.inf
    assert problem.space is products.LOG
    # values whose exp overflows read inf, as trace sums do
    assert products.product_eigenvalues_top(problem, 2).tolist() == [math.inf] * 2
    assert products.brute_force_oracle(problem, 1).tolist() == [math.inf]
    code, out, err = run(capsys, ["complexity", "--family", path, "--d", str(d), "--epsilon", "0.3"])
    doc = json.loads(out)
    assert (code, err, doc["threshold"], doc["saturated"]) == (0, "", "inf", False)
    # the box holds every product above the threshold: the ratio after 0.1 is 0
    log_T = 2.0 * math.log(0.3) + problem.log_leading_product
    if d == 3:
        assert doc["n"] == 4 == int((helpers.brute_force_log_oracle(problem, 2) > log_T).sum())
    code, out, err = run(capsys, ["sweep", "--family", path, "--d", f"1:{d}", "--epsilon", "0.3"])
    assert (code, err) == (0, "") and out.splitlines()[-1].endswith(f",{d},{doc['n']},false")
    code, out, err = run(capsys, ["oracle-compare", "--family", path, "--d", str(d), "--j", "1"])
    assert (code, out) == (3, "") and err.startswith("error:") and err.count("\n") == 1
    assert "overflows" in err


def test_oracle_compare_log_space_problem(capsys, family_file, monkeypatch):
    """A leading product below e^-300 puts d = 3 in log space; the box then
    forms its products the way the top walk does and they agree bit for bit.
    The box's largest product is subnormal (~1e-310), so the count thresholds
    must reach below it for any count comparison to be more than 0 == 0."""
    doc = {"family": "custom",
           "tables": [[1e-105, 7.9e-106, 4.9e-106], [1e-105, 4.9e-106, 1e-106],
                      [1e-100, 5.6e-101, 1.6e-101]],
           "tail": {"kind": "geometric", "ratio": 0.67}}
    path = family_file("l.json", doc)
    thresholds = []
    count = products.count_products_above

    def recording(problem, threshold, *args, **kwargs):
        thresholds.append(threshold)
        return count(problem, threshold, *args, **kwargs)

    monkeypatch.setattr(products, "count_products_above", recording)
    code, out, _ = run(capsys, ["oracle-compare", "--family", path, "--d", "3",
                                "--m", "50", "--j", "20"])
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True and rep["top_max_abs_deviation"] == 0.0
    assert rep["top_compared"] > 0 and rep["count_mismatches"] == 0
    box = products.brute_force_oracle(
        products.ProductProblem.from_family(cli.parse_family(doc), 3), 20)
    assert any(np.count_nonzero(box > t) > 0 for t in thresholds)


def test_oracle_compare_counts_against_log_sums(capsys, family_file, monkeypatch):
    """At T = 5e-324 this log-space box has log sums above ln T whose exp
    rounds to T itself; counts must be compared with the log sums.  The box
    is built once, as log sums, and the top-m values compare with their
    exps, the values brute_force_oracle gives."""
    doc = {"family": "custom",
           "tables": [[1e-105, 5e-106, 2e-106, 1e-106], [1e-105, 4e-106, 1e-106],
                      [1e-100, 3e-101, 1e-101, 5e-102]],
           "tail": {"kind": "geometric", "ratio": 0.25}, "tau0": 0.0}
    path = family_file("s.json", doc)
    boxes = []
    box_folds = products.box_folds
    monkeypatch.setattr(products, "box_folds",
                        lambda p, J, space: boxes.append((J, space)) or box_folds(p, J, space))
    code, out, _ = run(capsys, ["oracle-compare", "--family", path, "--d", "3",
                                "--m", "200", "--j", "30"])
    assert code == 0 and boxes == [(30, products.LOG)]
    assert json.loads(out) == {"d": 3, "m": 200, "box_side": 30, "top_compared": 200,
                               "top_max_abs_deviation": 0.0, "count_mismatches": 0,
                               "pass": True}


@pytest.mark.parametrize("m, want", [(5, 0), (50, 3)])
def test_oracle_compare_log_space_zero_tail(capsys, family_file, m, want):
    """Tables with no tail have zero eigenvalues past their end, which a
    log-space box holds as products of 0; 8 tuples are nonzero."""
    doc = {"family": "custom", "tables": [[1e-105, 5e-106], [1e-105, 4e-106], [1e-100, 3e-101]],
           "tau0": 0.0}
    path = family_file("z.json", doc)
    code, out, err = run(capsys, ["oracle-compare", "--family", path, "--d", "3",
                                  "--m", str(m), "--j", "4"])
    assert code == want and "Traceback" not in err
    assert want or json.loads(out)["pass"] is True


def test_analytic_korobov_document(capsys, family_file):
    doc = {"family": "analytic_korobov", "omega": 0.5,
           "a": {"kind": "log_growth", "theta": 2.0}, "b": {"kind": "constant", "c": 1.0}}
    path = family_file("ak.json", doc)
    code, out, _ = run(capsys, ["classify", "--family", path, "--criterion", "abs"])
    assert code == 0
    rep = json.loads(out)
    assert rep["spt"] is True


def test_custom_document(capsys, family_file):
    doc = {"family": "custom", "tables": [[1.0, 0.5, 0.25], [1.0, 0.25]],
           "tail": {"kind": "geometric", "ratio": 0.5}, "tau0": 0.0}
    path = family_file("c.json", doc)
    code, out, _ = run(capsys, ["complexity", "--family", path, "--criterion", "nor",
                                "--epsilon", "0.4", "--d", "2"])
    assert code == 0
    assert json.loads(out)["n"] >= 1


def test_classify_prints_a_library_warning_as_one_line(capsys, family_file):
    """A custom table without tau0 warns; the CLI prints the warning as it
    prints errors, without a source path or line, and the report is the
    library's."""
    doc = {"family": "custom", "tables": [[1.0, 0.5, 0.25]]}
    path = family_file("c.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = tractability.classify(cli._load_family(path), "nor")
    for _ in range(2):  # every command prints it, not only the first in a process
        code, out, err = run(capsys, ["classify", "--family", path])
        assert code == 0
        assert err == ("warning: tabulated spectrum has no declared tau0; reporting the "
                       "uninformative interval [0, +oo)\n")
        assert out == json.dumps(report.to_json_dict(), indent=2) + "\n"


def test_a_warning_raised_as_an_error_exits_3_with_one_line(capsys, family_file):
    """Under filters that raise warnings as errors (``python -W error``,
    ``PYTHONWARNINGS=error``) the library's warning is an invalid input: one
    ``error:`` line, exit 3, nothing on stdout.  A warning the filters let
    through still prints one ``warning:`` line beside the report."""
    message = ("tabulated spectrum has no declared tau0; reporting the "
               "uninformative interval [0, +oo)")
    path = family_file("c.json", {"family": "custom", "tables": [[1.0, 0.5, 0.25]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(capsys, ["classify", "--family", path]) == (3, "", f"error: {message}\n")
        warnings.filterwarnings("default", message="tabulated spectrum")
        code, out, err = run(capsys, ["classify", "--family", path])
    assert (code, err) == (0, f"warning: {message}\n") and out.startswith("{")


def test_family_documents_parse():
    import math
    from tractal import spectra
    from tractal.sequences import SequenceDescriptor as S
    cases = [
        ({"family": "euler", "r": {"kind": "explicit", "values": [0, 1, 2]}},
         spectra.euler(S.explicit([0, 1, 2]))),
        ({"family": "korobov", "r": {"kind": "constant", "c": 1.5},
          "g": {"kind": "power", "c": 1.0, "alpha": -2.0}},
         spectra.korobov(S.constant(1.5), S.power(1.0, -2.0))),
        ({"family": "gaussian", "gamma_sq": {"kind": "power", "c": 2.0, "alpha": -1.0}},
         spectra.gaussian(S.power(2.0, -1.0))),
        ({"family": "analytic_korobov", "omega": 0.5,
          "a": {"kind": "log_growth", "theta": 1.0}, "b": {"kind": "constant", "c": 1.0}},
         spectra.analytic_korobov(0.5, S.log_growth(1.0), S.constant(1.0))),
        ({"family": "custom", "tables": [[1.0, 0.5], [1.0, 0.25]],
          "tail": {"kind": "geometric", "ratio": 0.5}, "tau0": 0.0, "a_star": 2.0},
         spectra.custom_tabulated([[1.0, 0.5], [1.0, 0.25]], tau0=0.0, a_star=2.0,
                                  tail=spectra.TailModel("geometric", ratio=0.5))),
    ]
    for doc, spec in cases:
        got = cli.parse_family(doc)
        assert got.family == spec.family
        for k in (1, 2, 5):
            assert math.isclose(
                got.factor(k).eigenvalue(3), spec.factor(k).eigenvalue(3),
                rel_tol=1e-15)


def test_explicit_sequence_document(capsys, family_file):
    doc = {"family": "euler", "r": {"kind": "explicit", "values": [0, 1, 1, 3]}}
    path = family_file("e.json", doc)
    code, out, _ = run(capsys, ["classify", "--family", path, "--criterion", "nor"])
    assert code == 0
    rep = json.loads(out)
    assert rep["spt"] is False and rep["qpt"] is True


@pytest.mark.parametrize("doc", [
    {"family": "wiener", "r": {"kind": "constant", "c": "abc"}},
    {"family": "wiener", "r": {"kind": "constant", "c": "1"}},
    {"family": "wiener", "r": {"kind": "constant", "c": True}},
    {"family": "wiener", "r": {"kind": "constant", "c": [1]}},
    {"family": "wiener", "r": {"kind": "constant", "c": 10 ** 400}},
    {"family": "korobov", "r": {"kind": "power", "c": 1, "alpha": None},
     "g": {"kind": "constant", "c": 1}},
    {"family": "euler", "r": {"kind": "log_growth", "theta": "2"}},
    {"family": "euler", "r": {"kind": "explicit", "values": [0, "1"]}},
    {"family": "euler", "r": {"kind": "explicit", "values": 5}},
    {"family": "euler", "r": {"kind": "explicit", "values": [0, 1], "limit": "z"}},
    {"family": "euler", "r": {"kind": "explicit", "values": [0, 1], "liminf_log_ratio": [2]}},
    {"family": "analytic_korobov", "omega": True, "a": {"kind": "constant", "c": 1},
     "b": {"kind": "constant", "c": 1}},
    {"family": "custom", "tables": 5},
    {"family": "custom", "tables": [[1, "x"]]},
    {"family": "custom", "tables": [5]},
    {"family": "custom", "tables": [[1, 0.5]], "tail": {"kind": "geometric", "ratio": "0.5"}},
    {"family": "custom", "tables": [[1, 0.5]], "tail": {"kind": "power", "exponent": {}}},
    {"family": "custom", "tables": [[1, 0.5]], "tail": "power"},
    {"family": "custom", "tables": [[1, 0.5]], "tau0": "0"},
    {"family": "custom", "tables": [[1, 0.5]], "a_star": False},
    {"family": "custom", "tables": [[1, 0.5]], "b_limit": -1.0},
    {"family": ["euler"], "r": {"kind": "constant", "c": 1}},
    {"family": "euler", "r": {"kind": {}, "c": 1}},
])
def test_malformed_document_is_invalid_input(capsys, family_file, doc):
    path = family_file("bad.json", doc)
    code, _, err = run(capsys, ["classify", "--family", path])
    assert code == 3 and err.startswith("error: ")


NEGATIVE_RATE = {"kind": "explicit", "values": [1, 0.5, 0.25], "liminf_log_ratio": -1}


@pytest.mark.parametrize("doc", [
    {"family": "gaussian", "gamma_sq": NEGATIVE_RATE},
    {"family": "korobov", "r": {"kind": "constant", "c": 1}, "g": NEGATIVE_RATE},
])
@pytest.mark.parametrize("criterion", ["abs", "nor"])
def test_negative_declared_rate_of_a_nonincreasing_sequence(capsys, family_file, doc,
                                                            criterion):
    # s_k <= s_1 puts liminf ln(1/s_k)/ln k at or above zero
    path = family_file("neg.json", doc)
    code, out, err = run(capsys, ["classify", "--family", path, "--criterion", criterion])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "liminf_log_ratio" in err
    assert "Traceback" not in err


INVALID_LIMIT_DOCS = [
    {"family": "korobov", "r": {"kind": "constant", "c": 1},
     "g": {"kind": "explicit", "values": [0.5], "limit": 2}},
    {"family": "euler", "r": {"kind": "explicit", "values": [1, 2], "limit": -5}},
]


@pytest.mark.parametrize("doc", INVALID_LIMIT_DOCS)
@pytest.mark.parametrize("argv", [
    ["classify", "--criterion", "nor"],
    ["classify", "--criterion", "abs"],
    ["complexity", "--epsilon", "0.5", "--d", "2"],
    ["sweep", "--epsilon", "0.5", "--d", "1:3"],
    ["oracle-compare", "--d", "2"],
])
def test_invalid_declared_limit_exits_3_under_every_command(capsys, family_file, doc, argv):
    # the declared limit is checked when the document is read, before any
    # command uses it
    path = family_file("limit.json", doc)
    code, out, err = run(capsys, argv[:1] + ["--family", path] + argv[1:])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "declared limit" in err


# Declarations an explicit sequence without an evaluator contradicts: its
# values stay at the last one, so its limits are decided.
DISAGREEING_DOCS = [
    {"family": "gaussian", "gamma_sq": {"kind": "explicit", "values": [1, 0.5, 0.25],
                                        "liminf_log_ratio": 1.0, "limit": 0.0}},
    {"family": "korobov",
     "r": {"kind": "explicit", "values": [1, 2, 3], "liminf_log_ratio": 1.0, "limit": 3.0},
     "g": {"kind": "explicit", "values": [1, 0.5], "liminf_log_ratio": 2.0, "limit": 0.0}},
]


@pytest.mark.parametrize("doc", DISAGREEING_DOCS)
@pytest.mark.parametrize("argv", [
    ["classify", "--criterion", "nor"],
    ["complexity", "--epsilon", "0.5", "--d", "2"],
    ["sweep", "--epsilon", "0.5", "--d", "1:3"],
])
def test_declaration_against_an_eventually_constant_sequence_exits_3(capsys, family_file,
                                                                      doc, argv):
    # such a declaration once overrode the values: the korobov document
    # classified as SPT although its second ratio is constant
    path = family_file("constant.json", doc)
    code, out, err = run(capsys, argv[:1] + ["--family", path] + argv[1:])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "eventually constant" in err


# r_k = ceil(1e308 * ln(k+1)) is infinite from k = 6 on
HUGE_LOG_GROWTH = {"kind": "log_growth", "theta": 1e308}


@pytest.mark.parametrize("doc", [
    {"family": "korobov", "r": HUGE_LOG_GROWTH, "g": {"kind": "constant", "c": 1}},
    {"family": "euler", "r": HUGE_LOG_GROWTH},
    {"family": "wiener", "r": HUGE_LOG_GROWTH},
])
@pytest.mark.parametrize("argv", [
    ["classify", "--criterion", "nor"],
    ["complexity", "--d", "8"],
    ["sweep", "--d", "1:8"],
    ["oracle-compare", "--d", "2"],
])
def test_overflowing_log_growth_keeps_the_exit_code_contract(capsys, family_file, doc, argv):
    path = family_file("huge.json", doc)
    code, _, err = run(capsys, argv[:1] + ["--family", path] + argv[1:])
    assert code in (0, 3) and "Traceback" not in err
    if doc["family"] == "korobov" and argv[0] in ("complexity", "sweep"):
        assert code == 0  # a korobov factor with r_k = inf is (1, g_k, g_k, 0, ...)


def test_underflowing_leading_eigenvalue_is_named_as_such(capsys, family_file):
    # euler r = 1000: lam(1) = (pi/2)**-2002, about 1e-392, is positive but
    # below the smallest double
    path = family_file("euler.json", {"family": "euler", "r": {"kind": "constant", "c": 1000}})
    code, out, err = run(capsys, ["complexity", "--family", path, "--d", "2", "--epsilon", "0.1"])
    assert (code, out) == (3, "")
    assert err == "error: leading eigenvalue underflows below the smallest double at k=1\n"
    code, out, _ = run(capsys, ["classify", "--family", path, "--criterion", "abs"])
    assert code == 0 and json.loads(out)["spt"] is True


@pytest.mark.parametrize("doc, message", [
    pytest.param({"family": "custom", "tables": [[1.0, 0.5], [1e400, 0.5]]},
                 "table 2: eigenvalues must be finite", id="leading-entry"),
    pytest.param({"family": "custom", "tables": [[1.0, 0.5, 1e400]]},
                 "table 1: eigenvalues must be finite", id="last-entry"),
    pytest.param({"family": "custom", "tables": [[1.0, 0.5]],
                  "tail": {"kind": "power", "exponent": 1e400}},
                 "tail: power exponent must be positive and finite", id="tail-exponent"),
])
@pytest.mark.parametrize("argv", [
    ["classify", "--criterion", "nor"],
    ["sweep", "--epsilon", "0.5", "--d", "1"],
    ["oracle-compare", "--d", "1"],
])
def test_non_finite_custom_numbers_exit_3(capsys, family_file, doc, message, argv):
    # JSON reads 1e400 as infinity
    path = family_file("inf.json", doc)
    code, out, err = run(capsys, argv[:1] + ["--family", path] + argv[1:])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and message in err


VALID_DOCS = [
    KOROBOV_DOC,
    GAUSS_DOC,
    {"family": "gaussian", "gamma_sq": {"kind": "explicit", "values": [1, 0.5, 0.25],
                                        "liminf_log_ratio": 0.0, "limit": 0.25}},
    {"family": "euler", "r": {"kind": "log_growth", "theta": 1.0}},
    {"family": "wiener", "r": {"kind": "constant", "c": 1}},
    {"family": "analytic_korobov", "omega": 0.5, "a": {"kind": "power", "c": 1, "alpha": 1},
     "b": {"kind": "constant", "c": 1}},
    {"family": "custom", "tables": [[1.0, 0.5, 0.25], [1.0, 0.25]],
     "tail": {"kind": "power", "exponent": 3}, "tau0": 0.5, "a_star": 1.0, "b_limit": 1.0},
    {"family": "custom", "tables": [[1.0, 0.5]], "tail": {"kind": "geometric", "ratio": 0.5}},
    {"family": "korobov",
     "r": {"kind": "explicit", "values": [1, 2, 3], "liminf_log_ratio": 0.0, "limit": 3.0},
     "g": {"kind": "explicit", "values": [1, 0.5], "liminf_log_ratio": 0.0, "limit": 0.5}},
]

ODD_VALUES = ["abc", "1", "power", "geometric", True, False, None, 0, 1, -1, 0.5, 2.5,
              1e6, -1e6, 1e300, 10 ** 400, float("inf"), float("-inf"), float("nan"),
              [], [1], [[1, "x"]], {}, {"kind": "constant", "c": 1}]


def _paths(node, prefix=()):
    """The key path of every node, the root's () included."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    """A valid family document with one or two nodes replaced or deleted."""
    doc = json.loads(json.dumps(draw(st.sampled_from(VALID_DOCS))))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = json.loads(json.dumps(draw(st.sampled_from(ODD_VALUES))))
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


@given(mutated_documents(), st.sampled_from([
    ["classify", "--criterion", "nor"],
    ["classify", "--criterion", "abs"],
    ["complexity", "--epsilon", "0.5", "--d", "2", "--cap", "1000"],
]))
@settings(max_examples=200, deadline=None)
def test_mutated_documents_keep_the_exit_code_contract(doc, command):
    # an exception escaping main would be a traceback with exit code 1
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "family.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main(command[:1] + ["--family", path] + command[1:])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


# runs one command in a fresh interpreter, so that its stdout is a real pipe
MAIN = "import sys\nfrom tractal import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("reads", [0, 1], ids=["closed-at-once", "closed-after-one-read"])
@pytest.mark.parametrize("argv", [
    ["classify", "--criterion", "nor"],
    # ~90 KB of CSV, more than a pipe holds: closed after one read, the pipe
    # closes in the middle of the write
    ["sweep", "--criterion", "nor", "--epsilon", "0.5,0.4,0.3,0.2", "--d", "1:800"],
], ids=["classify", "long-sweep"])
def test_a_closed_stdout_ends_the_command_quietly(family_file, argv, reads):
    import subprocess
    import sys

    path = family_file("k.json", KOROBOV_DOC)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-c", MAIN, argv[0], "--family", path, *argv[1:]],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(reads)) == reads
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (cli.EXIT_OK, b"")
