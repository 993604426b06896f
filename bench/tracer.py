"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from outside the program: while the tracer is installed,
each public function of a tractal module (plus a few private names the
layers call each other through) is replaced by a wrapper, in every module
namespace that holds it, because callers look names up there (``spectra``
and ``tractability`` import ``riemann_zeta`` by name, ``nystrom`` looks up
``kernel_matrix`` as a module global).  Nothing inside ``src/tractal``
is edited.

A span is ``[name, start, end, parent, op, thread]``.  Self time is computed
by one sweep over all span boundaries: at every instant the wall time is
split evenly among the active spans that have no active child, so the self
times of all spans add up to the time covered by the root spans even when
the sweep command's thread pool runs two spans at once.

Work counts are computed from arguments and results at the wrapper (for
example the number of tuples a count returned), not measured inside the
program.
"""
from __future__ import annotations

import contextlib
import gzip
import json
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

import tractal
from tractal import cli, complexity, nystrom, products, special, spectra, tractability

MODULES = {
    "products": products,
    "special": special,
    "spectra": spectra,
    "complexity": complexity,
    "tractability": tractability,
    "nystrom": nystrom,
    "cli": cli,
}

# Names wrapped per layer; "Class.attr" wraps a class attribute.  Names that
# a later version of the program no longer has are skipped.
WRAPPED = {
    "products": ("ProductProblem.from_family", "ProductProblem.__init__",
                 "product_eigenvalues_top", "count_products_above",
                 "count_products_above_log", "trace_sum", "log_trace_sum",
                 "brute_force_oracle", "oracle_validity_floor"),
    "special": ("riemann_zeta", "g_function", "g_root"),
    "spectra": ("_factor", "FactorSpectrum.__init__", "tail_sum_H", "factor_power_sum",
                "normalized_factor_power_sum", "second_ratio", "tau_zero",
                "h_descriptor", "truncation_index", "factor_eigenvalue"),
    "complexity": ("info_complexity", "minimal_error", "lemma_bound",
                   "log_normalized_trace", "pt_functional", "qpt_functional"),
    "tractability": ("classify", "limit_A_star", "limit_B", "spt_exponent",
                     "qpt_exponent", "euler_abs_spt_exponent",
                     "korobov_exp_weight_spt_exponent"),
    "nystrom": ("spectrum_estimate", "verify_against_closed_form",
                "closed_form_eigenvalues", "quadrature_rule", "kernel_matrix",
                "_symmetrized_eigs"),
    "cli": ("main", "run_sweep", "_load_family", "parse_family"),
}

# nystrom solves through numpy.linalg.eigvalsh, looked up on numpy.linalg.
EIG_SPAN = "nystrom.eigvalsh"

COUNT_FNS = ("products.count_products_above", "products.count_products_above_log")
TRACE_FNS = ("products.trace_sum", "products.log_trace_sum")
FACTOR_FNS = ("spectra._factor", "spectra.FactorSpectrum.__init__")
FUNCTIONAL_FNS = ("complexity.pt_functional", "complexity.qpt_functional",
                  "complexity.lemma_bound", "complexity.log_normalized_trace")


def _count_hook(counts, args, kwargs, result):
    counts["products.count_calls"] += 1
    counts["products.tuples_counted"] += result.count


def _top_hook(counts, args, kwargs, result):
    counts["products.top_values"] += len(result)


def _zeta_hook(counts, args, kwargs, result):
    counts["special.zeta_calls"] += 1
    counts.zeta_args.add(float(args[0]))


def _kernel_hook(counts, args, kwargs, result):
    counts["nystrom.kernel_entries"] += int(result.shape[0]) * int(result.shape[1])


def _increment(key):
    def hook(counts, args, kwargs, result):
        counts[key] += 1
    return hook


HOOKS = {
    "products.count_products_above": _count_hook,
    "products.count_products_above_log": _count_hook,
    "products.product_eigenvalues_top": _top_hook,
    "special.riemann_zeta": _zeta_hook,
    "spectra.FactorSpectrum.__init__": _increment("spectra.factors_built"),
    "spectra.tail_sum_H": _increment("spectra.tail_calls"),
    "tractability.classify": _increment("tractability.classify_calls"),
    "nystrom.spectrum_estimate": _increment("nystrom.estimates"),
    "nystrom.kernel_matrix": _kernel_hook,
    "cli.main": _increment("cli.commands"),
}


class _Counts(defaultdict):
    def __init__(self):
        super().__init__(int)
        self.zeta_args = set()


class Tracer:
    """Records spans while installed; uninstalled it costs nothing."""

    def __init__(self):
        self.spans = []
        self.counts = _Counts()
        self.zeta_distinct = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack = None
        self._patches = []

    # -- recording -------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, op=None):
        stack = self._stack()
        # a span opened on a worker thread (the sweep command's pool) hangs off
        # the innermost open span of the thread running the op
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, op,
                               threading.get_ident()])
        stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name, op=None):
        """A benchmark span (a round or an op) around calls into the layers."""
        idx = self._open(name, op)
        self._op_stack = self._stack()
        try:
            yield
        finally:
            self._close(idx)

    def end_round(self):
        """Fold the round's distinct zeta arguments into the running total."""
        self.zeta_distinct += len(self.counts.zeta_args)
        self.counts.zeta_args.clear()

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                with tracer._lock:
                    hook(tracer.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self):
        namespaces = [m.__dict__ for m in MODULES.values()] + [tractal.__dict__]
        for layer, names in WRAPPED.items():
            module = MODULES[layer]
            for attr in names:
                owner_name, _, member = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                raw = vars(owner).get(member) if owner is not None else None
                if raw is None:
                    continue
                span_name = f"{layer}.{attr}"
                if owner_name:
                    self._patch_class(owner, member, raw, span_name)
                else:
                    wrapped = self._wrap(span_name, raw)
                    for ns in namespaces:
                        for key, value in list(ns.items()):
                            if value is raw:
                                self._patches.append((ns, key, raw))
                                ns[key] = wrapped
        eig = np.linalg.eigvalsh
        self._patches.append((np.linalg.__dict__, "eigvalsh", eig))
        np.linalg.eigvalsh = self._wrap(EIG_SPAN, eig)

    def _patch_class(self, cls, member, raw, span_name):
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(span_name, raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self._wrap(span_name, raw.__func__))
        else:
            replacement = self._wrap(span_name, raw)
        self._patches.append((cls, member, raw))
        setattr(cls, member, replacement)

    def uninstall(self):
        for target, key, raw in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = raw
            else:
                setattr(target, key, raw)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """Self time of every span by the even-split sweep described above."""
        spans = self.spans
        events = []
        for i, span in enumerate(spans):
            events.append((span[1], 1, i))
            events.append((span[2], 0, -i))
        events.sort()
        out = [0.0] * len(spans)
        active_children = defaultdict(int)
        active = set()
        leaves = set()
        t_prev = None
        for t, is_start, key in events:
            if leaves:
                share = (t - t_prev) / len(leaves)
                for j in leaves:
                    out[j] += share
            t_prev = t
            i = key if is_start else -key
            parent = spans[i][3]
            if is_start:
                active.add(i)
                leaves.add(i)
                if parent in active:
                    active_children[parent] += 1
                    leaves.discard(parent)
            else:
                active.discard(i)
                leaves.discard(i)
                if parent in active:
                    active_children[parent] -= 1
                    if active_children[parent] == 0:
                        leaves.add(parent)
        return out

    def write(self, path, env):
        """Write every span and the environment as gzipped JSON."""
        doc = {"env": env,
               "fields": ["name", "start_s", "end_s", "parent", "op", "thread"],
               "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(tracer, traced, overhead_frac, cmd_threads):
    """Per-layer metrics, each a mean per traced round.

    ``traced`` are the rounds run with the tracer, ``overhead_frac`` is how
    much slower they ran than the untraced ones, and ``cmd_threads`` maps an
    op id to the TRACTAL_THREADS value of its sweep command.
    """
    rounds = len(traced)
    self_t = tracer.self_times()
    by_name = defaultdict(float)
    for span, t in zip(tracer.spans, self_t):
        by_name[span[0]] += t

    def total(names):
        return sum(by_name.get(n, 0.0) for n in names) / rounds

    def layer(prefix):
        return sum(t for n, t in by_name.items() if n.startswith(prefix + ".")) / rounds

    counts = tracer.counts
    per_round = {k: counts[k] / rounds for k in (
        "products.count_calls", "products.tuples_counted", "products.top_values",
        "special.zeta_calls", "spectra.factors_built", "spectra.tail_calls",
        "tractability.classify_calls", "nystrom.estimates", "nystrom.kernel_entries",
        "cli.commands", "cli.csv_bytes")}
    count_s = total(COUNT_FNS)
    nystrom_s = layer("nystrom")
    kernel_s = total(("nystrom.kernel_matrix",))
    eig_s = total((EIG_SPAN,))
    cmd_s = {None: [], 2: []}
    for span in tracer.spans:
        if span[0] == "cli.main":
            cmd_s.setdefault(cmd_threads.get(span[4]), []).append(span[2] - span[1])
    trace_wall = sum(rnd.wall for rnd in traced) / rounds
    layers_s = {name: layer(name) for name in MODULES}
    bench_s = layer("bench")
    zeta_calls = per_round["special.zeta_calls"]
    zeta_distinct = tracer.zeta_distinct / rounds
    m = {
        "products.count_s": (count_s, "s"),
        "products.count_calls": (per_round["products.count_calls"], "count"),
        "products.tuples_counted": (per_round["products.tuples_counted"], "count"),
        "products.tuples_per_s": (
            per_round["products.tuples_counted"] / count_s if count_s > 0 else 0.0, "1/s"),
        "products.top_s": (total(("products.product_eigenvalues_top",)), "s"),
        "products.top_values": (per_round["products.top_values"], "count"),
        "products.trace_s": (total(TRACE_FNS), "s"),
        "products.self_s": (layers_s["products"], "s"),
        "special.zeta_s": (total(("special.riemann_zeta",)), "s"),
        "special.zeta_calls": (zeta_calls, "count"),
        "special.zeta_distinct": (zeta_distinct, "count"),
        "special.zeta_useful_frac": (zeta_distinct / zeta_calls if zeta_calls else 0.0,
                                     "fraction"),
        "special.self_s": (layers_s["special"], "s"),
        "spectra.factor_s": (total(FACTOR_FNS), "s"),
        "spectra.factors_built": (per_round["spectra.factors_built"], "count"),
        "spectra.tail_s": (total(("spectra.tail_sum_H",)), "s"),
        "spectra.tail_calls": (per_round["spectra.tail_calls"], "count"),
        "spectra.self_s": (layers_s["spectra"], "s"),
        "complexity.self_s": (layers_s["complexity"], "s"),
        "complexity.functional_s": (total(FUNCTIONAL_FNS), "s"),
        "tractability.classify_s": (layers_s["tractability"], "s"),
        "tractability.classify_calls": (per_round["tractability.classify_calls"], "count"),
        "nystrom.estimate_s": (nystrom_s - kernel_s - eig_s, "s"),
        "nystrom.kernel_s": (kernel_s, "s"),
        "nystrom.eig_s": (eig_s, "s"),
        "nystrom.estimates": (per_round["nystrom.estimates"], "count"),
        "nystrom.kernel_entries": (per_round["nystrom.kernel_entries"], "count"),
        "cli.self_s": (layers_s["cli"], "s"),
        "cli.commands": (per_round["cli.commands"], "count"),
        "cli.csv_bytes": (per_round["cli.csv_bytes"], "count"),
        "cli.serial_cmd_s": (statistics.median(cmd_s[None]) if cmd_s[None] else 0.0, "s"),
        "cli.threaded_cmd_s": (statistics.median(cmd_s[2]) if cmd_s[2] else 0.0, "s"),
        "bench.self_s": (bench_s, "s"),
        "trace.wall_s": (trace_wall, "s"),
        "trace.accounted_frac": (
            (sum(layers_s.values()) + bench_s) / trace_wall if trace_wall > 0 else 0.0,
            "fraction"),
        "trace.overhead_frac": (overhead_frac, "fraction"),
    }
    return m
