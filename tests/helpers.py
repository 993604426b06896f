"""Independent oracles shared by the test suite.

Everything here recomputes quantities by a route different from the library:
threshold counts come from the dense dimension-order counter, grid counts
from one count per point, top-m values from a best-first search over the
whole index lattice, the folds over a problem's leads from all d of its
factors, and Nystrom matrices from numpy's own quadrature rules and the
series recurrence.

Re-exported from ``tractal.verify``, whose checks use them too: the tail-sum
oracle ``factor_tau_tail`` (direct summation with Euler-Maclaurin or
geometric remainders, never the zeta reduction) and the seeded family
generator ``random_family``; and from ``tractal.products`` the enumerated
box ``box_products``.  ``scaled_factor``, ``scaled`` and
``brute_force_log_oracle`` are test-only constructions on the library's
factors and boxes.
"""
import functools
import heapq
import itertools
import math
import operator

import numpy as np

from tractal import complexity, nystrom, products, spectra
from tractal.errors import InvalidInputError
from tractal.products import box_products  # noqa: F401
from tractal.verify import factor_tau_tail, random_family  # noqa: F401
from tractal.xreal import exp_or_inf


def dense_count(problem, T, cap, log_space):
    """The dense dimension-order threshold counter, kept as the reference
    for the library's sparse-excitation engine.

    Depth-first in dimension order; at depth k a prefix survives while
    prefix * lam(k, j) * (leading product of the later dimensions) > T, with
    T and the products in log space when log_space is set (logs by
    ``math.log``).  The last dimension is counted in blocks.  Every prefix pushed counts
    toward the cap as well, so a count can saturate below cap tuples.
    Returns a ``products.CountResult``.
    """
    d = problem.d
    facs = problem.factors
    # sfx[k] = prod_{k' >= k} lam(k', 1), or the sum of their logs, folded from the end
    leads = [math.log(f.leading) if log_space else f.leading for f in facs]
    sfx = list(itertools.accumulate(reversed(leads), operator.add if log_space else operator.mul,
                                    initial=0.0 if log_space else 1.0))[::-1]
    count = 0
    pushes = 0
    stack = [(0, 0.0 if log_space else 1.0)]
    while stack:
        k, P = stack.pop()
        fac = facs[k]
        if k == d - 1:
            j0 = 1
            width = 64  # most branches die early; widen only while surviving
            while True:
                block = np.array(fac.values(j0, j0 + width))
                if log_space:
                    vals = P + np.array([math.log(v) if v > 0.0 else -math.inf
                                         for v in block.tolist()])
                else:
                    vals = P * block
                good = vals > T
                n_good = int(good.argmin()) if not good.all() else vals.size
                count += n_good
                if count >= cap:
                    return products.CountResult(cap, True, cap)
                if n_good < vals.size:
                    break
                j0 += width
                width = min(width * 4, 1 << 13)
        else:
            s = float(sfx[k + 1])
            j = 1
            while True:
                lam = fac.eigenvalue(j)
                if lam <= 0.0:
                    break
                pfx = (P + math.log(lam)) if log_space else (P * lam)
                if not ((pfx + s) > T if log_space else (pfx * s) > T):
                    break
                stack.append((k + 1, pfx))
                pushes += 1
                if pushes >= cap:
                    return products.CountResult(cap, True, cap)
                j += 1
    return products.CountResult(count, False, cap)


class FullFolds:
    """The d-long folds over a problem's leads and second ratios that every
    query once made, kept as the reference for the library's folds, which
    stop at its table's marks (``unit_end``, ``nonincreasing``).

    Every row is read from the problem's factors, not from its table: the
    leading products, folded from the last dimension; ``hmax``, the suffix
    maxima of ln h_k with -inf past d; ``suffix(space)``, the leading suffix
    products in a space; ``band(space)``, the borderline window of a count;
    and ``accepts``, the dense rule's decision over all d dimensions.
    """

    def __init__(self, problem):
        self.problem = problem
        facs = problem.factors
        self.leads = [f.leading for f in facs]
        self.log_leads = [f.log_leading for f in facs]
        self.leading_product = functools.reduce(operator.mul, reversed(self.leads), 1.0)
        self.log_leading_product = functools.reduce(operator.add, reversed(self.log_leads), 0.0)
        log_h = [-f.ratio_head[0][0] for f in facs]
        self.hmax = list(itertools.accumulate(reversed(log_h), max, initial=-math.inf))[::-1]

    def suffix(self, space):
        """``sfx[k]``, the fold of the leads of dimensions k .. d - 1 in space."""
        leads = self.leads if space is products.DIRECT else self.log_leads
        return list(itertools.accumulate(reversed(leads), space.op, initial=space.unit))[::-1]

    def band(self, space):
        """The window ``(lo, hi)`` of a threshold T of space, as ``_band`` made it."""
        d, log_L = self.problem.d, self.log_leading_product
        scale = products._WINDOW_ULPS * (3 * d + 20)
        base = 1.0 + math.fsum(map(abs, self.log_leads))
        slack = d * 2.0 ** -1074 * max(self.suffix(products.DIRECT))

        def band(T):
            if space is products.DIRECT:
                log_lo = math.log(T - slack) if T - slack > 0.0 else -math.inf
                log_hi = math.log(T + slack)
            else:
                log_lo = log_hi = T
            w = scale * (base + abs(log_hi) + abs(log_hi - log_L))
            return log_lo - log_L - w, log_hi - log_L + w

        return band

    def accepts(self, js, T, space):
        """The dense rule for the tuple js: every dimension-order prefix of
        its terms, folded with the leads after it, exceeds T."""
        terms = [space.term(f.eigenvalue(j)) for f, j in zip(self.problem.factors, js)]
        P = space.unit
        for t, s in zip(terms, self.suffix(space)[1:]):
            P = space.op(P, t)
            if not T < space.op(P, s):
                return False
        return True


def per_point_complexity(spec, criterion, d_list, eps_list, cap):
    """``info_complexity`` at every (d, eps), d outer, each point counted by
    a walk of its own on its own ``from_family`` problem: the reference for
    the one-walk grid of ``complexity.info_complexity_grid``.  Raises the
    first error of the loop."""
    return [complexity.info_complexity(products.ProductProblem.from_family(spec, d),
                                       complexity.ComplexityQuery(eps, d, criterion), cap=cap)
            for d in d_list for eps in eps_list]


def scaled_factor(fac, c):
    """The factor with every eigenvalue multiplied by c > 0."""
    if c <= 0:
        raise InvalidInputError(f"scale constant must be positive, got {c}")
    return spectra.FactorSpectrum(lambda j: c * fac.eigenvalue(j))


def scaled(problem, constants):
    """The problem with each factor multiplied by its positive constant, and
    no family."""
    constants = list(constants)
    if len(constants) != problem.d:
        raise InvalidInputError("need one scale constant per dimension")
    return products.ProductProblem(map(scaled_factor, problem.factors, constants))


def brute_force_log_oracle(problem, J):
    """The logs of all products over the box j_k <= J, sorted descending.

    Each is the dimension-order sum of ``math.log`` terms, as the top-m walk
    forms it in log space; the log-space count compares such sums, not their
    ``exp``, with ln T.  A zero eigenvalue gives -inf.
    """
    return np.sort(products.box_folds(problem, J, products.LOG))[::-1]


def lattice_top(problem, m):
    """The m largest product eigenvalues by best-first search over the whole
    index lattice, kept as the reference for the library's tree walk.

    Every lattice neighbour of a popped tuple is pushed unless already seen,
    and each key is recomputed from all d eigenvalues: a product in
    dimension order, or in log space the sum of their logs, whose ``exp``
    is inf past the double range, as the library's values are.
    """
    d = problem.d
    facs = problem.factors
    use_log = problem.space is products.LOG

    def key_of(idx):
        if use_log:
            return products.log_fold(math.log(facs[k].eigenvalue(idx[k])) for k in range(d))
        v = 1.0
        for k in range(d):
            v = v * facs[k].eigenvalue(idx[k])
        return v

    start = (1,) * d
    heap = [(-key_of(start), start)]
    seen = {start}
    out = np.empty(m)
    for i in range(m):
        if not heap:
            raise InvalidInputError("spectrum exhausted before m values (zero eigenvalue hit)")
        negkey, idx = heapq.heappop(heap)
        out[i] = exp_or_inf(-negkey) if use_log else -negkey
        for k in range(d):
            nxt = idx[:k] + (idx[k] + 1,) + idx[k + 1:]
            if nxt not in seen:
                lam = facs[k].eigenvalue(nxt[k])
                if lam > 0.0:
                    seen.add(nxt)
                    heapq.heappush(heap, (-key_of(nxt), nxt))
    return out


def korobov_recurrence_matrix(x, alpha, beta, J):
    """1 + 2*beta*sum_{j <= J} j**(-2*alpha) cos(2*pi*j*(x_i - x_k)), with
    cos(2*pi*j*t) from the three-term recurrence on the upper triangle: the
    library's former korobov series kernel.

    The recurrence loses accuracy where |x_i - x_k| is near 0 or 1, growing
    with J (3e-11 at alpha 0.6, J 2000, on the 300-node Legendre grid)."""
    iu = np.triu_indices(x.size)
    diff = x[iu[0]] - x[iu[1]]
    c1 = np.cos(2.0 * math.pi * diff)
    vals = 1.0 + 2.0 * beta * c1
    prev = np.ones_like(c1)
    cur = c1
    for j in range(2, J + 1):
        prev, cur = cur, 2.0 * c1 * cur - prev
        vals += 2.0 * beta * j ** (-2.0 * alpha) * cur
    K = np.empty((x.size, x.size))
    K[iu] = vals
    K[(iu[1], iu[0])] = vals
    return K


def numpy_rule_estimate(spec, n_nodes, m):
    """Richardson eigenvalues and refinement errors of the n and 2n node
    grids, with each grid's operator matrix formed from numpy's
    ``leggauss``/``hermgauss`` rules as ``kernel * outer(sw, sw)``."""
    def eigs(n):
        if spec.domain == nystrom.UNIT_INTERVAL:
            x, w = np.polynomial.legendre.leggauss(n)
            x, w = (x + 1.0) / 2.0, w / 2.0
        else:
            x, w = np.polynomial.hermite.hermgauss(n)
            w = w / math.sqrt(math.pi)
        sw = np.sqrt(w)
        lam = np.linalg.eigvalsh(nystrom.kernel_matrix(spec, x) * np.outer(sw, sw))
        if spec.kind == "euler_iterated" and spec.r >= 1:
            lam = np.sort(lam ** (spec.r + 1))
        return lam[::-1][:m]

    coarse, fine = eigs(n_nodes), eigs(2 * n_nodes)
    combined = (4.0 * fine - coarse) / 3.0
    order = np.argsort(-combined, kind="stable")
    return combined[order], np.abs(fine - coarse)[order]
