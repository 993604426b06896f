"""Independent oracles shared by the test suite.

Everything here recomputes quantities by a route different from the library:
tail sums use direct summation with Euler-Maclaurin or geometric remainders
(never the zeta reduction), box sums enumerate index tuples explicitly,
threshold counts come from the dense dimension-order counter, top-m
values from a best-first search over the whole index lattice, and Nystrom
matrices from numpy's own quadrature rules and the series recurrence.
"""
import heapq
import math
import random

import numpy as np

from tractal import nystrom, products, spectra
from tractal.errors import InvalidInputError
from tractal.sequences import SequenceDescriptor as S

_EM_HEAD = 2000


def em_power_tail(coeff, x, start):
    """sum_{j >= start} coeff * (j - 1/2)**(-x), x > 1, to ~1e-15 absolute.

    Direct summation to j = 2000, then Euler-Maclaurin on f(u) = (u-1/2)**-x.
    """
    head_end = max(start, _EM_HEAD)
    j = np.arange(start, head_end + 1, dtype=float)
    total = float(np.sum((j - 0.5) ** -x))
    a = head_end + 1
    u = a - 0.5
    total += u ** (1.0 - x) / (x - 1.0)          # integral
    total += 0.5 * u ** -x                        # f(a)/2
    total += x * u ** (-x - 1.0) / 12.0           # -f'(a)/12
    total -= x * (x + 1.0) * (x + 2.0) * u ** (-x - 3.0) / 720.0
    return coeff * total


def em_integer_power_tail(coeff, x, start):
    """sum_{m >= start} coeff * m**-x, x > 1."""
    head_end = max(start, _EM_HEAD)
    m = np.arange(start, head_end + 1, dtype=float)
    total = float(np.sum(m ** -x))
    a = float(head_end + 1)
    total += a ** (1.0 - x) / (x - 1.0)
    total += 0.5 * a ** -x
    total += x * a ** (-x - 1.0) / 12.0
    total -= x * (x + 1.0) * (x + 2.0) * a ** (-x - 3.0) / 720.0
    return coeff * total


def factor_tau_tail(spec, k, tau, J):
    """sum_{j > J} lam(k, j)**tau, computed independently of tail_sum_H."""
    fam = spec.family
    if fam in (spectra.Family.EULER, spectra.Family.WIENER):
        x = tau * (2.0 * spec.r.value(k) + 2.0)
        return em_power_tail(math.pi ** -x, x, J + 1)
    if fam is spectra.Family.KOROBOV:
        x = 2.0 * spec.r.value(k) * tau
        gt = spec.g.value(k) ** tau
        m_done = J // 2  # pairs fully inside the box when J is odd
        tail = em_integer_power_tail(2.0 * gt, x, m_done + 1)
        if J % 2 == 0:  # odd partner of pair m_done sits just outside
            tail += gt * float(m_done) ** -x
        return tail
    if fam is spectra.Family.GAUSSIAN:
        w = spectra.gaussian_omega(spec.gamma_sq.value(k))
        ct = (1.0 - w) ** tau
        # sum_{j > J} w**(tau*(j-1)) = w**(tau*J) / (1 - w**tau)
        return ct * w ** (tau * J) / (1.0 - w ** tau)
    if fam is spectra.Family.ANALYTIC_KOROBOV:
        a_k, b_k = spec.a.value(k), spec.b.value(k)
        c = tau * a_k * math.log(1.0 / spec.omega)
        total = 0.0
        m_done = J // 2
        if J % 2 == 0:
            total += math.exp(-c * float(m_done) ** b_k)
        m = m_done + 1
        while True:
            term = math.exp(-c * float(m) ** b_k)
            total += 2.0 * term
            if term < 1e-18 * max(total, 1e-30) or term == 0.0:
                return total
            m += 1
    # custom: finite table + declared tail model
    row = np.asarray(spec.tables[min(k, len(spec.tables)) - 1], dtype=float)
    size = row.size
    total = float(np.sum(row[J:] ** tau)) if J < size else 0.0
    if spec.tail is None:
        return total
    start = max(J + 1 - size, 1)
    if spec.tail.kind == "geometric":
        q = spec.tail.ratio ** tau
        return total + row[-1] ** tau * q ** start / (1.0 - q)
    x = spec.tail.exponent * tau
    return total + em_integer_power_tail(row[-1] ** tau * size ** x, x, max(J, size) + 1)


def box_products(problem, J):
    """All prod_k lam(k, j_k) over the box j_k <= J, unsorted, multiplication
    in dimension order."""
    vals = None
    for fac in problem.factors:
        arr = np.array(fac.values(1, J + 1))
        vals = arr if vals is None else np.multiply.outer(vals, arr).ravel()
    return vals


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
    sfx = problem.log_suffix_leading if log_space else problem.suffix_leading
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


def lattice_top(problem, m):
    """The m largest product eigenvalues by best-first search over the whole
    index lattice, kept as the reference for the library's tree walk.

    Every lattice neighbour of a popped tuple is pushed unless already seen,
    and each key is recomputed from all d eigenvalues: a product in
    dimension order, or in log space the sum of their logs.
    """
    d = problem.d
    facs = problem.factors
    use_log = problem.uses_log

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
        out[i] = math.exp(-negkey) if use_log else -negkey
        for k in range(d):
            nxt = idx[:k] + (idx[k] + 1,) + idx[k + 1:]
            if nxt not in seen:
                lam = facs[k].eigenvalue(nxt[k])
                if lam > 0.0:
                    seen.add(nxt)
                    heapq.heappush(heap, (-key_of(nxt), nxt))
    return out


def random_family(rng: random.Random, allow_wiener=True, allow_custom=True):
    """A seeded draw of a family spec with admissible random parameters."""
    choices = ["euler", "korobov", "gaussian", "analytic_korobov"]
    if allow_wiener:
        choices.append("wiener")
    if allow_custom:
        choices.append("custom")
    name = rng.choice(choices)
    if name in ("euler", "wiener"):
        rs = sorted(rng.randint(0, 3) for _ in range(5))
        spec = (spectra.euler if name == "euler" else spectra.wiener)(S.explicit(rs))
    elif name == "korobov":
        rs = sorted(round(rng.uniform(0.75, 3.0), 3) for _ in range(5))
        gs = sorted((round(rng.uniform(0.05, 1.0), 3) for _ in range(5)), reverse=True)
        spec = spectra.korobov(S.explicit(rs), S.explicit(gs))
    elif name == "gaussian":
        g2 = sorted((round(rng.uniform(0.05, 4.0), 3) for _ in range(5)), reverse=True)
        spec = spectra.gaussian(S.explicit(g2))
    elif name == "analytic_korobov":
        om = round(rng.uniform(0.3, 0.7), 3)
        a = sorted(round(rng.uniform(0.5, 3.0), 3) for _ in range(5))
        b = round(rng.uniform(1.0, 2.0), 3)
        spec = spectra.analytic_korobov(om, S.explicit(a), S.constant(b))
    else:
        q = round(rng.uniform(0.2, 0.8), 3)
        lead = round(rng.uniform(0.5, 2.0), 3)
        tables = []
        for _ in range(5):
            n_entries = rng.randint(3, 6)
            tables.append([lead * q ** i for i in range(n_entries)])
        spec = spectra.custom_tabulated(tables, tail=spectra.TailModel("geometric", ratio=q),
                                        tau0=0.0)
    return name, spec


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
