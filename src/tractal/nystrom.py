"""Quadrature-based eigenvalue estimation for the univariate operators.

Serves as an independent oracle for the closed-form spectra and as the only
numerical source for wiener kernels with r >= 1, whose eigenvalues have no
known closed form.

The operator with kernel K against the domain weight is discretized on a
quadrature grid as A = D**(1/2) K D**(1/2) with D = diag(weights), whose
eigenvalues converge to the operator's.  Kernels with a derivative kink on
the diagonal (min-type, periodic series) limit plain convergence to second
order in the node count, so estimates combine the n-node and 2n-node grids:
the returned eigenvalues are the Richardson combination (4*lam_2n - lam_n)/3
and the n -> 2n gap is reported alongside as the refinement error.

The Gauss-Legendre rule is numpy's ``leggauss``, bit for bit, with its roots
found from the tridiagonal Jacobi matrix in O(n**2) (scipy's LAPACK
``dsterf``, imported on first use, so importing this module loads no scipy).
The korobov series kernel sums its cosine terms as blocks of Gram products
G @ G.T of the per-node features sqrt(w_j) * (cos 2*pi*j*x, sin 2*pi*j*x).
"""
from __future__ import annotations

import math
import warnings
from math import factorial
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NoClosedFormError
from . import spectra
from .sequences import SequenceDescriptor

UNIT_INTERVAL = "unit_interval"
WEIGHTED_LINE = "weighted_line"

_NEGATIVE_TOL = 1e-10
_KOROBOV_BLOCK = 256  # series terms per Gram product in the korobov kernel


class KernelSpec(NamedTuple):
    """A univariate kernel together with its integration domain.

    kinds: ``euler_iterated(r)``, ``wiener_integral(r)``,
    ``korobov_series(alpha, beta, series_cutoff)``,
    ``gaussian_weighted(gamma_sq)``.
    """

    kind: str
    r: int = 0
    alpha: float = 0.0
    beta: float = 0.0
    series_cutoff: int = 0
    gamma_sq: float = 0.0

    @property
    def domain(self) -> str:
        return WEIGHTED_LINE if self.kind == "gaussian_weighted" else UNIT_INTERVAL


def euler_iterated(r: int) -> KernelSpec:
    if r < 0 or r != int(r):
        raise InvalidInputError(f"r must be a nonnegative integer, got {r}")
    return KernelSpec(kind="euler_iterated", r=int(r))


def wiener_integral(r: int) -> KernelSpec:
    if r < 0 or r != int(r):
        raise InvalidInputError(f"r must be a nonnegative integer, got {r}")
    return KernelSpec(kind="wiener_integral", r=int(r))


def korobov_series(alpha: float, beta: float, series_cutoff: int = 10**4) -> KernelSpec:
    if alpha <= 0.5:
        raise InvalidInputError(f"alpha must exceed 1/2 for pointwise convergence, got {alpha}")
    if not 0.0 < beta <= 1.0:
        raise InvalidInputError(f"beta must lie in (0,1], got {beta}")
    if series_cutoff < 1:
        raise InvalidInputError(f"series cutoff must be >= 1, got {series_cutoff}")
    return KernelSpec(kind="korobov_series", alpha=float(alpha), beta=float(beta),
                      series_cutoff=int(series_cutoff))


def gaussian_weighted(gamma_sq: float) -> KernelSpec:
    if gamma_sq <= 0:
        raise InvalidInputError(f"gamma^2 must be positive, got {gamma_sq}")
    return KernelSpec(kind="gaussian_weighted", gamma_sq=float(gamma_sq))


class SpectrumEstimate(NamedTuple):
    eigenvalues: np.ndarray
    node_count: int
    refinement_error: np.ndarray


class DeviationReport(NamedTuple):
    estimated: np.ndarray
    reference: np.ndarray
    deviations: np.ndarray
    max_deviation: float
    node_count: int


def quadrature_rule(domain: str, n: int):
    """Nodes and weights: Gauss-Legendre mapped to [0,1], or Gauss-Hermite
    normalized against exp(-x**2)/sqrt(pi) so the weights sum to one."""
    if n < 1:
        raise InvalidInputError(f"need at least 1 node, got {n}")
    if domain == UNIT_INTERVAL:
        x, w = _gauss_legendre(n)
        return (x + 1.0) / 2.0, w / 2.0
    if domain == WEIGHTED_LINE:
        with np.errstate(all="ignore"):  # finiteness is checked right below
            x, w = np.polynomial.hermite.hermgauss(n)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
            raise InvalidInputError(
                f"hermite rule with {n} nodes is numerically unstable; stay at or below 200")
        return x, w / math.sqrt(math.pi)
    raise InvalidInputError(f"unknown domain {domain!r}")


def kernel_matrix(spec: KernelSpec, nodes: np.ndarray) -> np.ndarray:
    """Kernel evaluated on a node grid (the min-kernel base for euler)."""
    x = np.asarray(nodes, dtype=float)
    if spec.kind in ("euler_iterated",) or (spec.kind == "wiener_integral" and spec.r == 0):
        return np.minimum.outer(x, x)
    if spec.kind == "wiener_integral":
        r = spec.r
        q, wq = np.polynomial.legendre.leggauss(r + 1)
        q = (q + 1.0) / 2.0
        wq = wq / 2.0
        mn = np.minimum.outer(x, x)
        K = np.zeros((x.size, x.size))
        for t, wt in zip(q, wq):
            u = t * mn
            K += wt * (x[:, None] - u) ** r * (x[None, :] - u) ** r
        return K * mn / factorial(r) ** 2
    if spec.kind == "korobov_series":
        return _korobov_series_matrix(x, spec.alpha, spec.beta, spec.series_cutoff)
    return np.exp(-spec.gamma_sq * np.subtract.outer(x, x) ** 2)


def _gauss_legendre(n):
    """numpy's ``leggauss(n)`` with its roots taken from the tridiagonal
    Jacobi matrix by LAPACK ``dsterf`` in O(n**2) (Golub and Welsch) instead
    of a dense eigen-solve of the companion matrix.  The Newton step and the
    weights follow ``leggauss`` line for line, and so do its results."""
    from scipy.linalg import lapack

    legendre = np.polynomial.legendre
    c = np.array([0] * n + [1])
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    x, info = lapack.dsterf(np.zeros(n), off) if n > 1 else (np.zeros(1), 0)
    if info:
        raise np.linalg.LinAlgError(f"dsterf did not converge for the {n}-node rule")
    dy = legendre.legval(x, c)
    df = legendre.legval(x, legendre.legder(c))
    x -= dy / df
    fm = legendre.legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def _korobov_series_matrix(x, alpha, beta, J):
    # 2*beta*j**(-2*alpha)*cos(2*pi*j*(x - y)) = g_j(x) . g_j(y) with
    # g_j = sqrt(2*beta*j**(-2*alpha)) * (cos 2*pi*j*x, sin 2*pi*j*x), so a
    # block of terms is one Gram product G @ G.T, which BLAS forms exactly
    # symmetric
    K = np.ones((x.size, x.size))
    tx = 2.0 * math.pi * x
    for start in range(1, J + 1, _KOROBOV_BLOCK):
        j = np.arange(start, min(start + _KOROBOV_BLOCK, J + 1), dtype=float)
        sw = np.sqrt(2.0 * beta * j ** (-2.0 * alpha))
        theta = np.multiply.outer(tx, j)
        G = np.hstack([np.cos(theta) * sw, np.sin(theta) * sw])
        K += G @ G.T
    return K


def _symmetrized_eigs(spec: KernelSpec, n: int) -> np.ndarray:
    x, w = quadrature_rule(spec.domain, n)
    sw = np.sqrt(w)
    A = np.outer(sw, sw)
    A *= kernel_matrix(spec, x)  # the kernel matrix is freed before the solve
    lam = np.linalg.eigvalsh(A)
    if spec.kind == "euler_iterated" and spec.r >= 1:
        # the iterated operator is A**(r+1); A is symmetric, so its
        # eigenvalues are those of A raised to r+1
        lam = np.sort(lam ** (spec.r + 1))
    return lam[::-1]


def spectrum_estimate(spec: KernelSpec, n_nodes: int, m: int) -> SpectrumEstimate:
    """Top m operator eigenvalues from the n and 2n node grids.

    Small negative values (above -1e-10) are clipped to zero with a warning;
    anything below that contradicts positive semi-definiteness and raises.
    """
    if m > n_nodes:
        raise InvalidInputError(f"m={m} exceeds the node count {n_nodes}")
    if m < 1:
        raise InvalidInputError(f"m must be >= 1, got {m}")
    coarse = _symmetrized_eigs(spec, n_nodes)[:m]
    fine = _symmetrized_eigs(spec, 2 * n_nodes)[:m]
    combined = (4.0 * fine - coarse) / 3.0
    # exactly tied eigenvalue pairs can come back microscopically inverted
    order = np.argsort(-combined, kind="stable")
    combined = combined[order]
    if combined.min() < -_NEGATIVE_TOL:
        raise InvalidInputError(
            f"eigenvalue {combined.min():.3e} below -1e-10: kernel is not PSD")
    if combined.min() < 0.0:
        warnings.warn("clipping eigenvalues in [-1e-10, 0) to zero", stacklevel=2)
        combined = np.maximum(combined, 0.0)
    return SpectrumEstimate(eigenvalues=combined, node_count=n_nodes,
                            refinement_error=np.abs(fine - coarse)[order])


def closed_form_eigenvalues(spec: KernelSpec, m: int) -> np.ndarray:
    """Reference spectrum for kernels that have one: the first m eigenvalues
    of the matching ``spectra`` family factor, as a fresh array."""
    if spec.kind == "euler_iterated" or (spec.kind == "wiener_integral" and spec.r == 0):
        family = spectra.euler(SequenceDescriptor.constant(spec.r))
    elif spec.kind == "wiener_integral":
        raise NoClosedFormError(f"wiener kernels with r={spec.r} >= 1 have no closed form")
    elif spec.kind == "korobov_series":
        family = spectra.korobov(SequenceDescriptor.constant(spec.alpha),
                                 SequenceDescriptor.constant(spec.beta))
    else:
        family = spectra.gaussian(SequenceDescriptor.constant(spec.gamma_sq))
    return np.array(family.factor(1).values(1, m + 1))


def verify_against_closed_form(spec: KernelSpec, n_nodes: int, m: int) -> DeviationReport:
    """Relative deviations of the estimated spectrum from the closed form."""
    reference = closed_form_eigenvalues(spec, m)
    est = spectrum_estimate(spec, n_nodes, m)
    deviations = np.abs(est.eigenvalues - reference) / reference
    return DeviationReport(
        estimated=est.eigenvalues,
        reference=reference,
        deviations=deviations,
        max_deviation=float(deviations.max()),
        node_count=n_nodes,
    )
