"""The linearized block system shared by the solver, estimator and bounds.

All three stages linearize the same saddle-point system in x = (q, H),

    A = [ F      A12 ]      F = diag(d(D(q)q)/dq),
        [ A12^T  0   ]

to which the estimator appends unit telemetry rows selecting one flow or
head each. No stage assembles A: the network's sparse incidence supplies
every block, and each linear solve is dense on a symmetric positive
definite matrix built from those blocks.

- The Newton step eliminates dq and solves the Schur complement
  A12^T F^-1 A12, a weighted graph Laplacian of order N_p (the global
  gradient algorithm of Todini & Pilati, 1988).
- The weighted least-squares step factors the Gram matrix A^T W A of order
  L + N_p by Cholesky. Its x-independent part is assembled once per
  `NormalEquations`; each iterate adds only the F-dependent entries.
- The error bound factors the same Gram matrix and solves for the columns
  of A^T W whose row carries data uncertainty.

Both Gram solves go through `GramFactor`, a left-looking blocked Cholesky
written in numpy. Nearly all of its work is matrix products (GEMM), and it
keeps the inverse of each diagonal block, so the two triangular sweeps,
which numpy lacks, are matrix products too. It beats `np.linalg.cholesky`
here: with 2 OpenBLAS threads on a 2-vCPU host, order 1,809 factors in
59 ms against 103 ms (an LU, `np.linalg.solve`, takes 110 ms), and order
3,534 in 329 ms against 530 ms.
"""

import numpy as np

from .errors import RankDeficient, SingularSystem
from .network import Network

# Block order of the Cholesky factor. Each block column costs one small
# `np.linalg.cholesky`, one inverse of its diagonal block and a few
# Python-level steps; the rest is matrix products. Of 32, 64, 96 and 128, 64
# measured best for the estimator's mix at order 1,809 (one factor and one
# right-hand side per step, then about 880 right-hand sides for the bound)
# and as good as any at order 305.
_BLOCK = 64


class GramFactor:
    """Cholesky factor L of a symmetric positive definite matrix, L L^T = gram.

    Factors `gram` in place: its lower triangle becomes L, and its strict
    upper triangle is left stale. The algorithm is the left-looking block
    Cholesky (Golub & Van Loan, Matrix Computations, section 4.2). For each
    block column it subtracts the product of the columns already factored,
    factors the diagonal block, keeps that block's inverse and scales the
    panel below by it, so that nearly all the work is matrix products.
    Raises RankDeficient when a diagonal block is not positive definite,
    which signals an unobservable configuration.
    """

    def __init__(self, gram: np.ndarray):
        n = gram.shape[0]
        self._lower = gram
        self._inverses = []
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            if start:
                gram[start:, start:stop] -= gram[start:, :start] @ gram[start:stop, :start].T
            try:
                diagonal = np.linalg.cholesky(gram[start:stop, start:stop])
            except np.linalg.LinAlgError as exc:
                raise RankDeficient("normal equations are not positive definite") from exc
            inverse = np.linalg.inv(diagonal)
            gram[start:stop, start:stop] = diagonal
            gram[stop:, start:stop] = gram[stop:, start:stop] @ inverse.T
            self._inverses.append(inverse)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (L L^T) x = rhs for a vector or a matrix of columns.

        Both triangular sweeps apply the stored diagonal-block inverses, so
        they are matrix products only.
        """
        lower, n = self._lower, self._lower.shape[0]
        x = np.array(rhs, dtype=float)
        starts = range(0, n, _BLOCK)
        for start, inverse in zip(starts, self._inverses):
            stop = start + inverse.shape[0]
            if start:
                x[start:stop] -= lower[start:stop, :start] @ x[:start]
            x[start:stop] = inverse @ x[start:stop]
        for start, inverse in zip(reversed(starts), reversed(self._inverses)):
            stop = start + inverse.shape[0]
            if stop < n:
                x[start:stop] -= lower[stop:, start:stop].T @ x[stop:]
            x[start:stop] = inverse.T @ x[start:stop]
        return x


def newton_step(net: Network, jac: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Solve A dx = -residual for the square linearization with derivative
    diagonal `jac`.

    Eliminating dq = -F^-1 (r_e + A12 dH) from the energy rows leaves
    (A12^T F^-1 A12) dH = r_c - A12^T F^-1 r_e on the continuity rows.
    The Laplacian is solved by LU (LAPACK gesv) in one call. `GramFactor`
    takes several numpy calls, which on the order-2 systems of the demo
    network cost 29 us against the LU's 6 us. Raises SingularSystem when
    the solve fails or the step is not finite.
    """
    n_pipes = net.n_pipes
    r_energy, r_continuity = residual[:n_pipes], residual[n_pipes:]
    inverse = 1.0 / jac
    try:
        dH = np.linalg.solve(
            net.a12.node_gram(inverse), r_continuity - net.a12.tdot(inverse * r_energy)
        )
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    dq = -inverse * (r_energy + net.a12.dot(dH))
    step = np.concatenate([dq, dH])
    if not np.isfinite(step).all():
        raise SingularSystem("linear solve produced non-finite entries")
    return step


class NormalEquations:
    """A^T W A and A^T W for the telemetry-augmented linearization.

    Rows are (energy | continuity | telemetry) with the diagonal weights W
    of the augmented system `aug` (an `estimator.AugmentedSystem`), whose
    `telemetry_columns` name the unknown each telemetry row selects. The
    Gram blocks that do not depend on x are assembled here, once:

        [ A12 Wc A12^T + St^T Wt St    .                          ]
        [ .                            A12^T We A12 + St^T Wt St  ]

    `gram(jac)` adds F We F to the flow block and F We A12 to the two
    off-diagonal blocks.
    """

    def __init__(self, net: Network, aug):
        n_pipes, n_demand = net.n_pipes, net.n_demand
        n = n_pipes + n_demand
        weights, telemetry_columns = aug.weights, aug.telemetry_columns
        self.net = net
        self.weights = weights
        self.telemetry_columns = telemetry_columns
        self.shape = (weights.shape[0], n)
        self._w_energy = weights[:n_pipes]

        position, sign, row = net.a12.saddle_gram_terms
        self._static = np.bincount(
            np.concatenate([position, telemetry_columns * (n + 1)]),
            weights=np.concatenate([sign * weights[row], weights[n:]]),
            minlength=n * n,
        ).reshape(n, n)
        self._flow_diagonal = slice(0, n_pipes * (n + 1), n + 1)
        # Flat positions of the F We A12 entries in the two coupling blocks;
        # each (pipe, node) pair occurs once, since pipes have distinct ends.
        row, col, _, _ = net.a12.saddle_entries
        self._coupling = row * n + col

    def gram(self, jac: np.ndarray) -> np.ndarray:
        """A^T W A at the linearization with derivative diagonal `jac`."""
        _, _, pipe, sign = self.net.a12.saddle_entries
        gram = self._static.copy()
        flat = gram.reshape(-1)
        scaled = self._w_energy * jac
        flat[self._flow_diagonal] += scaled * jac
        flat[self._coupling] += scaled[pipe] * sign
        return gram

    def rhs(self, jac: np.ndarray, r: np.ndarray) -> np.ndarray:
        """A^T W r for a vector r over all rows."""
        n_pipes, n = self.net.n_pipes, self.shape[1]
        a12 = self.net.a12
        weighted = self.weights * r
        energy, continuity = weighted[:n_pipes], weighted[n_pipes:n]
        out = np.concatenate([jac * energy + a12.dot(continuity), a12.tdot(energy)])
        out += np.bincount(self.telemetry_columns, weights=weighted[n:], minlength=n)
        return out

    def columns(self, jac: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The columns of A^T W for the given rows, dense n x len(rows)."""
        n_pipes, n = self.net.n_pipes, self.shape[1]
        a12 = self.net.a12
        pipes = np.arange(n_pipes)
        m = self.telemetry_columns.size
        # A in coordinate form: F, then A12 and A12^T, then the selectors.
        row, col, _, sign = a12.saddle_entries
        row = np.concatenate([pipes, row, np.arange(n, n + m)])
        col = np.concatenate([pipes, col, self.telemetry_columns])
        value = np.concatenate([jac, sign, np.ones(m)])
        position = np.full(self.shape[0], -1)
        position[rows] = np.arange(rows.size)
        keep = position[row] >= 0
        out = np.zeros((n, rows.size))
        out[col[keep], position[row[keep]]] = value[keep] * self.weights[row[keep]]
        return out

