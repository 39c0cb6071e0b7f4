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

Every routine here is batch-native: it takes members stacked along a
leading axis, all on one network topology, which differ only in their
values (demands, telemetry, iterates). A single case is a stack of one,
and each member's arithmetic is the same as on its own. When a stacked
LAPACK call fails, only that call is repeated member by member, to name
the members that failed; they are reported, and the others go on.

Both Gram solves go through `GramFactor`, a left-looking blocked Cholesky
written in numpy. Nearly all of its work is matrix products (GEMM), and it
keeps the inverse of each diagonal block, so the two triangular sweeps,
which numpy lacks, are matrix products too. It beats `np.linalg.cholesky`
here: with 2 OpenBLAS threads on a 2-vCPU host, order 1,809 factors in
59 ms against 103 ms (an LU, `np.linalg.solve`, takes 110 ms), and order
3,534 in 329 ms against 530 ms.
"""

import numpy as np

from .errors import HydrostateError, RankDeficient, SingularSystem
from .network import Network, member_bincount

# Block order of the Cholesky factor. Each block column costs one small
# `np.linalg.cholesky`, one inverse of its diagonal block and a few
# Python-level steps; the rest is matrix products. Of 32, 64, 96 and 128, 64
# measured best for the estimator's mix at order 1,809 (one factor and one
# right-hand side per step, then about 880 right-hand sides for the bound)
# and as good as any at order 305.
_BLOCK = 64


class GramFactor:
    """Cholesky factors L of a stack of symmetric positive definite
    matrices, L L^T = gram, one per member along the leading axis.

    Factors `gram` (members x n x n) in place: each lower triangle becomes
    L, and the strict upper triangles are left stale. The algorithm is the
    left-looking block Cholesky (Golub & Van Loan, Matrix Computations,
    section 4.2). For each block column it subtracts the product of the
    columns already factored, factors the diagonal blocks, keeps their
    inverses and scales the panels below by them, so that nearly all the
    work is matrix products. A member whose diagonal block is not positive
    definite, which signals an unobservable configuration, is recorded in
    `failed` with a RankDeficient error; its remaining rows are replaced by
    those of the identity, so the other members factor on unhindered.
    """

    def __init__(self, gram: np.ndarray):
        n = gram.shape[-1]
        self._lower = gram
        self._inverses = []
        self.failed: dict[int, HydrostateError] = {}
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            if start:
                gram[:, start:, start:stop] -= (
                    gram[:, start:, :start] @ gram[:, start:stop, :start].swapaxes(1, 2)
                )
            diagonal, failed = _by_member(np.linalg.cholesky, gram[:, start:stop, start:stop])
            for member, exc in failed.items():
                error = RankDeficient("normal equations are not positive definite")
                error.__cause__ = exc
                self.failed[member] = error
                gram[member, start:] = 0.0
                np.fill_diagonal(gram[member, start:, start:], 1.0)
                diagonal[member] = np.eye(stop - start)
            inverse = np.linalg.inv(diagonal)
            gram[:, start:stop, start:stop] = diagonal
            gram[:, stop:, start:stop] = gram[:, stop:, start:stop] @ inverse.swapaxes(1, 2)
            self._inverses.append(inverse)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (L L^T) x = rhs per member, for one vector per member
        (members x n) or a matrix of columns per member (members x n x k).

        Both triangular sweeps apply the stored diagonal-block inverses, so
        they are matrix products only.
        """
        lower, n = self._lower, self._lower.shape[-1]
        x = np.array(rhs, dtype=float)
        vectors = x.ndim == 2
        if vectors:
            x = x[:, :, None]
        starts = range(0, n, _BLOCK)
        for start, inverse in zip(starts, self._inverses):
            stop = start + inverse.shape[-1]
            if start:
                x[:, start:stop] -= lower[:, start:stop, :start] @ x[:, :start]
            x[:, start:stop] = inverse @ x[:, start:stop]
        for start, inverse in zip(reversed(starts), reversed(self._inverses)):
            stop = start + inverse.shape[-1]
            if stop < n:
                x[:, start:stop] -= lower[:, stop:, start:stop].swapaxes(1, 2) @ x[:, stop:]
            x[:, start:stop] = inverse.swapaxes(1, 2) @ x[:, start:stop]
        return x[:, :, 0] if vectors else x


def _by_member(function, *stacks: np.ndarray):
    """`function` (an np.linalg routine) over stacked arrays, plus the
    members it failed on.

    The stacked call runs first. Only when it raises LinAlgError, which
    does not say which member failed, is it repeated member by member.
    Returns the result, with zeros for the failed members, and a dict from
    each failed member's position to its LinAlgError.
    """
    try:
        return function(*stacks), {}
    except np.linalg.LinAlgError:
        pass
    out = np.zeros_like(stacks[-1], dtype=float)
    failed = {}
    for member in range(out.shape[0]):
        try:
            out[member] = function(*(stack[member] for stack in stacks))
        except np.linalg.LinAlgError as exc:
            failed[member] = exc
    return out, failed


def drop_failed(members: np.ndarray, failed: dict, failures: dict, *stacks: np.ndarray):
    """Record the `failed` positions (a dict from position to error) of
    `members` in `failures`, keyed by member, and return `members` and the
    stacked arrays without those positions."""
    if not failed:
        return (members, *stacks)
    keep = np.ones(members.size, dtype=bool)
    for position, error in failed.items():
        failures[int(members[position])] = error
        keep[position] = False
    return (members[keep], *(stack[keep] for stack in stacks))


def non_finite_members(values: np.ndarray) -> np.ndarray:
    """Positions of the members (rows) holding a non-finite entry."""
    finite = np.isfinite(values)
    if finite.all():
        return np.zeros(0, dtype=int)
    return np.flatnonzero(~finite.reshape(values.shape[0], -1).all(axis=1))


def newton_step(net: Network, jac: np.ndarray, residual: np.ndarray):
    """Solve A dx = -residual for the square linearization with derivative
    diagonal `jac`, per member (rows of `jac` and `residual`).

    Eliminating dq = -F^-1 (r_e + A12 dH) from the energy rows leaves
    (A12^T F^-1 A12) dH = r_c - A12^T F^-1 r_e on the continuity rows.
    The Laplacians are solved by LU (LAPACK gesv) in one stacked call.
    `GramFactor` takes several numpy calls, which on the order-2 systems of
    the demo network cost 29 us against the LU's 6 us. Returns the steps
    and a dict from member position to SingularSystem for the members
    whose solve failed or whose step is not finite.
    """
    n_pipes = net.n_pipes
    r_energy, r_continuity = residual[:, :n_pipes], residual[:, n_pipes:]
    inverse = 1.0 / jac
    dH, failed = _by_member(
        np.linalg.solve,
        net.a12.node_gram(inverse),
        (r_continuity - net.a12.tdot(inverse * r_energy))[:, :, None],
    )
    failures: dict[int, HydrostateError] = {}
    for member, exc in failed.items():
        failures[member] = SingularSystem(str(exc))
        failures[member].__cause__ = exc
    dH = dH[:, :, 0]
    dq = -inverse * (r_energy + net.a12.dot(dH))
    step = np.concatenate([dq, dH], axis=1)
    for member in non_finite_members(step):
        failures.setdefault(
            int(member), SingularSystem("linear solve produced non-finite entries")
        )
    return step, failures


class NormalEquations:
    """A^T W A and A^T W for the telemetry-augmented linearization.

    Rows are (energy | continuity | telemetry) with the diagonal weights W
    of the augmented system `aug` (an `estimator.AugmentedSystem`), whose
    `telemetry_columns` name the unknown each telemetry row selects. The
    weights and the telemetry rows are shared by all members; members
    differ in their derivative diagonals, stacked as the rows of `jac`.
    The Gram blocks that do not depend on x are assembled here, once:

        [ A12 Wc A12^T + St^T Wt St    .                          ]
        [ .                            A12^T We A12 + St^T Wt St  ]

    `gram(jac)` broadcasts them over the members and adds F We F to the
    flow block and F We A12 to the two off-diagonal blocks.
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
        self._flow_diagonal = np.arange(n_pipes) * (n + 1)
        # Flat positions of the F We A12 entries in the two coupling blocks;
        # each (pipe, node) pair occurs once, since pipes have distinct ends.
        row, col, _, _ = net.a12.saddle_entries
        self._coupling = row * n + col

    def gram(self, jac: np.ndarray) -> np.ndarray:
        """A^T W A per member, members x n x n, at the derivative diagonals
        `jac` (members x n_pipes)."""
        _, _, pipe, sign = self.net.a12.saddle_entries
        members = jac.shape[0]
        gram = np.repeat(self._static[None], members, axis=0)
        offsets = np.arange(members)[:, None] * self._static.size
        diagonal = (offsets + self._flow_diagonal).reshape(-1)
        coupling = (offsets + self._coupling).reshape(-1)
        flat = gram.reshape(-1)
        scaled = self._w_energy * jac
        flat[diagonal] += (scaled * jac).reshape(-1)
        flat[coupling] += (scaled[:, pipe] * sign).reshape(-1)
        return gram

    def rhs(self, jac: np.ndarray, r: np.ndarray) -> np.ndarray:
        """A^T W r per member, for residuals r (members x rows)."""
        n_pipes, n = self.net.n_pipes, self.shape[1]
        a12 = self.net.a12
        weighted = self.weights * r
        energy, continuity = weighted[:, :n_pipes], weighted[:, n_pipes:n]
        out = np.concatenate(
            [jac * energy + a12.dot(continuity), a12.tdot(energy)], axis=1
        )
        out += member_bincount(self.telemetry_columns, weighted[:, n:], n)
        return out

    def columns(self, jac: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The columns of A^T W for the given rows, dense members x n x
        len(rows)."""
        n_pipes, n = self.net.n_pipes, self.shape[1]
        members = jac.shape[0]
        a12 = self.net.a12
        pipes = np.arange(n_pipes)
        m = self.telemetry_columns.size
        # A in coordinate form: F, then A12 and A12^T, then the selectors.
        row, col, _, sign = a12.saddle_entries
        row = np.concatenate([pipes, row, np.arange(n, n + m)])
        col = np.concatenate([pipes, col, self.telemetry_columns])
        value = np.concatenate(
            [jac, np.broadcast_to(sign, (members, sign.size)), np.ones((members, m))],
            axis=1,
        )
        position = np.full(self.shape[0], -1)
        position[rows] = np.arange(rows.size)
        keep = position[row] >= 0
        out = np.zeros((members, n, rows.size))
        out[:, col[keep], position[row[keep]]] = value[:, keep] * self.weights[row[keep]]
        return out
