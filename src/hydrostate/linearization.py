"""The linearized block system shared by the solver, estimator and bounds.

All three stages linearize the same saddle-point system in x = (q, H),

    J = [ F      A12 ]      F = diag(d(D(q)q)/dq),
        [ A12^T  0   ]

to which the estimator appends unit telemetry rows S selecting one flow or
head each, A = [J; S]. No stage assembles J or A: the network's sparse
incidence supplies every product, and every linear solve goes through the
Schur complement K = A12^T F^-1 A12, a weighted graph Laplacian of order
N_p (the global gradient algorithm of Todini & Pilati, 1988). `eliminate`
writes that elimination once, for all of them.

- The Newton step solves K by LU (`newton_step`).
- The weighted least-squares step is defined by the normal equations
  A^T W A dx = A^T W r of order L + N_p, which are never formed. J is
  symmetric and invertible, so the Woodbury identity turns the step into a
  Newton step plus a telemetry correction through an m x m matrix, for m
  telemetry rows (`NormalEquations`). K is factored once per step by
  Cholesky (`NewtonFactor`), and the factor serves both rounds of solves.
- The error bound applies the same map to the right-hand-side columns
  whose rows carry data uncertainty.

Avoiding A^T W A also avoids squaring the condition number: on 150- to
200-node random networks with 30 meters, cond(A^T W A) is about 1e21, and
steps solved through it were off by 2e-4 to 3.6e-3 relative, against 1e-9
to 1e-8 through J.

Every routine here is batch-native: it takes members stacked along a
leading axis, all on one network topology, which differ only in their
values (demands, telemetry, iterates). A single case is a stack of one,
and each member's arithmetic is the same as on its own. When a stacked
LAPACK call fails, only that call is repeated member by member, to name
the members that failed; they are reported, and the others go on.

The Cholesky factor is `GramFactor`, a left-looking blocked Cholesky
written in numpy. Nearly all of its work is matrix products (GEMM), and it
keeps the inverse of each diagonal block, so the two triangular sweeps,
which numpy lacks, are matrix products too. It beats `np.linalg.cholesky`
here: with 2 OpenBLAS threads on a 2-vCPU host, order 799 factors in
9.5 ms against 17 ms (an LU, `np.linalg.solve`, takes 17 ms), and order
1,499 in 39-46 ms against 70-75 ms.
"""

import numpy as np

from .errors import HydrostateError, RankDeficient, SingularSystem
from .network import Network

# Block order of the Cholesky factor. Each block column costs one small
# `np.linalg.cholesky`, one inverse of its diagonal block and a few
# Python-level steps; the rest is matrix products. Of 32, 64, 96, 128 and
# 200, 32 and 64 measured best for the estimator's mix at Schur order 799
# (one factor and two rounds of 80 and 1 right-hand sides per step, then
# about 960 right-hand sides for the bound).
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
    definite, singular to working precision, is recorded in `failed` with a
    RankDeficient error; its remaining rows are replaced by those of the
    identity, so the other members factor on unhindered.
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
                error = RankDeficient("matrix is not positive definite")
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


def eliminate(net: Network, inverse: np.ndarray, energy, continuity, solve_schur):
    """J^-1 B for the Newton matrix J = [F A12; A12^T 0] with F^-1 =
    diag(`inverse`), for blocks of right-hand-side columns B = (energy;
    continuity), members x n_pipes x k over members x n_demand x k.

    Eliminating dq = F^-1 (energy - A12 dH) from the energy rows leaves
    (A12^T F^-1 A12) dH = A12^T F^-1 energy - continuity on the continuity
    rows; `solve_schur` solves that per member. `inverse` (members x
    n_pipes x 1) and `energy` (which may be 0.0) broadcast against the
    columns. Returns the columns of x = (dq; dH), members x n x k.
    """
    a12 = net.a12
    dH = solve_schur(a12.tdot(inverse * energy, axis=-2) - continuity)
    dq = a12.dot(dH, axis=-2)
    np.subtract(energy, dq, out=dq)
    dq *= inverse
    return np.concatenate([dq, dH], axis=1)


def newton_step(net: Network, jac: np.ndarray, residual: np.ndarray):
    """Solve A dx = -residual for the square linearization with derivative
    diagonal `jac`, per member (rows of `jac` and `residual`).

    The Schur Laplacians of `eliminate` are solved by LU (LAPACK gesv) in
    one stacked call. `GramFactor` takes several numpy calls, which on the
    order-2 systems of the demo network cost 29 us against the LU's 6 us.
    Returns the steps and a dict from member position to SingularSystem for
    the members whose solve failed or whose step is not finite.
    """
    n_pipes = net.n_pipes
    inverse = (1.0 / jac)[:, :, None]
    failures: dict[int, HydrostateError] = {}

    def solve_schur(rhs):
        dH, failed = _by_member(np.linalg.solve, net.a12.node_gram(inverse[:, :, 0]), rhs)
        for member, exc in failed.items():
            failures[member] = SingularSystem(str(exc))
            failures[member].__cause__ = exc
        return dH

    b = -residual[:, :, None]
    step = eliminate(net, inverse, b[:, :n_pipes], b[:, n_pipes:], solve_schur)[:, :, 0]
    for member in non_finite_members(step):
        failures.setdefault(
            int(member), SingularSystem("linear solve produced non-finite entries")
        )
    return step, failures


class NewtonFactor:
    """The Newton matrix J = [F A12; A12^T 0] per member, at derivative
    diagonals `jac` (members x n_pipes), ready for repeated solves.

    The Schur Laplacian A12^T F^-1 A12 of `eliminate` is factored once by
    `GramFactor`. It is positive definite whenever every flow derivative is
    positive (FLOW_FLOOR sees to that) and the network is connected to a
    fixed-head node, as validation requires. A member whose factorization
    fails all the same, singular to working precision, is recorded in
    `failed` with a RankDeficient error.
    """

    def __init__(self, net: Network, jac: np.ndarray):
        self.net = net
        self.inverse = (1.0 / jac)[:, :, None]
        self.schur = GramFactor(net.a12.node_gram(self.inverse[:, :, 0]))
        self.failed = self.schur.failed

    def solve(self, energy, continuity) -> np.ndarray:
        """J^-1 B per member for the columns B = (energy; continuity), as
        in `eliminate`."""
        return eliminate(self.net, self.inverse, energy, continuity, self.schur.solve)


class NormalEquations:
    """The weighted least-squares problem of the telemetry-augmented
    linearization: A = [J; S], with J the Newton matrix and S the unit
    telemetry rows, and W = diag(Wj, Wt), the row weights of the augmented
    system `aug` (an `estimator.AugmentedSystem`) on the model rows and on
    the telemetry rows. The normal equations A^T W A dx = A^T W r define the
    step, but A^T W A is never formed.

    J is symmetric and invertible (see `NewtonFactor`), so by the Woodbury
    identity (Hager, SIAM Review 31, 1989) the step is a Newton step plus a
    Kalman-style telemetry correction:

        Z = J^-1 S^T                     (m columns)
        C = Z^T Wj^-1 Z + Wt^-1          (symmetric positive definite, m x m)
        dx = J^-1 (r_j + Wj^-1 Z g),     g = C^-1 (r_t - S J^-1 r_j).

    This holds what all members share: the telemetry columns (the unknown
    each telemetry row selects), the selector rows S (as the columns of
    S^T) and the variances Wj^-1 (as a column) and Wt^-1. Members differ
    in their derivative diagonals. `shape` is that of A.
    """

    def __init__(self, net: Network, aug):
        n = net.n_pipes + net.n_demand
        weights, telemetry_columns = aug.weights, aug.telemetry_columns
        m = telemetry_columns.size
        self.net = net
        self.telemetry_columns = telemetry_columns
        self.shape = (weights.shape[0], n)
        self.model_variance = (1.0 / weights[:n])[:, None]
        # S^T, the telemetry rows as columns.
        self.selectors = np.zeros((n, m))
        self.selectors[telemetry_columns, np.arange(m)] = 1.0
        self._telemetry_covariance = np.diag(1.0 / weights[n:])

    def telemetry_solve(self, z: np.ndarray, scaled: np.ndarray, rhs: np.ndarray | None = None):
        """C^-1 rhs per member, or C^-1 itself when `rhs` is None, with
        C = Z^T Wj^-1 Z + Wt^-1 from Z (`z`) and Wj^-1 Z (`scaled`),
        members x n x m, in one stacked LAPACK call. Returns the result and
        a dict from member position to RankDeficient for the members whose
        solve failed."""
        coupling = z.swapaxes(1, 2) @ scaled + self._telemetry_covariance
        if rhs is None:
            out, failed = _by_member(np.linalg.inv, coupling)
        else:
            out, failed = _by_member(np.linalg.solve, coupling, rhs)
        failures: dict[int, HydrostateError] = {}
        for member, exc in failed.items():
            failures[member] = RankDeficient("telemetry update is singular")
            failures[member].__cause__ = exc
        return out, failures
