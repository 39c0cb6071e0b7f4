"""The linearized block system shared by the solver, estimator and bounds.

All three stages linearize the same saddle-point system in x = (q, H),

    J = [ F      A12 ]      F = diag(d(D(q)q)/dq),
        [ A12^T  0   ]

to which the estimator appends unit telemetry rows S selecting one flow or
head each, A = [J; S]. No stage assembles J or A, and every linear solve
goes through `NewtonFactor`, which solves J on the null space of A12^T
(the co-tree or loop-flow method: Elhay, Simpson, Deuerlein, Alexander &
Schilders, J. Water Resour. Plann. Manage. 140(12), 2014; Abraham &
Stoianov, J. Hydraul. Eng. 142(3), 2016). The network's spanning forest
(`network.Forest`) splits the pipes into N_p tree pipes, one per demand
node, and L - N_p co-tree pipes, each of which closes one loop:

- sweeps over the forest's depths solve with the square tree incidence
  A12_T and its transpose, so the continuity rows are met by tree flows;
- the flows around the loops, w, solve the loop matrix Z^T F Z of order
  L - N_p (Z the loop basis, A12^T Z = 0), which is symmetric positive
  definite and is factored once per linearization by Cholesky;
- the tree rows of the energy equations then give the heads.

A member whose loop matrix fails to factor is reported, by `newton_step`
as SingularSystem and by `NewtonFactor` as RankDeficient. The stages use
the solve as follows.

- The Newton step is one such solve (`newton_step`).
- The weighted least-squares step and the error bound both apply the map
  of the normal equations A^T W A, which are never formed: one factor of J
  and an m x m telemetry update per linearization serve both
  (`AugmentedSystem`, which derives them).

Every routine here is batch-native: it takes members stacked along a
leading axis, all on one network topology, which differ only in their
values (demands, telemetry, iterates). A single case is a stack of one,
and each member's arithmetic is the same as on its own. When a stacked
LAPACK call fails, only that call is repeated member by member, to name
the members that failed; they are reported, and the others go on.

The Cholesky factor is `GramFactor`, a left-looking blocked Cholesky
written in numpy. Nearly all of its work is matrix products (GEMM), and it
keeps the inverse of each diagonal block, so the two triangular sweeps,
which numpy lacks, are matrix products too. With 2 OpenBLAS threads on a
2-vCPU host, factoring a loop matrix and solving one right-hand side takes
0.9-1.2 ms at order 211 (the 800-node benchmark cases), where
`np.linalg.cholesky` alone takes 0.8-0.9 ms and an LU solve
(`np.linalg.solve`) 0.6 ms; at order 1,640 (a 5000-node network) it takes
48-59 ms, against 91-93 ms and 68-72 ms.
"""

import numpy as np

from .errors import HydrostateError, RankDeficient, SingularSystem
from .network import Network

# Block order of the Cholesky factor. Each block column costs one small
# `np.linalg.cholesky`, one inverse of its diagonal block and a few
# Python-level steps; the rest is matrix products. The factor holds the
# loop matrix, of order 211 on the 800-node benchmark cases. There, for the
# estimator's mix (one factor and two rounds of 80 and 1 right-hand sides
# per step, then the bound's 80 + 80 and about 800 right-hand sides in
# blocks), blocks of 32 to 128 measured within the run-to-run spread of
# each other, and 256 (a single block) about 20 % slower.
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
        """Solve (L L^T) x = rhs per member, for a block of columns per
        member (members x n x k).

        Both triangular sweeps apply the stored diagonal-block inverses, so
        they are matrix products only.
        """
        lower, n = self._lower, self._lower.shape[-1]
        x = np.array(rhs, dtype=float)
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
        return x


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


class NewtonFactor:
    """The Newton matrix J = [F A12; A12^T 0] per member, at derivative
    diagonals `jac` (members x n_pipes), ready for repeated solves.

    J is solved on the null space of A12^T (see `network.Forest`): the
    forest sweeps meet the continuity rows, and the loop flows w of the
    co-tree pipes meet the energy rows through the loop matrix Z^T F Z,
    factored once by `GramFactor`. It is positive definite whenever every
    flow derivative is positive (FLOW_FLOOR sees to that). A member whose
    factorization fails all the same, singular to working precision, is
    recorded in `failed` with a RankDeficient error.
    """

    def __init__(self, net: Network, jac: np.ndarray):
        self.net = net
        self.tree_jac = jac[:, net.forest.tree_pipe, None]
        self.loops = GramFactor(net.forest.loop_gram(jac))
        self.failed = self.loops.failed

    def solve(self, b: np.ndarray) -> np.ndarray:
        """J^-1 b per member, for a block of right-hand-side columns b =
        (energy; continuity), members x n x k, or n x k shared by all
        members. Returns the columns of x = (dq; dH), members x n x k.

        The tree flows of the continuity columns are a particular solution
        dq_p; then w = (Z^T F Z)^-1 Z^T (energy - F dq_p), dq = dq_p + Z w,
        and the tree rows of the energy equations give dH. Z^T and Z are
        applied by the sweeps: Z^T r = r_C - A12_C A12_T^-1 r_T, and the
        tree part of Z w is -(A12_T^T)^-1 A12_C^T w.
        """
        forest, n_pipes = self.net.forest, self.net.n_pipes
        tree_energy = b[..., forest.tree_pipe, :]
        continuity = b[..., n_pipes + forest.order, :]
        flows = forest.tree_flows(continuity)
        heads = forest.path_sums(tree_energy - self.tree_jac * flows)
        loop_flows = 0.0  # a tree network has no loops to correct
        if forest.cotree.size:
            loop_energy = b[..., forest.cotree, :]
            loop_flows = self.loops.solve(loop_energy - forest.chords.dot(heads, axis=-2))
            flows = forest.tree_flows(continuity - forest.chords.tdot(loop_flows, axis=-2))
            heads = forest.path_sums(tree_energy - self.tree_jac * flows)
        members, n_demand, k = heads.shape
        x = np.empty((members, n_pipes + n_demand, k))
        x[:, forest.tree_pipe] = flows
        x[:, forest.cotree] = loop_flows
        x[:, n_pipes + forest.order] = heads
        return x


def newton_step(net: Network, jac: np.ndarray, residual: np.ndarray):
    """Solve A dx = -residual for the square linearization with derivative
    diagonal `jac`, per member (rows of `jac` and `residual`), through
    `NewtonFactor`.

    Returns the steps and a dict from member position to SingularSystem for
    the members whose loop matrix failed to factor or whose step is not
    finite.
    """
    newton = NewtonFactor(net, jac)
    failures: dict[int, HydrostateError] = {}
    for member, exc in newton.failed.items():
        failures[member] = SingularSystem(str(exc))
        failures[member].__cause__ = exc
    step = newton.solve(-residual[:, :, None])[:, :, 0]
    for member in non_finite_members(step):
        failures.setdefault(
            int(member), SingularSystem("linear solve produced non-finite entries")
        )
    return step, failures


class AugmentedSystem:
    """The telemetry-augmented linearization A = [J; S] of a meter set and
    its row weights W = diag(Wj, Wt), in the row layout (energy |
    continuity | telemetry) used everywhere: J is the Newton matrix, and
    the unit telemetry rows S select, row k, the unknown
    `telemetry_columns[k]` of x = (q, H), measured as `values[k]`.
    `weights` holds the diagonal of W, and `shape` is that of A.

    The weighted least-squares step solves the normal equations
    A^T W A dx = A^T W r for r = (r_j | r_t), but A^T W A is never formed.
    J is symmetric and invertible (see `NewtonFactor`), so by the Woodbury
    identity (Hager, SIAM Review 31, 1989) the step is a Newton step plus a
    Kalman-style telemetry correction:

        Z = J^-1 S^T                     (m columns)
        C = Z^T Wj^-1 Z + Wt^-1          (symmetric positive definite, m x m)
        dx = J^-1 (r_j + Wj^-1 Z g),     g = C^-1 (r_t - Z^T r_j),

    where Z^T r_j = S J^-1 r_j because J is symmetric. The error bound
    needs the whole map (A^T W A)^-1 A^T W from r to dx. With
    Y = J^-1 Wj^-1 Z, its telemetry columns are Y C^-1 and its model
    columns J^-1 - Y C^-1 Z^T.

    This holds what all members share: the columns of S^T (`selectors`),
    the variances Wj^-1 (`model_variance`, a column) and Wt^-1. Members
    differ in their derivative diagonals, and `linearize` forms the
    blocks of one set of them.
    """

    def __init__(self, net: Network, telemetry_columns: np.ndarray, values: np.ndarray,
                 weights: np.ndarray):
        n = net.n_pipes + net.n_demand
        m = telemetry_columns.size
        self.net = net
        self.telemetry_columns = telemetry_columns
        self.values = values
        self.weights = weights
        self.shape = (weights.shape[0], n)
        self.model_variance = (1.0 / weights[:n])[:, None]
        self.selectors = np.zeros((n, m))
        self.selectors[telemetry_columns, np.arange(m)] = 1.0
        self._telemetry_covariance = np.diag(1.0 / weights[n:])

    @property
    def n_telemetry(self) -> int:
        return self.telemetry_columns.size

    def linearize(self, jac: np.ndarray):
        """The blocks of the step and the bound at derivative diagonals
        `jac` (members x n_pipes): J's `NewtonFactor`, Z and Wj^-1 Z
        (members x n x m) and C (members x m x m)."""
        newton = NewtonFactor(self.net, jac)
        z = newton.solve(self.selectors)
        scaled = self.model_variance * z
        coupling = z.swapaxes(1, 2) @ scaled + self._telemetry_covariance
        return newton, z, scaled, coupling

    @staticmethod
    def telemetry_solve(coupling: np.ndarray, rhs: np.ndarray | None = None):
        """C^-1 rhs per member, or C^-1 itself when `rhs` is None, for C
        (`coupling`, from `linearize`) in one stacked LAPACK call. Returns
        the result and a dict from member position to RankDeficient for
        the members whose solve failed."""
        if rhs is None:
            out, failed = _by_member(np.linalg.inv, coupling)
        else:
            out, failed = _by_member(np.linalg.solve, coupling, rhs)
        failures: dict[int, HydrostateError] = {}
        for member, exc in failed.items():
            failures[member] = RankDeficient("telemetry update is singular")
            failures[member].__cause__ = exc
        return out, failures
