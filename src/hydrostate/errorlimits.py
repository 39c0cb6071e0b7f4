"""Interval error limits on the estimated state under bounded data error.

Given per-row half-widths delta_y on the augmented right-hand sides, the
componentwise bound on the estimate's deviation is

    e = | (A^T W A)^-1 A^T W | |delta_y|

with entrywise absolute values, evaluated at the converged estimate. The
sensitivity matrix (A^T W A)^-1 A^T W is the linear map from the
right-hand side to the estimator's step, evaluated through the same
blocks as the step (see `linearization.AugmentedSystem`). The bound is
symmetric, so the state is reported as the interval [x - e, x + e]. A
seeded Monte Carlo harness measures how often resampled estimations
actually stay inside the box.
"""

import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonConvergence, RankDeficient, ValidationError
from .estimator import MeasurementSet, build_augmented, estimate_state
from .hydraulics import StateVector, jacobian_coefficients
from .linearization import AugmentedSystem, non_finite_members
from .network import Network

# Values per member in one block of the bound's continuity columns: the
# block, n unknowns by as many columns as fit, is the largest array the
# bound holds. Of 2^16 to 2^22, 2^16 to 2^17 measured fastest on the
# 800-node benchmark cases (n = 1,809), and larger blocks only added memory.
_BOUND_ELEMENTS = 1 << 17

# numpy's SeedSequence: its pool of 32-bit words, the hash constants of its
# entropy mixing (A) and of its state output (B), and those of `mix`.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF

# The 128-bit LCG of numpy's default bit generator: its multiplier M
# (PCG_DEFAULT_MULTIPLIER_128) and the mask of its state.
_LCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_STATE_MASK = (1 << 128) - 1

# Draws per block of `seeded_uniforms`: the streams by as many columns as
# fit. Each step of a block's state arithmetic makes an array this size. Of
# 2^12 to 2^17, 2^14 and 2^15 measured fastest on 200 streams of 1,501
# draws and 2,000 of 301 (13 and 33 ms at 2^14, 13 and 30 ms at 2^15, 23
# and 42 ms at 2^17; medians of 5, 2 vCPUs).
_DRAW_ELEMENTS = 1 << 14


@dataclass(eq=False)
class IntervalState:
    """Box [center - halfwidth, center + halfwidth] in state space."""

    center: StateVector
    halfwidth: np.ndarray

    def __post_init__(self):
        self.halfwidth = np.asarray(self.halfwidth, dtype=float)
        if self.halfwidth.shape != self.center.vector.shape:
            raise ValueError("halfwidth length must match the state dimension")
        if not (self.halfwidth >= 0).all():
            raise ValidationError("/halfwidth", "entries >= 0", "negative entry")
        if overflow := overflowing_boxes(np.hstack([self.lower, self.upper])[None]):
            raise overflow[0]

    @property
    def lower(self) -> np.ndarray:
        return self.center.vector - self.halfwidth

    @property
    def upper(self) -> np.ndarray:
        return self.center.vector + self.halfwidth


def overflowing_boxes(boxes: np.ndarray) -> dict[int, ValidationError]:
    """The rows of `boxes`, stacked box ends [lower | upper], that hold a
    non-finite end, each with its error: an `IntervalState` whose center
    -/+ halfwidth overflows."""
    return {
        int(k): ValidationError("/halfwidth", "finite center -/+ halfwidth", "overflow")
        for k in non_finite_members(boxes)
    }


def uncertainty_vector(net: Network, meas: MeasurementSet) -> np.ndarray:
    """Assemble delta_y over all augmented rows.

    Energy rows are model equations, not measurements, and carry zero;
    continuity rows carry the demand-prediction half-widths; telemetry rows
    carry each measurement's half-width.
    """
    return np.concatenate(
        [
            np.zeros(net.n_pipes),
            meas.demand_delta_vector(net),
            np.array([m.delta for m in meas.measurements], dtype=float),
        ]
    )


def block_columns(net: Network) -> int:
    """Continuity columns per block of `bound_from_matrix`: as many as fit
    `_BOUND_ELEMENTS` values, or a quarter of the loop factor's values if
    that is more. Each block's solve reads the whole factor; at 5000 nodes
    and 1,640 loops, the quarter took the bound from 5.8 s (2^17 values
    per block) to 3.7 s, where the whole factor gained no more and added
    86 MB of peak memory."""
    n = net.n_pipes + net.n_demand
    return max(1, max(_BOUND_ELEMENTS, net.forest.cotree.size**2 // 4) // n)


def bound_from_matrix(system: AugmentedSystem, jac: np.ndarray, delta_y: np.ndarray):
    """Core bound e = |(A^T W A)^-1 A^T W| |delta_y| per member, at the
    derivative diagonals `jac` (members x n_pipes), without forming
    A^T W A.

    The sensitivity matrix is the map from the right-hand side to the step
    of `estimator.weighted_step`, in the blocks of
    `AugmentedSystem.linearize`: its telemetry columns are Y C^-1 and its
    model columns J^-1 - Y C^-1 Z^T (see `AugmentedSystem`). Only the
    columns of rows with delta_y > 0 contribute, and energy rows carry
    none; so of J^-1 the bound needs only the columns of those continuity
    rows: Newton solves of unit continuity columns with zero energy rows,
    `block_columns` at a time, each block added into the bound as
    |columns| delta_y before the next. Each block's columns and their tree
    flows are written in forest order by climbing the forest's parent
    pointers (`Forest.unit_columns`), with no sweep.
    `delta_y` is shared by all members.
    Returns the bounds (members x unknowns) and a dict from member position
    to RankDeficient for the members whose factorization or update failed.
    """
    delta_y = np.abs(np.asarray(delta_y, dtype=float))
    n_pipes, n = system.net.n_pipes, system.shape[1]
    nodes = np.flatnonzero(delta_y[n_pipes:n])
    meters = np.flatnonzero(delta_y[n:])

    newton, z, scaled, coupling = system.linearize(jac)
    inverse, failures = system.telemetry_solve(coupling)
    failures.update(newton.failed)
    # Y C^-1: the sensitivity to the telemetry rows.
    telemetry = newton.solve(scaled) @ inverse

    # J^-1 - Y C^-1 Z^T on the continuity columns, a block at a time.
    bound = np.abs(telemetry[:, :, meters]) @ delta_y[n + meters]
    block, forest = block_columns(system.net), system.net.forest
    for start in range(0, nodes.size, block):
        chunk = nodes[start : start + block]
        rows = n_pipes + chunk
        columns = newton.solve_laid_out((0.0, 0.0, *forest.unit_columns(chunk)))
        columns -= telemetry @ z[:, rows].swapaxes(1, 2)
        bound += np.abs(columns, out=columns) @ delta_y[rows]
    return bound, failures


def sensitivity_bound(
    net: Network,
    meas: MeasurementSet,
    x_star: StateVector,
    delta_y: np.ndarray,
) -> IntervalState:
    """Interval state centered at the converged estimate x_star.

    The linearized augmented system is evaluated at x_star itself, i.e. at
    the final iterate of the estimation. `delta_y` is laid out as by
    `uncertainty_vector`: its energy rows are model equations and must be
    zero, since the bound carries no sensitivity to them.
    """
    aug = build_augmented(net, meas)
    delta_y = np.asarray(delta_y, dtype=float)
    if delta_y.shape != aug.shape[:1]:
        raise ValueError(f"delta_y must have length {aug.shape[0]}, got {delta_y.shape}")
    if not (delta_y >= 0).all():
        raise ValueError("delta_y entries must be >= 0")
    if delta_y[: net.n_pipes].any():
        raise ValueError("delta_y entries on energy rows must be 0")
    halfwidth, failures = bound_from_matrix(aug, jacobian_coefficients(net, x_star.q)[None], delta_y)
    if failures:
        raise failures.pop(0)  # a local left holding it would form a cycle with its traceback
    return IntervalState(x_star.copy(), halfwidth[0])


def seeded_uniforms(seed: int, count: int, width: int) -> np.ndarray:
    """The first `width` draws of `np.random.default_rng((seed, k)).random()`
    for each k < `count` (count x width float64 in [0, 1)), computed for
    all k at once as integer array arithmetic, with no generator built.

    `default_rng((seed, k))` seeds its bit generator, PCG XSL-RR 128/64
    (O'Neill, HMC-CS-2014-0905), through a `SeedSequence` whose entropy is
    the 32-bit words of `seed`, least significant first, then k. Its hash
    (O'Neill's `seed_seq_fe` design: the words mixed into a pool of 4 with
    `hashmix` and `mix`, then `generate_state(4, uint64)`) depends on k
    only through array values, so it runs here as uint32 array operations
    over all k, whose wraparound is the C code's. The generator is a
    128-bit LCG whose output permutes each state. The state behind each
    draw comes straight from the seed words by LCG jump-ahead (Brown,
    Trans. ANS 71, 1994), as uint64 array arithmetic on (high, low) words
    over all k and a block of `_DRAW_ELEMENTS` draws at a time. A draw is
    `(xsl_rr(state) >> 11) * 2**-53`, which is `next_double`, and
    `rng.uniform(lo, hi, ...)` is `lo + (hi - lo) * draw` on these draws.
    The algorithms are those numpy's stream-compatibility policy (NEP 19)
    keeps fixed, so the rows equal the per-k generators' draws bit for bit;
    the tests compare them with `default_rng`.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if count > 1 << 32:
        raise ValueError("count must be <= 2^32, so that k is one entropy word")
    words = [seed >> shift & _WORD for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(count, word, dtype=np.uint32) for word in words]
    entropy.append(np.arange(count, dtype=np.uint32))
    # A pool word with no entropy word left hashes a zero.
    entropy += [np.zeros(count, dtype=np.uint32)] * (_POOL - len(entropy))

    steps = _hash_steps(_INIT_A, _MULT_A)
    pool = [_hashmix(word, steps) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], steps))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(word, steps))

    steps = _hash_steps(_INIT_B, _MULT_B)
    state = [_hashmix(pool[i % _POOL], steps).astype(np.uint64)[:, None] for i in range(2 * _POOL)]
    # `generate_state(4, uint64)` pairs these words into w0..w3, low word
    # first, and `pcg64_set_seed` takes initstate = w0 2^64 + w1 and
    # initseq = w2 2^64 + w3, then inc = 2 initseq + 1: each held here as
    # its (high, low) 64-bit words.
    w = [low | high << 32 for low, high in zip(state[::2], state[1::2])]
    initstate = w[0], w[1]
    inc = w[2] << 1 | w[3] >> 63, w[3] << 1 | 1
    # Seeding steps the LCG (state -> M state + inc) from 0 to inc, adds
    # initstate and steps again, and each draw steps before its output, so
    # draw j reads M^(j+2) initstate + (M^(j+2) + ... + M + 1) inc.
    jumps = _jump_words(width)
    draws = np.empty((count, width))
    block = max(1, _DRAW_ELEMENTS // max(count, 1))
    for first in range(0, width, block):
        power, total = jumps[..., first : first + block]
        high, low = _product_sum([(initstate, power), (inc, total)])
        # XSL-RR: the xor of the high and low words, rotated right by the
        # top 6 bits.
        xored, rotation = high ^ low, high >> 58
        output = (xored >> rotation) | (xored << ((64 - rotation) & 63))
        draws[:, first : first + block] = (output >> 11) * 2.0**-53
    return draws


def _jump_words(width: int) -> np.ndarray:
    """For draws j < `width`, M^(j+2) and M^(j+2) + ... + M + 1 modulo
    2^128, M being the LCG's multiplier, as (high, low) 64-bit words
    (2 x 2 x width uint64)."""
    power = _LCG_MULT * _LCG_MULT & _STATE_MASK
    total = 1 + _LCG_MULT + power & _STATE_MASK
    constants = []
    for _ in range(width):
        constants += power.to_bytes(16, "big"), total.to_bytes(16, "big")
        power = power * _LCG_MULT & _STATE_MASK
        total = total + power & _STATE_MASK
    words = np.frombuffer(b"".join(constants), dtype=">u8").reshape(width, 2, 2)
    return words.transpose(1, 2, 0).astype(np.uint64)


def _product_sum(pairs):
    """The sum of the products x y modulo 2^128 over the (x, y) `pairs`,
    each number and the sum held as (high, low) uint64 arrays."""
    high = low = 0
    for (x_high, x_low), (y_high, y_low) in pairs:
        product = x_low * y_low
        low = low + product
        high = high + _high_product(x_low, y_low) + x_high * y_low + x_low * y_high
        # The carry out of the low word, added last: a bool array added to
        # the int 0 would make the sum a signed integer.
        high += low < product
    return high, low


def _high_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products x y of uint64 arrays, from
    the four products of their 32-bit halves."""
    x_high, x_low, y_high, y_low = x >> 32, x & _WORD, y >> 32, y & _WORD
    cross, cross_t = x_low * y_high, x_high * y_low
    middle = (x_low * y_low >> 32) + (cross & _WORD) + (cross_t & _WORD)
    return x_high * y_high + (cross >> 32) + (cross_t >> 32) + (middle >> 32)


def _hash_steps(init: int, mult: int):
    """The (xor, multiplier) pairs of successive `hashmix` calls: the hash
    constant before and after each call's update."""
    const = init
    while True:
        updated = const * mult & _WORD
        yield const, updated
        const = updated


def _hashmix(value: np.ndarray, steps) -> np.ndarray:
    """SeedSequence's `hashmix` on uint32 words, with the next hash step."""
    xor, mult = next(steps)
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's `mix` of two uint32 words."""
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> 16)


def monte_carlo_containment(
    net: Network,
    meas: MeasurementSet,
    delta_y: np.ndarray,
    samples: int,
    seed: int,
) -> float:
    """Fraction of resampled state components that stay inside the bound.

    Each sample draws the demand predictions and telemetry values uniformly
    inside their half-width boxes, re-runs the estimation, and counts the
    components whose deviation from the nominal estimate lies within the
    halfwidth. Sample k's offsets are `uniform(-1, 1) * delta_y` on the
    stream of `np.random.default_rng((seed, k))`, computed for all samples
    at once by `seeded_uniforms`, which builds no generator, so results are
    reproducible and order-independent. A sample counts as fully
    non-contained when it draws a negative demand, which no network can
    carry, or when its estimation fails (no convergence, or a
    rank-deficient linear system).

    Failed estimations therefore lower the fraction as much as samples
    outside the bound. On the 150-node estimator repro (15 flow and 15
    head meters, 2 % boxes), no sample converges in 50 iterations, and
    the fraction is 0.0 on seed 1234.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    delta_y = np.asarray(delta_y, dtype=float)

    nominal = estimate_state(net, meas)
    interval = sensitivity_bound(net, meas, nominal.state, delta_y)
    center = interval.center.vector
    halfwidth = interval.halfwidth

    n_pipes, n_demand = net.n_pipes, net.n_demand
    n_components = center.shape[0]
    contained = 0

    # `rng.uniform(-1.0, 1.0, size)` of each sample's generator, times delta_y.
    sample_offsets = (-1.0 + 2.0 * seeded_uniforms(seed, samples, delta_y.shape[0])) * delta_y
    for offsets in sample_offsets:
        demands = net.demand + offsets[n_pipes : n_pipes + n_demand]
        perturbed_meas = MeasurementSet(
            tuple(
                replace(m, value=float(m.value + offsets[n_pipes + n_demand + i]))
                for i, m in enumerate(meas.measurements)
            ),
            demand_sigma=meas.demand_sigma,
            demand_delta=meas.demand_delta,
        )
        try:
            sample_net = net.with_demands(demands)
            report = estimate_state(sample_net, perturbed_meas)
        except (ValidationError, NonConvergence, RankDeficient):
            continue
        deviation = np.abs(report.state.vector - center)
        contained += int(np.count_nonzero(deviation <= halfwidth))

    return contained / (samples * n_components)
