"""Chebyshev theta from one running accumulator (``theta_rows``), the exact
primorial-power exponent identity, asymptotic ratios, capacity bounds for
hedgehog compacts, a Leja-point transfinite diameter estimator, and
singular-direction extraction for rational functions.

The exponent identity is verified as exact integer counting, never as a
floating-point log comparison; only the explicitly approximate quantities
(theta sums, capacity estimates, polynomial roots) use doubles.
"""
from __future__ import annotations

import cmath
import math
import sys
from typing import Iterable, Iterator, NamedTuple

from .core import InputError, NumericError
from .hankel import RationalFunction
from .polyarith import from_int_polynomial, squarefree_factors
from .primes import sieve_flags, sieve_primes

DIRECTION_TOL = 1e-6  # radians; argument clustering for singular directions
RESIDUAL_TOL = 1e-9  # relative residual accepted from the root finder


class Hedgehog(NamedTuple("Hedgehog", [("endpoints", tuple)])):
    """Union of segments from 0 to each endpoint.

    Endpoints must be nonzero with arguments that the clustering of
    singular directions keeps apart at DIRECTION_TOL, so the segments only
    meet at the origin.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, endpoints: Iterable[complex]):
        pts = tuple(map(complex, endpoints))
        if len(pts) < 1:
            raise InputError("a hedgehog needs at least one endpoint")
        for z in pts:
            if not cmath.isfinite(z):
                raise InputError(f"hedgehog endpoint {z} is not finite")
            if z == 0:
                raise InputError("hedgehog endpoints must be nonzero")
            if math.hypot(z.real, z.imag) == math.inf:
                raise InputError(f"hedgehog endpoint {z} has a modulus past the float range")
        # not cmath.phase, which raises OverflowError when the argument underflows
        args = [math.atan2(z.imag, z.real) for z in pts]
        if len(_cluster_directions(args, DIRECTION_TOL)) < len(args):
            raise InputError(
                "two endpoints share a direction; "
                "segments must be disjoint away from 0"
            )
        return super().__new__(cls, pts)

    @property
    def spike_count(self) -> int:
        return len(self.endpoints)


class SingularityReport(NamedTuple):
    """Poles of a rational function with their argument classes.

    ``directions`` are the distinct principal arguments of the poles,
    clustered at DIRECTION_TOL and sorted ascending; ``radius`` is the
    smallest pole modulus.
    """

    poles: tuple[tuple[complex, int], ...]  # (location, multiplicity)
    directions: tuple[float, ...]
    direction_count: int
    radius: float


def theta_rows(n_max: int) -> Iterator[tuple[int, float, float]]:
    """Yield (n, theta(n), sum of theta(k) for k < n) for n = 0..n_max.

    This is the one running-theta accumulator: one sieve, log p added in
    ascending order of p, and the partial sum extended by theta(n) after
    row n.  Every theta value and partial sum in the package comes from
    here, so they agree to the last bit.
    """
    if n_max < 0:
        raise InputError("n_max must be >= 0")
    flags = sieve_flags(n_max)
    theta = 0.0
    partial = 0.0
    for n in range(n_max + 1):
        if flags[n]:
            theta += math.log(n)
        yield n, theta, partial
        partial += theta


def _last(rows):
    for row in rows:
        pass
    return row


def chebyshev_theta(x: float) -> float:
    """Sum of log p over primes p <= x, accumulated in ascending order."""
    if x < 0:
        raise InputError("theta is defined for x >= 0")
    return _last(theta_rows(int(math.floor(x))))[1]


class ExponentIdentityReport(NamedTuple):
    """Per-prime comparison of counted against required exponents."""

    n: int
    passed: bool
    per_prime: tuple[tuple[int, int, int], ...]  # (prime, counted, required)


def _exponent_counts(n_max: int):
    """Yield (n, per_prime) for n = 1..n_max, where per_prime lists
    (p, counted, n - p) for every prime p <= n - 1.

    ``counted`` is the multiplicity of p in theta(0) + ... + theta(n - 1),
    counted incrementally: theta(k) contributes one unit to every prime
    p <= k, so each n costs one pass over the primes seen so far.
    """
    primes = sieve_primes(n_max - 1)
    counted: list[int] = []
    for n in range(1, n_max + 1):
        if len(counted) < len(primes) and primes[len(counted)] == n - 1:
            counted.append(0)
        counted = [c + 1 for c in counted]
        yield n, tuple((p, c, n - p) for p, c in zip(primes, counted))


def exponent_identity_check(n: int) -> ExponentIdentityReport:
    """Verify, by exact counting, that the summed theta values up to n - 1
    carry each prime p <= n - 1 with multiplicity exactly n - p.

    The left side is counted by decomposing every theta term into its
    primes; no logarithm is evaluated, so the verdict is exact.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    _, per_prime = _last(_exponent_counts(n))
    passed = all(c == r for _, c, r in per_prime)
    return ExponentIdentityReport(n, passed, per_prime)


class ExponentIdentitySweep(NamedTuple):
    checked_max: int
    passed: bool
    first_failure: int | None


def exponent_identity_sweep(n_max: int) -> ExponentIdentitySweep:
    """Run the exponent identity check for every n = 1..n_max.

    Shares the incremental count of ``exponent_identity_check``, so the
    whole sweep costs what a single check at n_max does.
    """
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    for n, per_prime in _exponent_counts(n_max):
        if any(c != r for _, c, r in per_prime):
            return ExponentIdentitySweep(n_max, False, n)
    return ExponentIdentitySweep(n_max, True, None)


def theta_partial_sum(n: int) -> float:
    """Sum of theta(k) for k = 0..n-1, read from the running accumulator."""
    if n < 1:
        raise InputError("n must be >= 1")
    return _last(theta_rows(n))[2]


def asymptotic_ratio(n: int) -> float:
    """Partial theta sum divided by n^2 / 2.

    Tends to 1 as n grows (prime number theorem); well below 1 for small n
    because theta undercounts there.
    """
    if n < 10:
        raise InputError("the ratio is meaningful for n >= 10")
    return theta_partial_sum(n) / (n * n / 2)


def dubinin_bound(hedgehog: Hedgehog) -> float:
    """Sharp upper bound max|endpoint| / 4^(1/r) for the transfinite
    diameter of a hedgehog with r spikes; equality holds exactly for the
    vertices of a regular r-gon centered at the origin.  The endpoints are
    nonzero, so a bound that underflows to 0 is a NumericError."""
    bound = max(map(abs, hedgehog.endpoints)) / 4 ** (1 / hedgehog.spike_count)
    if bound == 0:
        raise NumericError("the bound underflows to 0 in floating point")
    return bound


def polya_bound_for_series(rho: float, r: int) -> float:
    """Capacity-driven ceiling 1 / (4^(1/r) * rho) on the normalized Hankel
    determinant growth of a series with convergence radius rho and at most
    r singular directions."""
    if rho <= 0:
        raise InputError("rho must be positive")
    if r < 1:
        raise InputError("r must be a positive integer")
    return 1 / (4 ** (1 / r) * rho)


def estimate_transfinite_diameter(
    hedgehog: Hedgehog, leja_points: int = 64, discretization: int = 2048
) -> float:
    """Greedy Leja estimate of the transfinite diameter of a hedgehog.

    Each spike is discretized into ``discretization`` uniform points; the
    first Leja point is a maximum-modulus endpoint and every subsequent
    point maximizes the product of distances to those already chosen.

    The raw pairwise geometric mean of an m-point configuration,
    (prod_{i<j} |z_i - z_j|)^(2/(m(m-1))), overshoots the diameter by a
    factor 1 + O(log m / m).  The leading term is removed by fitting it
    against the half-size configuration drawn from the same Leja sequence,
    which leaves a slightly-low estimate of the true diameter (for m < 5
    the fit is ill-posed and the raw mean is returned).
    """
    # Imported here, not at module level, so that commands without a
    # root finder or this estimator start without numpy.
    import numpy as np

    m = leja_points
    if m < 2:
        raise InputError("need at least 2 Leja points")
    if discretization < 16:
        raise InputError("need at least 16 discretization points per spike")
    spikes = [
        np.linspace(0.0 + 0.0j, complex(z), discretization)
        for z in hedgehog.endpoints
    ]
    candidates = np.concatenate(spikes)
    distinct = len(candidates) - (len(spikes) - 1)  # origin shared by all spikes
    if m > distinct:
        raise InputError(
            f"{m} Leja points need at least {m} distinct candidates, have {distinct}"
        )
    moduli = [abs(z) for z in hedgehog.endpoints]
    if max(moduli) > sys.float_info.max / 2:
        raise InputError(
            f"endpoint moduli must be at most {sys.float_info.max / 2:.6g}, so that "
            "distances between points of the hedgehog stay finite"
        )
    start_spike = int(np.argmax(moduli))
    selected = np.empty(m, dtype=complex)
    selected[0] = spikes[start_spike][-1]
    increments = []  # log prod of distances from each new point to the chosen ones
    with np.errstate(divide="ignore"):
        log_dist = np.log(np.abs(candidates - selected[0]))
        for t in range(1, m):
            pick = int(np.argmax(log_dist))
            increments.append(float(log_dist[pick]))
            selected[t] = candidates[pick]
            log_dist += np.log(np.abs(candidates - selected[t]))
    if -math.inf in increments:
        raise InputError(
            f"the spikes hold fewer than {m} distinct points in floating point"
        )

    def log_pairwise_mean(t: int) -> float:
        return 2 * sum(increments[: t - 1]) / (t * (t - 1))

    raw = log_pairwise_mean(m)
    half = m // 2
    if half < 2:
        return math.exp(raw)
    u_half, u_full = math.log(half) / half, math.log(m) / m
    if abs(u_half - u_full) < 1e-12:
        return math.exp(raw)
    slope = (log_pairwise_mean(half) - raw) / (u_half - u_full)
    return math.exp(raw - slope * u_full)


def _cluster_directions(args: list[float], tol: float) -> list[float]:
    """Distinct argument classes: chained clustering with 2*pi wraparound."""
    if not args:
        return []
    ordered = sorted(args)
    clusters = [[ordered[0]]]
    for a in ordered[1:]:
        if a - clusters[-1][-1] <= tol:
            clusters[-1].append(a)
        else:
            clusters.append([a])
    if len(clusters) > 1 and (clusters[0][0] + 2 * math.pi) - clusters[-1][-1] <= tol:
        clusters[0] = clusters.pop() + clusters[0]
    return sorted(c[0] for c in clusters)


def singular_directions(function: RationalFunction) -> SingularityReport:
    """Locate the poles of a rational function and group their arguments.

    Multiplicities are obtained exactly (squarefree decomposition over the
    integers), so the root finder only ever sees simple roots: each
    primitive factor divided by its leading coefficient, as correctly
    rounded quotients of ints.  A linear factor c0 + c1 x needs no root
    finder: its pole is the correctly rounded -(c0 / c1).  ``np.roots``
    returns the same double wherever |c0 / c1| lies between about 2^-459
    and 2^459; beyond, LAPACK's rescaling can leave its root one ulp off.
    Each root of a factor of higher degree must pass a relative residual
    test at RESIDUAL_TOL or NumericError is raised.  Every factor has a
    nonzero constant term, so 0 is never a pole, and a pole that reads 0
    has underflowed: NumericError, since its direction is lost.
    Directions are principal arguments clustered at DIRECTION_TOL; the
    radius is the smallest pole modulus.
    """
    den = function.denominator
    if den.degree < 1:
        raise InputError("denominator must have degree >= 1")
    poles: list[tuple[complex, int]] = []
    for factor, multiplicity in squarefree_factors(from_int_polynomial(den)):
        try:
            coeffs = [c / factor[-1] for c in reversed(factor)]
        except OverflowError as exc:
            raise NumericError(f"a denominator factor is past the float range: {exc}") from exc
        if len(coeffs) == 2:
            poles.append((complex(-coeffs[1]), multiplicity))
            continue
        # Imported here, not at module level: only a factor of degree >= 2
        # needs the root finder, so every other command, polynomial audits
        # included, starts without numpy.
        import numpy as np

        coeffs = np.array(coeffs)
        roots = np.roots(coeffs)
        scale = float(np.max(np.abs(coeffs)))
        deg = len(coeffs) - 1
        bad = []
        for z in roots:
            residual = abs(np.polyval(coeffs, z))
            allowed = RESIDUAL_TOL * scale * max(1.0, abs(z)) ** deg
            if residual > allowed:
                bad.append((complex(z), float(residual)))
        if bad:
            raise NumericError(f"root residuals exceed tolerance {RESIDUAL_TOL}: {bad}")
        poles.extend((complex(z), multiplicity) for z in roots)
    if any(z == 0 for z, _ in poles):
        raise NumericError("a pole underflows to 0 in floating point")
    poles.sort(key=lambda pm: (pm[0].real, pm[0].imag))
    directions = _cluster_directions(
        [math.atan2(z.imag, z.real) for z, _ in poles], DIRECTION_TOL
    )
    radius = min(abs(z) for z, _ in poles)
    return SingularityReport(
        tuple(poles), tuple(directions), len(directions), radius
    )
