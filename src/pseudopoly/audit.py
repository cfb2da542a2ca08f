"""End-to-end audit pipeline for integer sequences.

Stages, in order: primary congruence check, growth estimate against a
configurable bound, Hankel determinant table with the primorial-power
divisibility audit, rationality detection, and (when rational) singular
directions, the power-of-(1-x) denominator test, and the polynomiality
certificate.  Every report carries its evidence tables, never a bare
verdict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .analytic import SingularityReport, singular_directions
from .core import ExactSequence, InputError, InternalInvariantError, IntPolynomial
from .hankel import (
    HankelRecord,
    RationalFunction,
    RationalityDetection,
    detect_rationality,
    hankel_table,
    max_order,
)
from .sequences import (
    CongruenceReport,
    GrowthReport,
    check_congruences,
    growth_rate,
    polynomial_certificate,
)

# The whole pipeline rests on this strict inequality between the congruence
# lower bound exp(n^2/2) ~ (sqrt(e))^(n^2) and the two-direction capacity
# ceiling (e/2)^(n^2); it must hold exactly on doubles.
SQRT_E = math.sqrt(math.e)
HALF_E = math.e / 2
assert SQRT_E > HALF_E, "guard inequality sqrt(e) > e/2 failed"

VERDICT_POLYNOMIAL = "polynomial"
VERDICT_RATIONAL_NON_POLYNOMIAL = "rational_non_polynomial"
VERDICT_UNDETERMINED = "undetermined"
VERDICT_CONGRUENCE_VIOLATION = "congruence_violation"


@dataclass(frozen=True)
class AuditConfig:
    growth_bound: float = math.e
    window: int = 3
    n_max: int | None = None  # Hankel orders; defaults to all observable

    def __post_init__(self):
        if not math.isfinite(self.growth_bound):
            raise InputError("growth_bound must be finite")


@dataclass(frozen=True)
class AuditReport:
    """Full audit evidence plus the verdict.

    The polynomial verdict means: rationality was detected, the denominator
    is a power of (1 - x), and the finite-difference certificate succeeded.
    It is a statement about the observed prefix only.
    """

    length: int
    config: AuditConfig
    congruence: CongruenceReport
    growth: GrowthReport
    growth_below_bound: bool
    hankel: tuple[HankelRecord, ...]
    rationality: RationalityDetection
    singularities: SingularityReport | None
    denominator_is_power_of_one_minus_x: bool | None
    verdict: str
    degree: int | None


def is_power_of_one_minus_x(poly: IntPolynomial) -> bool:
    """Exact test: poly is c * (1 - x)^d, i.e. its coefficients are
    c * (-1)^k * C(d, k) for its constant term c != 0 and degree d.
    Constants themselves count as the zeroth power."""
    if poly.is_zero:
        return False
    c = poly.constant_term()
    d = poly.degree
    return all(
        a == (-c if k % 2 else c) * math.comb(d, k)
        for k, a in enumerate(poly.coefficients)
    )


def ruzsa_audit(seq: ExactSequence, config: AuditConfig | None = None) -> AuditReport:
    """Run the full audit pipeline on an integer sequence prefix.

    A sequence whose prefix passes the primary congruence check must also
    pass the Hankel divisibility audit; that implication is a theorem, so
    a failure there raises InternalInvariantError instead of being
    reported as a property of the input.
    """
    cfg = config or AuditConfig()
    if len(seq) < 10:
        raise InputError("the audit needs a prefix of at least 10 terms")
    if not seq.is_integer:
        raise InputError("the audit is defined for integer sequences")

    congruence = check_congruences(seq, "primary")
    growth = growth_rate(seq)
    growth_below_bound = growth.tail_sup < cfg.growth_bound

    n_max = cfg.n_max if cfg.n_max is not None else max_order(seq)
    records = tuple(hankel_table(seq, n_max))
    if congruence.ok:
        offenders = [r.n for r in records if not r.divisible]
        if offenders:
            raise InternalInvariantError(
                "congruence-passing prefix produced non-divisible Hankel "
                f"determinants at orders {offenders}; this contradicts a "
                "proved divisibility property and indicates a bug"
            )

    detection = detect_rationality(seq, cfg.window)

    singularities = None
    power_of_one_minus_x = None
    degree = None
    if detection.function is not None:
        func: RationalFunction = detection.function
        if func.denominator.degree >= 1:
            singularities = singular_directions(func)
        power_of_one_minus_x = is_power_of_one_minus_x(func.denominator)
        degree = polynomial_certificate(seq)

    if not congruence.ok:
        verdict = VERDICT_CONGRUENCE_VIOLATION
        degree = None
    elif detection.function is not None:
        if power_of_one_minus_x and degree is not None:
            verdict = VERDICT_POLYNOMIAL
        else:
            verdict = VERDICT_RATIONAL_NON_POLYNOMIAL
            degree = None
    else:
        verdict = VERDICT_UNDETERMINED

    return AuditReport(
        length=len(seq),
        config=cfg,
        congruence=congruence,
        growth=growth,
        growth_below_bound=growth_below_bound,
        hankel=records,
        rationality=detection,
        singularities=singularities,
        denominator_is_power_of_one_minus_x=power_of_one_minus_x,
        verdict=verdict,
        degree=degree,
    )
