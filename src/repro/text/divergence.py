"""Kullback-Leibler and Jensen-Shannon divergence between term distributions.

Paper Section 3.1 defines the distributional-similarity feature used by the
attribute-correspondence classifier:

    JS(p_A || p_B) = 1/2 KL(p_A || p_M) + 1/2 KL(p_B || p_M)

where ``p_M = 1/2 p_A + 1/2 p_B`` is the average distribution and KL is the
Kullback-Leibler divergence.  Because every term of ``p_A`` also appears in
``p_M`` with at least half of its probability, the JS divergence is always
finite and bounded by ``ln 2`` (natural log) or 1 bit (log base 2).
"""

from __future__ import annotations

import math
from typing import Union

from repro.text.distributions import BagOfWords, TermDistribution

__all__ = [
    "kl_divergence",
    "jensen_shannon_divergence",
    "jensen_shannon_similarity",
    "MAX_JS_DIVERGENCE",
]

DistributionLike = Union[TermDistribution, BagOfWords]

#: Upper bound of the JS divergence in base-2 logarithm (1 bit).
MAX_JS_DIVERGENCE = 1.0


def _as_distribution(dist: DistributionLike) -> TermDistribution:
    if isinstance(dist, BagOfWords):
        return dist.distribution()
    if isinstance(dist, TermDistribution):
        return dist
    raise TypeError(
        f"expected TermDistribution or BagOfWords, got {type(dist).__name__}"
    )


def kl_divergence(
    p: DistributionLike, q: DistributionLike, base: float = 2.0
) -> float:
    """Kullback-Leibler divergence ``KL(p || q)``.

    Terms with ``p(t) == 0`` contribute nothing.  Terms with ``p(t) > 0``
    but ``q(t) == 0`` make the divergence infinite; this situation never
    arises inside the JS computation (the mixture dominates both operands)
    but can arise when KL is called directly, in which case ``math.inf`` is
    returned.

    Parameters
    ----------
    p, q:
        Term distributions (or bags of words, converted automatically).
    base:
        Logarithm base; the paper reports values consistent with base 2.

    Raises
    ------
    ValueError
        If either distribution is empty or ``base`` is not greater than 1.
    """
    if base <= 1.0:
        raise ValueError(f"logarithm base must be > 1, got {base}")
    p_dist = _as_distribution(p)
    q_dist = _as_distribution(q)
    if p_dist.is_empty() or q_dist.is_empty():
        raise ValueError("KL divergence is undefined for empty distributions")

    log_base = math.log(base)
    total = 0.0
    # The operand's own dict: one lookup per term, no method call.
    q_probability = q_dist._probs.get
    for term, p_t in p_dist.items():
        if p_t <= 0.0:
            continue
        q_t = q_probability(term, 0.0)
        if q_t <= 0.0:
            return math.inf
        total += p_t * (math.log(p_t / q_t) / log_base)
    # Floating point noise can produce a tiny negative number when the two
    # distributions are identical.
    return max(total, 0.0)


def jensen_shannon_divergence(
    p: DistributionLike, q: DistributionLike, base: float = 2.0
) -> float:
    """Jensen-Shannon divergence between two term distributions.

    Symmetric, finite, and bounded by 1.0 when ``base=2``.  Two identical
    distributions have divergence 0; distributions with disjoint support
    have divergence 1 (base 2).

    When exactly one of the distributions is empty the divergence is
    defined here as the maximum (1.0): an attribute with no observed
    values carries no evidence of similarity.  When both are empty the
    divergence is also the maximum, mirroring how the feature extractor
    treats missing evidence.

    Examples
    --------
    >>> from repro.text.distributions import TermDistribution
    >>> speed = TermDistribution.from_values(["5400", "7200", "5400", "7200"])
    >>> rpm = TermDistribution.from_values(["5400", "7200", "5400", "7200"])
    >>> jensen_shannon_divergence(speed, rpm)
    0.0
    """
    p_dist = _as_distribution(p)
    q_dist = _as_distribution(q)
    if p_dist.is_empty() or q_dist.is_empty():
        return MAX_JS_DIVERGENCE
    if base <= 1.0:
        raise ValueError(f"logarithm base must be > 1, got {base}")

    log_base = math.log(base)
    left = _kl_to_midpoint(p_dist._probs, q_dist._probs, log_base)
    right = _kl_to_midpoint(q_dist._probs, p_dist._probs, log_base)
    value = 0.5 * left + 0.5 * right
    # Clamp against floating point drift slightly above the theoretical max.
    return min(max(value, 0.0), MAX_JS_DIVERGENCE)


def _kl_to_midpoint(own: dict, other: dict, log_base: float) -> float:
    """``KL(own || m)`` with ``m = 0.5 own + 0.5 other``, without building ``m``.

    Bit-equal to ``kl_divergence`` against ``mixture()``, same term order: a
    shared term's ``m_t`` is rebuilt as ``mixture`` stores it, and a term only
    ``own`` has adds ``own_t * log(2)``, as ``own_t / (0.5 * own_t)`` is 2.
    """
    log = math.log
    one_sided = log(2.0) / log_base
    other_probability = other.get
    total = 0.0
    for term, own_t in own.items():
        if own_t <= 0.0:
            continue
        other_t = other_probability(term)
        if other_t is None:
            total += own_t * one_sided
        else:
            total += own_t * (log(own_t / (0.5 * own_t + 0.5 * other_t)) / log_base)
    return max(total, 0.0)


def jensen_shannon_similarity(
    p: DistributionLike, q: DistributionLike, base: float = 2.0
) -> float:
    """Similarity counterpart of the JS divergence: ``1 - JS(p, q)``.

    The correspondence classifier consumes similarities (higher = more
    alike), so this helper converts the divergence into [0, 1] where 1
    means identical distributions.
    """
    return MAX_JS_DIVERGENCE - jensen_shannon_divergence(p, q, base=base)
