"""Character- and token-level string similarity metrics.

These metrics back two of the comparison systems re-implemented for the
paper's evaluation section:

* the **COMA++-style name matchers** (Figure 8/9) use edit-distance,
  character-trigram and token similarities between attribute names;
* the **DUMAS** baseline (Appendix C) uses SoftTFIDF, whose inner
  similarity is Jaro-Winkler (:func:`jaro_winkler_similarity`).
"""

from __future__ import annotations

from typing import List

from repro.text.tokenize import tokenize_attribute_name

__all__ = [
    "levenshtein_distance",
    "levenshtein_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "character_ngrams",
    "ngram_similarity",
    "token_set_similarity",
]


def levenshtein_distance(a: str, b: str) -> int:
    """Classic Levenshtein edit distance (insert/delete/substitute, cost 1).

    Examples
    --------
    >>> levenshtein_distance("capacity", "capacty")
    1
    >>> levenshtein_distance("", "abc")
    3
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    # Keep the shorter string in the inner dimension for memory locality.
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            insert_cost = current[j - 1] + 1
            delete_cost = previous[j] + 1
            substitute_cost = previous[j - 1] + (0 if char_a == char_b else 1)
            current.append(min(insert_cost, delete_cost, substitute_cost))
        previous = current
    return previous[-1]


def levenshtein_similarity(a: str, b: str) -> float:
    """Edit distance converted to a similarity in [0, 1].

    ``1 - distance / max(len(a), len(b))``; two empty strings are defined
    as similarity 1.0.
    """
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(a, b) / longest


def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity between two strings, in [0, 1]."""
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        return 0.0

    match_window = max(len_a, len_b) // 2 - 1
    match_window = max(match_window, 0)

    a_matched = [False] * len_a
    b_matched = [False] * len_b
    matches = 0
    for i, char_a in enumerate(a):
        start = max(0, i - match_window)
        end = min(i + match_window + 1, len_b)
        for j in range(start, end):
            if b_matched[j] or b[j] != char_a:
                continue
            a_matched[i] = True
            b_matched[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0

    # Count transpositions between the matched characters.
    transpositions = 0
    j = 0
    for i in range(len_a):
        if not a_matched[i]:
            continue
        while not b_matched[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2

    return (
        matches / len_a + matches / len_b + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(a: str, b: str, prefix_weight: float = 0.1) -> float:
    """Jaro-Winkler similarity: Jaro boosted by a shared prefix (up to 4 chars).

    Raises
    ------
    ValueError
        If ``prefix_weight`` is outside (0, 0.25]; larger weights can push
        the similarity above 1.
    """
    if not 0.0 < prefix_weight <= 0.25:
        raise ValueError(
            f"prefix_weight must be in (0, 0.25], got {prefix_weight}"
        )
    jaro = jaro_similarity(a, b)
    prefix_length = 0
    for char_a, char_b in zip(a[:4], b[:4]):
        if char_a != char_b:
            break
        prefix_length += 1
    return jaro + prefix_length * prefix_weight * (1.0 - jaro)


def character_ngrams(text: str, n: int = 3, pad: bool = True) -> List[str]:
    """Character n-grams of ``text`` (default trigrams), optionally padded.

    Padding with ``#`` emphasises prefixes/suffixes, which is how the
    COMA++ trigram matcher behaves.

    Raises
    ------
    ValueError
        If ``n`` is not a positive integer.
    """
    if n < 1:
        raise ValueError(f"n-gram size must be >= 1, got {n}")
    if not text:
        return []
    padded = f"{'#' * (n - 1)}{text.lower()}{'#' * (n - 1)}" if pad else text.lower()
    if len(padded) < n:
        return [padded]
    return [padded[i : i + n] for i in range(len(padded) - n + 1)]


def ngram_similarity(a: str, b: str, n: int = 3) -> float:
    """Dice similarity between the character n-gram sets of two strings."""
    grams_a = set(character_ngrams(a, n=n))
    grams_b = set(character_ngrams(b, n=n))
    if not grams_a and not grams_b:
        return 1.0
    if not grams_a or not grams_b:
        return 0.0
    return 2.0 * len(grams_a & grams_b) / (len(grams_a) + len(grams_b))


def token_set_similarity(a: str, b: str) -> float:
    """Jaccard similarity between the token sets of two attribute names.

    ``"Storage Hard Drive / Capacity"`` and ``"Capacity"`` share the token
    ``capacity`` and therefore have non-zero similarity even though their
    edit distance is large.
    """
    tokens_a = set(tokenize_attribute_name(a))
    tokens_b = set(tokenize_attribute_name(b))
    if not tokens_a and not tokens_b:
        return 1.0
    union = tokens_a | tokens_b
    if not union:
        return 0.0
    return len(tokens_a & tokens_b) / len(union)
