"""Tokenisers for attribute values, names, offer titles and page text.

The paper builds "bags of words" from attribute values (Section 3.1) and
treats values as bags of terms during value fusion (Appendix A) and in the
instance-based Naive Bayes matcher (Appendix C).  A single shared tokeniser
keeps those code paths consistent.

Tokenisation rules
------------------
* Unicode text is lower-cased.
* Alphanumeric runs are kept together (``500gb`` stays one token) but
  punctuation splits tokens (``SATA-300`` -> ``sata``, ``300``... no:
  hyphens between alphanumerics split, which matches how merchants vary
  between ``SATA-300`` and ``SATA 300``).
* Pure punctuation is dropped.
* Numeric tokens keep a decimal point when it is internal (``3.5`` is one
  token) so that form factors and sizes survive tokenisation.
"""

from __future__ import annotations

import re
from typing import List, Sequence

__all__ = [
    "tokenize",
    "tokenize_value",
    "tokenize_title",
    "tokenize_attribute_name",
    "sliding_ngrams",
]

# A token is either a number (possibly with an internal decimal point) or a
# run of letters/digits.  ``3.5`` and ``500gb`` survive as single tokens,
# while ``SATA-300`` becomes ``sata`` and ``300``.
_TOKEN_RE = re.compile(r"\d+\.\d+|[a-z0-9]+")

# Attribute names frequently embed separators such as "/" or "&" which carry
# no meaning ("Storage Hard Drive / Capacity").
_NAME_SEPARATOR_RE = re.compile(r"[/&|,;:()\[\]{}]")

_WHITESPACE_RE = re.compile(r"\s+")


def tokenize(text: str) -> List[str]:
    """Tokenise arbitrary text into lower-case alphanumeric tokens.

    Parameters
    ----------
    text:
        Any string; ``None``-safe callers should pass ``""`` instead.

    Returns
    -------
    list of str
        Tokens in their original order (duplicates preserved).

    Examples
    --------
    >>> tokenize("Hitachi 500GB S/ATA2 7200rpm")
    ['hitachi', '500gb', 's', 'ata2', '7200rpm']
    >>> tokenize("3.5\\" x 1/3H")
    ['3.5', 'x', '1', '3h']
    """
    if not text:
        return []
    return _TOKEN_RE.findall(text.lower())


def tokenize_value(value: str) -> List[str]:
    """Tokenise an attribute value.

    Currently identical to :func:`tokenize`; exists as a separate entry
    point so value-specific handling (e.g. unit splitting) can evolve
    without touching title tokenisation.
    """
    return tokenize(value)


def tokenize_title(title: str) -> List[str]:
    """Tokenise an offer title (short free-text product description)."""
    return tokenize(title)


def tokenize_attribute_name(name: str) -> List[str]:
    """Tokenise an attribute name.

    Attribute names use separators (``Storage Hard Drive / Capacity``) and
    abbreviations with periods (``Mfr. Part #``).  Separators are removed
    before the generic tokeniser runs.

    Examples
    --------
    >>> tokenize_attribute_name("Storage Hard Drive / Capacity")
    ['storage', 'hard', 'drive', 'capacity']
    >>> tokenize_attribute_name("Mfr. Part #")
    ['mfr', 'part']
    """
    if not name:
        return []
    cleaned = _NAME_SEPARATOR_RE.sub(" ", name)
    return tokenize(cleaned)


def sliding_ngrams(tokens: Sequence[str], n: int) -> List[str]:
    """Return token n-grams (joined with a single space).

    Used by the title-based category classifier to capture short phrases
    such as "hard drive" and "digital camera".

    Raises
    ------
    ValueError
        If ``n`` is not a positive integer.
    """
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    if len(tokens) < n:
        return []
    return [" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]
