"""Attribute-value pairs and specifications.

Both products and offers are described by *specifications*: ordered
collections of attribute-value pairs.  An offer specification uses the
merchant's own attribute vocabulary; a product specification uses the
catalog schema of its category.  The same container type serves both
(paper Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.text.memo import cached_normalize_attribute_name
from repro.text.normalize import normalize_value

__all__ = ["AttributeValue", "Specification"]


@dataclass(frozen=True)
class AttributeValue:
    """A single ⟨attribute, value⟩ pair.

    Attributes
    ----------
    name:
        Attribute name exactly as provided (catalog schema name or merchant
        vocabulary).
    value:
        Attribute value as a string; numeric values keep their original
        formatting (``"500 GB"``) because format variation is part of the
        problem the pipeline solves.

    The most numerous object of every process, so it carries no
    ``__dict__``: the slots are declared by hand (``dataclass(slots=True)``
    needs Python 3.10), and ``__reduce__`` rebuilds a pair through its
    constructor, because unpickling slot state would go through the frozen
    ``__setattr__`` and fail.
    """

    __slots__ = ("name", "value")

    name: str
    value: str

    def __reduce__(self) -> Tuple[type, Tuple[str, str]]:
        return (AttributeValue, (self.name, self.value))

    def normalized_name(self) -> str:
        """The attribute name canonicalised for identity comparison."""
        return cached_normalize_attribute_name(self.name)

    def normalized_value(self) -> str:
        """The value canonicalised for loose comparison."""
        return normalize_value(self.value)

    def as_tuple(self) -> Tuple[str, str]:
        """The pair as a plain ``(name, value)`` tuple."""
        return (self.name, self.value)

    def __str__(self) -> str:
        return f"{self.name} = {self.value}"


class Specification:
    """An ordered multi-map of attribute-value pairs.

    A specification may legitimately contain several values for the same
    attribute name (merchant pages are messy); most accessors therefore
    distinguish between the *first* value (:meth:`get`) and *all* values
    (:meth:`get_all`).

    Examples
    --------
    >>> spec = Specification([("Brand", "Hitachi"), ("Capacity", "500 GB")])
    >>> spec.get("Brand")
    'Hitachi'
    >>> len(spec)
    2
    """

    __slots__ = ("_pairs",)

    def __init__(
        self,
        pairs: Iterable[object] = (),
    ) -> None:
        self._pairs: List[AttributeValue] = []
        for pair in pairs:
            if isinstance(pair, AttributeValue):
                self._pairs.append(pair)
            else:
                name, value = pair  # type: ignore[misc]
                self._pairs.append(AttributeValue(str(name), str(value)))

    # -- construction -----------------------------------------------------

    def add(self, name: str, value: str) -> None:
        """Append an attribute-value pair."""
        self._pairs.append(AttributeValue(name, value))

    def extend(self, pairs: Iterable[AttributeValue]) -> None:
        """Append several attribute-value pairs."""
        for pair in pairs:
            self._pairs.append(pair)

    # -- lookup -----------------------------------------------------------

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """First value for ``name`` (case/punctuation-insensitive)."""
        wanted = cached_normalize_attribute_name(name)
        for pair in self._pairs:
            if pair.normalized_name() == wanted:
                return pair.value
        return default

    def get_all(self, name: str) -> List[str]:
        """All values recorded for ``name``."""
        wanted = cached_normalize_attribute_name(name)
        return [pair.value for pair in self._pairs if pair.normalized_name() == wanted]

    def has(self, name: str) -> bool:
        """Whether the specification contains attribute ``name``."""
        return self.get(name) is not None

    def attribute_names(self) -> List[str]:
        """Distinct attribute names in first-seen order."""
        seen = set()
        names: List[str] = []
        for pair in self._pairs:
            key = pair.normalized_name()
            if key not in seen:
                seen.add(key)
                names.append(pair.name)
        return names

    def pairs(self) -> List[AttributeValue]:
        """A copy of the underlying attribute-value pair list."""
        return list(self._pairs)

    def as_dict(self) -> Dict[str, str]:
        """First value per attribute name, as a plain dict."""
        result: Dict[str, str] = {}
        for pair in self._pairs:
            result.setdefault(pair.name, pair.value)
        return result

    # -- dunder -----------------------------------------------------------

    def __iter__(self) -> Iterator[AttributeValue]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __bool__(self) -> bool:
        return bool(self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Specification):
            return NotImplemented
        return self._pairs == other._pairs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(str(pair) for pair in self._pairs[:4])
        suffix = ", ..." if len(self._pairs) > 4 else ""
        return f"Specification([{preview}{suffix}])"
