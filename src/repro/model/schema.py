"""Catalog category schemas.

Every leaf category in the catalog taxonomy has a schema: the set of
attributes a product of that category may carry ("Resolution", "Size",
... for Digital Cameras).  The schema also flags *key attributes* —
Model Part Number and universal identifiers (UPC/EAN/GTIN) — which the
clustering component uses to group offers into product clusters
(paper Section 4, "Clustering").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

from repro.text.normalize import normalize_attribute_name

__all__ = ["AttributeKind", "AttributeDefinition", "CategorySchema"]


class AttributeKind(enum.Enum):
    """Broad value type of a catalog attribute.

    The kind drives synthetic value generation and lets the value-fusion
    ablations distinguish single-token numeric attributes from multi-token
    textual ones.
    """

    TEXT = "text"
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    IDENTIFIER = "identifier"


@dataclass(frozen=True)
class AttributeDefinition:
    """Definition of one attribute in a category schema.

    Attributes
    ----------
    name:
        Canonical catalog attribute name (e.g. ``"Capacity"``).
    kind:
        Broad value type, see :class:`AttributeKind`.
    is_key:
        Whether the attribute identifies the product (MPN/UPC/EAN).
    unit:
        Optional canonical measurement unit (``"GB"``, ``"rpm"``) used by
        the corpus generator when rendering values.
    """

    name: str
    kind: AttributeKind = AttributeKind.TEXT
    is_key: bool = False
    unit: Optional[str] = None

    def normalized_name(self) -> str:
        """Canonicalised attribute name."""
        return normalize_attribute_name(self.name)


class CategorySchema:
    """The set of attribute definitions for one catalog category.

    Examples
    --------
    >>> schema = CategorySchema("computing.hard-drives")
    >>> schema.add_attribute("Model Part Number", AttributeKind.IDENTIFIER, is_key=True)
    >>> schema.add_attribute("Capacity", AttributeKind.NUMERIC, unit="GB")
    >>> schema.is_key_attribute("model part number")
    True
    """

    def __init__(
        self,
        category_id: str,
        attributes: Iterable[AttributeDefinition] = (),
    ) -> None:
        self.category_id = category_id
        self._attributes: Dict[str, AttributeDefinition] = {}
        for definition in attributes:
            self._register(definition)

    def _register(self, definition: AttributeDefinition) -> None:
        key = definition.normalized_name()
        if key in self._attributes:
            raise ValueError(
                f"duplicate attribute {definition.name!r} in schema "
                f"for category {self.category_id!r}"
            )
        self._attributes[key] = definition

    # -- construction -----------------------------------------------------

    def add_attribute(
        self,
        name: str,
        kind: AttributeKind = AttributeKind.TEXT,
        is_key: bool = False,
        unit: Optional[str] = None,
    ) -> AttributeDefinition:
        """Add an attribute definition and return it."""
        definition = AttributeDefinition(name=name, kind=kind, is_key=is_key, unit=unit)
        self._register(definition)
        return definition

    # -- lookup -----------------------------------------------------------

    def attribute_names(self) -> List[str]:
        """Canonical attribute names, in insertion order."""
        return [definition.name for definition in self._attributes.values()]

    def definitions(self) -> List[AttributeDefinition]:
        """All attribute definitions, in insertion order."""
        return list(self._attributes.values())

    def get(self, name: str) -> Optional[AttributeDefinition]:
        """The definition of attribute ``name``, or ``None``."""
        return self._attributes.get(normalize_attribute_name(name))

    def has_attribute(self, name: str) -> bool:
        """Whether the schema defines attribute ``name``."""
        return self.get(name) is not None

    def key_attributes(self) -> List[AttributeDefinition]:
        """Attributes flagged as product keys (MPN / UPC / EAN)."""
        return [definition for definition in self._attributes.values() if definition.is_key]

    def key_attribute_names(self) -> List[str]:
        """Names of the key attributes."""
        return [definition.name for definition in self.key_attributes()]

    def is_key_attribute(self, name: str) -> bool:
        """Whether ``name`` refers to a key attribute."""
        definition = self.get(name)
        return definition is not None and definition.is_key

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[AttributeDefinition]:
        return iter(self._attributes.values())

    def __contains__(self, name: str) -> bool:
        return self.has_attribute(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CategorySchema(category_id={self.category_id!r}, "
            f"attributes={len(self._attributes)})"
        )
