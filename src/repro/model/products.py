"""Catalog products.

A product is ``p = (C, {<A1, v1>, ..., <An, vn>})`` (paper Section 2): a
leaf category plus a specification whose attribute names come from the
category schema.  Synthesized products additionally record which offers
they were fused from, which the evaluation harness uses to compute
attribute recall per offer-set size (paper Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.model.attributes import Specification

__all__ = ["Product", "product_fingerprint", "stable_product_id"]


@dataclass
class Product:
    """A structured product instance in (or synthesized for) the catalog.

    Attributes
    ----------
    product_id:
        Stable unique identifier.
    category_id:
        Leaf category the product belongs to.
    title:
        Short display title of the product.
    specification:
        Attribute-value pairs conforming to the category schema.
    source_offer_ids:
        For synthesized products: the offers in the cluster the product was
        fused from.  Empty for pre-existing catalog products.
    """

    product_id: str
    category_id: str
    title: str = ""
    specification: Specification = field(default_factory=Specification)
    source_offer_ids: Tuple[str, ...] = ()

    def attribute_names(self) -> List[str]:
        """Distinct attribute names present in the specification."""
        return self.specification.attribute_names()

    def get(self, attribute_name: str, default: Optional[str] = None) -> Optional[str]:
        """The (first) value of ``attribute_name``, or ``default``."""
        return self.specification.get(attribute_name, default)

    def num_attributes(self) -> int:
        """Number of attribute-value pairs in the specification."""
        return len(self.specification)

    def num_source_offers(self) -> int:
        """Number of offers this product was synthesized from."""
        return len(self.source_offer_ids)

    def with_specification(self, specification: Specification) -> "Product":
        """A copy of this product carrying a different specification."""
        return Product(
            product_id=self.product_id,
            category_id=self.category_id,
            title=self.title,
            specification=specification,
            source_offer_ids=self.source_offer_ids,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Product(id={self.product_id!r}, category={self.category_id!r}, "
            f"attrs={self.num_attributes()})"
        )


def product_fingerprint(products: List["Product"]) -> List[Tuple[object, ...]]:
    """Byte-comparable serialisation of a product list.

    The single definition of what "byte-identical products" means across
    the runtime benchmarks and the test suite: every field of every
    product, in order.  Two product lists are byte-identical exactly
    when their (sorted) fingerprints compare equal.
    """
    return [
        (
            product.product_id,
            product.category_id,
            product.title,
            tuple(pair.as_tuple() for pair in product.specification),
            product.source_offer_ids,
        )
        for product in products
    ]


def stable_product_id(category_id: str, cluster_key: str) -> str:
    """A stable, collision-free identifier for a synthesized product.

    Derived from the cluster identity (category + clustering key), so the
    same cluster — whether it was built in one monolithic ``synthesize()``
    call or grew across several engine micro-batches — always yields the
    same product id, and clusters from different batches can never
    collide.  (The previous ``synth-{index:06d}`` scheme restarted at 1 on
    every call, so two batches produced colliding ids.)  It lives with the
    model because both sides use it: synthesis names products with it and
    serving maps a removed cluster back to the product to drop.
    """
    # Imported on first call: hashlib maps OpenSSL (~3.6 MiB resident),
    # which a serving process needs only once a commit removes a cluster.
    import hashlib

    digest = hashlib.sha1(f"{category_id}|{cluster_key}".encode("utf-8")).hexdigest()
    return f"synth-{digest[:12]}"
