"""JSON persistence for catalogs, correspondences and synthesized products.

A production deployment needs to store the catalog, the learned attribute
correspondences and each batch of synthesized products durably.  This
module provides a plain-JSON representation for those artefacts — no
external database required, and the files are diff-able, which is handy for
tracking how the catalog evolves across synthesis runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from sys import intern
from typing import Dict, List, Union

from repro.matching.correspondence import AttributeCorrespondence, CorrespondenceSet
from repro.model.attributes import AttributeValue, Specification
from repro.model.catalog import Catalog
from repro.model.merchants import Merchant
from repro.model.offers import Offer
from repro.model.products import Product
from repro.model.schema import AttributeKind, CategorySchema
from repro.model.taxonomy import Taxonomy

__all__ = [
    "catalog_to_dict",
    "catalog_from_dict",
    "save_catalog",
    "load_catalog",
    "correspondences_to_dict",
    "correspondences_from_dict",
    "save_correspondences",
    "load_correspondences",
    "products_to_dicts",
    "products_from_dicts",
    "product_to_dict",
    "product_from_dict",
    "offer_to_dict",
    "offer_from_dict",
    "offers_to_dicts",
    "offers_from_dicts",
]

PathLike = Union[str, Path]

#: Format marker written into every file so future readers can migrate.
_FORMAT_VERSION = 1


# --- products ----------------------------------------------------------------


def product_to_dict(product: Product) -> Dict:
    """Serialise one product to a JSON-compatible dict."""
    return {
        "product_id": product.product_id,
        "category_id": product.category_id,
        "title": product.title,
        "specification": [pair.as_tuple() for pair in product.specification],
        "source_offer_ids": list(product.source_offer_ids),
    }


def product_from_dict(payload: Dict) -> Product:
    """Deserialise one product previously produced by :func:`product_to_dict`.

    Attribute names are interned: a catalog repeats a few dozen names
    across every product, and a decoded catalog then holds each once.
    """
    return Product(
        product_id=payload["product_id"],
        category_id=payload["category_id"],
        title=payload.get("title", ""),
        specification=Specification(
            [
                AttributeValue(intern(str(name)), str(value))
                for name, value in payload.get("specification", [])
            ]
        ),
        source_offer_ids=tuple(payload.get("source_offer_ids", [])),
    )


# Backwards-compatible aliases (the public names are new).
_product_to_dict = product_to_dict
_product_from_dict = product_from_dict


def products_to_dicts(products: List[Product]) -> List[Dict]:
    """Serialise a list of products to JSON-compatible dicts."""
    return [_product_to_dict(product) for product in products]


def products_from_dicts(payloads: List[Dict]) -> List[Product]:
    """Deserialise products previously produced by :func:`products_to_dicts`."""
    return [_product_from_dict(payload) for payload in payloads]


# --- offers ------------------------------------------------------------------


def offer_to_dict(offer: Offer) -> Dict:
    """Serialise one offer to a JSON-compatible dict.

    Every field round-trips exactly (including the reconciled
    specification), which is what lets the durable runtime catalog store
    rebuild clusters whose fused products are byte-identical to the
    in-memory originals.
    """
    payload: Dict = {
        "offer_id": offer.offer_id,
        "merchant_id": offer.merchant_id,
        "title": offer.title,
        "price": offer.price,
        "url": offer.url,
        "feed_category": offer.feed_category,
        "specification": [pair.as_tuple() for pair in offer.specification],
    }
    if offer.image_url is not None:
        payload["image_url"] = offer.image_url
    if offer.category_id is not None:
        payload["category_id"] = offer.category_id
    return payload


def offer_from_dict(payload: Dict) -> Offer:
    """Deserialise one offer previously produced by :func:`offer_to_dict`."""
    return Offer(
        offer_id=payload["offer_id"],
        merchant_id=payload["merchant_id"],
        title=payload.get("title", ""),
        price=payload.get("price", 0.0),
        url=payload.get("url", ""),
        image_url=payload.get("image_url"),
        feed_category=payload.get("feed_category", ""),
        category_id=payload.get("category_id"),
        specification=Specification(payload.get("specification", [])),
    )


def offers_to_dicts(offers: List[Offer]) -> List[Dict]:
    """Serialise a list of offers to JSON-compatible dicts."""
    return [offer_to_dict(offer) for offer in offers]


def offers_from_dicts(payloads: List[Dict]) -> List[Offer]:
    """Deserialise offers previously produced by :func:`offers_to_dicts`."""
    return [offer_from_dict(payload) for payload in payloads]


# --- catalog -----------------------------------------------------------------


def catalog_to_dict(catalog: Catalog) -> Dict:
    """Serialise a catalog (taxonomy, schemas, merchants, products)."""
    return {
        "format_version": _FORMAT_VERSION,
        "categories": [
            {
                "category_id": category.category_id,
                "name": category.name,
                "parent_id": category.parent_id,
            }
            for category in catalog.taxonomy.categories()
        ],
        "schemas": [
            {
                "category_id": schema.category_id,
                "attributes": [
                    {
                        "name": definition.name,
                        "kind": definition.kind.value,
                        "is_key": definition.is_key,
                        "unit": definition.unit,
                    }
                    for definition in schema.definitions()
                ],
            }
            for schema in catalog.schemas()
        ],
        "merchants": [
            {
                "merchant_id": merchant.merchant_id,
                "name": merchant.name,
                "homepage": merchant.homepage,
            }
            for merchant in catalog.merchants()
        ],
        "products": products_to_dicts(catalog.products()),
    }


def catalog_from_dict(payload: Dict) -> Catalog:
    """Rebuild a catalog from :func:`catalog_to_dict` output.

    Raises
    ------
    ValueError
        If the payload declares an unsupported format version.
    """
    version = payload.get("format_version", _FORMAT_VERSION)
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported catalog format version: {version}")

    taxonomy = Taxonomy()
    # Parents must be added before children; categories are stored in
    # insertion order which already satisfies that, but sort defensively so
    # hand-edited files also load.
    pending = list(payload.get("categories", []))
    added: set = set()
    while pending:
        progressed = False
        remaining = []
        for entry in pending:
            parent = entry.get("parent_id")
            if parent is None or parent in added:
                taxonomy.add_category(entry["category_id"], entry["name"], parent_id=parent)
                added.add(entry["category_id"])
                progressed = True
            else:
                remaining.append(entry)
        if not progressed:
            missing = sorted(entry["category_id"] for entry in remaining)
            raise ValueError(f"categories with unresolvable parents: {missing}")
        pending = remaining

    catalog = Catalog(taxonomy)
    for schema_payload in payload.get("schemas", []):
        schema = CategorySchema(schema_payload["category_id"])
        for attribute in schema_payload.get("attributes", []):
            schema.add_attribute(
                attribute["name"],
                kind=AttributeKind(attribute.get("kind", AttributeKind.TEXT.value)),
                is_key=attribute.get("is_key", False),
                unit=attribute.get("unit"),
            )
        catalog.register_schema(schema)
    for merchant_payload in payload.get("merchants", []):
        catalog.register_merchant(
            Merchant(
                merchant_id=merchant_payload["merchant_id"],
                name=merchant_payload["name"],
                homepage=merchant_payload.get("homepage"),
            )
        )
    for product_payload in payload.get("products", []):
        catalog.add_product(_product_from_dict(product_payload))
    return catalog


def save_catalog(catalog: Catalog, path: PathLike) -> None:
    """Write a catalog to a JSON file."""
    Path(path).write_text(json.dumps(catalog_to_dict(catalog), indent=2), encoding="utf-8")


def load_catalog(path: PathLike) -> Catalog:
    """Read a catalog from a JSON file written by :func:`save_catalog`."""
    return catalog_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# --- correspondences ------------------------------------------------------------


def correspondences_to_dict(correspondences: CorrespondenceSet) -> Dict:
    """Serialise learned attribute correspondences."""
    return {
        "format_version": _FORMAT_VERSION,
        "correspondences": [
            {
                "catalog_attribute": correspondence.catalog_attribute,
                "offer_attribute": correspondence.offer_attribute,
                "merchant_id": correspondence.merchant_id,
                "category_id": correspondence.category_id,
                "score": correspondence.score,
            }
            for correspondence in correspondences
        ],
    }


def correspondences_from_dict(payload: Dict) -> CorrespondenceSet:
    """Rebuild a correspondence set from :func:`correspondences_to_dict` output."""
    version = payload.get("format_version", _FORMAT_VERSION)
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported correspondences format version: {version}")
    return CorrespondenceSet(
        AttributeCorrespondence(
            catalog_attribute=entry["catalog_attribute"],
            offer_attribute=entry["offer_attribute"],
            merchant_id=entry["merchant_id"],
            category_id=entry["category_id"],
            score=entry.get("score", 1.0),
        )
        for entry in payload.get("correspondences", [])
    )


def save_correspondences(correspondences: CorrespondenceSet, path: PathLike) -> None:
    """Write learned correspondences to a JSON file."""
    Path(path).write_text(
        json.dumps(correspondences_to_dict(correspondences), indent=2), encoding="utf-8"
    )


def load_correspondences(path: PathLike) -> CorrespondenceSet:
    """Read correspondences from a JSON file written by :func:`save_correspondences`."""
    return correspondences_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
