"""Tests for the taxonomy and category schemas."""

import pytest

from repro.model.schema import AttributeKind, CategorySchema
from repro.model.taxonomy import Taxonomy


@pytest.fixture
def taxonomy() -> Taxonomy:
    tax = Taxonomy()
    tax.add_category("computing", "Computing")
    tax.add_category("computing.storage", "Storage", parent_id="computing")
    tax.add_category("computing.storage.hdd", "Hard Drives", parent_id="computing.storage")
    tax.add_category("computing.laptops", "Laptops", parent_id="computing")
    tax.add_category("cameras", "Cameras")
    tax.add_category("cameras.digital", "Digital Cameras", parent_id="cameras")
    return tax


class TestTaxonomy:
    def test_get(self, taxonomy):
        assert taxonomy.get("computing").name == "Computing"

    def test_get_unknown_raises(self, taxonomy):
        with pytest.raises(KeyError):
            taxonomy.get("nope")

    def test_duplicate_id_raises(self, taxonomy):
        with pytest.raises(ValueError):
            taxonomy.add_category("computing", "Computing again")

    def test_unknown_parent_raises(self):
        tax = Taxonomy()
        with pytest.raises(ValueError):
            tax.add_category("child", "Child", parent_id="missing")

    def test_leaves(self, taxonomy):
        ids = {c.category_id for c in taxonomy.leaves()}
        assert ids == {"computing.storage.hdd", "computing.laptops", "cameras.digital"}

    def test_top_level_of_leaf(self, taxonomy):
        assert taxonomy.top_level_of("computing.storage.hdd").category_id == "computing"

    def test_top_level_of_root(self, taxonomy):
        assert taxonomy.top_level_of("cameras").category_id == "cameras"

    def test_descendants_of(self, taxonomy):
        ids = {c.category_id for c in taxonomy.descendants_of("computing")}
        assert ids == {"computing.storage", "computing.storage.hdd", "computing.laptops"}

    def test_subtree_leaf_ids(self, taxonomy):
        assert set(taxonomy.subtree_leaf_ids("computing")) == {
            "computing.storage.hdd",
            "computing.laptops",
        }

    def test_subtree_leaf_ids_of_leaf(self, taxonomy):
        assert taxonomy.subtree_leaf_ids("cameras.digital") == ["cameras.digital"]

    def test_contains_len_iter(self, taxonomy):
        assert "computing" in taxonomy
        assert "nope" not in taxonomy
        assert len(taxonomy) == 6
        assert len(list(iter(taxonomy))) == 6


class TestCategorySchema:
    def test_add_and_lookup(self):
        schema = CategorySchema("hdd")
        schema.add_attribute("Capacity", AttributeKind.NUMERIC, unit="GB")
        assert schema.has_attribute("capacity")
        assert schema.get("Capacity").unit == "GB"

    def test_duplicate_attribute_raises(self):
        schema = CategorySchema("hdd")
        schema.add_attribute("Capacity")
        with pytest.raises(ValueError):
            schema.add_attribute("capacity")

    def test_key_attributes(self):
        schema = CategorySchema("hdd")
        schema.add_attribute("Model Part Number", AttributeKind.IDENTIFIER, is_key=True)
        schema.add_attribute("Capacity", AttributeKind.NUMERIC)
        assert schema.key_attribute_names() == ["Model Part Number"]
        assert schema.is_key_attribute("model part number")
        assert not schema.is_key_attribute("Capacity")

    def test_attribute_names_order(self):
        schema = CategorySchema("hdd")
        schema.add_attribute("B")
        schema.add_attribute("A")
        assert schema.attribute_names() == ["B", "A"]

    def test_len_iter_contains(self):
        schema = CategorySchema("hdd")
        schema.add_attribute("A")
        assert len(schema) == 1
        assert "A" in schema
        assert [definition.name for definition in schema] == ["A"]

    def test_get_missing_returns_none(self):
        assert CategorySchema("hdd").get("Missing") is None
