"""Tests for attribute-value pairs and specifications."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.attributes import AttributeValue, Specification
from repro.model.offers import Offer
from repro.model.products import Product, product_fingerprint
from repro.text.normalize import normalize_attribute_name


class TestAttributeValue:
    def test_normalized_name(self):
        assert AttributeValue("Mfr. Part #", "X1").normalized_name() == "mfr part"

    def test_normalized_value(self):
        assert AttributeValue("Interface", "Serial ATA-300").normalized_value() == "serial ata 300"

    def test_as_tuple(self):
        assert AttributeValue("Brand", "Hitachi").as_tuple() == ("Brand", "Hitachi")

    def test_str(self):
        assert str(AttributeValue("Brand", "Hitachi")) == "Brand = Hitachi"

    def test_frozen(self):
        pair = AttributeValue("Brand", "Hitachi")
        with pytest.raises(AttributeError):
            pair.value = "Seagate"  # type: ignore[misc]


class TestSlottedAttributeValue:
    def test_no_instance_dict(self):
        pair = AttributeValue("Brand", "Hitachi")
        assert not hasattr(pair, "__dict__")
        with pytest.raises(AttributeError):
            pair.extra = "x"  # type: ignore[attr-defined]

    def test_assignment_raises_frozen_instance_error(self):
        pair = AttributeValue("Brand", "Hitachi")
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.name = "Make"  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            del pair.value

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        pair = AttributeValue("Mfr. Part #", "HDT725050")
        clone = pickle.loads(pickle.dumps(pair, protocol))
        assert clone == pair
        assert hash(clone) == hash(pair)
        assert clone.as_tuple() == ("Mfr. Part #", "HDT725050")

    def test_deepcopy(self):
        pair = AttributeValue("Brand", "Hitachi")
        clone = copy.deepcopy(pair)
        assert clone == pair
        assert hash(clone) == hash(pair)

    def test_offer_and_product_pickle_round_trip(self):
        """The process-node frame path pickles whole offers and products."""
        spec = Specification([("Brand", "Hitachi"), ("Capacity", "500 GB")])
        offer = Offer(
            offer_id="o-1",
            merchant_id="m-1",
            title="Hitachi Deskstar 500GB",
            category_id="computing.hdd",
            specification=spec,
        )
        product = Product(product_id="p-1", category_id="computing.hdd", specification=spec)
        for original in (offer, product):
            clone = pickle.loads(pickle.dumps(original, pickle.HIGHEST_PROTOCOL))
            assert clone.specification == original.specification
            assert clone.specification.pairs() == spec.pairs()
        assert product_fingerprint([pickle.loads(pickle.dumps(product))]) == (
            product_fingerprint([product])
        )


class TestSpecification:
    def test_construct_from_tuples(self):
        spec = Specification([("Brand", "Hitachi"), ("Capacity", "500 GB")])
        assert len(spec) == 2
        assert spec.get("Brand") == "Hitachi"

    def test_construct_from_attribute_values(self):
        spec = Specification([AttributeValue("Brand", "Hitachi")])
        assert spec.get("Brand") == "Hitachi"

    def test_get_is_name_insensitive(self):
        spec = Specification([("Mfr. Part #", "HDT725050")])
        assert spec.get("mfr part") == "HDT725050"

    def test_get_default(self):
        assert Specification().get("Missing", "fallback") == "fallback"

    def test_get_all_returns_every_value(self):
        spec = Specification([("Color", "Black"), ("Color", "Silver")])
        assert spec.get_all("Color") == ["Black", "Silver"]

    def test_has(self):
        spec = Specification([("Brand", "Hitachi")])
        assert spec.has("Brand")
        assert not spec.has("Capacity")

    def test_attribute_names_deduplicated_in_order(self):
        spec = Specification([("B", "1"), ("A", "2"), ("B", "3")])
        assert spec.attribute_names() == ["B", "A"]

    def test_add_and_extend(self):
        spec = Specification()
        spec.add("Brand", "Hitachi")
        spec.extend([AttributeValue("Model", "Deskstar")])
        assert len(spec) == 2

    def test_as_dict_keeps_first_value(self):
        spec = Specification([("Color", "Black"), ("Color", "Silver")])
        assert spec.as_dict() == {"Color": "Black"}

    def test_equality(self):
        assert Specification([("A", "1")]) == Specification([("A", "1")])
        assert Specification([("A", "1")]) != Specification([("A", "2")])

    def test_bool_and_iteration(self):
        assert not Specification()
        spec = Specification([("A", "1")])
        assert spec
        assert [pair.name for pair in spec] == ["A"]


# --- memoised lookups equal the uncached normalisation -----------------------

# Names that collide after normalisation in every way the normaliser
# folds: case, punctuation, runs of whitespace, and the empty string.
_NAMES = st.one_of(
    st.sampled_from(
        [
            "",
            " ",
            "Brand",
            "brand",
            "BRAND.",
            "  Brand  ",
            "Mfr. Part #",
            "mfr part",
            "MFR   PART",
            "Hard-Disk Size",
            "hard disk\tsize",
            "Capacity",
            "#",
        ]
    ),
    st.text(alphabet="aAbB #.-\t", max_size=6),
)
_PAIRS = st.tuples(_NAMES, st.sampled_from(["1", "2", "500 GB", ""]))
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _PAIRS),
        st.tuples(st.just("extend"), st.lists(_PAIRS, max_size=3)),
        st.tuples(st.just("lookup"), _NAMES),
    ),
    max_size=12,
)


def _reference_get_all(pairs, name):
    wanted = normalize_attribute_name(name)
    return [value for pair_name, value in pairs if normalize_attribute_name(pair_name) == wanted]


def _reference_names(pairs):
    seen, names = set(), []
    for pair_name, _ in pairs:
        key = normalize_attribute_name(pair_name)
        if key not in seen:
            seen.add(key)
            names.append(pair_name)
    return names


def _assert_matches_reference(spec, pairs, name):
    values = _reference_get_all(pairs, name)
    assert spec.get_all(name) == values
    assert spec.get(name) == (values[0] if values else None)
    assert spec.get(name, "fallback") == (values[0] if values else "fallback")
    assert spec.has(name) == bool(values)
    assert spec.attribute_names() == _reference_names(pairs)
    assert [pair.normalized_name() for pair in spec] == [
        normalize_attribute_name(pair_name) for pair_name, _ in pairs
    ]


class TestLookupsEqualUncachedNormalisation:
    @given(initial=st.lists(_PAIRS, max_size=4), steps=_STEPS)
    @settings(max_examples=150, deadline=None)
    def test_every_accessor_equals_the_reference(self, initial, steps):
        spec = Specification(initial)
        pairs = list(initial)
        for kind, argument in steps:
            if kind == "add":
                spec.add(*argument)
                pairs.append(argument)
            elif kind == "extend":
                spec.extend([AttributeValue(*pair) for pair in argument])
                pairs.extend(argument)
            else:
                _assert_matches_reference(spec, pairs, argument)
        for name in {pair_name for pair_name, _ in pairs} | {"Brand", ""}:
            _assert_matches_reference(spec, pairs, name)
