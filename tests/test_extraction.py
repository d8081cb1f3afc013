"""Tests for the DOM parser, table extraction and the web-page attribute extractor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.webstore import PageNotFoundError, WebStore
from repro.extraction.dom import parse_html
from repro.extraction.extractor import WebPageAttributeExtractor
from repro.extraction.tables import extract_pairs_from_tables, find_tables, table_to_rows


SPEC_PAGE = """
<html><head><title>Hitachi Deskstar</title></head>
<body>
  <table class="nav"><tr><td><a href="#">Home</a></td><td><a href="#">Cart</a></td></tr></table>
  <h1>Hitachi Deskstar T7K500</h1>
  <table class="specs">
    <tr><td>Brand</td><td>Hitachi</td></tr>
    <tr><td>Capacity</td><td>500 GB</td></tr>
    <tr><td>Interface</td><td>Serial ATA-300</td></tr>
  </table>
  <ul><li>Free shipping</li></ul>
</body></html>
"""

LIST_PAGE = """
<html><body>
  <h2>Product Specifications</h2>
  <ul class="specs">
    <li>Brand: Hitachi</li>
    <li>Capacity: 500 GB</li>
  </ul>
</body></html>
"""

MESSY_PAGE = """
<html><body>
  <table><tr><td>Brand<td>Hitachi</tr>
  <tr><td>Only one cell</td></tr>
  <tr><td>Three</td><td>cells</td><td>here</td></tr>
  <table><tr><td>Nested Attr</td><td>Nested Value</td></tr></table>
  </table>
  <br><img src="x.png">
</body></html>
"""


class TestDomParser:
    def test_find_all_and_text_content(self):
        root = parse_html(SPEC_PAGE)
        cells = [cell.text_content() for cell in root.find_all("td")]
        assert "Hitachi" in cells and "500 GB" in cells

    def test_find_first(self):
        root = parse_html(SPEC_PAGE)
        assert root.find_first("h1").text_content() == "Hitachi Deskstar T7K500"
        assert root.find_first("video") is None

    def test_attributes_are_parsed(self):
        root = parse_html(SPEC_PAGE)
        tables = root.find_all("table")
        assert tables[0].get_attribute("class") == "nav"
        assert tables[1].get_attribute("class") == "specs"

    def test_void_elements_do_not_break_nesting(self):
        root = parse_html(MESSY_PAGE)
        assert root.find_all("img")
        assert root.find_all("br")

    def test_unclosed_tags_tolerated(self):
        root = parse_html("<table><tr><td>A<td>B")
        cells = [cell.text_content() for cell in root.find_all("td")]
        assert cells == ["A", "B"]

    def test_empty_document(self):
        root = parse_html("")
        assert root.find_all("table") == []

    def test_text_content_normalises_whitespace(self):
        root = parse_html("<p>  lots \n of   space </p>")
        assert root.find_first("p").text_content() == "lots of space"

    def test_stray_end_tag_ignored(self):
        root = parse_html("</div><p>ok</p>")
        assert root.find_first("p").text_content() == "ok"


class TestTableExtraction:
    def test_find_tables(self):
        root = parse_html(SPEC_PAGE)
        assert len(find_tables(root)) == 2

    def test_table_to_rows(self):
        root = parse_html(SPEC_PAGE)
        specs_table = find_tables(root)[1]
        rows = table_to_rows(specs_table)
        assert ["Brand", "Hitachi"] in rows
        assert ["Capacity", "500 GB"] in rows

    def test_extract_pairs_only_two_column_rows(self):
        root = parse_html(MESSY_PAGE)
        pairs = extract_pairs_from_tables(root)
        names = [pair.name for pair in pairs]
        assert "Brand" in names
        assert "Nested Attr" in names
        assert "Only one cell" not in names
        assert "Three" not in names

    def test_extract_pairs_from_spec_page(self):
        root = parse_html(SPEC_PAGE)
        pairs = {pair.name: pair.value for pair in extract_pairs_from_tables(root)}
        assert pairs["Brand"] == "Hitachi"
        assert pairs["Interface"] == "Serial ATA-300"

    def test_overlong_cells_dropped(self):
        html = f"<table><tr><td>{'x' * 300}</td><td>value</td></tr></table>"
        assert extract_pairs_from_tables(parse_html(html)) == []


    def test_script_and_style_text_stays_out_of_cells(self):
        html = (
            "<table><tr><td>Brand<script>var x=1;</script></td>"
            "<td>Hitachi<style>.a{color:red}</style></td></tr></table>"
        )
        pairs = extract_pairs_from_tables(parse_html(html))
        assert [(pair.name, pair.value) for pair in pairs] == [("Brand", "Hitachi")]

    def test_self_closing_row_opens_a_row(self):
        html = "<table><tr><td>A</td><td>1</td><tr/><td>B</td><td>2</td></tr></table>"
        pairs = extract_pairs_from_tables(parse_html(html))
        assert [(pair.name, pair.value) for pair in pairs] == [("A", "1"), ("B", "2")]

    def test_self_closing_void_element_still_nests_nothing(self):
        root = parse_html("<table><tr><td>Hard<br/>Drive</td><td>500<img/> GB</td></tr></table>")
        assert table_to_rows(find_tables(root)[0]) == [["Hard Drive", "500 GB"]]


def _reference_table_to_rows(table):
    """``table_to_rows`` by definition: every ``tr`` whose ancestors below ``table``
    include no other table, cells by the same rule, found by full ``find_all`` walks."""

    def find_all(node, tag):
        return [descendant for descendant in node.iter_descendants() if descendant.tag == tag]

    nested = {id(node) for node in find_all(table, "table")}
    rows = []
    for row in find_all(table, "tr"):
        node = row.parent
        while node is not None and node is not table and id(node) not in nested:
            node = node.parent
        if node is not None and node is not table:
            continue
        cells = [cell.text_content() for cell in row.children if cell.tag in ("td", "th")]
        if not cells:
            cells = [cell.text_content() for cell in find_all(row, "td") + find_all(row, "th")]
        if cells:
            rows.append(cells)
    return rows


_MARKUP = st.lists(
    st.sampled_from(
        ["<table>", "</table>", "<tr>", "</tr>", "<tr/>", "<td>", "</td>", "<th>", "</th>",
         "<div>", "</div>", "</span>", "<br>", "<p>", "x", "y 1", "Brand", " "]
    ),
    max_size=40,
)


class TestOneWalkTableRows:
    @given(fragments=_MARKUP)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_find_all_definition(self, fragments):
        root = parse_html("<table>" + "".join(fragments))
        tables = [node for node in root.iter_descendants() if node.tag == "table"]
        assert find_tables(root) == tables
        for table in tables:
            assert table_to_rows(table) == _reference_table_to_rows(table)

    def test_nested_and_cell_less_rows(self):
        root = parse_html(
            "<table><tr><div><td>a</td></div></tr><tr></tr>"
            "<tr><td>b<table><tr><td>in</td></tr></table></td><td>c</td></tr></table>"
        )
        outer = find_tables(root)[0]
        assert table_to_rows(outer) == _reference_table_to_rows(outer) == [["a"], ["b in", "c"]]


class TestWebPageAttributeExtractor:
    def test_extract_from_html(self):
        extractor = WebPageAttributeExtractor(WebStore())
        spec = extractor.extract_from_html(SPEC_PAGE)
        assert spec.get("Capacity") == "500 GB"

    def test_bullet_list_page_yields_nothing(self):
        extractor = WebPageAttributeExtractor(WebStore())
        spec = extractor.extract_from_html(LIST_PAGE)
        assert len(spec) == 0

    def test_extract_from_url_missing_page(self):
        extractor = WebPageAttributeExtractor(WebStore())
        assert len(extractor.extract_from_url("http://nope.example.com")) == 0

    def test_extract_offers_batch(self, tiny_corpus):
        extractor = WebPageAttributeExtractor(tiny_corpus.web)
        offers, stats = extractor.extract_offers(tiny_corpus.offers[:60])
        assert stats.offers_processed == 60
        assert stats.offers_with_pairs > 40
        assert stats.total_pairs > 100
        assert 0.0 < stats.coverage() <= 1.0
        # Offers keep their order and ids.
        assert [offer.offer_id for offer in offers] == [
            offer.offer_id for offer in tiny_corpus.offers[:60]
        ]

    def test_extracted_specs_contain_true_page_pairs(self, tiny_corpus):
        extractor = WebPageAttributeExtractor(tiny_corpus.web)
        offer = tiny_corpus.offers[0]
        extracted = extractor.extract_offer(offer)
        page_spec = tiny_corpus.ground_truth.offer_page_specs[offer.offer_id]
        if len(page_spec) == 0:
            pytest.skip("offer rendered as a bullet list")
        extracted_names = {pair.normalized_name() for pair in extracted.specification}
        page_names = {pair.normalized_name() for pair in page_spec}
        # The extractor may add noise pairs (pricing table), but when the page
        # renders the spec as a table it must recover the true pairs.
        if page_names & extracted_names:
            assert page_names <= extracted_names | {"our price", "list price", "you save"} or (
                len(page_names & extracted_names) >= len(page_names) - 1
            )


class TestWebStore:
    def test_put_fetch(self):
        store = WebStore()
        store.put("http://a", "<html></html>")
        assert store.fetch("http://a") == "<html></html>"
        assert store.has("http://a")
        assert "http://a" in store
        assert len(store) == 1
        assert store.urls() == ["http://a"]

    def test_fetch_missing_raises(self):
        with pytest.raises(PageNotFoundError):
            WebStore().fetch("http://missing")

    def test_fetch_or_none(self):
        assert WebStore().fetch_or_none("http://missing") is None

    def test_empty_url_rejected(self):
        with pytest.raises(ValueError):
            WebStore().put("", "x")
