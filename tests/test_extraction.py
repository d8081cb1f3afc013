"""Tests for the one-pass extractor, its conformance to the tree oracle, and the web store."""

import hashlib
import json
import time

import pytest
from extraction_oracle import oracle_pairs
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.extraction.harvest as harvest
from repro.corpus.webstore import PageNotFoundError, WebStore
from repro.extraction import WebPageAttributeExtractor, extract_pairs
from repro.runtime import SynthesisEngine


def pairs_of(html):
    return [(pair.name, pair.value) for pair in extract_pairs(html)]


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


class TestExtractPairs:
    def test_spec_page(self):
        assert pairs_of(SPEC_PAGE) == [
            ("Home", "Cart"),
            ("Brand", "Hitachi"),
            ("Capacity", "500 GB"),
            ("Interface", "Serial ATA-300"),
        ]

    def test_only_two_column_rows_and_nested_tables_after_their_parent(self):
        assert pairs_of(MESSY_PAGE) == [("Brand", "Hitachi"), ("Nested Attr", "Nested Value")]

    def test_unclosed_tags_tolerated(self):
        assert pairs_of("<table><tr><td>A<td>B") == [("A", "B")]

    def test_empty_document(self):
        assert pairs_of("") == []

    def test_text_is_whitespace_normalised(self):
        html = "<table><tr><td>  lots \n of   space </td><td>x&nbsp; y</td></tr></table>"
        assert pairs_of(html) == [("lots of space", "x y")]

    def test_stray_end_tags_ignored_and_end_tags_close_what_is_above(self):
        html = "</div><table><tr><td>a</span></td><td><b>b</tr><tr><td>c</td><td>d</td></table>"
        assert pairs_of(html) == [("a", "b"), ("c", "d")]

    def test_overlong_cells_dropped(self):
        assert pairs_of(f"<table><tr><td>{'x' * 61}</td><td>value</td></tr></table>") == []
        assert pairs_of(f"<table><tr><td>{'x' * 60}</td><td>{'v' * 200}</td></tr></table>")

    def test_script_and_style_text_stays_out_of_cells(self):
        html = (
            "<table><tr><td>Brand<script>var x = '</td><td>';</script></td>"
            "<td>Hitachi<style>.a > td {color:red}</style></td></tr></table>"
        )
        assert pairs_of(html) == [("Brand", "Hitachi")]

    def test_self_closing_row_opens_a_row(self):
        html = "<table><tr><td>A</td><td>1</td><tr/><td>B</td><td>2</td></tr></table>"
        assert pairs_of(html) == [("A", "1"), ("B", "2")]

    def test_self_closing_void_element_still_nests_nothing(self):
        html = "<table><tr><td>Hard<br/>Drive</td><td>500<img/> GB</td></tr></table>"
        assert pairs_of(html) == [("Hard Drive", "500 GB")]

    def test_cells_below_other_elements_are_tds_then_ths(self):
        html = "<table><tr><div><th>v</th><td>n</td></div></tr></table>"
        assert pairs_of(html) == [("n", "v")]

    def test_a_cell_holds_the_text_of_a_table_nested_in_it(self):
        html = "<table><tr><td>b<table><tr><td>in</td><td>x</td></tr></table></td><td>c</td></tr>"
        assert pairs_of(html) == [("b in x", "c"), ("in", "x")]

    def test_tag_names_case_attributes_and_entities(self):
        html = (
            "<TABLE class='specs' data-x=\"1>2\"><TR id=r1><TD title='a>b'>Size &amp; fit</TD>"
            "<td>5&#39; tall</Td ></tr></table>"
        )
        assert pairs_of(html) == [("Size & fit", "5' tall")]

    def test_comments_declarations_and_instructions_are_skipped(self):
        html = (
            "<!DOCTYPE html><?xml version='1.0'?><table><!-- <tr><td>no</td><td>no</td></tr> -->"
            "<tr><td>A<!-- x --></td><td>B</td></tr></table>"
        )
        assert pairs_of(html) == [("A", "B")]

    def test_a_lone_angle_bracket_is_its_own_text_fragment(self):
        assert pairs_of("<table><tr><td>1<2</td><td>< 3</td></tr></table>") == [("1 < 2", "< 3")]


#: The tokens of ordinary markup, on which ``html.parser`` (every CI version)
#: and the harvester's tokeniser agree: no raw ``<`` in text, nothing left
#: unterminated at the end.
_MARKUP = st.lists(
    st.sampled_from(
        [
            "<table>",
            "</table>",
            "<tr>",
            "</tr>",
            "<tr/>",
            "<td>",
            "</td>",
            "<th>",
            "</th>",
            "<div>",
            "</div>",
            "</span>",
            "<br>",
            "<p>",
            "x",
            "y 1",
            "Brand",
            " ",
            "\n",
            "<TABLE>",
            "<TR>",
            "<Td>",
            "</TD>",
            "<td class='a'>",
            '<table border="1">',
            "<tr id=r1>",
            "<td title='a>b'>",
            '<th data-x="1>2">',
            "<td/>",
            "<div/>",
            "<br/>",
            "</td >",
            "<!-- c -->",
            "<!DOCTYPE html>",
            "&amp;",
            "&#39;",
            "&nbsp;",
            "<script>if (a < b) { s = '</div>'; }</script>",
            "<style>td > p { x: 1 }</style>",
        ]
    ),
    max_size=40,
)


class TestConformance:
    """``extract_pairs`` equals the html.parser tree oracle on well-formed markup."""

    @given(fragments=_MARKUP)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_oracle_on_ordinary_markup(self, fragments):
        html = "<table>" + "".join(fragments)
        assert pairs_of(html) == oracle_pairs(html)

    def test_equals_the_oracle_on_every_tiny_page(self, tiny_corpus):
        for offer in tiny_corpus.offers:
            html = tiny_corpus.web.fetch_or_none(offer.url)
            if html is not None:
                assert pairs_of(html) == oracle_pairs(html), offer.offer_id

    def test_tiny_corpus_pairs_digest_is_pinned(self, tiny_corpus):
        """sha256 of TINY's (offer id, pairs), taken from the tree-building extractor."""
        rows = []
        for offer in tiny_corpus.offers:
            html = tiny_corpus.web.fetch_or_none(offer.url)
            if html is not None:
                rows.append([offer.offer_id, [list(pair) for pair in pairs_of(html)]])
        assert (len(rows), sum(len(pairs) for _, pairs in rows)) == (202, 2366)
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "3b1b3c1baa39a4e7c9bd226338fdab6655706e0d14470a4214af79481b5ff16f"


_HOSTILE = ["<![", "<!--", "<?", "</", "<a b='", "&#", "'", '"', "<a", "<", ">", "=", "x"]


class CountingPage(str):
    """A page whose ``find`` / ``startswith`` add their work to ``steps[0]``."""

    def __new__(cls, text, steps):
        page = super().__new__(cls, text)
        page.steps = steps
        return page

    def find(self, sub, start=0, *end):
        found = str.find(self, sub, start, *end)
        self.steps[0] += 1 + (found + len(sub) if found >= 0 else len(self)) - start
        return found

    def startswith(self, prefix, *bounds):
        self.steps[0] += 1
        return str.startswith(self, prefix, *bounds)


class CountingPattern:
    """A compiled pattern whose ``match`` / ``search`` add their work to ``steps[0]``."""

    def __init__(self, pattern, steps):
        self._pattern = pattern
        self._steps = steps

    def match(self, string, pos=0):
        found = self._pattern.match(string, pos)
        self._steps[0] += 1 + (found.end() - pos if found else 0)
        return found

    def search(self, string, pos=0):
        found = self._pattern.search(string, pos)
        self._steps[0] += 1 + (found.end() if found else len(string)) - pos
        return found


class TestHostilePages:
    @given(html=st.text())
    @settings(max_examples=300, deadline=None)
    def test_never_raises_on_any_text(self, html):
        extract_pairs(html)

    @given(fragments=st.lists(st.sampled_from(_HOSTILE + ["<table>", "<tr>", "<td>"])))
    @settings(max_examples=300, deadline=None)
    def test_never_raises_on_broken_constructs(self, fragments):
        extract_pairs("".join(fragments))

    @pytest.mark.parametrize("pattern", ["<![", "<!--", "<?", "</", "<a b='", "&#", "'\""])
    def test_extraction_is_linear_in_page_length(self, pattern, monkeypatch):
        """Twice the page costs at most 2.5x the scanner's steps.

        The steps are every search the scanner makes plus the characters
        that search walks over (a failed ``search`` or ``find`` walks to
        the end of the page): a count that repeats exactly, where a
        wall-clock ratio moved with the load of the machine.  The wall
        clock still caps a 100 KB page at 0.5 s.
        """

        def page(size):
            return pattern * (size // len(pattern))

        timings = []
        for _ in range(3):
            started = time.perf_counter()
            extract_pairs(page(100_000))
            timings.append(time.perf_counter() - started)
        assert min(timings) < 0.5

        steps = [0]
        for name in ("_PLAIN_TAG", "_START_TAG", "_ATTRIBUTE", "_END_TAG"):
            monkeypatch.setattr(harvest, name, CountingPattern(getattr(harvest, name), steps))
        for tag, body_end in harvest._SKIPPED.items():
            if body_end is not None:
                monkeypatch.setitem(harvest._SKIPPED, tag, CountingPattern(body_end, steps))

        def scanner_steps(size):
            steps[0] = 0
            extract_pairs(CountingPage(page(size), steps))
            return steps[0]

        assert scanner_steps(200_000) <= 2.5 * scanner_steps(100_000)

    def test_one_broken_page_does_not_fail_its_batch(self, tiny_harness):
        """A page ending in ``<![ foo`` made ``html.parser`` raise out of ``ingest``."""
        offers = tiny_harness.corpus.unmatched_offers()[:10]

        def ingest(broken):
            web = WebStore()
            for offer in offers:
                web.put(offer.url, tiny_harness.corpus.web.fetch(offer.url))
            if broken:
                web.put(offers[3].url, web.fetch(offers[3].url) + "<![ foo")
            engine = SynthesisEngine(
                catalog=tiny_harness.corpus.catalog,
                correspondences=tiny_harness.offline_result.correspondences,
                extractor=WebPageAttributeExtractor(web),
                category_classifier=tiny_harness.category_classifier,
            )
            return engine.ingest(offers), engine.products()

        report, products = ingest(broken=True)
        assert report.offers_new == 10
        assert products and products == ingest(broken=False)[1]


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
