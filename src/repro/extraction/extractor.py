"""The Web-page Attribute Extraction component (paper Figure 4).

It supplies attribute-value pairs for historical offers in Offline
Learning and for incoming offers at run time.  It is deliberately simple
and noisy: the paper's claim is that schema reconciliation filters it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.corpus.webstore import WebStore
from repro.extraction.harvest import extract_pairs
from repro.model.attributes import Specification
from repro.model.offers import Offer

__all__ = ["ExtractionResult", "WebPageAttributeExtractor"]


@dataclass
class ExtractionResult:
    """Statistics of one extraction run over a batch of offers."""

    offers_processed: int = 0
    offers_with_pairs: int = 0
    offers_missing_page: int = 0
    total_pairs: int = 0

    def coverage(self) -> float:
        """Fraction of offers for which at least one pair was extracted."""
        if self.offers_processed == 0:
            return 0.0
        return self.offers_with_pairs / self.offers_processed


class WebPageAttributeExtractor:
    """Extract offer specifications from the landing pages in ``web``.

    >>> from repro.corpus.webstore import WebStore
    >>> store = WebStore()
    >>> store.put("http://m.example.com/1",
    ...     "<table><tr><td>Brand</td><td>Hitachi</td></tr></table>")
    >>> extractor = WebPageAttributeExtractor(store)
    >>> extractor.extract_from_url("http://m.example.com/1").get("Brand")
    'Hitachi'
    """

    def __init__(self, web: WebStore) -> None:
        self._web = web

    @property
    def web(self) -> WebStore:
        """The landing pages this extractor fetches from."""
        return self._web

    def extract_from_html(self, html_text: str) -> Specification:
        """Extract attribute-value pairs from raw HTML."""
        return Specification(extract_pairs(html_text))

    def extract_from_url(self, url: str) -> Specification:
        """Extract attribute-value pairs from the page behind ``url``.

        Returns an empty specification when the page is missing — a real
        crawler faces dead links too, and the pipeline must tolerate them.
        """
        html_text = self._web.fetch_or_none(url)
        return Specification() if html_text is None else self.extract_from_html(html_text)

    def extract_offer(self, offer: Offer) -> Offer:
        """Return a copy of ``offer`` with its specification extracted."""
        specification = self.extract_from_url(offer.url)
        return offer.with_specification(specification)

    def extract_offers(self, offers: Iterable[Offer]) -> "tuple[List[Offer], ExtractionResult]":
        """Extract specifications for a batch of offers.

        Returns the enriched offers (same order) and the run statistics.
        """
        enriched: List[Offer] = []
        result = ExtractionResult()
        for offer in offers:
            result.offers_processed += 1
            html_text = self._web.fetch_or_none(offer.url)
            if html_text is None:
                result.offers_missing_page += 1
                specification = Specification()
            else:
                specification = self.extract_from_html(html_text)
            if len(specification) > 0:
                result.offers_with_pairs += 1
                result.total_pairs += len(specification)
            enriched.append(offer.with_specification(specification))
        return enriched, result
