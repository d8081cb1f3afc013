"""Web-page attribute extraction.

Paper Section 4: "We have implemented a simple extractor that parses the
DOM tree of the Web page and returns all tables on the page.  It also
selects the attribute-value pairs from the tables, i.e., rows with two
columns, where we consider the first column to be the attribute name and
the second column to be the attribute value."

Here that is one forward scan that tokenises and harvests rows without
building the tree (:func:`~repro.extraction.harvest.extract_pairs`, whose
docstring gives the rules), behind :class:`WebPageAttributeExtractor`.
"""

from repro.extraction.extractor import ExtractionResult, WebPageAttributeExtractor
from repro.extraction.harvest import extract_pairs

__all__ = ["ExtractionResult", "WebPageAttributeExtractor", "extract_pairs"]
