"""HTML to attribute-value pairs in one forward scan: a tokeniser feeding a table-row harvester.

No tree is built: the scan keeps a stack of open elements and, for
``td`` / ``th`` / ``tr`` / ``table``, where their text and cells start and
end in two flat lists; rows are harvested once the page is read.

*Tokeniser.* Text runs up to the next ``<`` and goes through
:func:`html.unescape`; a ``<`` that opens nothing is its own text fragment.
A start tag is ``<`` plus an ASCII letter and ends where the standard
library's start-tag grammar ends it (``locatestarttagend_tolerant``, copied
below), so quoted attribute values may contain ``>``; names are
lower-cased and ``<x/>`` is ``<x>``.  An end tag is ``</`` plus a letter
and ends at the next ``>``.  Comments (to ``-->``), other ``<!`` / ``</``
and ``<?`` constructs (to ``>``), and ``script`` / ``style`` bodies (to
their end tag) are skipped.

*Tree.* ``td`` / ``th`` close an open ``td`` / ``th`` on top of the stack,
``tr`` also a ``tr``, ``li`` / ``option`` / ``p`` their own kind; void
elements open nothing; an end tag closes the innermost open element of
its name and all above it, or nothing.  *Harvest.* Every table, nested
ones separately, in opening order; its rows are the ``tr`` it is the
nearest table of, in opening order; a row's cells are its direct ``td`` /
``th`` children, or else every descendant ``td`` then every ``th``; a
cell's text is its fragments joined and whitespace-normalised.

On well-formed markup this equals the standard library's tokeniser plus a
forgiving tree builder (the oracle in ``tests/``).  It deliberately differs on broken
pages: a comment, declaration, instruction, end tag or ``script`` body
with no end swallows the rest of the page, as HTML5 does at end of input
(the standard library re-reads the rest as text one ``<`` at a time); a start
tag the grammar does not close with ``>`` is text up to where the grammar
stopped; ``<![`` sections end at the first ``>``; ``</ td>`` closes
nothing; ``<script/>`` opens a body.  Every step moves forward, so
extraction is linear in page length and never raises.
"""

from __future__ import annotations

import re
from html import unescape
from typing import Dict, List

from repro.model.attributes import AttributeValue

__all__ = ["extract_pairs"]

#: Longer names or values are page noise (review sentences picked up as a cell).
_MAX_NAME_LENGTH = 60
_MAX_VALUE_LENGTH = 200

#: Start tags that close still-open elements (a subset of HTML5's implied end tags).
_IMPLICIT_CLOSERS = {"td": ("td", "th"), "th": ("td", "th"), "tr": ("td", "th", "tr")}
_IMPLICIT_CLOSERS.update((tag, (tag,)) for tag in ("li", "option", "p"))
#: Start tags that open nothing: void elements, and script / style (body skipped).
_VOID_ELEMENTS = "area base br col embed hr img input link meta param source track wbr"
_SKIPPED = dict.fromkeys(_VOID_ELEMENTS.split())
_SKIPPED["script"] = re.compile(r"</\s*script\s*>", re.I)
_SKIPPED["style"] = re.compile(r"</\s*style\s*>", re.I)

#: The standard library's ``locatestarttagend_tolerant`` cut in two, tag name (group 1) and
#: its repeated attribute, matched one at a time so no tag grows the regex stack.
_START_TAG = re.compile(r"<([a-zA-Z][^\t\n\r\f />\x00]*)[\s/]*")
_ATTRIBUTE = re.compile(
    r"(?<=['\"\s/])[^\s/>][^\s/=>]*"  # attribute name
    r"(?:\s*=+\s*(?:'[^']*'|\"[^\"]*\"|(?!['\"])[^>\s]*)\s*)?"  # value
    r"(?:\s|/(?!>))*"
)
#: The common case, ``<name>`` or ``</name>``, in one match read as the rules read it.
_PLAIN_TAG = re.compile(r"<(/?)([a-zA-Z][^\t\n\r\f />\x00]*)>")
#: An end tag and its name (it ends at the next ``>``).
_END_TAG = re.compile(r"</([a-zA-Z][^\t\n\r\f />\x00]*)")


def extract_pairs(html: str) -> List[AttributeValue]:
    """Attribute-value pairs from every two-column table row of a page.

    The paper's extractor: each two-column row is one pair, first cell the
    name and second the value.  Rows with another number of cells are
    ignored, as are rows whose name or value is empty or implausibly long.

    >>> [(pair.name, pair.value) for pair in
    ...  extract_pairs("<table><tr><td>Brand</td><td>Hitachi</td></tr></table>")]
    [('Brand', 'Hitachi')]
    """
    #: Every text run, in page order; a cell's text is a slice of it.
    fragments: List[str] = []
    #: Every ``td`` / ``th`` in opening order: [first fragment, end fragment, is td].
    cells: List[list] = []
    #: Per table in opening order, its rows: [first cell, end cell, direct cells].
    #: (An end is None while its element is open: to the end of the page.)
    tables: List[List[list]] = []
    #: Open elements below the document root: (tag, cell or row record, nearest table's rows).
    stack: List[tuple] = [("", None, None)]
    #: Open elements per tag name, so a stray end tag costs O(1).
    open_count: Dict[str, int] = {}

    def close_top() -> None:
        tag, record, _ = stack.pop()
        open_count[tag] -= 1
        if record is not None:
            record[1] = len(cells) if tag == "tr" else len(fragments)

    length = len(html)
    find = html.find
    position = 0
    while position < length:
        start = find("<", position)
        if start < 0:
            start = length
        if start > position:
            text = html[position:start]
            fragments.append(unescape(text) if "&" in text else text)
            if start == length:
                break
        match = _PLAIN_TAG.match(html, start)
        if match is not None:
            slash, tag = match.groups()
            position = match.end()
        else:
            match = _START_TAG.match(html, start)
            if match is not None:  # attributes, or "/>"
                end = match.end()
                attribute = _ATTRIBUTE.match(html, end)
                while attribute is not None:
                    end = attribute.end()
                    attribute = _ATTRIBUTE.match(html, end)
                if not html.startswith(">", end) and not html.startswith("/>", end):
                    fragments.append(html[start:end])  # a tag the grammar cannot close
                    position = end
                    continue
                position = find(">", end) + 1
                slash, tag = "", match.group(1)
            elif html.startswith(("</", "<!", "<?"), start):
                close = "-->" if html.startswith("<!--", start) else ">"
                end = find(close, start + 2)
                if end < 0:
                    break
                position = end + len(close)
                match = _END_TAG.match(html, start)
                if match is None:
                    continue
                slash, tag = "/", match.group(1)
            else:
                fragments.append("<")
                position = start + 1
                continue
        tag = tag.lower()
        if slash:
            if open_count.get(tag):
                while stack[-1][0] != tag:
                    close_top()
                close_top()
            continue
        if tag in _SKIPPED:
            body_end = _SKIPPED[tag]
            if body_end is not None:
                found = body_end.search(html, position)
                if found is None:
                    break
                position = found.end()
            continue
        closes = _IMPLICIT_CLOSERS.get(tag)
        if closes is not None:
            while stack[-1][0] in closes:
                close_top()
        parent_tag, parent_record, rows = stack[-1]
        record = None
        if tag == "td" or tag == "th":
            record = [len(fragments), None, tag == "td"]
            cells.append(record)
            if parent_tag == "tr" and parent_record is not None:
                parent_record[2].append(record)
        elif tag == "tr" and rows is not None:
            record = [len(cells), None, []]
            rows.append(record)
        elif tag == "table":
            rows = []
            tables.append(rows)
        stack.append((tag, record, rows))
        open_count[tag] = open_count.get(tag, 0) + 1

    pairs: List[AttributeValue] = []
    for rows in tables:
        for first_cell, end_cell, row_cells in rows:
            if not row_cells:  # every td below the row, then every th
                row_cells = sorted(cells[first_cell:end_cell], key=lambda cell: not cell[2])
            if len(row_cells) != 2:
                continue
            (name_first, name_end, _), (value_first, value_end, _) = row_cells
            name = " ".join(" ".join(fragments[name_first:name_end]).split())
            value = " ".join(" ".join(fragments[value_first:value_end]).split())
            if 0 < len(name) <= _MAX_NAME_LENGTH and 0 < len(value) <= _MAX_VALUE_LENGTH:
                pairs.append(AttributeValue(name=name, value=value))
    return pairs
