"""Table discovery and attribute-value harvesting from parsed pages."""

from __future__ import annotations

from typing import List

from repro.extraction.dom import DomNode
from repro.model.attributes import AttributeValue

__all__ = ["find_tables", "table_to_rows", "extract_pairs_from_tables"]

#: Attribute names longer than this are almost certainly page noise
#: (review sentences picked up as a cell) and are dropped at extraction
#: time; genuine attribute names are short.
_MAX_NAME_LENGTH = 60
#: Values longer than this are dropped for the same reason.
_MAX_VALUE_LENGTH = 200


def find_tables(root: DomNode) -> List[DomNode]:
    """All ``<table>`` elements in the page, in document order.

    Nested tables are returned as separate entries (their rows would
    otherwise be double-counted by :func:`table_to_rows`, which only looks
    at direct rows).
    """
    return root.find_all("table")


def table_to_rows(table: DomNode) -> List[List[str]]:
    """The text content of each row's cells, in document order.

    Both ``<td>`` and ``<th>`` cells are included; rows belonging to nested
    tables are excluded: one depth-first walk that does not enter them.
    """
    rows: List[List[str]] = []
    stack = table.children[::-1]
    while stack:
        node = stack.pop()
        tag = node.tag
        if tag == "table":
            continue
        if tag == "tr":
            cells = [cell.text_content() for cell in node.children if cell.tag in ("td", "th")]
            # Some markup nests cells below intermediate elements; fall back to
            # a full descendant scan when the direct-children scan finds nothing.
            if not cells:
                cells = [cell.text_content() for cell in node.find_all("td") + node.find_all("th")]
            if cells:
                rows.append(cells)
        stack += node.children[::-1]
    return rows


def extract_pairs_from_tables(root: DomNode) -> List[AttributeValue]:
    """Attribute-value pairs from every two-column table row on the page.

    This is exactly the paper's extractor: each two-column row becomes one
    pair with the first cell as the attribute name and the second as the
    value.  Rows with any other number of columns are ignored, as are rows
    whose name or value is empty or implausibly long.
    """
    pairs: List[AttributeValue] = []
    for table in find_tables(root):
        for cells in table_to_rows(table):
            if len(cells) != 2:
                continue
            name, value = cells[0].strip(), cells[1].strip()
            if not name or not value:
                continue
            if len(name) > _MAX_NAME_LENGTH or len(value) > _MAX_VALUE_LENGTH:
                continue
            pairs.append(AttributeValue(name=name, value=value))
    return pairs
