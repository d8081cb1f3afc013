"""The extractor ``repro.extraction.harvest`` replaced, kept as its test oracle.

A DOM tree built on the standard library's ``html.parser``, then every
table's two-column rows harvested by walking it.  Tests compare
``extract_pairs`` with :func:`oracle_pairs` on markup where the two
tokenisers agree (well-formed pages; see the harvester's docstring for
where it deliberately differs).
"""

from __future__ import annotations

from html.parser import HTMLParser
from typing import List, Optional, Tuple

_VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)
_RAW_TEXT_ELEMENTS = frozenset({"script", "style"})
_IMPLICIT_CLOSERS = {
    "td": ("td", "th"),
    "th": ("td", "th"),
    "tr": ("td", "th", "tr"),
    "li": ("li",),
    "option": ("option",),
    "p": ("p",),
}


class DomNode:
    """A node of the parsed tree; ``tag`` is ``None`` for text nodes."""

    __slots__ = ("tag", "children", "text", "parent")

    def __init__(self, tag: Optional[str], text: str = "", parent=None) -> None:
        self.tag = tag
        self.children: List[DomNode] = []
        self.text = text
        self.parent = parent

    def find_all(self, tag: str) -> List["DomNode"]:
        """All descendant elements named ``tag``, in document order."""
        found: List[DomNode] = []
        stack = self.children[::-1]
        while stack:
            node = stack.pop()
            if node.tag == tag:
                found.append(node)
            stack += node.children[::-1]
        return found

    def text_content(self) -> str:
        """Concatenated, whitespace-normalised text of this subtree."""
        fragments: List[str] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.tag is None:
                fragments.append(node.text)
            stack += node.children[::-1]
        return " ".join(" ".join(fragments).split())


class _TreeBuilder(HTMLParser):
    """Builds a :class:`DomNode` tree while tolerating sloppy markup."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = DomNode("document")
        self._stack: List[DomNode] = [self.root]

    def handle_starttag(self, tag: str, attrs) -> None:  # type: ignore[override]
        stack = self._stack
        closes = _IMPLICIT_CLOSERS.get(tag)
        if closes:
            while len(stack) > 1 and stack[-1].tag in closes:
                stack.pop()
        parent = stack[-1]
        node = DomNode(tag, "", parent)
        parent.children.append(node)
        if tag not in _VOID_ELEMENTS:
            stack.append(node)

    def handle_startendtag(self, tag: str, attrs) -> None:  # type: ignore[override]
        self.handle_starttag(tag, attrs)

    def handle_endtag(self, tag: str) -> None:  # type: ignore[override]
        if tag in _VOID_ELEMENTS:
            return
        stack = self._stack
        if len(stack) > 1 and stack[-1].tag == tag:
            stack.pop()
            return
        for index in range(len(stack) - 2, 0, -1):
            if stack[index].tag == tag:
                del stack[index:]
                return

    def handle_data(self, data: str) -> None:  # type: ignore[override]
        text = data.strip()
        parent = self._stack[-1]
        if text and parent.tag not in _RAW_TEXT_ELEMENTS:
            parent.children.append(DomNode(None, text, parent))


def parse_html(html_text: str) -> DomNode:
    """Parse a page into a tree under a synthetic ``document`` root."""
    builder = _TreeBuilder()
    builder.feed(html_text)
    builder.close()
    return builder.root


def table_to_rows(table: DomNode) -> List[List[str]]:
    """The text of each row's cells; rows of nested tables are theirs, not this one's."""
    rows: List[List[str]] = []
    stack = table.children[::-1]
    while stack:
        node = stack.pop()
        if node.tag == "table":
            continue
        if node.tag == "tr":
            cells = [cell.text_content() for cell in node.children if cell.tag in ("td", "th")]
            if not cells:
                cells = [cell.text_content() for cell in node.find_all("td") + node.find_all("th")]
            if cells:
                rows.append(cells)
        stack += node.children[::-1]
    return rows


def oracle_pairs(html_text: str) -> List[Tuple[str, str]]:
    """``(name, value)`` of every two-column row, with the harvester's length limits."""
    pairs = []
    for table in parse_html(html_text).find_all("table"):
        for cells in table_to_rows(table):
            if len(cells) == 2 and 0 < len(cells[0]) <= 60 and 0 < len(cells[1]) <= 200:
                pairs.append((cells[0], cells[1]))
    return pairs
