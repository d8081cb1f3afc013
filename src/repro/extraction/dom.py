"""A lightweight DOM tree built on the standard library's ``html.parser``.

The extractor only needs element names, attributes, text content and
descendant traversal — a full-blown HTML5 tree builder is unnecessary.
The parser is forgiving: unclosed tags are closed implicitly when an
enclosing element ends, and void elements (``br``, ``img``, ...) never
expect a closing tag, so the messy markup found on real merchant pages
does not crash extraction.
"""

from __future__ import annotations

from html.parser import HTMLParser
from typing import Dict, Iterator, List, Optional

__all__ = ["DomNode", "parse_html"]

#: Elements that never have closing tags.
_VOID_ELEMENTS = frozenset(
    {
        "area",
        "base",
        "br",
        "col",
        "embed",
        "hr",
        "img",
        "input",
        "link",
        "meta",
        "param",
        "source",
        "track",
        "wbr",
    }
)

#: Elements whose content ``html.parser`` reports as data, unparsed.
_RAW_TEXT_ELEMENTS = frozenset({"script", "style"})

#: Start tags that implicitly close still-open elements (a small subset of the
#: HTML5 implied-end-tag rules, enough for messy merchant tables and lists).
_IMPLICIT_CLOSERS = {
    "td": ("td", "th"),
    "th": ("td", "th"),
    "tr": ("td", "th", "tr"),
    "li": ("li",),
    "option": ("option",),
    "p": ("p",),
}


class DomNode:
    """A node of the parsed DOM tree.

    ``tag`` is ``None`` for text nodes (whose content lives in ``text``).
    """

    __slots__ = ("tag", "attributes", "children", "text", "parent")

    def __init__(
        self,
        tag: Optional[str],
        attributes: Optional[Dict[str, str]] = None,
        children: Optional[List["DomNode"]] = None,
        text: str = "",
        parent: Optional["DomNode"] = None,
    ) -> None:
        self.tag = tag
        self.attributes: Dict[str, str] = {} if attributes is None else attributes
        self.children: List[DomNode] = [] if children is None else children
        self.text = text
        self.parent = parent

    # -- construction -------------------------------------------------------

    def add_child(self, child: "DomNode") -> "DomNode":
        """Attach ``child`` and return it."""
        child.parent = self
        self.children.append(child)
        return child

    # -- traversal ----------------------------------------------------------

    def is_text(self) -> bool:
        """Whether this is a text node."""
        return self.tag is None

    def iter_descendants(self) -> Iterator["DomNode"]:
        """Depth-first iterator over all descendants (excluding ``self``)."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def find_all(self, tag: str) -> List["DomNode"]:
        """All descendant elements with the given tag name, in document order."""
        wanted = tag.lower()
        found: List[DomNode] = []
        stack = self.children[::-1]
        while stack:
            node = stack.pop()
            if node.tag == wanted:
                found.append(node)
            stack += node.children[::-1]
        return found

    def find_first(self, tag: str) -> Optional["DomNode"]:
        """The first descendant element with the given tag name, or ``None``."""
        wanted = tag.lower()
        for node in self.iter_descendants():
            if node.tag == wanted:
                return node
        return None

    def direct_children(self, tag: str) -> List["DomNode"]:
        """Direct children with the given tag name."""
        wanted = tag.lower()
        return [child for child in self.children if child.tag == wanted]

    def get_attribute(self, name: str, default: str = "") -> str:
        """Value of an HTML attribute, or ``default``."""
        return self.attributes.get(name.lower(), default)

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_text():
            return f"DomNode(text={self.text[:30]!r})"
        return f"DomNode(<{self.tag}>, children={len(self.children)})"


class _TreeBuilder(HTMLParser):
    """Builds a :class:`DomNode` tree while tolerating sloppy markup."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = DomNode(tag="document")
        self._stack: List[DomNode] = [self.root]

    # -- HTMLParser callbacks -------------------------------------------------
    # ``html.parser`` lower-cases tag and attribute names before calling these.

    def handle_starttag(self, tag: str, attrs) -> None:  # type: ignore[override]
        """Open a tag, auto-closing siblings that cannot nest under it."""
        stack = self._stack
        closes = _IMPLICIT_CLOSERS.get(tag)
        if closes:
            while len(stack) > 1 and stack[-1].tag in closes:
                stack.pop()
        parent = stack[-1]
        attributes = {name: value or "" for name, value in attrs} if attrs else {}
        node = DomNode(tag, attributes, [], "", parent)
        parent.children.append(node)
        if tag not in _VOID_ELEMENTS:
            stack.append(node)

    def handle_startendtag(self, tag: str, attrs) -> None:  # type: ignore[override]
        """Treat ``<x/>`` as ``<x>``: HTML5 ignores the flag on non-void elements."""
        self.handle_starttag(tag, attrs)

    def handle_endtag(self, tag: str) -> None:  # type: ignore[override]
        """Close the innermost matching open tag, ignoring strays."""
        if tag in _VOID_ELEMENTS:
            return
        # Pop until the matching open tag (or leave the stack untouched when
        # the closing tag was never opened).
        stack = self._stack
        if len(stack) > 1 and stack[-1].tag == tag:
            stack.pop()
            return
        for index in range(len(stack) - 2, 0, -1):
            if stack[index].tag == tag:
                del stack[index:]
                return

    def handle_data(self, data: str) -> None:  # type: ignore[override]
        """Attach non-blank text as a leaf node of the open element.

        Script and style bodies are code, not page text: dropped.
        """
        text = data.strip()
        parent = self._stack[-1]
        if text and parent.tag not in _RAW_TEXT_ELEMENTS:
            parent.children.append(DomNode(None, {}, [], text, parent))


def parse_html(html_text: str) -> DomNode:
    """Parse an HTML document into a :class:`DomNode` tree.

    The returned node is a synthetic ``document`` root; use
    :meth:`DomNode.find_all` to locate elements.

    Examples
    --------
    >>> root = parse_html("<table><tr><td>Brand</td><td>Hitachi</td></tr></table>")
    >>> [cell.text_content() for cell in root.find_all("td")]
    ['Brand', 'Hitachi']
    """
    builder = _TreeBuilder()
    builder.feed(html_text or "")
    builder.close()
    return builder.root
