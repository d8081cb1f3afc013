"""An in-memory "web" of merchant landing pages.

The real system fetches the landing page behind every offer URL.  The
reproduction stores rendered pages in a :class:`WebStore` keyed by URL so
that the Web-page Attribute Extraction component exercises the identical
fetch → parse → extract code path without network access.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

__all__ = ["WebStore", "PageNotFoundError"]


class PageNotFoundError(KeyError):
    """Raised when a URL has no stored page."""


class WebStore:
    """A URL -> HTML mapping with a tiny fetch API.

    Examples
    --------
    >>> store = WebStore()
    >>> store.put("http://example.com/p/1", "<html></html>")
    >>> store.fetch("http://example.com/p/1")
    '<html></html>'
    """

    def __init__(self) -> None:
        self._pages: Dict[str, str] = {}

    def put(self, url: str, html: str) -> None:
        """Store (or overwrite) the page behind ``url``."""
        if not url:
            raise ValueError("cannot store a page under an empty URL")
        self._pages[url] = html

    def fetch(self, url: str) -> str:
        """Return the page behind ``url``.

        Raises
        ------
        PageNotFoundError
            If the URL is unknown.
        """
        try:
            return self._pages[url]
        except KeyError:
            raise PageNotFoundError(url) from None

    def fetch_or_none(self, url: str) -> Optional[str]:
        """Return the page behind ``url`` or ``None`` when missing."""
        return self._pages.get(url)

    def clear(self) -> None:
        """Drop every stored page."""
        self._pages.clear()

    def has(self, url: str) -> bool:
        """Whether the store contains a page for ``url``."""
        return url in self._pages

    def urls(self) -> List[str]:
        """All stored URLs."""
        return list(self._pages.keys())

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, url: str) -> bool:
        return url in self._pages

    def __iter__(self) -> Iterator[str]:
        return iter(self._pages)
