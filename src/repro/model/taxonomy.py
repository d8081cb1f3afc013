"""Product taxonomy: a tree of categories.

The catalog taxonomy of a Product Search Engine has thousands of
categories organised under a handful of top-level departments
("Computing", "Cameras", ...).  Products and offers always attach to a
*leaf* category; evaluation tables in the paper aggregate results by
*top-level* category (paper Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

__all__ = ["Category", "Taxonomy"]


@dataclass(frozen=True)
class Category:
    """A node in the catalog taxonomy.

    Attributes
    ----------
    category_id:
        Stable unique identifier (e.g. ``"computing.storage.hard-drives"``).
    name:
        Human-readable name (e.g. ``"Hard Drives"``).
    parent_id:
        Identifier of the parent category, ``None`` for top-level nodes.
    """

    category_id: str
    name: str
    parent_id: Optional[str] = None


class Taxonomy:
    """A tree of :class:`Category` nodes with id-based lookups.

    The tree is built incrementally (:meth:`add_category`); parents must be
    added before their children so that the structure is always a valid
    forest.

    Examples
    --------
    >>> taxonomy = Taxonomy()
    >>> _ = taxonomy.add_category("computing", "Computing")
    >>> _ = taxonomy.add_category("computing.hard-drives", "Hard Drives", parent_id="computing")
    >>> taxonomy.top_level_of("computing.hard-drives").name
    'Computing'
    """

    def __init__(self) -> None:
        self._categories: Dict[str, Category] = {}
        self._children: Dict[str, List[str]] = {}

    # -- construction -----------------------------------------------------

    def add_category(
        self, category_id: str, name: str, parent_id: Optional[str] = None
    ) -> Category:
        """Add a category node and return it.

        Raises
        ------
        ValueError
            If the id already exists or the parent is unknown.
        """
        if category_id in self._categories:
            raise ValueError(f"duplicate category id: {category_id!r}")
        if parent_id is not None and parent_id not in self._categories:
            raise ValueError(
                f"unknown parent {parent_id!r} for category {category_id!r}"
            )
        category = Category(category_id=category_id, name=name, parent_id=parent_id)
        self._categories[category_id] = category
        self._children.setdefault(category_id, [])
        if parent_id is not None:
            self._children.setdefault(parent_id, []).append(category_id)
        return category

    # -- lookup -----------------------------------------------------------

    def get(self, category_id: str) -> Category:
        """The category with the given id.

        Raises
        ------
        KeyError
            If the category does not exist.
        """
        try:
            return self._categories[category_id]
        except KeyError:
            raise KeyError(f"unknown category id: {category_id!r}") from None

    def __contains__(self, category_id: str) -> bool:
        return category_id in self._categories

    def __len__(self) -> int:
        return len(self._categories)

    def __iter__(self) -> Iterator[Category]:
        return iter(self._categories.values())

    def categories(self) -> List[Category]:
        """All categories, in insertion order."""
        return list(self._categories.values())

    def leaves(self) -> List[Category]:
        """Categories with no children (products/offers attach here)."""
        return [
            category
            for category_id, category in self._categories.items()
            if not self._children.get(category_id)
        ]

    def leaf_ids(self) -> List[str]:
        """Ids of all leaf categories."""
        return [category.category_id for category in self.leaves()]

    def top_level_of(self, category_id: str) -> Category:
        """The top-level (root) ancestor of a category (itself if top-level)."""
        current = self.get(category_id)
        while current.parent_id is not None:
            current = self.get(current.parent_id)
        return current

    def descendants_of(self, category_id: str) -> List[Category]:
        """All descendants (children, grandchildren, ...) of a category."""
        self.get(category_id)
        descendants: List[Category] = []
        frontier = list(self._children.get(category_id, []))
        while frontier:
            child_id = frontier.pop()
            child = self._categories[child_id]
            descendants.append(child)
            frontier.extend(self._children.get(child_id, []))
        return descendants

    def subtree_leaf_ids(self, category_id: str) -> List[str]:
        """Leaf-category ids in the subtree rooted at ``category_id``.

        Used by the Figure 7/8 experiments, which restrict correspondence
        generation to the Computing subtree.
        """
        root = self.get(category_id)
        if not self._children.get(category_id):
            return [root.category_id]
        return [
            category.category_id
            for category in self.descendants_of(category_id)
            if not self._children.get(category.category_id)
        ]
