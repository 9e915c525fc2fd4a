"""SMiLer Index: two-level inverted-like index + Suffix kNN Search."""

from .direct import direct_lb_en
from .group_index import GroupLevelIndex, ItemLowerBounds
from .reference import algorithm1_reference
from .suffix_search import (
    SuffixKnnAnswer,
    SuffixKnnEngine,
    SuffixSearchConfig,
    search_many,
)
from .window_index import WindowLevelIndex

__all__ = [
    "algorithm1_reference",
    "direct_lb_en",
    "GroupLevelIndex",
    "ItemLowerBounds",
    "search_many",
    "SuffixKnnAnswer",
    "SuffixKnnEngine",
    "SuffixSearchConfig",
    "WindowLevelIndex",
]
