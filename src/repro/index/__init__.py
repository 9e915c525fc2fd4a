"""SMiLer Index: two-level inverted-like index + Suffix kNN Search."""

from .direct import direct_lb_en
from .group_index import (
    GroupLevelIndex,
    ItemLowerBounds,
    LaneLowerBounds,
    lower_bounds_many,
)
from .reference import algorithm1_reference
from .suffix_search import (
    SuffixKnnAnswer,
    SuffixKnnEngine,
    SuffixSearchConfig,
    search_many,
)
from .window_index import WindowLevelIndex, step_many

__all__ = [
    "algorithm1_reference",
    "direct_lb_en",
    "GroupLevelIndex",
    "ItemLowerBounds",
    "LaneLowerBounds",
    "lower_bounds_many",
    "search_many",
    "step_many",
    "SuffixKnnAnswer",
    "SuffixKnnEngine",
    "SuffixSearchConfig",
    "WindowLevelIndex",
]
