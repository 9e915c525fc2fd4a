"""Time-series substrate: containers, windows, generators and datasets."""

from .datasets import DATASET_NAMES, SensorDataset, make_dataset
from .generators import mall_like, net_like, road_like
from .io import fill_missing, load_csv, load_directory, reinterpolate, save_csv
from .series import (
    TimeSeries,
    ZNormStats,
    segment_matrix,
    sliding_segments,
    train_test_split_tail,
)
from .windows import (
    aligned_segment_start,
    csg_size,
    csg_window_ids,
    disjoint_window,
    disjoint_window_count,
    disjoint_windows,
    sliding_window,
    sliding_window_count,
    sliding_windows_right_to_left,
)

__all__ = [
    "DATASET_NAMES",
    "SensorDataset",
    "make_dataset",
    "mall_like",
    "net_like",
    "road_like",
    "fill_missing",
    "load_csv",
    "load_directory",
    "reinterpolate",
    "save_csv",
    "TimeSeries",
    "ZNormStats",
    "segment_matrix",
    "sliding_segments",
    "train_test_split_tail",
    "aligned_segment_start",
    "csg_size",
    "csg_window_ids",
    "disjoint_window",
    "disjoint_window_count",
    "disjoint_windows",
    "sliding_window",
    "sliding_window_count",
    "sliding_windows_right_to_left",
]
