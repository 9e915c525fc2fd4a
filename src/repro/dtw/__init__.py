"""DTW substrate: banded distance, envelopes, lower bounds, CPU scans."""

from .distance import (
    dtw_batch,
    dtw_batch_pruned,
    dtw_distance,
    dtw_distance_compressed,
    dtw_distance_early_abandon,
)
from .envelope import (
    Envelope,
    compute_envelope,
    compute_envelope_batch,
    envelope_shift,
)
from .knn import KnnResult, ScanStats, fast_cpu_scan, knn_bruteforce
from .lower_bounds import (
    lb_ec,
    lb_eq,
    lb_improved_profile,
    lb_keogh,
    lb_kim,
    lb_kim_profile,
    lb_keogh_terms,
    lb_profile,
    window_pair_lb_matrices,
    window_pair_lbec,
    window_pair_lbeq,
)
from .measures import (
    edr_distance,
    erp_distance,
    euclidean_distance,
    lcss_distance,
    lcss_similarity,
)

__all__ = [
    "dtw_batch",
    "dtw_batch_pruned",
    "dtw_distance",
    "dtw_distance_compressed",
    "dtw_distance_early_abandon",
    "Envelope",
    "compute_envelope",
    "compute_envelope_batch",
    "envelope_shift",
    "KnnResult",
    "ScanStats",
    "fast_cpu_scan",
    "knn_bruteforce",
    "lb_ec",
    "lb_eq",
    "lb_improved_profile",
    "lb_keogh",
    "lb_kim",
    "lb_kim_profile",
    "lb_keogh_terms",
    "lb_profile",
    "window_pair_lb_matrices",
    "window_pair_lbeq",
    "window_pair_lbec",
    "edr_distance",
    "erp_distance",
    "euclidean_distance",
    "lcss_distance",
    "lcss_similarity",
]
