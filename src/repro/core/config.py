"""SMiLer system configuration (paper defaults in Table 2)."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SMiLerConfig"]


@dataclass(frozen=True)
class SMiLerConfig:
    """All knobs of one SMiLer instance.

    Defaults reproduce the paper's Table 2: warping width ``rho = 8``,
    window length ``omega = 16``, Ensemble Length Vector {32, 64, 96} and
    Ensemble kNN Vector {8, 16, 32} — a 3x3 ensemble matrix.
    """

    #: Ensemble Length Vector (segment lengths d_j).
    elv: tuple[int, ...] = (32, 64, 96)
    #: Ensemble kNN Vector (neighbour counts k_i).
    ekv: tuple[int, ...] = (8, 16, 32)
    #: Sakoe-Chiba warping width for all DTW computations.
    rho: int = 8
    #: DualMatch window length of the SMiLer Index.
    omega: int = 16
    #: Prediction horizons (h-step-ahead); one ensemble state per horizon.
    horizons: tuple[int, ...] = (1,)
    #: Predictor family: "gp" (SMiLer-GP) or "ar" (SMiLer-AR).
    predictor: str = "gp"
    #: Enable the ensemble matrix (False = single predictor, SMiLerNE).
    ensemble: bool = True
    #: Enable self-adaptive weight updates (False = fixed weights, SMiLerNS).
    self_adaptive: bool = True
    #: Enable the sleep-and-recovery scheduler (Section 5.1.2).
    sleep_enabled: bool = True
    #: CG iterations for the initial GP hyperparameter fit.
    initial_train_iters: int = 25
    #: Fixed CG steps per continuous-prediction tick (Section 5.2.2).
    online_train_iters: int = 5
    #: Fallback (k, d) when the ensemble is disabled.
    single_k: int = 32
    single_d: int = 64
    #: Search-pipeline switches forwarded to
    #: :class:`~repro.index.suffix_search.SuffixSearchConfig` — the
    #: ablation surface of the search step.  Both default on; disabling
    #: either keeps answers bit-identical (each tier is an admissible
    #: bound), it only changes how much work the search does.  See
    #: ``repro.ablation``.
    lb_kim: bool = True
    reuse_threshold: bool = True

    def __post_init__(self) -> None:
        if not self.elv or not self.ekv:
            raise ValueError("ELV and EKV must be non-empty")
        if any(d <= 0 for d in self.elv) or any(k <= 0 for k in self.ekv):
            raise ValueError("ELV and EKV entries must be positive")
        if tuple(sorted(self.elv)) != tuple(self.elv):
            raise ValueError(f"ELV must be sorted ascending, got {self.elv}")
        if self.rho < 0:
            raise ValueError(f"rho must be non-negative, got {self.rho}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if min(self.elv) < self.omega:
            raise ValueError(
                f"shortest ELV entry ({min(self.elv)}) must be at least "
                f"omega ({self.omega})"
            )
        if not self.horizons or any(h <= 0 for h in self.horizons):
            raise ValueError(f"horizons must be positive, got {self.horizons}")
        if self.predictor not in ("gp", "ar"):
            raise ValueError(f"predictor must be 'gp' or 'ar', got {self.predictor!r}")
        if self.initial_train_iters < 0 or self.online_train_iters < 0:
            raise ValueError("training iteration counts must be non-negative")

    # ------------------------------------------------------------- derived
    @property
    def master_length(self) -> int:
        """Length of the master query (longest item query)."""
        return max(self.elv)

    @property
    def k_max(self) -> int:
        """Largest neighbour count in the EKV."""
        return max(self.ekv)

    @property
    def margin(self) -> int:
        """Candidate margin: the farthest horizon's target must exist."""
        return max(self.horizons)

    @property
    def grid(self) -> list[tuple[int, int]]:
        """Predictor grid cells ``(k_i, d_j)`` of the ensemble matrix."""
        if self.ensemble:
            return [(k, d) for k in self.ekv for d in self.elv]
        return [(self.single_k, self.single_d)]

    def effective_elv(self) -> tuple[int, ...]:
        """Item lengths the search engine must serve."""
        if self.ensemble:
            return self.elv
        return (self.single_d,)
