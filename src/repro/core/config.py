"""SGCL hyper-parameter configuration (paper §VI.A.3 defaults)."""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["SGCLConfig"]


@dataclass
class SGCLConfig:
    """All knobs of the SGCL framework.

    The defaults are the paper's tuned values for the unsupervised TU
    experiments: 3-layer GIN with hidden width 32, ρ=0.9, λ_c=λ_W=0.01,
    τ=0.2, Adam lr=0.001. The Table V ablations: ``lambda_c=0`` drops
    L_c (SGCL w/o Lc), ``lambda_w=0`` drops Θ_W (SGCL w/o LW),
    ``use_semantic_readout=False`` drops SRL, and ``augmentation``
    switches the view generator (``"lipschitz"`` = full SGCL,
    ``"random"`` = SGCL w/o VG, ``"learnable"`` = SGCL w/o LGA).
    """

    # Encoder architecture (f_q and f_k share it; parameters are unshared).
    hidden_dim: int = 32
    num_layers: int = 3
    conv: str = "gin"            # Fig. 6: gin | gcn | sage | gat
    pooling: str = "sum"

    # Lipschitz graph augmentation (§IV.B–C).
    rho: float = 0.9             # keep ratio — see DESIGN.md §5 on ρ semantics
    lipschitz_mode: str = "approx"   # "exact" (reference) | "approx" (attention)
    augmentation: str = "lipschitz"  # "lipschitz" | "random" | "learnable"
    # Generator GNN type. The paper uses the same architecture for f_q and
    # f_k; on our substrate sum-aggregating GIN explodes on dense graphs
    # without BatchNorm while BatchNorm's running statistics erase the
    # magnitude salience the Lipschitz statistic measures, so the generator
    # defaults to mean-aggregating GraphSAGE (DESIGN.md §5). Set to
    # config.conv to recover the literal same-architecture reading.
    generator_conv: str = "sage"

    # Loss (§IV.D, Eq. 27).
    tau: float = 0.2
    lambda_c: float = 0.01
    lambda_w: float = 0.01
    # Weight of the generator tower's graph-likelihood objective. The paper
    # trains f_q jointly but never states its gradient source; we train it to
    # maximise the paper's own graph probability (Definitions 1–2: edge
    # probability δ((h_i/d_i + h_j/d_j)·w)), i.e. link prediction — a
    # structure-preserving objective under which the Lipschitz constants
    # measure semantic relevance (DESIGN.md §5). Setting 0 recovers the
    # strictly-literal reading (f_q updated only through Eq. 21).
    lambda_g: float = 1.0

    # Stop-gradient between the contrastive losses and f_q. When True
    # (default) the generator is trained purely by its graph-likelihood
    # objective; the InfoNCE gradient through K_V (Eq. 21) otherwise learns
    # a degenerate weighting that anti-correlates with semantics (observed
    # empirically; DESIGN.md §5).
    detach_semantics: bool = True

    # Ablation switch (Table V): SRL, Eq. 21's K_V-weighted pooling.
    use_semantic_readout: bool = True

    # Optimisation (§VI.A.3).
    lr: float = 1e-3
    batch_size: int = 128
    epochs: int = 40

    # Where SGCLTrainer.precompute_lipschitz keeps its content-addressed
    # K_V cache (repro.runtime.PrecomputeCache) when the caller does not
    # hand one in. Relative paths resolve against the working directory;
    # None disables the default cache (callers can still pass their own).
    # Cache keys pin graph content + generator parameters, so a stale hit
    # is impossible; this is a pure wall-time knob.
    precompute_cache_dir: str | None = ".repro_cache/precompute"

    # Numerical guard rails (repro.validate.NumericsGuard). What to do
    # when a batch produces a NaN/Inf loss component or gradient norm:
    # "raise" aborts, "skip" drops the batch (counted under
    # numerics/skipped_batches and in the epoch row), "warn" records and
    # proceeds. grad_clip rescales gradients whose global L2 norm exceeds
    # it (None = off). Seeded numerics are unchanged unless a guard fires
    # or clipping engages.
    numerics_policy: str = "skip"
    grad_clip: float | None = None

    # Reproducibility.
    seed: int = 0

    def with_overrides(self, **kwargs) -> "SGCLConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must be in (0, 1], got {self.rho}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if self.lipschitz_mode not in ("exact", "approx"):
            raise ValueError(f"unknown lipschitz_mode {self.lipschitz_mode!r}")
        if self.augmentation not in ("lipschitz", "random", "learnable"):
            raise ValueError(f"unknown augmentation {self.augmentation!r}")
        if self.numerics_policy not in ("raise", "skip", "warn"):
            raise ValueError(
                f"unknown numerics_policy {self.numerics_policy!r}")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError(
                f"grad_clip must be positive or None, got {self.grad_clip}")
