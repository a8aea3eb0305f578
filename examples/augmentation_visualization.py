"""Visualise Lipschitz-guided augmentation on MNIST-Superpixel digits.

Run with::

    python examples/augmentation_visualization.py

Paper Figure 7: node colours reflect the Lipschitz constant; darker nodes
are more likely to survive augmentation. We render digit superpixel graphs
as ASCII intensity maps — the stroke should light up, the background noise
nodes should not — and show one positive view Ĝ and complement view Ĝ^c.
"""

from __future__ import annotations

import numpy as np

from repro.core import SGCLConfig, SGCLTrainer, lipschitz_augment
from repro.data import generate_superpixel_dataset
from repro.graph import Batch
from repro.tensor import no_grad


def ascii_map(graph, values: np.ndarray, keep: np.ndarray | None = None) -> str:
    grid = graph.meta["grid"]
    canvas = [[" " for _ in range(grid)] for _ in range(grid)]
    glyphs = " .:-=+*#%@"
    normalised = (values - values.min()) / (np.ptp(values) + 1e-12)
    for i, ((row, col), value) in enumerate(zip(graph.meta["cells"],
                                                normalised)):
        if keep is not None and not keep[i]:
            canvas[int(row)][int(col)] = "x"
        else:
            canvas[int(row)][int(col)] = glyphs[min(int(value * 9.999), 9)]
    return "\n".join("".join(line) for line in canvas)


def main() -> None:
    dataset = generate_superpixel_dataset(seed=0, per_digit=1,
                                          digits=(1, 2, 6))
    config = SGCLConfig(epochs=4, batch_size=8, seed=0,
                        lipschitz_mode="exact")
    trainer = SGCLTrainer(dataset.num_features, config)
    trainer.pretrain(dataset.graphs)

    rng = np.random.default_rng(0)
    for graph in dataset.graphs:
        batch = Batch([graph])
        with no_grad():
            scores = trainer.model.semantic_scores(batch)
        constants = scores.constants.data
        print(f"\n=== digit {graph.y} — Lipschitz constants "
              "(dark = semantic, 'x' = dropped) ===")
        print(ascii_map(graph, constants))
        view, complement = lipschitz_augment(
            batch, scores.keep_probability, rho=0.7, rng=rng)
        kept = np.zeros(graph.num_nodes, dtype=bool)
        kept[view.parent_nodes] = True
        print(f"--- positive view Ĝ (ρ=0.7): dropped "
              f"{graph.num_nodes - view.num_nodes} semantic-unrelated nodes ---")
        print(ascii_map(graph, constants, keep=kept))
        kept_c = np.zeros(graph.num_nodes, dtype=bool)
        kept_c[complement.parent_nodes] = True
        print("--- complement view Ĝ^c: semantic nodes dropped instead ---")
        print(ascii_map(graph, constants, keep=kept_c))


if __name__ == "__main__":
    main()
