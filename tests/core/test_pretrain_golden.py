"""Golden values of seeded pre-training runs.

Each case pre-trains for two seeded epochs and pins a digest of every
history row (keys in order, values as ``float.hex``; ``epoch_seconds`` is
wall time and left out) and a sha256 of the final ``state_dict`` bytes
(parameters and BatchNorm buffers, in key order). A change to view
sampling, batching, RNG use, update order or arithmetic shows up here as
a changed digest, not as a slightly different accuracy.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines import (
    ADGCL,
    DGI,
    GAE,
    AttrMasking,
    AutoGCL,
    ContextPred,
    RGCL,
)
from repro.core import SGCLConfig, SGCLTrainer
from repro.data import load_dataset
from repro.sampling import (
    NodeSGCLTrainer,
    SubgraphStream,
    load_node_dataset,
    make_sampler,
)


def _history_digest(history) -> str:
    rows = [",".join(f"{key}={float(value).hex()}"
                     for key, value in row.items() if key != "epoch_seconds")
            for row in history]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def _state_digest(state: dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name, value in state.items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()[:16]


def _config(**overrides) -> SGCLConfig:
    base = dict(hidden_dim=16, num_layers=2, batch_size=8, epochs=2, seed=0)
    return SGCLConfig(**{**base, **overrides})


def _graph_sgcl(**overrides):
    dataset = load_dataset("MUTAG", seed=0, scale=0.15)
    trainer = SGCLTrainer(dataset.num_features, _config(**overrides))
    history = trainer.pretrain(dataset.graphs)
    return history, trainer.model.state_dict()


def _node_sgcl(**kwargs):
    dataset = load_node_dataset("community-1m", seed=0, scale=0.0005)
    stream = SubgraphStream(
        make_sampler("walk", dataset, roots=8, walk_length=4),
        samples_per_epoch=4, batch_size=2, seed=1, norm_samples=10)
    trainer = NodeSGCLTrainer(dataset.num_features, _config(), **kwargs)
    history = trainer.pretrain(stream, epochs=2)
    return history, trainer.model.state_dict()


def _baseline(cls, **kwargs):
    dataset = load_dataset("MUTAG", seed=0, scale=0.15)
    model = cls(dataset.num_features, hidden_dim=16, num_layers=2,
                batch_size=8, seed=0, **kwargs)
    history = model.pretrain(dataset.graphs, epochs=2)
    return history, model.state_dict()


CASES = {
    "sgcl-lipschitz": (lambda: _graph_sgcl(),
                       "389f8bfdaade7cb6", "bf73c80cd0af8243"),
    "sgcl-random": (lambda: _graph_sgcl(augmentation="random"),
                    "fd594d7f2938b035", "fcdf321310454bc0"),
    "sgcl-learnable": (lambda: _graph_sgcl(augmentation="learnable"),
                       "492a700a8156bbfe", "5f866cdd341ffd2f"),
    "sgcl-exact": (lambda: _graph_sgcl(lipschitz_mode="exact"),
                   "7c48ab1337700df8", "974cc9e926fd9046"),
    "sgcl-rho-1": (lambda: _graph_sgcl(rho=1.0),
                   "62c258b211e77a23", "e04f94245dca9167"),
    "sgcl-gcn-rho-0.6": (lambda: _graph_sgcl(conv="gcn", rho=0.6),
                         "78c558ae6bd7f02c", "820d101d67a6dcb7"),
    "sgcl-gat": (lambda: _graph_sgcl(conv="gat"),
                 "3c50dde9ac5f18c0", "84d1108c19f1098d"),
    "sgcl-sage": (lambda: _graph_sgcl(conv="sage"),
                  "e1fa7677a75ad77f", "09ac3063508a2b19"),
    "sgcl-generator-gat": (lambda: _graph_sgcl(generator_conv="gat"),
                           "adc5b89984f3f5a2", "3582cad776ccf0df"),
    "node-sgcl": (lambda: _node_sgcl(),
                  "d0c189f9f4d2517f", "e758b9d97db7a3cf"),
    "node-sgcl-cap-16": (lambda: _node_sgcl(max_contrast_nodes=16),
                         "3a437f003b542cce", "a8decc10e53bb167"),
    "rgcl": (lambda: _baseline(RGCL),
             "5cf39d9dc2e4e034", "94c9feb9186bf536"),
    "autogcl": (lambda: _baseline(AutoGCL),
                "0ac49a302ea156dd", "733956028b1e1d70"),
    "autogcl-max-drop-1": (lambda: _baseline(AutoGCL, max_drop=1.0),
                           "87453676a9f1f90a", "39daa05caaff88a3"),
    "adgcl": (lambda: _baseline(ADGCL),
              "071f5ed82d28393c", "21cd82e135824fe8"),
    "attr-masking": (lambda: _baseline(AttrMasking),
                     "0082af67db1a101c", "819f52a4351efd8b"),
    "context-pred": (lambda: _baseline(ContextPred),
                     "8e8e1c6a2093bec8", "22f0938747dfa206"),
    "dgi": (lambda: _baseline(DGI),
            "9c13a7056d65d821", "eb7485792fed660a"),
    "gae": (lambda: _baseline(GAE),
            "09114318d3f6df91", "ff9a646651f5d408"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_seeded_pretrain_is_pinned(case):
    run, history_digest, state_digest = CASES[case]
    history, state = run()
    assert len(history) == 2
    assert _history_digest(history) == history_digest
    assert _state_digest(state) == state_digest
