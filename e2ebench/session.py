"""The benchmark's workloads: train, evaluate and serve, in rounds.

Each run reports every end-to-end metric, so every workload exercises
every path and the workloads differ in their corpus and in which path
carries the load (``workloads.json`` holds their inputs and records):

* **train**   two SGCL pretraining runs from one seed, an epoch at a time
              (closed loop, one process). Graph level: the Table III path
              on synthetic MUTAG. Node level: the ``walk`` sampler
              streaming ``community-1m`` subgraphs to ``NodeSGCLTrainer``.
* **eval**    of the first run's current encoder, on the path the
              workload's level names: ``embed_dataset`` + 10-fold RBF-SVM
              ``cross_validated_accuracy`` (graph level, Table III), or
              ``node_linear_probe`` (node level).
* **traffic** open-loop Poisson reads at a few fixed rates against two
              forked ``ProcessReplica`` shards behind a hash-routed
              ``FleetRouter``, with writes (``IngestPipeline.ingest``,
              ``superseded_digests``, ``FleetRouter.invalidate``) mixed in
              at the workload's write share.

Set-up (datasets, the served checkpoint, the live drift reference, the
forked replicas up to their first reply) is timed once before the rounds
and ``SETUPS_PER_ROUND`` more times after each round (built, timed and
closed again); ``setup_s`` is the median, so like every other metric it
samples the host across the whole run.
The measured part runs in ``ROUNDS`` rounds, each doing a slice of every
path, so a burst of host contention lands in one round's share of every
metric rather than in all of one metric; metrics are medians or pooled
percentiles over the rounds. Each end-to-end timing is scaled to a
reference host speed by the probes ``hostspeed`` takes around its block.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import SGCLConfig, SGCLTrainer
from repro.data import load_dataset, train_test_split
from repro.eval import (cross_validated_accuracy, embed_dataset,
                        node_linear_probe)
from repro.fleet import FleetRouter, ProcessReplica
from repro.graph import Graph
from repro.ingest import (DatasetStore, IngestPipeline, RefreshController,
                          corpus_statistics, register_trainer, write_live)
from repro.runtime import ParallelExecutor
from repro.sampling import (NodeEmbeddingIndex, NodeSGCLTrainer,
                            SubgraphStream, load_node_dataset, make_sampler)
from repro.serve import EmbeddingService, ModelRegistry

import loadgen
from hostspeed import HostSpeed, scale
from tracing import Patches, SpanRecorder

HERE = Path(__file__).resolve().parent
ROUNDS = 4
SETUPS_PER_ROUND = 2
REPLICAS = 2
WRITE_GRAPHS = 4
SERVED_VERSION = "live"
# A served row must equal the reference row up to float rounding: the two
# are computed in differently composed batches, which can move the last
# bits (seen: 5e-16). A stale revision or a wrong row is off by far more.
ROW_RTOL, ROW_ATOL = 1e-9, 1e-12
IDLE_PROBE_GAP_S = 0.012   # traffic: probe host speed in gaps this long
PROBE_EVERY_S = 0.1        # ... at most this often
TIMING_KIND = {"setup": "compute", "step": "compute", "eval": "compute",
               "read": "read", "write": "compute"}


@dataclass(frozen=True)
class Workload:
    """One workload's inputs. Everything else is drawn from the seed."""

    name: str
    level: str                 # "graph" | "node"
    corpus_scale: float        # dataset scale (MUTAG or community-1m)
    epochs: int                # per training run (two runs per workload)
    rates: tuple               # fixed offered read rates, ascending (1/s)
    nominal: float             # the rate req_ms_* are reported at
    nominal_reads: int
    sweep_reads: int           # reads at every other rate
    slo_ms: float              # p99 latency limit for max_rps_at_slo
    write_share: float         # writes / (reads + writes)
    zipf: float                # read popularity exponent
    cache_per_replica: int
    accuracy_floor: float
    graphs_per_read: int = 8
    read_pool: int = 0         # node level: distinct node ids queried
    eval_nodes: int = 0        # node level: nodes the probe draws


def load_workloads() -> tuple[float, dict[str, Workload]]:
    """``workloads.json``: the run length (``--seconds``) its sizes are
    tuned for, and every workload's inputs by name. A shorter run shrinks
    training, rounds and traffic in proportion; a longer one adds traffic.
    """
    records = json.loads((HERE / "workloads.json").read_text())
    workloads = {
        record["name"]: Workload(
            name=record["name"],
            **{**record["inputs"], "rates": tuple(record["inputs"]["rates"])})
        for record in records["workloads"]}
    return records["run_seconds"], workloads


class _NullRecorder:
    """Stands in for :class:`SpanRecorder` when tracing is off."""

    phase = None

    def span(self, name):
        return _NULL_SPAN


_NULL_SPAN = contextlib.nullcontext()


@dataclass
class Tally:
    """Operations attempted and failed (correctness checks included)."""

    attempted: int = 0
    failed: int = 0
    reasons: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[what] = self.reasons.get(what, 0) + 1


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Env:
    """Everything set-up builds; the measured part only uses this."""

    spec: Workload
    seed: int
    config: SGCLConfig
    in_dim: int
    dataset: object              # GraphDataset or NodeDataset
    train_input: object          # graph list (graph level) or SubgraphStream
    nodes_per_epoch: int         # graph level (node level counts batches)
    router: FleetRouter
    store: DatasetStore
    pipeline: IngestPipeline
    reference: EmbeddingService  # single-service twin of the served model
    corpus: list = field(default_factory=list)   # graph level: served graphs
    read_nodes: np.ndarray | None = None         # node level: queried ids
    sampler: object = None

    def make_trainer(self):
        if self.spec.level == "graph":
            return SGCLTrainer(self.in_dim, self.config)
        return NodeSGCLTrainer(self.in_dim, self.config)

    def close(self) -> None:
        self.router.close()


def setup(spec: Workload, seed: int, root: Path) -> Env:
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    config = SGCLConfig(batch_size=32, seed=seed,
                        precompute_cache_dir=str(root / "precompute"))
    corpus, read_nodes, sampler = [], None, None
    if spec.level == "graph":
        dataset = load_dataset("MUTAG", seed=seed, scale=spec.corpus_scale)
        for i, graph in enumerate(dataset.graphs):
            graph.meta["graph_id"] = f"g{i}"
        train_idx, _ = train_test_split(len(dataset), 0.1, rng)
        train_input = [dataset[i] for i in train_idx]
        if len(train_input) % config.batch_size == 1:
            raise ValueError("a one-graph tail batch would be skipped")
        nodes_per_epoch = sum(g.num_nodes for g in train_input)
        train_corpus = train_input
        corpus = list(dataset.graphs)
        store_corpus, num_classes = corpus, dataset.num_classes
    else:
        dataset = load_node_dataset("community-1m", seed=seed,
                                    scale=spec.corpus_scale)
        dataset.csr()
        sampler = make_sampler("walk", dataset, roots=48, walk_length=6)
        train_input = SubgraphStream(
            sampler, samples_per_epoch=16, batch_size=4, seed=seed,
            executor=ParallelExecutor(workers=1), norm_samples=64)
        train_input.node_norms()
        nodes_per_epoch = 0
        train_corpus = list(train_input.subgraphs(epoch=0))
        for i, graph in enumerate(train_corpus):
            graph.meta["graph_id"] = f"s{i}"
        store_corpus, num_classes = train_corpus, dataset.num_classes
        read_nodes = rng.choice(dataset.num_nodes, size=spec.read_pool,
                                replace=False)
    in_dim = dataset.num_features
    served = (SGCLTrainer if spec.level == "graph"
              else NodeSGCLTrainer)(in_dim, config)
    store = DatasetStore(root / "store")
    store.append(store_corpus, name=spec.name, num_classes=num_classes)
    registry = ModelRegistry(root / "models")
    checkpoint = register_trainer(registry, SERVED_VERSION, served)
    write_live(store.root, {
        "model": SERVED_VERSION, "dataset_version": 1,
        "statistics": corpus_statistics(train_corpus,
                                        generator=served.model.generator)})
    router = FleetRouter([
        ProcessReplica(f"w{i}", checkpoint, version=SERVED_VERSION,
                       cache_size=spec.cache_per_replica)
        for i in range(REPLICAS)])
    router.stats()  # a replica is built once it has loaded and answers
    pipeline = IngestPipeline(store,
                              controller=RefreshController(store, registry))
    reference = EmbeddingService(served.encoder, cache_size=10 ** 6)
    return Env(spec, seed, config, in_dim, dataset, train_input,
               nodes_per_epoch, router, store, pipeline, reference,
               corpus=corpus, read_nodes=read_nodes, sampler=sampler)


# ----------------------------------------------------------------------
# Train
# ----------------------------------------------------------------------
class TrainingRun:
    """One seeded pretraining run, advanced an epoch at a time.

    A step clock on the optimiser instance stamps the end of every step;
    a step's time runs from the previous stamp (or the epoch's start), so
    it includes waiting for the batch.
    """

    def __init__(self, env: Env, clock=time.perf_counter):
        self.env, self.clock = env, clock
        self.trainer = env.make_trainer()
        self.step_s: list[float] = []
        self._stamps: list[float] = []
        step = self.trainer.optimizer.step

        def clocked_step():
            step()
            self._stamps.append(clock())

        self.trainer.optimizer.step = clocked_step

    def epoch(self) -> int:
        """Train one epoch; returns the input nodes it consumed."""
        env = self.env
        if env.spec.level == "graph":
            nodes = [env.nodes_per_epoch]
        else:
            stream, nodes = env.train_input, [0]

            def counting_batches(epoch=0):
                for batch, norms in type(stream).batches(stream, epoch):
                    nodes[0] += batch.num_nodes
                    yield batch, norms

            stream.batches = counting_batches
        self._stamps.clear()
        start = self.clock()
        try:
            self.trainer.pretrain(env.train_input, epochs=1)
        finally:
            if env.spec.level == "node":
                del env.train_input.batches
        self.step_s.extend(np.diff([start] + self._stamps).tolist())
        return nodes[0]

    def losses(self) -> list[float]:
        return [row["loss"] for row in self.trainer.history]


# ----------------------------------------------------------------------
# Eval
# ----------------------------------------------------------------------
EVAL_SPANS = ("eval.embed", "eval.cv", "eval.probe")


def evaluate(env: Env, trainer, rec) -> float:
    """The level's eval path; returns the workload's accuracy figure.

    Graph level: ``embed_dataset`` then 10-fold RBF-SVM CV. Node level:
    ``node_linear_probe``, whose own ``embed_nodes`` call the traced run
    times as ``eval.embed``.
    """
    encoder, seed = trainer.encoder, env.seed
    if env.spec.level == "graph":
        with rec.span("eval.embed"):
            embeddings = embed_dataset(encoder, env.dataset)
        with rec.span("eval.cv"):
            accuracy, _ = cross_validated_accuracy(
                embeddings, env.dataset.labels(), k=10, classifier="svm",
                seed=seed, workers=1)
        return accuracy
    with rec.span("eval.probe"):
        probe = node_linear_probe(encoder, env.dataset,
                                  num_nodes=env.spec.eval_nodes, seed=seed)
    return probe["accuracy"]


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
class Traffic:
    """Reads and writes against the fleet, judged against the reference.

    Graph level: a read asks for ``graphs_per_read`` corpus graphs drawn
    by zipf popularity, each at its *current* revision; a write commits
    revised versions of ``WRITE_GRAPHS`` graphs. Node level: a read asks
    for node ids (served as deterministic ego-nets); a write commits
    freshly sampled subgraphs.
    """

    def __init__(self, env: Env, rng: np.random.Generator, rec):
        self.env, self.rng, self.rec = env, rng, rec
        self.expected: dict[int, np.ndarray] = {}
        self.results: list = []
        if env.spec.level == "graph":
            self.current = {g.meta["graph_id"]: g for g in env.corpus}
            self.keys = [g.meta["graph_id"] for g in env.corpus]
            self._remember(env.corpus)
        else:
            self.index = NodeEmbeddingIndex(env.router, env.dataset,
                                            seed=env.seed)
            self.keys = [int(n) for n in env.read_nodes]
            self.node_expected = dict(zip(self.keys, env.reference.embed(
                [self.index.subgraph(n) for n in self.keys])))
        ranks = np.arange(1, len(self.keys) + 1, dtype=float)
        weights = ranks ** -env.spec.zipf
        self.weights = weights / weights.sum()
        # Popularity rank is independent of corpus order (and digest).
        self.popularity = rng.permutation(len(self.keys))
        self.writes_made = 0
        self.head = env.store.resolve(verify=False)["version"]

    def _remember(self, graphs) -> None:
        if not graphs:
            return
        rows = self.env.reference.embed(graphs)
        for graph, row in zip(graphs, rows):
            self.expected[id(graph)] = row

    def make_read(self):
        draws = self.rng.choice(len(self.keys),
                                size=self.env.spec.graphs_per_read,
                                p=self.weights)
        return [self.keys[i] for i in self.popularity[draws]]

    def make_write(self):
        self.writes_made += 1
        if self.env.spec.level == "graph":
            graphs = []
            for i in self.rng.choice(len(self.keys), size=WRITE_GRAPHS,
                                     replace=False):
                base = self.env.corpus[i]
                x = base.x + self.rng.normal(0.0, 0.05, size=base.x.shape)
                graphs.append(Graph(x, base.edge_index, base.y,
                                    {"graph_id": base.meta["graph_id"]}))
            return graphs
        graphs = []
        for j in range(WRITE_GRAPHS):
            graph = self.env.sampler.sample(int(self.rng.integers(2 ** 62)))
            graph.meta["graph_id"] = f"w{self.writes_made}-{j}"
            graphs.append(graph)
        return graphs

    def prepare(self, ops) -> None:
        """Reference rows for every revision the writes will commit."""
        if self.env.spec.level == "graph":
            self._remember([g for op in ops if op.kind == "write"
                            for g in op.payload])

    def corrupt_hottest(self) -> None:
        """Falsify the most popular key's reference row (smoke test)."""
        key = self.keys[self.popularity[0]]
        if self.env.spec.level == "graph":
            self.expected[id(self.current[key])] += 1.0
        else:
            self.node_expected[key] += 1.0

    def warm(self) -> None:
        """Read every key once and commit one write, so timing starts with
        warm caches and the ingest path's live model already loaded."""
        keys, step = self.keys, self.env.spec.graphs_per_read
        for start in range(0, len(keys), step):
            self._read(keys[start:start + step])
        graphs = self.make_write()
        if self.env.spec.level == "graph":
            self._remember(graphs)
        self._write(graphs)

    def _read(self, keys):
        if self.env.spec.level == "graph":
            graphs = [self.current[key] for key in keys]
            expected = [self.expected[id(g)] for g in graphs]
        else:
            graphs = [self.index.subgraph(key) for key in keys]
            expected = [self.node_expected[key] for key in keys]
        return self.env.router.embed_detailed(graphs), expected

    def _write(self, graphs):
        env, rec = self.env, self.rec
        with rec.span("ingest"):
            report = env.pipeline.ingest(graphs, name=env.spec.name)
        with rec.span("ingest.diff"):
            superseded = env.store.superseded_digests(self.head,
                                                      report.version)
        with rec.span("fleet.invalidate"):
            env.router.invalidate(superseded)
        self.head = report.version
        if env.spec.level == "graph":
            for graph in graphs:
                self.current[graph.meta["graph_id"]] = graph
        return report

    def execute(self, op) -> None:
        """Run one operation; its outcome is judged later in :meth:`judge`."""
        try:
            if op.kind == "read":
                with self.rec.span("loadgen.read"):
                    self.results.append(("read", self._read(op.payload)))
            else:
                with self.rec.span("loadgen.write"):
                    self.results.append(("write", self._write(op.payload)))
        except Exception as error:  # noqa: BLE001 — counted as failed
            self.results.append((op.kind, error))

    def judge(self, tally: Tally) -> None:
        for kind, value in self.results:
            if isinstance(value, Exception):
                tally.check(False, f"{kind} raised {type(value).__name__}")
            elif kind == "read":
                result, expected = value
                tally.check(
                    set(result.versions) == {SERVED_VERSION}
                    and np.allclose(result.embeddings, np.stack(expected),
                                    rtol=ROW_RTOL, atol=ROW_ATOL),
                    "served row differs from the reference")
            else:
                tally.check(value.created, "write was not committed")
        self.results.clear()


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _store_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _replica_private_mb() -> float:
    """Summed private memory of the live forked replicas.

    Only ``Private_*`` pages count: a replica's RSS also holds the pages
    it still shares copy-on-write with the parent, which the parent's own
    peak already counts.
    """
    total_kb = 0
    for child in multiprocessing.active_children():
        try:
            text = Path(f"/proc/{child.pid}/smaps_rollup").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def _serve_counters(router) -> dict:
    """Per-replica cache and encoder counters from the public ``stats()``."""
    counters = {}
    for worker in router.stats()["per_worker"]:
        cache = worker["service"]["cache"]
        telemetry = worker["service_telemetry"]
        counters[worker["worker_id"]] = {
            "hits": cache["hits"], "misses": cache["misses"],
            "evictions": cache["evictions"],
            "batches": int(telemetry["counters"].get("encoder_batches", 0)),
            "seconds": telemetry["samples"].get("encoder_batch_seconds", []),
        }
    return counters


def _serve_delta(before: dict, after: dict) -> dict:
    """Cache hits/misses/evictions and encoder seconds between snapshots.

    Encoder time is summed from the new samples of each replica's bounded
    reservoir; if more batches ran than the reservoir keeps, the kept
    samples' mean stands in for the dropped ones.
    """
    delta = {"hits": 0, "misses": 0, "evictions": 0, "encoder_s": 0.0}
    for worker, now in after.items():
        then = before[worker]
        for key in ("hits", "misses", "evictions"):
            delta[key] += now[key] - then[key]
        batches = now["batches"] - then["batches"]
        samples = now["seconds"]
        if batches <= len(samples):
            delta["encoder_s"] += float(sum(samples[len(samples) - batches:]))
        else:
            delta["encoder_s"] += batches * float(np.mean(samples))
    return delta


class _Tracked:
    """Identity filter: only the trained models' f_k and projection head."""

    def __init__(self):
        self.encoders: set[int] = set()
        self.projections: set[int] = set()

    def add(self, trainer) -> None:
        self.encoders.add(id(trainer.model.f_k))
        self.projections.add(id(trainer.model.projection))

    def encoder(self, args) -> bool:
        return id(args[0]) in self.encoders

    def projection(self, args) -> bool:
        return id(args[0]) in self.projections


def _install(patches: Patches) -> _Tracked:
    """Span wrappers around the public callables each layer exposes."""
    import repro.core.losses as losses
    import repro.core.model as model
    import repro.eval.node_probe as node_probe
    import repro.ingest.drift as drift
    import repro.sampling.pretrain as node_pretrain
    import repro.validate.numerics as numerics
    from repro.data import DataLoader
    from repro.gnn import GNNEncoder, ProjectionHead
    from repro.graph import Batch
    from repro.ingest import DriftDetector
    from repro.nn import Adam
    from repro.tensor import Tensor

    tracked = _Tracked()
    patches.wrap(DataLoader, "__iter__", "sampling.wait", iterate=True)
    patches.wrap(SubgraphStream, "batches", "sampling.wait", iterate=True)
    patches.wrap(Batch, "__init__", "data.batch")
    patches.wrap(model.SGCLModel, "semantic_scores", "core.lipschitz")
    patches.wrap(model.SGCLModel, "generate_views", "core.augment")
    patches.wrap(model.SGCLModel, "anchor_embeddings", "gnn.forward")
    patches.wrap(model.SGCLModel, "view_embeddings", "gnn.forward")
    # Node-level training calls the representation encoder f_k and the
    # projection head directly; the generator's own GNNEncoder (inside
    # core.lipschitz) is left to its parent span.
    patches.wrap(GNNEncoder, "forward", "gnn.forward", when=tracked.encoder)
    patches.wrap(GNNEncoder, "graph_representations", "gnn.forward",
                 when=tracked.encoder)
    patches.wrap(ProjectionHead, "forward", "gnn.forward",
                 when=tracked.projection)
    for name in ("semantic_info_nce", "complement_loss",
                 "graph_likelihood_loss", "weight_regularizer"):
        patches.wrap(losses, name, "core.loss")
    patches.wrap(node_pretrain, "node_info_nce", "core.loss")
    patches.wrap(node_probe, "embed_nodes", "eval.embed")
    patches.wrap(Tensor, "backward", "tensor.backward")
    patches.wrap(Adam, "step", "nn.optim")
    patches.wrap(numerics.NumericsGuard, "check_loss", "validate.guard")
    patches.wrap(numerics.NumericsGuard, "guard_gradients", "validate.guard")
    patches.wrap(numerics, "global_grad_norm", "validate.guard")
    patches.wrap(FleetRouter, "embed_detailed", "fleet.route")
    patches.wrap(ProcessReplica, "embed_items", "fleet.replica")
    patches.wrap(DatasetStore, "append", "ingest.append")
    patches.wrap(drift, "corpus_statistics", "ingest.drift")
    patches.wrap(DriftDetector, "check", "ingest.drift")
    return tracked


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, *, trace: bool,
                 work_dir: Path, trace_path: Path | None = None,
                 corrupt_reference: bool = False) -> dict:
    """Set up and run one workload; returns its measurements."""
    run_seconds, workloads = load_workloads()
    spec = workloads[name]
    size = seconds / run_seconds
    rounds = max(1, min(ROUNDS, round(ROUNDS * size)))
    epochs_per_round = max(1, round(spec.epochs * min(1.0, size) / rounds))
    tally = Tally()
    clock = time.perf_counter
    rec = SpanRecorder() if trace else _NullRecorder()
    speed = HostSpeed(clock)
    # Every timing as (raw seconds, median probe seconds of its block).
    timed = {key: ([], []) for key in
             ("setup", "step", "eval", "read", "write")}

    def record(key, raws, probe_s) -> None:
        timed[key][0].extend(raws)
        timed[key][1].extend([probe_s] * len(raws))

    def timed_setup() -> Env:
        speed.probe()
        mark = speed.mark()
        start = clock()
        built = setup(spec, seed, work_dir / f"setup-{len(timed['setup'][0])}")
        elapsed = clock() - start
        speed.probe()
        record("setup", [elapsed], speed.block(mark))
        return built

    def idle(gap_s: float) -> None:
        # The traffic block opened with an every-CPU probe, so ``cost`` is
        # what another one takes (more on hosts with more CPUs).
        if (gap_s >= max(IDLE_PROBE_GAP_S, 4 * speed.cost)
                and clock() - speed.last >= PROBE_EVERY_S):
            speed.probe(every_cpu=True)

    env = None
    patches = None
    try:
        env = timed_setup()

        # Untimed preparation: every round's schedule, the reference rows
        # of every revision the writes commit, and warm caches.
        rng = np.random.default_rng([seed, 7])
        traffic = Traffic(env, rng, rec)
        plans = []
        for _ in range(rounds):
            block = []
            for rate in spec.rates:
                reads = spec.nominal_reads if rate == spec.nominal \
                    else spec.sweep_reads
                reads = max(10, round(reads * size / rounds))
                ops = loadgen.schedule(rng, rate, reads, spec.write_share,
                                       traffic.make_read, traffic.make_write)
                traffic.prepare(ops)
                block.append((rate, ops))
            plans.append(block)
        if corrupt_reference:
            traffic.corrupt_hottest()
        traffic.warm()
        before = _serve_counters(env.router)
        bytes_before = _store_bytes(env.store.root)

        if trace:
            from repro.obs import OpProfiler

            patches = Patches(rec)
            tracked = _install(patches)
            profiler = OpProfiler(None)
        runs = [TrainingRun(env), TrainingRun(env)]
        if trace:
            for run in runs:
                tracked.add(run.trainer)
        train_rate, accuracy, total_nodes = [], float("nan"), 0
        read_ms = {rate: [] for rate in spec.rates}
        lag_ms, nominal_queue_ms = [], []
        block_backlog = {rate: [] for rate in spec.rates}
        setup_gap_s = 0.0
        measured_start = clock()
        for block in plans:
            rec.phase = "train"
            if trace:
                profiler.activate()
            nodes, scaled_s = 0, 0.0
            for run in runs:
                for _ in range(epochs_per_round):
                    speed.probe()
                    mark, first = speed.mark(), len(run.step_s)
                    start = clock()
                    nodes += run.epoch()
                    elapsed = clock() - start
                    speed.probe()
                    probe_s = speed.block(mark)
                    scaled_s += elapsed * scale(probe_s, "compute")
                    record("step", run.step_s[first:], probe_s)
            train_rate.append(nodes / scaled_s)
            total_nodes += nodes
            if trace:
                profiler.deactivate()
            rec.phase = "eval"
            speed.probe()
            mark = speed.mark()
            start = clock()
            accuracy = evaluate(env, runs[0].trainer, rec)
            elapsed = clock() - start
            speed.probe()
            record("eval", [elapsed], speed.block(mark))
            rec.phase = "traffic"
            for rate, ops in block:
                speed.probe(every_cpu=True)
                mark = speed.mark()
                records = loadgen.run(ops, traffic.execute, idle=idle)
                speed.probe(every_cpu=True)
                probe_s = speed.block(mark)
                factor = scale(probe_s, "read")
                block_backlog[rate].append(records[-1].queue_s * 1e3)
                for r in records:
                    lag_ms.append(r.idle_lag_s * 1e3)
                    if r.kind == "write":
                        record("write", [r.latency_s], probe_s)
                        continue
                    read_ms[rate].append(r.latency_s * factor * 1e3)
                    if rate == spec.nominal:
                        record("read", [r.latency_s], probe_s)
                        nominal_queue_ms.append(r.queue_s * 1e3)
                # Judged between blocks, so the served rows do not pile up
                # in this process's heap and slow the rounds after.
                traffic.judge(tally)
            rec.phase = "setup"
            start = clock()
            for _ in range(SETUPS_PER_ROUND):
                timed_setup().close()
            setup_gap_s += clock() - start
        measured_s = clock() - measured_start - setup_gap_s
        if patches is not None:
            patches.restore()
            patches = None
        after = _serve_counters(env.router)
        bytes_after = _store_bytes(env.store.root)
        # Replicas are read while alive, after the traffic that filled
        # their caches.
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0 + _replica_private_mb())
    finally:
        if patches is not None:
            patches.restore()
        if env is not None:
            env.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    # ---- correctness ----------------------------------------------------
    histories = [run.losses() for run in runs]
    for losses in histories:
        for loss in losses:
            tally.check(bool(np.isfinite(loss)), "non-finite epoch loss")
    tally.check(histories[0] == histories[1],
                "seeded reruns gave different loss histories")
    tally.check(accuracy >= spec.accuracy_floor, "accuracy below the floor")
    traffic.judge(tally)

    # ---- end to end -----------------------------------------------------
    passing = [rate for rate in spec.rates
               if _percentile(read_ms[rate], 99) <= spec.slo_ms
               and statistics.median(block_backlog[rate]) <= spec.slo_ms]
    scaled = {key: np.asarray(raws) * scale(probes, TIMING_KIND[key])
              for key, (raws, probes) in timed.items()}
    e2e = {
        "setup_s": (float(np.median(scaled["setup"])), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "train_nodes_per_s": (statistics.median(train_rate), "nodes/s"),
        "step_ms_p50": (_percentile(scaled["step"], 50) * 1e3, "ms"),
        "step_ms_p90": (_percentile(scaled["step"], 90) * 1e3, "ms"),
        "eval_s": (float(np.median(scaled["eval"])), "s"),
        "accuracy": (accuracy, "fraction"),
        "req_ms_p50": (_percentile(scaled["read"], 50) * 1e3, "ms"),
        "req_ms_p99": (_percentile(scaled["read"], 99) * 1e3, "ms"),
        "max_rps_at_slo": (max(passing, default=0.0), "1/s"),
        "write_ms_p50": (_percentile(scaled["write"], 50) * 1e3, "ms"),
        "write_ms_p90": (_percentile(scaled["write"], 90) * 1e3, "ms"),
    }
    result = {"e2e": e2e, "tally": tally, "measured_s": measured_s}
    if not trace:
        return result

    # ---- per layer (traced run) -----------------------------------------
    steps = len(timed["step"][0])
    reads = sum(len(latencies) for latencies in read_ms.values())
    nwrites = len(timed["write"][0])

    def per_step(label):
        return rec.self_seconds(label, "train") * 1e3 / steps

    def per_read(label):
        return rec.self_seconds(label, "traffic") * 1e3 / reads

    def per_write(label):
        return rec.self_seconds(label, "traffic") * 1e3 / nwrites

    def per_eval(label):
        # Eval spans are reported whole (the encoder and batch spans inside
        # them belong to the same eval step), less the eval spans nested in
        # them. A span the level's eval path does not open reads 0.
        nested = sum(rec.total_seconds(child, "eval", parent=label)
                     for child in EVAL_SPANS)
        return ((rec.total_seconds(label, "eval") - nested) * 1e3
                / len(timed["eval"][0]))

    serve = _serve_delta(before, after)
    lookups = serve["hits"] + serve["misses"]
    layers = {
        "data.batch_ms": (per_step("data.batch"), "ms"),
        "sampling.wait_ms": (per_step("sampling.wait"), "ms"),
        "sampling.subgraph_nodes": (total_nodes / steps, "count"),
        "core.lipschitz_ms": (per_step("core.lipschitz"), "ms"),
        "core.augment_ms": (per_step("core.augment"), "ms"),
        "gnn.forward_ms": (per_step("gnn.forward"), "ms"),
        "core.loss_ms": (per_step("core.loss"), "ms"),
        "tensor.backward_ms": (per_step("tensor.backward"), "ms"),
        "nn.optim_ms": (per_step("nn.optim"), "ms"),
        "validate.guard_ms": (per_step("validate.guard"), "ms"),
        "tensor.ops_per_step": (
            sum(r.calls for r in profiler.records()) / steps, "count"),
        "eval.embed_ms": (per_eval("eval.embed"), "ms"),
        "eval.cv_ms": (per_eval("eval.cv"), "ms"),
        "eval.probe_ms": (per_eval("eval.probe"), "ms"),
        "fleet.route_ms": (per_read("fleet.route"), "ms"),
        "fleet.replica_ms": (per_read("fleet.replica"), "ms"),
        "fleet.replica_calls_per_req": (
            rec.count("fleet.replica", "traffic") / reads, "count"),
        "serve.hit_rate": (serve["hits"] / lookups if lookups else 0.0,
                           "fraction"),
        "serve.encoder_ms": (serve["encoder_s"] * 1e3 / reads, "ms"),
        "serve.evictions": (serve["evictions"], "count"),
        "loadgen.queue_ms_p50": (_percentile(nominal_queue_ms, 50), "ms"),
        "loadgen.lag_ms_max": (max(lag_ms), "ms"),
        "ingest.append_ms": (per_write("ingest.append"), "ms"),
        "ingest.drift_ms": (per_write("ingest.drift"), "ms"),
        "ingest.diff_ms": (per_write("ingest.diff"), "ms"),
        "fleet.invalidate_ms": (per_write("fleet.invalidate"), "ms"),
        "ingest.bytes_committed": ((bytes_after - bytes_before) / nwrites,
                                   "bytes"),
        "host.probe_ms": (statistics.median(speed.probes) * 1e3, "ms"),
    }
    if trace_path is not None:
        rec.dump(trace_path)
    result["layers"] = layers
    return result
