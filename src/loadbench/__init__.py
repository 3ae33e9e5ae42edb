"""loadbench: a framework-independent data-loading engine and its benchmark harness.

The pieces compose in storage -> sampling -> transforms -> pipeline order:
generate a seeded synthetic dataset into any byte store, iterate it through
a prefetching dataloader, and measure samples-per-second under controlled
backend latency, filtering, and replica counts.
"""

from .bench import (
    BackendConfig,
    BenchConfig,
    BenchError,
    ReplicaError,
    RunResult,
    TuneResult,
    aggregate_speeds,
    run,
    run_loop,
    sweep,
    tune_for_speed,
)
from .config import decode, encode, override
from .dataset import (
    DatasetError,
    DatasetManifest,
    DatasetSpec,
    ImageRecord,
    build_class_index,
    generate_random_dataset,
    load_manifest,
    read_record,
)
from .model import LinearModel, batch_checksum, flatten_batch, synthetic_consumer
from .pipeline import (
    Batch,
    DataLoader,
    LoaderConfig,
    WorkerError,
    collate,
)
from .report import AnalysisResult, pearson, slowdown_pct
from .sampling import SamplerConfig, SampleOrder, epoch_order, shard_for_replica
from .server import ObjectServer, serve
from .storage import (
    ByteRange,
    CachedBackend,
    HTTPBackend,
    LatencyBackend,
    LatencyModel,
    LocalBackend,
    MemoryBackend,
    NotFoundError,
    RangeError,
    ReadError,
    StorageBackend,
    StorageError,
    StorageStats,
)
from .transforms import (
    TransformConfig,
    apply_stack,
    apply_stack_batch,
    cutout,
    horizontal_flip,
    normalize,
    sample_seeds,
    to_tensor,
)

__version__ = "0.1.0"
