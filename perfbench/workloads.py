"""The benchmark's workloads and the loader configuration each one runs.

Each workload is a closed loop: one training consumer per process, at most
2 loader threads and at most 2 connections, so it fits a 2-CPU machine.
Everything random (the dataset bytes, the epoch shuffles and the
augmentation decisions) derives from the one workload seed.

* mem-augment: every byte in RAM, so the transform stack, collate and the
  model step set the speed; storage is a small share.  One loader thread
  beside the consumer: the work holds the interpreter lock, so a second
  thread adds no speed, and on a 2-vCPU host with busy neighbours three
  runnable threads made the speed swing up to 1.7x between runs.  Its
  figures are scaled to a reference host speed (``host_scaled``, see
  ``child.py``): the work is CPU-bound, and the shared host's speed for it
  drifts by a third for minutes at a time.  http-remote is not scaled, as
  its time is mostly the fixed round trip.
* http-remote: the same kind of images served over loopback HTTP by a
  separate server process that holds every request for a constant 3 ms
  round trip (the server's ``LatencyModel``); each sample is one ranged GET,
  so storage blocks.  The fixed round trip, rather than the shared host's
  scheduling of three processes, sets most of the time per sample, which
  keeps runs steady; an epoch is 1000 samples so each repetition has three
  first batches.
* many-small: 100k tiny images read in the caller, so per-sample fixed
  costs dominate and scale costs land in set-up and the first batch.

``BENCHMARK.json`` lists mem-augment and http-remote only.  many-small is
pure-Python work whose speed on a shared 2-vCPU host swings between two
levels about 1.6x apart for tens of seconds at a time, so the median of a
run's repetitions jumps between them from run to run (10 seeds, measured
before host scaling: quartile spread 0.43 of the median for first_batch_s,
0.20 for m).  Run it by hand
with ``--workload many-small``.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread per process: the loader threads are the only parallelism.
BLAS_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

DEFAULT_SEED = 0


def use_checkout_source() -> None:
    """Import ``loadbench`` from this checkout's ``src/``, never from elsewhere.

    Exits with status 2 when the package source is missing, so a copy of
    the benchmark without the program fails instead of measuring nothing.
    """
    if not (SRC / "loadbench" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'loadbench'}",
              file=sys.stderr)
        sys.exit(2)
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: tuple[int, int, int]       # train / val / test samples
    shape: tuple[int, int, int]       # width, height, channels
    batch_size: int
    num_workers: int
    remote: bool                      # served over HTTP by a separate process
    epochs: int
    cutoff_batches: int | None = None
    rtt_ms: float = 0.0               # constant delay the server adds per request
    host_scaled: bool = False         # CPU-bound: figures at reference host speed


WORKLOADS = {w.name: w for w in (
    Workload("mem-augment", (2000, 200, 100), (64, 64, 3), batch_size=64,
             num_workers=1, remote=False, epochs=3, host_scaled=True),
    Workload("http-remote", (1000, 200, 100), (64, 64, 3), batch_size=64,
             num_workers=2, remote=True, epochs=3, rtt_ms=3.0),
    Workload("many-small", (100_000, 1000, 1000), (16, 16, 1), batch_size=256,
             num_workers=0, remote=False, epochs=1, cutoff_batches=60,
             host_scaled=True),
)}

# A few batches of each workload, for the smoke test.
TOY = {
    "mem-augment": dict(sizes=(192, 32, 32), shape=(16, 16, 3), epochs=2),
    "http-remote": dict(sizes=(192, 32, 32), shape=(16, 16, 3), epochs=1),
    "many-small": dict(sizes=(4096, 64, 64), shape=(8, 8, 1), cutoff_batches=6),
}


def get_workload(name: str, toy: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return replace(workload, **TOY[name]) if toy else workload


def dataset_spec(workload: Workload, seed: int):
    from loadbench.dataset import DatasetSpec

    (n_train, n_val, n_test), (width, height, channels) = (
        workload.sizes, workload.shape)
    return DatasetSpec(n_train=n_train, n_val=n_val, n_test=n_test,
                       width=width, height=height, channels=channels,
                       n_classes=20, seed=seed)


def bench_config(workload: Workload, seed: int, backend,
                 num_workers: int | None = None, capture_digests: bool = False):
    """The ``run_loop`` configuration of one repetition of ``workload``.

    Every batch after the single warm-up batch counts toward ``m``.
    """
    from loadbench.bench import BenchConfig
    from loadbench.pipeline import LoaderConfig
    from loadbench.sampling import SamplerConfig
    from loadbench.transforms import TransformConfig

    loader = LoaderConfig(
        batch_size=workload.batch_size,
        num_workers=workload.num_workers if num_workers is None else num_workers,
        sampler=SamplerConfig(kind="shuffle", seed=seed),
        transform=TransformConfig(seed=seed))
    return BenchConfig(loader=loader, backend=backend, epochs=workload.epochs,
                       cutoff_batches=workload.cutoff_batches, run_model=True,
                       warmup_batches=1, speed_window=None,
                       capture_digests=capture_digests)


def batch_sizes(workload: Workload) -> list[int]:
    """Sizes of the batches one repetition must deliver, in order."""
    n, size = workload.sizes[0], workload.batch_size
    epoch = [size] * (n // size) + ([n % size] if n % size else [])
    return (epoch * workload.epochs)[:workload.cutoff_batches]


def epoch_starts(workload: Workload, delivered: int) -> range:
    """Indices of the first batch of each epoch among ``delivered`` batches."""
    return range(0, delivered, -(-workload.sizes[0] // workload.batch_size))
