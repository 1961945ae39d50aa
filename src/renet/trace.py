"""Communication traces, synthetic workloads, sparsity checks, trace files.

Node addresses are plain ints 0..n-1 used only as opaque, totally ordered
keys; nothing structural is ever derived from their values.  Requests are
ordered (src, dst) pairs with src != dst.

A trace sorts its pairs once: `Trace.pair_table` lists the distinct pairs
with their counts, and `Trace.pair_index` each request's row in that table.
Every pair count in the package (sparsity, entropy, baselines) reads these.
`Trace.links` lists each linked pair once, whichever way it was requested,
and `Trace.partners` counts each node's linked pairs; the idle-request rule
and the static baseline read both.  On first use, `Trace.prev_occurrence`
links each request to the previous request of its (src, dst) pair, for the
sparsity check, and `Trace.prev_link` to that of its pair in either
direction, for the idle-request rule.  Both pair codes are made here once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import IO, NamedTuple, Sequence, Union

import numpy as np

Request = tuple[int, int]


class PairTable(NamedTuple):
    """The distinct (src, dst) pairs of some requests in ascending order,
    with the number of requests of each, as parallel int64 arrays."""

    src: np.ndarray
    dst: np.ndarray
    count: np.ndarray


@dataclass(frozen=True)
class Trace:
    """An ordered request sequence over a universe of n nodes."""

    n: int
    src: np.ndarray
    dst: np.ndarray

    def __post_init__(self):
        src = np.asarray(self.src, dtype=np.int64)
        dst = np.asarray(self.dst, dtype=np.int64)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        if self.n < 1:
            raise ValueError("node universe must be non-empty")
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src/dst must be 1-d arrays of equal length")
        if len(src) and (src.min() < 0 or src.max() >= self.n or dst.min() < 0 or dst.max() >= self.n):
            raise ValueError("request endpoint outside the declared universe")
        if len(src) and bool((src == dst).any()):
            raise ValueError("self-requests (src == dst) are not allowed")

    def __len__(self) -> int:
        return len(self.src)

    @classmethod
    def from_pairs(cls, n: int, pairs: Sequence[Request]) -> "Trace":
        if len(pairs):
            arr = np.asarray(pairs, dtype=np.int64)
            return cls(n, arr[:, 0], arr[:, 1])
        return cls(n, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    @cached_property
    def _pairs(self) -> tuple[PairTable, np.ndarray]:
        # the directed pair code src * n + dst, made here only: one sort per trace
        codes, index, count = np.unique(self.src * np.int64(self.n) + self.dst, return_inverse=True, return_counts=True)
        return PairTable(*np.divmod(codes, self.n), count), index.astype(np.min_scalar_type(len(codes)))

    @property
    def pair_table(self) -> PairTable:
        """The pair table of the whole trace."""
        return self._pairs[0]

    @property
    def pair_index(self) -> np.ndarray:
        """Each request's row in `pair_table`, in the smallest unsigned dtype."""
        return self._pairs[1]

    @cached_property
    def prev_occurrence(self) -> np.ndarray:
        """Each request's previous request of its (src, dst) pair or -1, int32 (int64 past 2**31); one stable sort."""
        return _previous(self.pair_index)

    @cached_property
    def prev_link(self) -> np.ndarray:
        """The same for its pair in either direction; one stable sort of its rows in `links`."""
        return _previous(self.links[1].astype(self.pair_index.dtype)[self.pair_index])  # no more links than pairs

    @cached_property
    def links(self) -> tuple[np.ndarray, np.ndarray]:
        """Each linked pair once, as ascending codes min(a, b) * n + max(a, b),
        and each `pair_table` row's index into them; one sort of the rows."""
        src, dst, _ = self.pair_table
        return np.unique(np.minimum(src, dst) * np.int64(self.n) + np.maximum(src, dst), return_inverse=True)

    @cached_property
    def partners(self) -> np.ndarray:
        """Each node's distinct partners over the whole trace, in either
        direction: its number of linked pairs."""
        return np.bincount(np.concatenate(np.divmod(self.links[0], self.n)), minlength=self.n)

    def pairs_in(self, start: int = 0, stop: int | None = None) -> PairTable:
        """The pair table of requests [start, stop), counted off `pair_index`."""
        stop = len(self) if stop is None else stop
        if not (0 <= start <= stop <= len(self)):
            raise ValueError(f"bad index range [{start}, {stop})")
        src, dst, whole = self.pair_table
        count = np.bincount(self.pair_index[start:stop], minlength=len(whole))
        rows = np.flatnonzero(count)
        return PairTable(src[rows], dst[rows], count[rows])

    def pair_counts(self, start: int = 0, stop: int | None = None) -> dict[Request, int]:
        """Occurrence counts of each distinct (src, dst) pair in [start, stop)."""
        src, dst, count = self.pairs_in(start, stop)
        return dict(zip(zip(src.tolist(), dst.tolist()), count.tolist()))


def _previous(rows: np.ndarray) -> np.ndarray:
    order = np.argsort(rows, kind="stable")
    again = rows[order[1:]] == rows[order[:-1]]  # order[k + 1] is the next occurrence of order[k]'s row
    prev = np.full(len(rows), -1, dtype=np.int32 if len(rows) < 2**31 else np.int64)
    prev[order[1:][again]] = order[:-1][again]
    return prev


@dataclass(frozen=True)
class SparsityParams:
    c: float
    delta: int

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.delta < 1:
            raise ValueError(f"delta must be >= 1, got {self.delta}")


@dataclass(frozen=True)
class SparsityReport:
    ok: bool
    worst_window_start: int
    worst_unique_pairs: int


def sparsity_check(trace: Trace, params: SparsityParams) -> SparsityReport:
    """Check that every window of length <= delta has <= c*n unique pairs.

    The distinct-pair count of the sliding window ending at request i moves by
    +1 when pair i did not occur in the previous delta requests, and by -1 when
    request i - delta leaves and its pair does not recur up to i.  Both tests
    need only each request's previous and next occurrence of its pair: the
    previous is `trace.prev_occurrence`, and the next is its inverse.  The
    running count is a cumsum.
    Every shorter window is contained in some full-length window, so scanning
    those suffices.  The worst window is the first to reach the maximum.
    An empty trace passes vacuously.
    """
    m = len(trace)
    if not m:
        return SparsityReport(ok=True, worst_window_start=0, worst_unique_pairs=0)
    delta = min(params.delta, m)  # a longer window holds the same pairs as the whole trace
    prev = trace.prev_occurrence
    i = np.arange(m)
    again = prev >= 0
    nxt = np.full(m, m, dtype=np.int64)
    nxt[prev[again]] = i[again]
    step = (prev < np.maximum(i - delta, 0)).astype(np.int64)
    step[delta:] -= nxt[:m - delta] > i[delta:]  # request i - delta leaves the window
    distinct = np.cumsum(step)
    end = int(np.argmax(distinct))
    worst = int(distinct[end])
    return SparsityReport(ok=worst <= params.c * trace.n, worst_window_start=max(0, end - delta + 1),
                          worst_unique_pairs=worst)


# ---------------------------------------------------------------------------
# Synthetic workloads.  All generation flows from one seeded PCG64 stream so
# identical (spec, seed) always produce identical traces.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Torus:
    """Uniform requests along the edges of a wraparound sqrt(n) x sqrt(n) grid.

    Each request picks a uniform node, then a uniform one of its four torus
    neighbors, so the conditional entropy of destinations given sources tends
    to exactly 2 bits.
    """

    n: int
    m: int


@dataclass(frozen=True)
class StarZipf:
    """Hub-and-spokes demand: node 0 exchanges with leaf i at rate ~ i^-alpha."""

    n: int
    m: int
    alpha: float


@dataclass(frozen=True)
class RoundRobinGrids:
    """k torus phases, each on a fresh pseudorandom relabeling of the nodes."""

    n: int
    k: int
    m_each: int


@dataclass(frozen=True)
class ProductDist:
    """src ~ px and dst ~ py independently, resampling src == dst collisions."""

    n: int
    m: int
    px: tuple[float, ...]
    py: tuple[float, ...]


@dataclass(frozen=True)
class UniformPairs:
    """Uniform over all ordered pairs of distinct nodes."""

    n: int
    m: int


WorkloadSpec = Union[Torus, StarZipf, RoundRobinGrids, ProductDist, UniformPairs]


def zipf_weights(support: int, alpha: float) -> np.ndarray:
    """Normalized Zipf weights over ranks 1..support (alpha = 0 is uniform)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    w = np.arange(1, support + 1, dtype=np.float64) ** (-alpha)
    return w / w.sum()


def _torus_side(n: int) -> int:
    s = math.isqrt(n)
    if s * s != n or s < 2:
        raise ValueError(f"torus workloads need n a perfect square >= 4, got {n}")
    return s


def _torus_arrays(n: int, m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    s = _torus_side(n)
    src = rng.integers(0, n, size=m)
    direction = rng.integers(0, 4, size=m)
    x = src % s
    y = src // s
    dx = np.array([1, s - 1, 0, 0], dtype=np.int64)[direction]
    dy = np.array([0, 0, 1, s - 1], dtype=np.int64)[direction]
    dst = (x + dx) % s + s * ((y + dy) % s)
    return src.astype(np.int64), dst.astype(np.int64)


def generate(spec: WorkloadSpec, seed: int) -> Trace:
    """Deterministically generate the trace described by `spec`."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if isinstance(spec, Torus):
        src, dst = _torus_arrays(spec.n, spec.m, rng)
        return Trace(spec.n, src, dst)

    if isinstance(spec, StarZipf):
        if spec.n < 2:
            raise ValueError("star workloads need n >= 2")
        w = zipf_weights(spec.n - 1, spec.alpha)
        partners = rng.choice(np.arange(1, spec.n, dtype=np.int64), size=spec.m, p=w)
        to_hub = rng.integers(0, 2, size=spec.m).astype(bool)
        src = np.where(to_hub, partners, 0)
        dst = np.where(to_hub, 0, partners)
        return Trace(spec.n, src, dst)

    if isinstance(spec, RoundRobinGrids):
        if spec.k < 1:
            raise ValueError("need at least one phase")
        _torus_side(spec.n)
        srcs, dsts = [], []
        for _ in range(spec.k):
            relabel = rng.permutation(spec.n).astype(np.int64)
            s, d = _torus_arrays(spec.n, spec.m_each, rng)
            srcs.append(relabel[s])
            dsts.append(relabel[d])
        return Trace(spec.n, np.concatenate(srcs), np.concatenate(dsts))

    if isinstance(spec, ProductDist):
        px = np.asarray(spec.px, dtype=np.float64)
        py = np.asarray(spec.py, dtype=np.float64)
        if len(px) != spec.n or len(py) != spec.n:
            raise ValueError("px and py must have one weight per node")
        if (px < 0).any() or (py < 0).any():
            raise ValueError("marginal weights must be non-negative")
        px = px / px.sum()
        py = py / py.sum()
        src = rng.choice(spec.n, size=spec.m, p=px)
        dst = rng.choice(spec.n, size=spec.m, p=py)
        for _ in range(1000):
            clash = src == dst
            if not clash.any():
                break
            k = int(clash.sum())
            src[clash] = rng.choice(spec.n, size=k, p=px)
            dst[clash] = rng.choice(spec.n, size=k, p=py)
        else:
            raise ValueError("cannot draw distinct pairs from these marginals")
        return Trace(spec.n, src.astype(np.int64), dst.astype(np.int64))

    if isinstance(spec, UniformPairs):
        if spec.n < 2:
            raise ValueError("need n >= 2 for distinct pairs")
        src = rng.integers(0, spec.n, size=spec.m)
        offset = rng.integers(1, spec.n, size=spec.m)
        dst = (src + offset) % spec.n
        return Trace(spec.n, src.astype(np.int64), dst.astype(np.int64))

    raise TypeError(f"unknown workload spec {spec!r}")


# ---------------------------------------------------------------------------
# Trace CSV format: a `#n=<count>` header line, then one `src,dst` line per
# request, in order.
# ---------------------------------------------------------------------------


def write_trace_csv(trace: Trace, fh: IO[str]) -> None:
    fh.write(f"#n={trace.n}\n")
    for u, v in zip(trace.src.tolist(), trace.dst.tolist()):
        fh.write(f"{u},{v}\n")


def read_trace_csv(fh: IO[str]) -> Trace:
    header = fh.readline().strip()
    if not header.startswith("#n="):
        raise ValueError("trace file must start with a '#n=<count>' header line")
    n = int(header[3:])
    src, dst = [], []
    for lineno, line in enumerate(fh, 2):
        line = line.strip()
        if not line:
            continue
        try:
            a, b = line.split(",")
            src.append(int(a))
            dst.append(int(b))
        except ValueError:
            raise ValueError(f"line {lineno}: expected 'src,dst', got {line!r}") from None
    return Trace(n, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64))
