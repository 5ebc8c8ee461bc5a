"""Regulation-signal analytics.

Ingests normalized regulation-signal traces, fits a conservative Gaussian
envelope whose upper-tail quantiles dominate the empirical ones, and builds
empirical Value-at-Risk tables of cumulative signal energy over sub-hour
and multi-slot windows. Also ships a seeded synthetic-trace generator used
by the instance builder and the test suite.
"""

import csv
import math
import os
import warnings
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

DEFAULT_QUANTILE_GRID = (0.80, 0.85, 0.90, 0.925, 0.95, 0.975, 0.99)
DEFAULT_VAR_HORIZONS = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0)
MIN_WINDOWS = 30
MAX_GRID_LEVEL = 0.99  # highest envelope grid level, so z_q stays finite
WRITE_CHUNK_ROWS = 1 << 14  # samples per write of write_trace_csv

TRACE_KINDS = ("gaussian", "clipped_gaussian", "heavy_tailed", "sinusoid_noise")


@dataclass(frozen=True)
class RegulationTrace:
    """A normalized regulation signal sampled at a fixed interval.

    Samples must lie in [-1, 1], so NaN is rejected; ``dt_seconds`` is the
    finite, positive sampling interval (2 s for fast dynamic-regulation
    style signals).
    """

    samples: np.ndarray
    dt_seconds: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("trace needs at least two samples")
        if not (np.isfinite(self.dt_seconds) and self.dt_seconds > 0):
            raise ValueError(f"dt_seconds must be finite and > 0, got {self.dt_seconds}")
        if np.isnan(arr).any():
            raise ValueError(f"signal sample {int(np.argmax(np.isnan(arr)))} is nan")
        if np.any(np.abs(arr) > 1.0 + 1e-12):
            bad = float(np.max(np.abs(arr)))
            raise ValueError(f"samples must lie in [-1, 1], found magnitude {bad}")
        arr = np.clip(arr, -1.0, 1.0)
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size

    def split(self, fit_fraction: float) -> tuple["RegulationTrace", "RegulationTrace"]:
        """Split into (fitting, held-out) segments at a sample boundary."""
        if not 0.0 < fit_fraction < 1.0:
            raise ValueError(f"fit_fraction must be in (0, 1), got {fit_fraction}")
        cut = int(self.samples.size * fit_fraction)
        cut = min(max(cut, 2), self.samples.size - 2)
        # __post_init__'s clip copies each slice once.
        return (
            RegulationTrace(self.samples[:cut], self.dt_seconds),
            RegulationTrace(self.samples[cut:], self.dt_seconds),
        )


@dataclass(frozen=True)
class GaussianEnvelope:
    """Gaussian moments used as chance-constraint coefficients.

    ``source`` records how the moments were obtained ("envelope" for the
    conservative quantile-dominating fit, "direct" for plain sample
    moments).
    """

    mu: float
    sigma: float
    source: str = "envelope"

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")

    def upper_quantile(self, q: float) -> float:
        """mu + z_q * sigma for q in (0, 1)."""
        return self.mu + inverse_normal_cdf(q) * self.sigma


@dataclass(frozen=True)
class VaRTable:
    """Per-horizon low/high quantiles of cumulative signal windows.

    Horizons are window lengths in hours; values are in signal-hours, so a
    capacity R in MW times a table value gives energy in MWh.
    """

    eps_e: float
    horizons: tuple[float, ...]
    s_low: tuple[float, ...]
    s_high: tuple[float, ...]
    n_windows: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not 0.0 < self.eps_e <= 0.5:
            raise ValueError(f"eps_e must be in (0, 0.5], got {self.eps_e}")
        if len(self.horizons) != len(self.s_low) or len(self.horizons) != len(self.s_high):
            raise ValueError("horizons and quantile tuples differ in length")
        for h, lo, hi in zip(self.horizons, self.s_low, self.s_high):
            if lo > hi + 1e-12:
                raise ValueError(f"s_low > s_high at horizon {h}")

    def bounds(self, horizon_hours: float) -> tuple[float, float]:
        """(s_low, s_high) for the given window length."""
        for h, lo, hi in zip(self.horizons, self.s_low, self.s_high):
            if abs(h - horizon_hours) <= 1e-9:
                return lo, hi
        raise KeyError(f"no VaR entry for horizon {horizon_hours} h (have {self.horizons})")


# Peter Acklam's rational approximation to the standard normal quantile,
# refined by one Newton step against the erfc-based CDF.
_A = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
      1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_B = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
      6.680131188771972e01, -1.328068155288572e01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
      -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
      3.754408661907416e00)
_P_LOW = 0.02425


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def inverse_normal_cdf(p: float) -> float:
    """Standard normal quantile, absolute error below 1e-8.

    Rational approximation with one Newton refinement; raises for p
    outside the open interval (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if p < _P_LOW:
        qv = math.sqrt(-2.0 * math.log(p))
        x = ((((((_C[0] * qv + _C[1]) * qv + _C[2]) * qv + _C[3]) * qv + _C[4]) * qv + _C[5])
             / ((((_D[0] * qv + _D[1]) * qv + _D[2]) * qv + _D[3]) * qv + 1.0))
    elif p <= 1.0 - _P_LOW:
        qv = p - 0.5
        r = qv * qv
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * qv
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    else:
        qv = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -((((((_C[0] * qv + _C[1]) * qv + _C[2]) * qv + _C[3]) * qv + _C[4]) * qv + _C[5])
              / ((((_D[0] * qv + _D[1]) * qv + _D[2]) * qv + _D[3]) * qv + 1.0))
    # One Newton step: x <- x - (Phi(x) - p) / phi(x)
    pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    if pdf > 0.0:
        x -= (normal_cdf(x) - p) / pdf
    return x


def empirical_quantile(samples, q: float) -> float:
    """Order-statistic quantile with linear interpolation between ranks.

    q=0 gives the minimum, q=1 the maximum.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("empirical_quantile of empty sample set")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    return float(np.quantile(arr, q))


def cumulative_windows(trace: RegulationTrace, window_hours: float) -> np.ndarray:
    """Cumulative signal energy over non-overlapping windows, in signal-hours.

    Each value is sum(s_k) * dt/3600 over one window.
    """
    return _window_sums(trace, _running_sum(trace), window_hours)


def _running_sum(trace: RegulationTrace) -> np.ndarray:
    """0 followed by the cumulative sum of the samples."""
    return np.concatenate(([0.0], np.cumsum(trace.samples)))


def _window_sums(trace: RegulationTrace, cs: np.ndarray, window_hours: float) -> np.ndarray:
    """``cumulative_windows`` of ``trace`` from its running sum ``cs``."""
    window_s = window_hours * 3600.0
    if window_s < trace.dt_seconds - 1e-9:
        raise ValueError(
            f"window {window_hours} h is shorter than the sampling interval "
            f"{trace.dt_seconds} s"
        )
    n_win = max(1, int(round(window_s / trace.dt_seconds)))
    n = trace.samples.size
    count = n // n_win
    if count < MIN_WINDOWS:
        need = MIN_WINDOWS * n_win
        raise ValueError(
            f"trace too short for {window_hours} h windows: have {n} samples, "
            f"need at least {need} for {MIN_WINDOWS} windows"
        )
    starts = np.arange(count) * n_win
    sums = cs[starts + n_win] - cs[starts]
    return sums * (trace.dt_seconds / 3600.0)


def build_var_table(
    trace: RegulationTrace,
    horizons=DEFAULT_VAR_HORIZONS,
    eps_e: float = 0.05,
) -> VaRTable:
    """Empirical eps_e / 1-eps_e quantiles of cumulative windows per horizon."""
    if not 0.0 < eps_e <= 0.5:
        raise ValueError(f"eps_e must be in (0, 0.5], got {eps_e}")
    cs = _running_sum(trace)
    hs, lows, highs, counts = [], [], [], []
    for h in horizons:
        vals = _window_sums(trace, cs, h)
        hs.append(float(h))
        lows.append(empirical_quantile(vals, eps_e))
        highs.append(empirical_quantile(vals, 1.0 - eps_e))
        counts.append(int(vals.size))
    return VaRTable(eps_e, tuple(hs), tuple(lows), tuple(highs), tuple(counts))


def fit_direct_gaussian(trace: RegulationTrace) -> GaussianEnvelope:
    """Plain sample mean and sample standard deviation of the signal."""
    mu = float(np.mean(trace.samples))
    sigma = float(np.std(trace.samples, ddof=1))
    return GaussianEnvelope(mu, sigma, source="direct")


def fit_gaussian_envelope(trace: RegulationTrace,
                          quantile_grid=DEFAULT_QUANTILE_GRID) -> GaussianEnvelope:
    """Smallest-sigma Gaussian whose upper-tail quantiles dominate the data.

    sigma is the max over grid levels q of (empirical_quantile(q) - mu) /
    z_q, so mu + z_q*sigma >= empirical_quantile(q) at every grid point.
    Degenerate data (no upper-tail spread) yields sigma 0 with a warning.
    """
    grid = tuple(quantile_grid)
    if not grid:
        raise ValueError("quantile grid must be nonempty")
    for q in grid:
        if not 0.5 < q <= MAX_GRID_LEVEL:
            raise ValueError(f"grid level {q} outside (0.5, {MAX_GRID_LEVEL}]")
    mu = float(np.mean(trace.samples))
    sigma = 0.0
    for q, emp in zip(grid, np.quantile(trace.samples, grid).tolist()):
        sigma = max(sigma, (emp - mu) / inverse_normal_cdf(q))
    if sigma <= 0.0:
        warnings.warn(
            "degenerate trace: no upper-tail spread, envelope sigma set to 0",
            stacklevel=2,
        )
        sigma = 0.0
    return GaussianEnvelope(mu, sigma, source="envelope")


def mean_abs_signal(trace: RegulationTrace) -> float:
    """Mean absolute signal value; default mileage proxy for payment terms."""
    return float(np.mean(np.abs(trace.samples)))


def generate_trace(kind: str, hours: float, dt_seconds: float, seed: int) -> RegulationTrace:
    """Seeded synthetic regulation trace of one of the built-in kinds.

    gaussian          iid normal noise, sd 0.25, clipped to [-1, 1]
    clipped_gaussian  iid normal noise, sd 0.6, heavily clipped
    heavy_tailed      tight normal core plus rare large symmetric spikes
    sinusoid_noise    energy-neutral sinusoid plus mean-reverting AR noise
    """
    if kind not in TRACE_KINDS:
        raise ValueError(f"unknown trace kind {kind!r}; choose from {TRACE_KINDS}")
    n = int(round(hours * 3600.0 / dt_seconds))
    if n < 2:
        raise ValueError("trace must span at least two samples")
    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "gaussian":
        s = rng.normal(0.0, 0.25, size=n)
    elif kind == "clipped_gaussian":
        s = rng.normal(0.0, 0.6, size=n)
    elif kind == "heavy_tailed":
        s = rng.normal(0.0, 0.06, size=n)
        spikes = rng.random(n) < 0.2
        magnitude = rng.uniform(0.7, 0.9, size=n)
        sign = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        s = np.where(spikes, sign * magnitude, s)
    else:  # sinusoid_noise
        t = np.arange(n) * dt_seconds
        base = 0.55 * np.sin(2.0 * math.pi * t / 1800.0)
        noise = np.empty(n)
        eps = rng.normal(0.0, 0.05, size=n)
        acc = 0.0
        # A memoryview yields Python floats, which are faster to add than
        # numpy scalars; unlike tolist it builds no n-element list.
        for i, e in enumerate(memoryview(eps)):
            acc = 0.9 * acc + e
            noise[i] = acc
        s = base + noise
    return RegulationTrace(np.clip(s, -1.0, 1.0), dt_seconds)


def trace_columns(trace: RegulationTrace) -> np.ndarray:
    """The (n, 2) float64 array of (i * dt, sample i): the numbers
    ``write_trace_csv`` writes, and bitwise what parsing its text gives."""
    return np.column_stack((np.arange(len(trace)) * trace.dt_seconds, trace.samples))


def write_trace_csv(trace: RegulationTrace, path) -> None:
    """Write a trace as CSV rows of (epoch-second timestamp from 0, signal value).

    Each number is its ``repr``, so parsing the text gives back the same
    floats bitwise; lines end in CRLF, as from ``csv.writer``. The body is
    formatted in blocks of WRITE_CHUNK_ROWS samples. With more than one
    block and more than one usable CPU, a pool of forked workers (one per
    usable CPU, at most one per block) formats them, and they are written
    in order with at most two blocks per worker in flight; otherwise they
    are formatted here. Either way the bytes are the same, the text held
    in memory stays bounded, and no worker outlives the call.
    """
    columns = trace_columns(trace)
    rows = WRITE_CHUNK_ROWS
    starts = range(0, len(columns), rows)
    workers = min(_usable_cpus(), len(starts)) if hasattr(os, "fork") else 1
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("timestamp,s\r\n")
        if workers < 2:
            for k in starts:
                fh.write(_format_rows(columns[k:k + rows]))
            return
        # Imported here because only gen-instance writes a trace: at module
        # level they would add about 10 ms to every command's start-up.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Forked workers inherit the columns, so the trace is never pickled.
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                 _adopt_columns, (columns,)) as pool:
            pending = deque()
            for k in starts:
                pending.append(pool.submit(_format_rows_at, k, rows))
                if len(pending) == 2 * workers:
                    fh.write(pending.popleft().result())
            for block in pending:
                fh.write(block.result())


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _format_rows(block: np.ndarray) -> str:
    """CSV text of an (m, 2) block of ``trace_columns``."""
    return "".join([f"{t!r},{v!r}\r\n"
                    for t, v in zip(block[:, 0].tolist(), block[:, 1].tolist())])


_worker_columns = None  # a write_trace_csv worker's trace columns


def _adopt_columns(columns: np.ndarray) -> None:
    global _worker_columns
    _worker_columns = columns


def _format_rows_at(start: int, rows: int) -> str:
    return _format_rows(_worker_columns[start:start + rows])


def _parse_timestamp(raw: str, path, line_no: int) -> float:
    try:
        return float(raw)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(raw).timestamp()
    except ValueError:
        raise ValueError(
            f"{path} line {line_no}: timestamp {raw!r} is neither epoch seconds nor ISO-8601"
        ) from None


def _read_trace_rows(fh, path) -> tuple[list[float], list[float]]:
    """Stamps and values of a trace CSV read row by row from its start,
    header skipped; a malformed row raises with its path and line."""
    reader = csv.reader(fh)
    next(reader)
    stamps: list[float] = []
    values: list[float] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) < 2:
            raise ValueError(f"{path} line {line_no}: expected 2 fields, got {len(row)}")
        stamps.append(_parse_timestamp(row[0].strip(), path, line_no))
        try:
            values.append(float(row[1]))
        except ValueError:
            raise ValueError(f"{path} line {line_no}: bad signal value {row[1]!r}") from None
    return stamps, values


def _sample_lines(path) -> list[int]:
    """File line of each sample of a trace CSV: its non-blank body rows."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [line_no for line_no, row in enumerate(reader, start=2) if row]


def read_trace_csv(path) -> RegulationTrace:
    """Read a signal CSV with header ``timestamp,s``.

    Timestamps may be epoch seconds or ISO-8601. The parsed columns go
    through ``trace_from_columns``, which names the path and file line of
    any fault. An all-numeric body parses in one ``np.loadtxt`` call; any
    body it rejects (ISO-8601 stamps, quoted or empty fields) is read again
    row by row. ``instance.read_signal`` (used by ``load_bundle`` and
    fit-signal) reads a generated bundle's digest-checked ``signal.npy``
    instead; a hand-edited ``signal.csv`` fails that check and comes here.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["timestamp", "s"]:
            raise ValueError(f"{path}: expected header 'timestamp,s', got {header}")
        try:
            with warnings.catch_warnings():
                # A header-only file warns; the two-row check reports it.
                warnings.simplefilter("ignore", UserWarning)
                body = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, usecols=(0, 1))
            stamps, values = body[:, 0], body[:, 1]
        except ValueError:
            fh.seek(0)
            stamps, values = _read_trace_rows(fh, path)
    return trace_from_columns(stamps, values, path)


def trace_from_columns(stamps, values, path) -> RegulationTrace:
    """The trace of a signal CSV's parsed (timestamp, value) columns.

    Timestamps must be finite and uniformly spaced, and values must lie in
    [-1, 1]. Every fault is reported with ``path`` and the file line of the
    offending row; for a spacing fault, the row after the gap. Samples are
    mapped to file lines only once a check fails.
    """
    stamps, values = np.asarray(stamps, dtype=float), np.asarray(values, dtype=float)

    def fault(k: int, what: str) -> ValueError:
        return ValueError(f"{path} line {_sample_lines(path)[k]}: {what}")

    if len(values) < 2:
        raise ValueError(f"{path}: trace needs at least two rows")
    finite = np.isfinite(stamps)
    if not finite.all():
        raise fault(int(np.argmin(finite)), "non-finite timestamp")
    dt = float(stamps[1] - stamps[0])
    if dt <= 0:
        raise fault(1, "non-increasing timestamps")
    irregular = np.abs(np.diff(stamps) - dt) > 1e-6 * max(1.0, dt)
    if irregular.any():
        raise fault(int(np.argmax(irregular)) + 1, "irregular sampling interval")
    try:
        return RegulationTrace(values, dt)
    except ValueError:
        # Only a value can fail now: NaN, or beyond the trace's tolerance.
        k = int(np.argmax(~(np.abs(values) <= 1.0 + 1e-12)))
        raise fault(k, f"signal value {float(values[k])!r} is outside [-1, 1]") from None
