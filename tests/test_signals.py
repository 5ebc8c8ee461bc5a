import contextlib
import csv
import io
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dcflex.pool as pool
import dcflex.signals as signals
from dcflex.signals import (
    GaussianEnvelope,
    RegulationTrace,
    build_var_table,
    cumulative_windows,
    empirical_quantile,
    empirical_quantiles,
    fit_direct_gaussian,
    fit_gaussian_envelope,
    generate_trace,
    inverse_normal_cdf,
    mean_abs_signal,
    read_trace_csv,
    trace_columns,
    trace_from_columns,
    write_trace_csv,
)

from conftest import no_child_processes


def constant_trace(value, n=7200, dt=2.0):
    return RegulationTrace(np.full(n, float(value)), dt)


class TestInverseNormalCdf:
    def test_median_is_zero(self):
        assert inverse_normal_cdf(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_table_values(self):
        assert inverse_normal_cdf(0.95) == pytest.approx(1.6449, abs=1e-4)
        assert inverse_normal_cdf(0.975) == pytest.approx(1.9600, abs=1e-4)

    def test_symmetry(self):
        for p in (0.01, 0.2, 0.37, 0.49):
            assert inverse_normal_cdf(p) == pytest.approx(-inverse_normal_cdf(1 - p), abs=1e-10)

    def test_against_reference(self):
        from scipy.stats import norm

        for p in np.linspace(1e-6, 1 - 1e-6, 501):
            assert abs(inverse_normal_cdf(float(p)) - norm.ppf(p)) <= 1e-8

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            inverse_normal_cdf(p)


class TestEmpiricalQuantile:
    def test_median(self):
        assert empirical_quantile([1, 2, 3, 4, 5], 0.5) == 3

    def test_max(self):
        assert empirical_quantile([1, 2, 3, 4, 5], 1.0) == 5

    def test_interpolation_hand_oracle(self):
        # rank position q*(n-1) = 0.25 between 10 and 20
        assert empirical_quantile([10, 20], 0.25) == pytest.approx(12.5)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            empirical_quantile([], 0.5)

    @given(
        st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=50),
        st.floats(0, 1),
        st.floats(0, 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_q(self, samples, q1, q2):
        lo, hi = sorted((q1, q2))
        assert empirical_quantile(samples, lo) <= empirical_quantile(samples, hi) + 1e-12

    @given(
        st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324]),
                           st.floats(allow_nan=False, allow_infinity=False)),
                 min_size=1, max_size=40),
        st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1)),
                 min_size=1, max_size=6),
    )
    @example([3.5], [0.0, 0.3, 1.0])
    @example([-0.0, 0.0, -0.0], [0.0, 0.5, 1.0])
    @example([2.0, float("nan"), 1.0], [0.0, 0.5])
    @settings(max_examples=300, deadline=None)
    def test_quantiles_match_numpy_bitwise(self, samples, levels):
        with np.errstate(all="ignore"):
            expected = np.quantile(np.array(samples), levels)
            got = empirical_quantiles(samples, levels)
            assert got.tobytes() == expected.tobytes()
            for q in levels:
                assert (np.float64(empirical_quantile(samples, q)).tobytes()
                        == np.float64(np.quantile(np.array(samples), q)).tobytes())


class TestCumulativeWindows:
    def test_constant_one_gives_window_hours(self):
        trace = constant_trace(1.0, n=3600 * 30 // 2, dt=2.0)  # 30 h at 2 s
        vals = cumulative_windows(trace, 1.0)
        assert np.allclose(vals, 1.0)

    def test_constant_zero(self):
        vals = cumulative_windows(constant_trace(0.0, n=120_000), 1.0)
        assert np.allclose(vals, 0.0)

    def test_alternating_cancels(self):
        s = np.tile([1.0, -1.0], 90_000)
        vals = cumulative_windows(RegulationTrace(s, 2.0), 1.0)
        assert np.allclose(vals, 0.0)

    def test_too_short_raises_with_requirement(self):
        trace = constant_trace(0.5, n=4000, dt=2.0)
        with pytest.raises(ValueError, match="need at least"):
            cumulative_windows(trace, 1.0)

    def test_window_below_dt_rejected(self):
        with pytest.raises(ValueError):
            cumulative_windows(constant_trace(0.1), 1e-5)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=12, deadline=None)
    def test_values_bounded_by_window_hours(self, seed):
        trace = generate_trace("clipped_gaussian", hours=24, dt_seconds=30.0, seed=seed)
        vals = cumulative_windows(trace, 0.5)
        assert np.all(np.abs(vals) <= 0.5 + 1e-12)


class TestVarTable:
    def test_symmetric_signal_symmetric_bounds(self):
        rng = np.random.Generator(np.random.PCG64(5))
        half = rng.uniform(0.05, 0.95, size=150_000)
        s = np.concatenate([half, -half])
        rng.shuffle(s)
        table = build_var_table(RegulationTrace(s, 2.0), horizons=(0.25, 0.5), eps_e=0.05)
        for lo, hi in zip(table.s_low, table.s_high):
            assert lo == pytest.approx(-hi, abs=0.02)

    def test_constant_signal(self):
        table = build_var_table(constant_trace(1.0, n=200_000), horizons=(1.0,), eps_e=0.05)
        assert table.s_low[0] == pytest.approx(1.0)
        assert table.s_high[0] == pytest.approx(1.0)

    def test_eps_half_collapses_to_median(self):
        trace = generate_trace("gaussian", hours=48, dt_seconds=30.0, seed=3)
        table = build_var_table(trace, horizons=(0.5,), eps_e=0.5)
        assert table.s_low[0] == pytest.approx(table.s_high[0])

    def test_coverage_consistency(self):
        trace = generate_trace("gaussian", hours=96, dt_seconds=10.0, seed=11)
        eps = 0.1
        table = build_var_table(trace, horizons=(0.25,), eps_e=eps)
        vals = cumulative_windows(trace, 0.25)
        n = vals.size
        below_high = np.mean(vals <= table.s_high[0] + 1e-12)
        above_low = np.mean(vals >= table.s_low[0] - 1e-12)
        assert below_high >= 1 - eps - 1.0 / n
        assert above_low >= 1 - eps - 1.0 / n

    def test_missing_horizon_lookup(self):
        table = build_var_table(constant_trace(0.2, n=200_000), horizons=(1.0,))
        with pytest.raises(KeyError):
            table.bounds(0.75)


class TestDirectGaussianFit:
    def test_constant(self):
        fit = fit_direct_gaussian(constant_trace(0.5, n=100))
        assert fit.mu == pytest.approx(0.5)
        assert fit.sigma == pytest.approx(0.0)

    def test_two_point_sample_convention(self):
        fit = fit_direct_gaussian(RegulationTrace(np.array([-1.0, 1.0]), 2.0))
        assert fit.mu == pytest.approx(0.0)
        assert fit.sigma == pytest.approx(math.sqrt(2.0))

    def test_clipped_standard_normalish(self):
        n = 200_000
        trace = generate_trace("gaussian", hours=n * 2 / 3600, dt_seconds=2.0, seed=7)
        fit = fit_direct_gaussian(trace)
        assert abs(fit.mu) <= 3 * 0.25 / math.sqrt(n)
        assert fit.sigma == pytest.approx(0.25, rel=0.02)


class TestEnvelopeFit:
    def test_gaussian_data_recovers_sigma(self):
        # Quantile-matched normal data: the envelope of a Gaussian is itself.
        from scipy.stats import norm

        n = 20001
        qs = (np.arange(n) + 0.5) / n
        samples = 0.2 * norm.ppf(qs)
        fit = fit_gaussian_envelope(RegulationTrace(samples, 2.0))
        assert fit.mu == pytest.approx(0.0, abs=1e-9)
        assert fit.sigma == pytest.approx(0.2, rel=0.01)

    def test_heavy_tails_exceed_direct_sigma(self):
        trace = generate_trace("heavy_tailed", hours=48, dt_seconds=4.0, seed=13)
        env = fit_gaussian_envelope(trace)
        direct = fit_direct_gaussian(trace)
        assert env.sigma > direct.sigma

    def test_degenerate_all_equal(self):
        with pytest.warns(UserWarning, match="degenerate"):
            fit = fit_gaussian_envelope(constant_trace(0.3, n=5000))
        assert fit.mu == pytest.approx(0.3)
        assert fit.sigma == 0.0

    def test_dominance_over_grid(self):
        grid = (0.8, 0.9, 0.95, 0.99)
        for seed in range(5):
            trace = generate_trace("heavy_tailed", hours=24, dt_seconds=4.0, seed=seed)
            fit = fit_gaussian_envelope(trace, quantile_grid=grid)
            for q in grid:
                emp = empirical_quantile(trace.samples, q)
                assert fit.mu + inverse_normal_cdf(q) * fit.sigma - emp >= -1e-9

    def test_bad_grid_rejected(self):
        trace = constant_trace(0.1, n=100)
        with pytest.raises(ValueError):
            fit_gaussian_envelope(trace, quantile_grid=(0.4,))
        with pytest.raises(ValueError):
            fit_gaussian_envelope(trace, quantile_grid=())


class TestTraceBasics:
    def test_rejects_out_of_range_samples(self):
        with pytest.raises(ValueError):
            RegulationTrace(np.array([0.0, 1.2]), 2.0)

    def test_rejects_short_or_bad_dt(self):
        with pytest.raises(ValueError):
            RegulationTrace(np.array([0.1]), 2.0)
        with pytest.raises(ValueError):
            RegulationTrace(np.array([0.1, 0.2]), 0.0)

    def test_split_fractions(self):
        trace = constant_trace(0.2, n=1000)
        fit_seg, held = trace.split(0.7)
        assert len(fit_seg) == 700 and len(held) == 300

    def test_generator_determinism_and_kinds(self):
        for kind in ("gaussian", "clipped_gaussian", "heavy_tailed", "sinusoid_noise"):
            a = generate_trace(kind, hours=0.5, dt_seconds=2.0, seed=42)
            b = generate_trace(kind, hours=0.5, dt_seconds=2.0, seed=42)
            assert np.array_equal(a.samples, b.samples)
            assert np.all(np.abs(a.samples) <= 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_trace("cauchy", 1.0, 2.0, 1)

    def test_mean_abs(self):
        assert mean_abs_signal(constant_trace(-0.4)) == pytest.approx(0.4)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        trace = generate_trace("sinusoid_noise", hours=0.25, dt_seconds=2.0, seed=9)
        path = tmp_path / "signal.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert back.dt_seconds == pytest.approx(2.0)
        assert np.allclose(back.samples, trace.samples)

    def test_iso_timestamps(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_text(
            "timestamp,s\n2024-01-01T00:00:00,0.1\n2024-01-01T00:00:02,0.2\n"
            "2024-01-01T00:00:04,-0.3\n"
        )
        trace = read_trace_csv(path)
        assert trace.dt_seconds == pytest.approx(2.0)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_text("timestamp,s\n0,0.1\n2,oops\n")
        with pytest.raises(ValueError, match="line 3"):
            read_trace_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_text("time,value\n0,0.1\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(path)

    @pytest.mark.parametrize("body", [
        "0,0.1\n2,0.2\n4,-0.3\n",                       # plain
        "0,0.1\r\n2,0.2\r\n4,-0.3\r\n",                 # CRLF
        "0,0.1\n\n2,0.2\n4,-0.3\n",                     # blank line mid-file
        "0,0.1\n   \n2,0.2\n",                          # whitespace-only line
        " 0 , 0.1 \n2,  0.2\n4,-0.3 \n",                # padded fields
        "+0,+0.1\n+2,0.2\n",                             # leading +
        "0,0.1,x\n2,0.2,y\n",                            # extra columns
        "0,0.1\n2,0.2,5,6\n4,-0.3,1\n",                  # ragged columns
        "0,nan\n2,0.2\n",
        "nan,0.1\n2,0.2\n",
        "0,0.1\n2,nan\n",
        "0,inf\n2,0.2\n",
        '"0","0.1"\n2,0.2\n',                            # quoted fields
        "2024-01-01T00:00:00,0.1\n2024-01-01T00:00:02,0.2\n",
        "0\n2,0.2\n",                                    # one field
        "0,\n2,0.2\n",                                   # empty field
        "0,0x1p-3\n2,0.2\n",
        "0,1_0\n2,0.2\n",
        "0,1D-1\n2,0.2\n",
        "# note\n0,0.1\n2,0.2\n",
        "0,0.1\n",                                       # one row
        "",                                              # header only
        "0,0.1\n2,0.2\n5,0.3\n",                         # irregular spacing
        "0,0.1\n\nnan,0.2\n",                             # blank line, then a fault
        "0,0.1\n\n2,0.2\n\n5,0.3\n",                      # blank lines, then a gap
    ])
    def test_array_parse_matches_the_row_loop(self, tmp_path, monkeypatch, body):
        path = tmp_path / "signal.csv"
        path.write_bytes(b"timestamp,s\n" + body.encode())

        def parse():
            try:
                trace = read_trace_csv(path)
            except ValueError as exc:
                return str(exc)
            return trace.samples.tobytes(), repr(trace.dt_seconds)

        fast = parse()

        def reject(*args, **kwargs):
            raise ValueError("row loop only")

        monkeypatch.setattr(np, "loadtxt", reject)
        assert fast == parse()

    def test_written_trace_takes_the_array_parse_bitwise(self, tmp_path, monkeypatch):
        trace = generate_trace("heavy_tailed", hours=0.5, dt_seconds=2.0, seed=4)
        path = tmp_path / "signal.csv"
        write_trace_csv(trace, path)
        shapes = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            body = loadtxt(*args, **kwargs)
            shapes.append(body.shape)
            return body

        monkeypatch.setattr(np, "loadtxt", spy)
        back = read_trace_csv(path)
        assert shapes == [(len(trace), 2)]
        assert back.samples.tobytes() == trace.samples.tobytes()
        assert back.dt_seconds == 2.0 and type(back.dt_seconds) is float


def row_loop_trace_csv(trace, path):
    """The csv.writer loop that wrote signal.csv before the bulk writer:
    the byte reference for write_trace_csv."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "s"])
        dt = trace.dt_seconds
        for i, v in enumerate(trace.samples):
            writer.writerow([repr(i * dt), repr(float(v))])


EDGE_SAMPLES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324])


# One usable CPU formats every block in process; two make a pool of forked
# workers whenever there are two blocks or more.
@settings(max_examples=60, deadline=None)
@given(samples=st.lists(st.one_of(EDGE_SAMPLES, st.floats(-1.0, 1.0)), min_size=2, max_size=40),
       dt=st.sampled_from([0.1, 2.0, 2.5, 4.0]), chunk_rows=st.sampled_from([1, 3, 1 << 14]),
       cpus=st.sampled_from([1, 2]))
def test_bulk_writer_matches_the_row_loop_and_the_columns(samples, dt, chunk_rows, cpus):
    trace = RegulationTrace(np.array(samples), dt)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(signals, "WRITE_CHUNK_ROWS", chunk_rows)
        mp.setattr(pool, "usable_cpus", lambda: cpus)
        bulk, loop = Path(tmp) / "bulk.csv", Path(tmp) / "loop.csv"
        write_trace_csv(trace, bulk)
        row_loop_trace_csv(trace, loop)
        assert bulk.read_bytes() == loop.read_bytes()
        np.save(Path(tmp) / "signal.npy", trace_columns(trace))
        columns = np.load(Path(tmp) / "signal.npy")
        text = np.loadtxt(bulk, delimiter=",", skiprows=1, ndmin=2)
        assert columns.dtype == np.float64 and columns.tobytes() == text.tobytes()
        parsed = read_trace_csv(bulk)
        copied = trace_from_columns(columns[:, 0], columns[:, 1], bulk)
        assert copied.samples.tobytes() == parsed.samples.tobytes()
        assert copied.dt_seconds == parsed.dt_seconds


@pytest.fixture
def pooled_writer(monkeypatch):
    """write_trace_csv in blocks of 64 rows on two workers."""
    monkeypatch.setattr(signals, "WRITE_CHUNK_ROWS", 64)
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)


def test_no_worker_outlives_the_writer_or_gen_instance(pooled_writer, tmp_path):
    from dcflex.cli import main

    trace = generate_trace("gaussian", hours=1.0, dt_seconds=2.0, seed=1)
    write_trace_csv(trace, tmp_path / "signal.csv")
    assert no_child_processes()
    assert read_trace_csv(tmp_path / "signal.csv").samples.tobytes() == trace.samples.tobytes()
    assert main(["gen-instance", "--out", str(tmp_path / "b"), "--seed", "3", "--preset",
                 "small", "--signal-days", "1", "--quiet"]) == 0
    assert no_child_processes()


def test_a_worker_error_reaches_the_caller(pooled_writer, monkeypatch, tmp_path):
    parent, format_rows = os.getpid(), signals._format_rows

    def fail_in_a_worker(block):
        if os.getpid() != parent:
            raise RuntimeError("block failed in a worker")
        return format_rows(block)

    monkeypatch.setattr(signals, "_format_rows", fail_in_a_worker)
    trace = generate_trace("gaussian", hours=1.0, dt_seconds=2.0, seed=1)
    with pytest.raises(RuntimeError, match="block failed in a worker"):
        write_trace_csv(trace, tmp_path / "signal.csv")
    assert no_child_processes()


def test_a_worker_that_dies_ends_gen_instance_with_one_line(pooled_writer, monkeypatch,
                                                          tmp_path):
    from dcflex.cli import EXIT_INPUT, main

    parent = os.getpid()

    def die_in_a_worker(block):
        if os.getpid() != parent:
            os._exit(1)

    monkeypatch.setattr(signals, "_format_rows", die_in_a_worker)
    out = tmp_path / "b"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["gen-instance", "--out", str(out), "--seed", "3", "--preset", "small",
                     "--signal-days", "1", "--quiet"])
    lines = err.getvalue().splitlines()
    assert code == EXIT_INPUT and len(lines) == 1, lines
    assert lines[0].startswith(f"error: {out / 'signal.csv'}: a worker process died"), lines
    assert not out.exists()
    assert no_child_processes()


def test_envelope_rejects_negative_sigma():
    with pytest.raises(ValueError):
        GaussianEnvelope(0.0, -1.0)
