"""Contract tests for every ``Trace`` implementer, plus trace-file I/O.

The engine's ``Trace`` protocol is one method, ``next_step(chain)``,
but the experiments lean on an implicit contract: a trace constructed
from the same parameters (seed, file, pattern) must yield the *same*
step sequence for the same chain schedule, and every step must stay
inside the configured geometry.  These tests pin that contract across
SyntheticTrace, the adversarial traces, and TraceFileReader (plain
and gzip, via the fixtures in ``tests/data/``), then cover the
streaming reader's parsing, looping, and bounded-memory behaviour.
"""

import gzip
from pathlib import Path

import pytest

from repro.sim.config import SystemConfig
from repro.sim.conformance import check_run
from repro.sim.engine import MemorySystem, TraceStep
from repro.workloads import (
    SyntheticTrace,
    TraceExhausted,
    TraceFileReader,
    TraceParseError,
    readers_for_cores,
)
from repro.workloads.adversarial import (
    HydraAdversarialTrace,
    ManySidedHammerTrace,
    RrsAdversarialTrace,
)
from repro.workloads.suites import profile_by_name

DATA = Path(__file__).parent / "data"
PLAIN_FIXTURE = DATA / "sample_trace.txt"
GZIP_FIXTURE = DATA / "sample_trace.gz"

GEOMETRY = dict(total_banks=8, rows_per_bank=256, columns_per_row=16)

#: Each entry builds a fresh, identically-parameterized trace instance.
TRACE_FACTORIES = {
    "synthetic": lambda: SyntheticTrace(
        profile_by_name("ycsb"), seed=7, **GEOMETRY
    ),
    "hydra-adversarial": lambda: HydraAdversarialTrace(
        n_rows=64, bank_stride=GEOMETRY["total_banks"],
        rows_per_bank=GEOMETRY["rows_per_bank"],
    ),
    "rrs-adversarial": lambda: RrsAdversarialTrace(
        target_row=100, scratch_row=200,
    ),
    "manysided-hammer": lambda: ManySidedHammerTrace(
        n_sides=6, base_row=100, rows_per_bank=GEOMETRY["rows_per_bank"],
        start_offset=3,
    ),
    "tracefile-plain": lambda: TraceFileReader(PLAIN_FIXTURE, **GEOMETRY),
    "tracefile-gzip": lambda: TraceFileReader(GZIP_FIXTURE, **GEOMETRY),
}

#: An interleaved chain schedule, as the MLP frontend would issue it.
CHAIN_SCHEDULE = [0, 1, 0, 0, 1, 2, 1, 0, 2, 2, 0, 1] * 5


def steps_of(trace, schedule=CHAIN_SCHEDULE):
    return [trace.next_step(chain) for chain in schedule]


class TestTraceContract:
    @pytest.mark.parametrize("name", sorted(TRACE_FACTORIES))
    def test_same_parameters_same_sequence(self, name):
        factory = TRACE_FACTORIES[name]
        assert steps_of(factory()) == steps_of(factory())

    @pytest.mark.parametrize("name", sorted(TRACE_FACTORIES))
    def test_steps_stay_inside_geometry(self, name):
        for step in steps_of(TRACE_FACTORIES[name]()):
            assert 0 <= step.bank < GEOMETRY["total_banks"]
            assert 0 <= step.row < GEOMETRY["rows_per_bank"]
            assert 0 <= step.column < GEOMETRY["columns_per_row"]
            assert step.gap_ns >= 0.0

    def test_manysided_rotation_and_validation(self):
        trace = ManySidedHammerTrace(
            n_sides=4, base_row=10, row_stride=2, rows_per_bank=256,
        )
        rows = [trace.next_step(0).row for _ in range(8)]
        assert rows == [10, 12, 14, 16] * 2  # strict N-row rotation
        with pytest.raises(ValueError):
            ManySidedHammerTrace(n_sides=1)

    @pytest.mark.parametrize("start_offset", [0, 3, 80, 1000])
    def test_hydra_steps_follow_the_cycle_formula(self, start_offset):
        """Three cycles of precomputed steps equal the per-step
        formula, from any phase."""
        n_rows, row_stride, bank_stride, rows_per_bank = 40, 128, 8, 2048
        trace = HydraAdversarialTrace(
            n_rows=n_rows, row_stride=row_stride, bank_stride=bank_stride,
            rows_per_bank=rows_per_bank, gap_ns=7.5, start_offset=start_offset,
        )
        for index in range(start_offset, start_offset + 3 * n_rows):
            row = ((index % n_rows) * row_stride) % rows_per_bank
            bank = (row // row_stride) % bank_stride
            assert trace.next_step(index % 4) == TraceStep(
                bank=bank, row=row, column=0, is_write=False, gap_ns=7.5
            )
        assert trace._position == start_offset + 3 * n_rows

    def test_hydra_traces_of_one_geometry_share_one_cycle(self):
        a = HydraAdversarialTrace(n_rows=640, bank_stride=32, start_offset=0)
        b = HydraAdversarialTrace(n_rows=640, bank_stride=32, start_offset=80)
        other = HydraAdversarialTrace(n_rows=640, bank_stride=16)
        assert a._cycle is b._cycle
        assert other._cycle is not a._cycle
        # Sharing the table shares no position.
        assert [a.next_step(0).row for _ in range(3)] == [0, 128, 256]
        assert [b.next_step(0).row for _ in range(3)] == [
            80 * 128, 81 * 128, 82 * 128
        ]

    @pytest.mark.parametrize("start_offset", [0, 3, 7, 100])
    def test_manysided_steps_follow_the_rotation_formula(self, start_offset):
        n_sides, base_row, row_stride, rows_per_bank = 6, 250, 2, 256
        trace = ManySidedHammerTrace(
            n_sides=n_sides, base_row=base_row, row_stride=row_stride,
            bank=3, rows_per_bank=rows_per_bank, gap_ns=2.0,
            start_offset=start_offset,
        )
        for index in range(start_offset, start_offset + 3 * n_sides):
            row = (base_row + (index % n_sides) * row_stride) % rows_per_bank
            assert trace.next_step(0) == TraceStep(
                bank=3, row=row, column=0, is_write=False, gap_ns=2.0
            )

    def test_rrs_steps_alternate_target_first(self):
        trace = RrsAdversarialTrace(target_row=11, scratch_row=22, bank=5)
        toggle = False
        for _ in range(6):
            toggle = not toggle
            row = 11 if toggle else 22
            assert trace.next_step(0) == TraceStep(
                bank=5, row=row, column=0, is_write=False, gap_ns=5.0
            )
        assert trace._toggle is toggle

    def test_plain_and_gzip_fixture_yield_identical_streams(self):
        plain = TraceFileReader(PLAIN_FIXTURE, **GEOMETRY)
        zipped = TraceFileReader(GZIP_FIXTURE, **GEOMETRY)
        assert steps_of(plain) == steps_of(zipped)


class TestTraceFileParsing:
    def write(self, tmp_path, text, name="t.trace"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_address_formats_and_mapping(self, tmp_path):
        # line 0x40*17 = byte 0x440 -> line 17: column 1, row-index 1,
        # bank 1, row 0 under the interleaved mapping.
        path = self.write(tmp_path, "0x440 R\n1088 W\n")
        reader = TraceFileReader(path, **GEOMETRY, loop=False)
        first = reader.next_step(0)
        second = reader.next_step(0)
        assert (first.bank, first.row, first.column) == (1, 0, 1)
        assert first.is_write is False
        assert (second.bank, second.row, second.column) == (1, 0, 1)
        assert second.is_write is True

    def test_cycle_stamps_become_gaps(self, tmp_path):
        path = self.write(tmp_path, "0x0 R 100\n0x40 R 180\n0x80 R 180\n")
        reader = TraceFileReader(path, clock_ns=0.5, **GEOMETRY)
        assert reader.next_step(0).gap_ns == 0.0  # no previous stamp
        assert reader.next_step(0).gap_ns == pytest.approx(40.0)
        assert reader.next_step(0).gap_ns == 0.0  # non-advancing stamp

    def test_stamps_ignored_without_clock(self, tmp_path):
        path = self.write(tmp_path, "0x0 R 100\n0x40 R 9000\n")
        reader = TraceFileReader(path, default_gap_ns=3.0, **GEOMETRY)
        assert reader.next_step(0).gap_ns == 3.0
        assert reader.next_step(0).gap_ns == 3.0

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, "# c\n\n// c\n0x0 R\n")
        reader = TraceFileReader(path, **GEOMETRY)
        assert reader.next_step(0).is_write is False
        assert reader.lines_read == 4

    def test_looping_restarts_the_file(self, tmp_path):
        path = self.write(tmp_path, "0x0 R\n0x40 W\n")
        reader = TraceFileReader(path, **GEOMETRY)
        flags = [reader.next_step(0).is_write for _ in range(5)]
        assert flags == [False, True, False, True, False]
        assert reader.requests_emitted == 5

    def test_no_loop_exhausts(self, tmp_path):
        path = self.write(tmp_path, "0x0 R\n")
        reader = TraceFileReader(path, loop=False, **GEOMETRY)
        reader.next_step(0)
        with pytest.raises(TraceExhausted):
            reader.next_step(0)

    @pytest.mark.parametrize("line, fragment", [
        ("zzz R", "bad address"),
        ("0x0 FETCH", "bad request type"),
        ("0x0 R abc", "bad cycle stamp"),
        ("0x0", "expected"),
    ])
    def test_parse_errors_name_file_and_line(self, tmp_path, line, fragment):
        path = self.write(tmp_path, f"# header\n{line}\n")
        reader = TraceFileReader(path, **GEOMETRY)
        with pytest.raises(TraceParseError) as exc:
            reader.next_step(0)
        assert f"{path}:2" in str(exc.value)
        assert fragment in str(exc.value)

    def test_empty_file_raises(self, tmp_path):
        path = self.write(tmp_path, "# only comments\n\n")
        reader = TraceFileReader(path, **GEOMETRY)
        with pytest.raises(TraceParseError, match="no request lines"):
            reader.next_step(0)

    def test_constructor_validation(self, tmp_path):
        path = self.write(tmp_path, "0x0 R\n")
        with pytest.raises(ValueError):
            TraceFileReader(path, total_banks=0)
        with pytest.raises(ValueError):
            TraceFileReader(path, clock_ns=0.0)
        with pytest.raises(ValueError):
            TraceFileReader(path, default_gap_ns=-1.0)

    def test_readers_for_cores(self, tmp_path):
        path = self.write(tmp_path, "0x0 R\n")
        readers = readers_for_cores([path], 3, **GEOMETRY)
        assert len(readers) == 3
        assert len({id(r) for r in readers}) == 3  # independent positions
        with pytest.raises(ValueError):
            readers_for_cores([path, path], 3, **GEOMETRY)


class TestStreamingMemoryUse:
    def test_gzip_trace_streams_through_the_engine(self, tmp_path):
        # A trace whose *uncompressed* size is far above the chunk
        # size must flow through a whole simulation while the line
        # buffer stays within a couple of chunks: the reader streams,
        # it never slurps the file.
        lines = []
        for index in range(24_000):
            address = (index * 0x1040) % (1 << 26)
            kind = "R" if index % 3 else "W"
            lines.append(f"0x{address:x} {kind} {index * 4}\n")
        payload = "".join(lines).encode("ascii")
        path = tmp_path / "big.trace.gz"
        with gzip.GzipFile(path, "wb", mtime=0) as handle:
            handle.write(payload)
        assert len(payload) > 4 * 64 * 1024

        config = SystemConfig(
            cores=2, ranks=1, bank_groups=2, banks_per_group=2,
            rows_per_bank=4096, requests_per_core=3000, mlp_per_core=2,
        )
        traces = readers_for_cores(
            [path], config.cores,
            total_banks=config.total_banks,
            rows_per_bank=config.rows_per_bank,
            columns_per_row=config.columns_per_row,
            clock_ns=0.625,
        )
        result, report = check_run(MemorySystem(config, traces))
        assert report.ok, report.render_text()
        assert sum(core.completed_requests for core in result.cores) == 6000
        for trace in traces:
            assert trace.requests_emitted == 3000
            assert 0 < trace.peak_buffer_bytes <= 2 * 64 * 1024
            assert trace.peak_buffer_bytes < len(payload) // 4
