"""Tests for the performance model and report rendering."""

import pytest

from repro.mpi import LOCAL, MachineModel
from repro.perf.model import aggregate, evaluation_phase_times
from repro.perf.report import format_table, phase_breakdown_table
from repro.util.timer import PhaseProfile


def make_profiles():
    p1, p2 = PhaseProfile(), PhaseProfile()
    p1.add_flops(1e9, phase="ULI")
    p1.add_message(1000, 0.5, phase="COMM")
    p2.add_flops(3e9, phase="ULI")
    p2.add_flops(1e9, phase="VLI")
    return [p1, p2]


class TestModel:
    def test_aggregate_max_avg(self):
        rows = aggregate(make_profiles(), LOCAL, "U-list", ["ULI"])
        assert rows.max_seconds == pytest.approx(3.0)
        assert rows.avg_seconds == pytest.approx(2.0)
        assert rows.max_flops == 3e9
        assert rows.avg_flops == 2e9

    def test_comm_seconds_included(self):
        rows = aggregate(make_profiles(), LOCAL, "Comm.", ["COMM"])
        assert rows.max_seconds == pytest.approx(0.5)
        assert rows.max_flops == 0.0

    def test_evaluation_phase_times_rows(self):
        rows = evaluation_phase_times(make_profiles(), LOCAL)
        names = [r.name for r in rows]
        assert names[0] == "Total eval"
        assert names[-1] == "Comp"
        for expected in ("Upward", "Comm.", "U-list", "V-list", "W-list",
                         "X-list", "Downward"):
            assert expected in names
        by = {r.name: r for r in rows}
        # total includes comm; comp excludes it
        assert by["Total eval"].max_seconds > by["Comp"].max_seconds - 1e-12
        assert by["Comp"].max_flops == by["Total eval"].max_flops

    def test_fft_rate_separate(self):
        m = MachineModel("m", cpu_flops=1e9, latency=0, bandwidth=1e9,
                         cpu_fft_flops=4e9)
        assert m.fft_seconds(4e9) == pytest.approx(1.0)
        assert m.compute_seconds(4e9) == pytest.approx(4.0)


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, "x"], [22, "yy"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_phase_breakdown_table_format(self):
        rows = evaluation_phase_times(make_profiles(), LOCAL)
        out = phase_breakdown_table(rows, title="Table II")
        assert "Total eval" in out
        assert "Max. Time" in out
        assert "e+" in out or "e-" in out  # scientific notation
