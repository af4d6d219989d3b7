"""Ablation — task-parallel overlap of ``Ab`` and ``Cb`` (DESIGN.md decision 4).

The paper's Figure 1 runs the SpMV and the operand checksum on concurrent
streams.  Serializing the device (one stream) shows how much of the
scheme's low overhead comes from that overlap.
"""

from conftest import write_result

from repro.analysis import detection_overhead
from repro.analysis.ablations import ablate_overlap, render_overlap_ablation
from repro.machine import TESLA_K80_NO_OVERLAP, DeviceParams, Machine
from repro.sparse import QUICK_SUITE


def test_overlap_ablation(benchmark, full_suite):
    subset = [(s, m) for s, m in full_suite if s.name in QUICK_SUITE]
    ablation = ablate_overlap(subset)
    write_result("ablation_overlap", render_overlap_ablation(ablation))

    # Overlap must help on every matrix (it is why b_s=1 costs ~84 %, not
    # >100 %, in Figure 4).
    for overlapped, serialized in zip(ablation.overlapped, ablation.serialized):
        assert serialized > overlapped

    matrix = subset[0][1]
    serial = Machine(TESLA_K80_NO_OVERLAP)
    benchmark(lambda: detection_overhead(matrix, "abft", machine=serial))


def test_streams_parameter_validation(benchmark):
    # The serialized device is a first-class configuration, not a hack.
    assert TESLA_K80_NO_OVERLAP.streams == 1
    assert DeviceParams().streams >= 2
    benchmark(lambda: Machine(TESLA_K80_NO_OVERLAP).params.streams)
