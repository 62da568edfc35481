"""The paper's closed-form numbers, pinned exactly.

Table 5's Equation (8) row and Figure 3's ridge points cost microseconds
to compute, so they are gated here bit for bit (as ``repr`` strings)
instead of only through the benches' rendered tables.  The inputs are
the ones ``benchmarks/bench_table5_workload_split.py`` and
``benchmarks/bench_fig3_roofline.py`` use.  The profiled Table 5 row
runs the simulation over a fraction sweep and stays with the bench.
"""

from repro.core.analytic import workload_split
from repro.core.intensity import cmeans_intensity, gemv_intensity, gmm_intensity
from repro.core.roofline import RooflineModel
from repro.hardware import delta_node

#: name -> ``repr`` of the number the current model computes
PAPER_NUMBERS = {
    # Table 5, "p calculated by Equation (8)" (paper: 97.3%, 11.2%, 11.2%)
    "table5.gemv.p": "0.9719344130369177",
    "table5.cmeans.p": "0.11206896551724138",
    "table5.gmm.p": "0.11206896551724138",
    # Figure 3, ridge points in flops/byte
    "fig3.cpu.ridge": "4.0625",
    "fig3.gpu_staged.ridge": "1114.679659498208",
    "fig3.gpu_resident.ridge": "7.152777777777778",
}


def paper_numbers() -> dict[str, str]:
    node = delta_node(n_gpus=1)
    out = {}
    for name, profile, staged in (
        ("gemv", gemv_intensity(), True),
        ("cmeans", cmeans_intensity(100), False),
        ("gmm", gmm_intensity(10, 60), False),
    ):
        out[f"table5.{name}.p"] = repr(
            workload_split(node, profile, staged=staged).p
        )
    out["fig3.cpu.ridge"] = repr(RooflineModel(node.cpu).ridge)
    out["fig3.gpu_staged.ridge"] = repr(
        RooflineModel(node.gpu, staged=True).ridge
    )
    out["fig3.gpu_resident.ridge"] = repr(
        RooflineModel(node.gpu, staged=False).ridge
    )
    return out


def test_table5_and_fig3_numbers_are_exact():
    assert paper_numbers() == PAPER_NUMBERS
