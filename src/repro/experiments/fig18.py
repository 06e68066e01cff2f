"""Fig 18 and §VI-D: hardware power/area overheads and energy."""

from __future__ import annotations

from typing import Dict

from repro.cost.energy import EnergyModel
from repro.cost.power_area import PIFS_BREAKDOWN, RECNMP_X8, PowerAreaModel
from repro.experiments.common import DEFAULT_SCALE, EvaluationScale, evaluation_system, evaluation_workload
from repro.api.registry import create_system
from repro.pifs.system import PIFSRecSystem


def run_fig18() -> Dict[str, Dict[str, float]]:
    """The Fig 18 table: per-component power (mW) and area (um^2)."""
    rows: Dict[str, Dict[str, float]] = {
        RECNMP_X8.name: {"power_mw": RECNMP_X8.power_mw, "area_um2": RECNMP_X8.area_um2}
    }
    for component in PIFS_BREAKDOWN.values():
        rows[component.name] = {"power_mw": component.power_mw, "area_um2": component.area_um2}
    model = PowerAreaModel()
    rows["PIFS-Rec total (logic)"] = {
        "power_mw": model.total_power_mw(include_buffer=False),
        "area_um2": model.total_area_um2(include_buffer=False),
    }
    rows["reductions"] = {
        "power_reduction_x": model.power_reduction_vs_recnmp(),
        "area_reduction_x": model.area_reduction_vs_recnmp(),
    }
    return rows


def run_energy_comparison(
    scale: EvaluationScale = DEFAULT_SCALE, model: str = "RMC2"
) -> Dict[str, float]:
    """Energy of PIFS-Rec vs the conventional DIMM+CPU (Pond) solution.

    The paper reports ~15 % average energy reduction for PIFS-Rec.
    """
    workload = evaluation_workload(model, scale)
    system_config = evaluation_system(scale)
    pifs = PIFSRecSystem(system_config).run(workload)
    pond = create_system("pond", system_config).run(workload)
    energy = EnergyModel()
    return {
        "pifs_mj": energy.total_mj(pifs, in_switch=True),
        "pond_mj": energy.total_mj(pond, in_switch=False),
        "saving_fraction": energy.savings_vs(pifs, pond),
    }


def main() -> None:
    from repro.analysis.report import format_table

    data = run_fig18()
    rows = [[name, values.get("power_mw", values.get("power_reduction_x", 0.0)),
             values.get("area_um2", values.get("area_reduction_x", 0.0))] for name, values in data.items()]
    print(format_table(["component", "power_mw (or x)", "area_um2 (or x)"], rows))


if __name__ == "__main__":
    main()


__all__ = ["run_fig18", "run_energy_comparison", "main"]
