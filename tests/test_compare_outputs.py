"""tools/compare_outputs.py's report of how much a CSV file moved."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

OLD = b"""m,scheme,error_m,final_cost,ref_cost,global_min,converged,iterations
10,coop,0.002,1.5e-09,1.5e-09,1,1,7
10,coop,0.004,2e-09,nan,0,1,12
10,coop,0,3e-09,3e-09,1,0,500
"""
NEW = b"""m,scheme,error_m,final_cost,ref_cost,global_min,converged,iterations
10,coop,0.002,1.5e-09,1.5e-09,1,1,7
10,noncoop,0.005,2.5e-09,2e-09,1,1,10
10,coop,1e-06,3e-09,3e-09,1,1,480
"""


def test_csv_changes_counts_rows_column_maxima_and_flips():
    assert compare_outputs.csv_changes(OLD, NEW) == [
        "2 of 3 rows differ",
        "scheme: 1 text values changed",
        "error_m: max abs 0.001, max rel inf",
        "final_cost: max abs 5e-10, max rel 0.25",
        "ref_cost: max abs 0, max rel 0, 1 NaN changes",
        "global_min: 1 flipped",
        "converged: 1 flipped",
        "iterations: max abs 20, max rel 0.167",
    ]


def test_csv_changes_of_a_file_whose_shape_changed():
    shorter = b"\n".join(NEW.splitlines()[:-1]) + b"\n"
    assert compare_outputs.csv_changes(OLD, shorter) == [
        "header or row count differs (3 -> 2 rows)"
    ]
    assert compare_outputs.csv_changes(OLD, OLD) == ["0 of 3 rows differ"]
