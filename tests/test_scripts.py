"""The experiment scripts run end to end at small sizes and write their
tables."""
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, flags, header, lines", [
    ("run_density_sweep.py", ["--n-runs", "1"],
     "n_parked,encountered_per_km,travelled_km,improvement_pct", 6),
    ("run_circuit_table.py", ["--n-runs", "1"],
     "vehicle,mode,algorithm,sigma_r,zone,rmse_mean,rmse_std,improvement_pct", 17),
    ("run_coverage_demo.py", [],
     "radius,level3,level2,level1,uncovered", 3),
])
def test_script_writes_its_table(tmp_path, monkeypatch, capsys, script, flags, header, lines):
    out = tmp_path / "table.csv"
    monkeypatch.setattr(sys, "argv", [script, *flags, "--out", str(out)])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    rows = out.read_text(encoding="utf-8").splitlines()
    assert rows[0] == header
    assert len(rows) == lines
    assert all(row.count(",") == header.count(",") for row in rows)
    assert f"wrote {out}" in capsys.readouterr().out
