"""The tracked figure surfaces in out/ are golden: regenerating them with the
argv of scripts/emit_figures.py must give the same bytes.  So are the tables
in tests/golden/ of `riccati eval`, `cosmo hubble`, `cosmo scale` and the
flat `cosmo figure`."""

import importlib.util
import pathlib

import pytest

from fracriccati import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _emit_figures():
    spec = importlib.util.spec_from_file_location(
        "emit_figures", ROOT / "scripts" / "emit_figures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EMIT = _emit_figures()


def test_figure_surfaces_match_golden(tmp_path, capsys):
    assert EMIT.main(tmp_path) == 0
    capsys.readouterr()
    for name, _ in EMIT.FIGURES:
        assert (tmp_path / name).read_bytes() == (ROOT / "out" / name).read_bytes(), name


# oscillatory tables with pole rows, modified-regime tables across the K
# cutover at z = 20 and the scaled-I cutover at z = 30, Hubble tables of
# every curvature (the k = -1 one runs to z of about 80), scale-factor tables
# of every curvature (the k = -1 one crosses the K cutover) and the flat
# figure surface
TABLES = (
    ("eval_oscillatory_branch1.csv",
     "riccati eval --a 1 --b -1 --delta 0.5 --branch 1 --grid 0.5:12:24"),
    ("eval_oscillatory_branch2.csv",
     "riccati eval --a 1 --b -1 --delta 0.5 --branch 2 --grid 0.5:12:24"),
    ("eval_modified_branch1.csv",
     "riccati eval --a 1.5 --b 0.8 --delta 0.7 --branch 1 --grid 10:23:27"),
    ("eval_modified_branch2.csv",
     "riccati eval --a 1.5 --b 0.8 --delta 0.7 --branch 2 --grid 10:23:27"),
    ("hubble_k+1.csv", "cosmo hubble --k 1 --c 1.5 --delta 0.6 --grid 0.2:9:23"),
    ("hubble_k0.csv", "cosmo hubble --k 0 --c 2 --grid 0.5:4:8"),
    ("hubble_k-1.csv", "cosmo hubble --k -1 --c 0.8 --delta 0.4 --branch 2 --grid 0.1:40:21"),
    ("scale_k+1.csv", "cosmo scale --k 1 --c 1 --delta 0.5 --grid 0.2:2.5:12"),
    ("scale_k-1.csv", "cosmo scale --k -1 --c 0.7 --delta 0.35 --branch 2 --grid 0.5:40:15"),
    ("scale_k0.csv", "cosmo scale --k 0 --c 1.3 --grid 0.5:4:8 --eta-ref 1"),
    ("figure_k0.csv", "cosmo figure --k 0 --c 1 --grid 0.1:3:10 --delta-grid 0.5:1:3"),
)


@pytest.mark.parametrize("name, argv", TABLES)
def test_table_matches_golden(capsys, name, argv):
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out == (ROOT / "tests" / "golden" / name).read_text()
