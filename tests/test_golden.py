"""The tracked figure surfaces in out/ are golden: regenerating them with the
argv of scripts/emit_figures.py must give the same bytes.  So are the tables
in tests/golden/ of `riccati eval`, `riccati poles`, `riccati verify`,
`cosmo hubble`, `cosmo scale` and `cosmo figure`, and the stdout of
scripts/verify_matrix.py."""

import importlib.util
import pathlib

import pytest

from fracriccati import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EMIT = _script("emit_figures")


def test_figure_surfaces_match_golden(tmp_path, capsys):
    assert EMIT.main(tmp_path) == 0
    capsys.readouterr()
    for name, _ in EMIT.FIGURES:
        assert (tmp_path / name).read_bytes() == (ROOT / "out" / name).read_bytes(), name


# (name, argv) of every golden table in tests/golden/tables.txt
TABLES = [
    tuple(line.split(None, 1))
    for line in (ROOT / "tests" / "golden" / "tables.txt").read_text().splitlines()
    if line and not line.startswith("#")
]


@pytest.mark.parametrize("name, argv", TABLES)
def test_table_matches_golden(capsys, name, argv):
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out == (ROOT / "tests" / "golden" / name).read_text()


def test_verify_matrix_matches_golden(capsys):
    assert _script("verify_matrix").main() == 0
    assert capsys.readouterr().out == (ROOT / "tests" / "golden" / "verify_matrix.txt").read_text()
