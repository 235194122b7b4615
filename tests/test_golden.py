"""The tracked figure surfaces in out/ are golden: regenerating them with the
argv of scripts/emit_figures.py must give the same bytes.  So are the tables
in tests/golden/ of `riccati eval`, `riccati poles`, `riccati verify`,
`cosmo hubble`, `cosmo scale` and `cosmo figure`, and the stdout of
scripts/verify_matrix.py.  The value tables among them must also hold u to
mpmath, as pinned bits say nothing of accuracy."""

import importlib.util
import pathlib

import pytest

from fracriccati import cli
from mp_riccati import mp_u

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


VALUE_TABLES = [t for t in TABLES if t[1].split()[1] in ("eval", "hubble", "figure")]


@pytest.mark.parametrize("name, argv", VALUE_TABLES)
def test_value_table_holds_mpmath_accuracy(name, argv):
    # u (H = u for a = c, b = -k c) against mpmath from the same float inputs
    # and float orders, pole rows aside; every 4th row of a table past 100
    # rows.  The worst row reads 2.1e-11, where u is near a zero
    words = argv.split()
    opt = dict(zip(words[2::2], words[3::2]))
    if words[0] == "riccati":
        a, b = float(opt["--a"]), float(opt["--b"])
    else:
        a = float(opt["--c"])
        b = -int(opt["--k"]) * a
    lines = (ROOT / "tests" / "golden" / name).read_text().splitlines()[1:]
    rows = [line.split(",") for line in lines]
    for row in rows[::4 if len(rows) > 100 else 1]:
        if row[-1] == "1":
            continue
        x, delta, u = row[:3] if words[1] == "figure" else (row[0], opt.get("--delta", "1"), row[1])
        branch = int(opt.get("--branch", "1"))
        want = mp_u(a, b, float(delta), branch, float(x)) if b else 1.0 / (a * float(x))
        assert float(u) == pytest.approx(want, rel=1e-10, abs=0.0), row
