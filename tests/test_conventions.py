"""The convention switch acts in one place, the map of wgdisp.conventions."""

import ast
from pathlib import Path

import pytest

from wgdisp.conventions import Conventions
from wgdisp.energy import DipoleSpecies, ModeTable, PairConfiguration, f_tensor
from wgdisp.waveguide import Geometry, TransversePoint

SRC = Path(__file__).resolve().parents[1] / "src" / "wgdisp"
FIELD = "bundle"
TABLE = "_CHOICES"


def _constants(node):
    """The constants of a node and of the tuples, lists and sets it holds."""
    if isinstance(node, ast.Constant):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [c for element in node.elts for c in _constants(element)]
    return []


def switch_reads(source: str) -> list[tuple[int, str]]:
    """(line, what) of each read of the switch in ``source``: an attribute
    or getattr of ``bundle``, a name, attribute or import of the table
    ``_CHOICES``, or a comparison with "paper-literal"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in (FIELD, TABLE):
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.Name) and node.id == TABLE:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"import {a.name}") for a in node.names if a.name == TABLE]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and FIELD in _constants(node.args[1])):
            found.append((node.lineno, "getattr"))
        elif isinstance(node, ast.Compare) and "paper-literal" in [
                c for side in (node.left, *node.comparators) for c in _constants(side)]:
            found.append((node.lineno, 'compares with "paper-literal"'))
    return found


# One read and one look-alike that is none, per kind of read.
KINDS = {
    "attribute": ("x = conv.bundle", "x = conv.printed"),
    "getattr": ("x = getattr(c, 'bundle')", "x = getattr(c, 'printed')"),
    "table": ("x = _CHOICES[name]", "x = CHOICES[name]"),
    "import": ("from .conventions import _CHOICES", "from .conventions import Conventions"),
    "comparison": ("ok = name in ('oracle-consistent', 'paper-literal')",
                   "p.add_argument('--convention', choices=('oracle-consistent', "
                   "'paper-literal'))"),
}


def test_guard_sees_each_kind_of_read():
    for kind, (read, other) in KINDS.items():
        assert switch_reads(read), (kind, read)
        assert not switch_reads(other), (kind, other)


def test_only_conventions_reads_a_switch():
    # Every other module takes the map's answers (Conventions.printed,
    # te_bound and choices) and its function apply; argparse lists the
    # bundle names as choices.
    reads = {path.name: switch_reads(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "conventions.py"}
    assert {"coupling.py", "energy.py", "cli.py"} <= reads.keys()
    assert {name: found for name, found in reads.items() if found} == {}


@pytest.mark.parametrize("convention", ["oracle-consistent", "paper-literal"])
def test_one_table_and_one_te_row_set_for_every_bundle(monkeypatch, convention):
    # A mode table is keyed by guide and points alone, and its one pass
    # builds one TE row set whatever the conventions of the tensors read
    # from it.
    import wgdisp.coupling as coupling_mod
    calls = []
    rows = coupling_mod._te_rows

    def counted(*args, **kwargs):
        calls.append(args[3].size)
        return rows(*args, **kwargs)
    monkeypatch.setattr(coupling_mod, "_te_rows", counted)
    geom = Geometry(1.0, 0.7)
    p1, p2 = TransversePoint(0.3, 0.2), TransversePoint(0.6, 0.5)
    table = ModeTable(geom, p1, p2)
    assert table.key == (geom, p1, p2)
    iso = DipoleSpecies.single(0.0628, (1.0, 1.0, 1.0))
    for conventions in (Conventions(convention), Conventions()):
        f_tensor(PairConfiguration(geom, p1, p2, 0.4, iso, iso, conventions=conventions),
                 0.0628, tail_tol=1e-8, table=table)
    assert len(calls) == 1 and calls[0] == table.counts(table._split_cutoff)[1]
