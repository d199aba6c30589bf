"""No module but `states` reads the private tables of a `StateSequence`.

How a level is held is known only inside `states`: its level source and its
memo tables.  Every other module asks the public queries.
"""

import ast
from pathlib import Path

import qubitlab as q

#: a state's level source and its memo tables: levels, eigensystems, eigenvalues, histograms
PRIVATE = {"_source", "_cache", "_spectra", "_values", "_histograms"}


def test_no_module_but_states_reads_a_level_source_or_memo_table():
    src = Path(q.__file__).parent
    modules = sorted(p for p in src.glob("*.py") if p.name != "states.py")
    assert modules
    reads = [f"{path.name}:{node.lineno} ({node.attr})" for path in modules
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in PRIVATE]
    assert not reads
