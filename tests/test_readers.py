"""Every function, class and method in the package has a reader outside the tests.

A definition counts as read when a non-test ``.py`` file under ``src``,
``perfbench`` or ``tools`` names it, as a bare name or as an attribute.
Mentions in docstrings and comments do not count. The check goes by name, so
a definition whose name something else also uses counts as read. Dunder
methods are called by the language, not by name, so they are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vanetgka"

# the paper's surface that no run reaches yet, each with why it stays
PAPER_SURFACE = {
    # members "communicate with other members in the same group" (abstract)
    "to_rsu": "the member-to-RSU uplink",
    "rsu_open_uplink": "the RSU's side of the uplink",
    "request_directory": "a member asks for the share directory, to reach a peer",
    "rsu_open_directory_request": "the RSU checks a directory request",
    "rsu_serve_directory": "the RSU lists every member's blinded share",
    "open_directory": "a member reads the share directory",
    "derive_vvk": "the pairwise key of two members, from the directory",
    "send_peer": "the member-to-member message",
    "recv_peer": "the member-to-member message, received",
    # criterion 6 checks the fast-path delay model against the simulator's charge
    "effective_rsu_delay": "the fast-path RSU delay model",
}


def _definitions() -> dict[str, str]:
    """Module-level functions and classes, and their methods: name -> where."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found[node.name] = f"{path.name}:{node.lineno}"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        found[item.name] = f"{path.name}:{item.lineno}"
    return found


def _references() -> set[str]:
    """Every name and attribute read in the non-test files."""
    names = set()
    for top in ("src", "perfbench", "tools"):
        for path in (ROOT / top).rglob("*.py"):
            if path.name.startswith("test_") or path.name == "conftest.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_definition_has_a_reader_outside_the_tests():
    references = _references()
    unread = {name: where for name, where in _definitions().items() if name not in references}
    assert {name: where for name, where in unread.items() if name not in PAPER_SURFACE} == {}
    # a paper-surface name that gains a reader leaves the list
    assert PAPER_SURFACE.keys() <= unread.keys()
