"""``src/repro`` holds only code that runs.

The code that runs is the library itself (``src``), the benchmarks
(``benchmarks``, ``e2ebench``) and the examples (``examples``).  Every
public top-level ``def``, ``class`` and assignment under ``src/repro`` must
be read somewhere in those four trees, outside its own body; a name only
tests read belongs under ``tests/``, next to the test that needs it.

A read is a name load or an attribute access.  Imports, ``__all__``
entries, strings and docstrings do not count, so a re-export alone keeps
nothing alive.  The match is by name: any read of ``x`` counts for every
definition called ``x``.  A deliberate exception goes in :data:`ALLOWLIST`
with its reason; an entry that is no longer needed fails the test.

The second test keeps every module's imports used: a top-level import the
module never reads is dead weight on the import graph.  Both checks are
functions, and the classes at the end run them on small synthetic trees.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCAN_ROOTS = ("src", "benchmarks", "e2ebench", "examples")

#: ``{qualified name: reason}`` of public definitions kept although nothing
#: in the scanned trees reads them.
ALLOWLIST: Dict[str, str] = {
    "repro.constants.read_env": (
        "the one sanctioned environment gate of the knob-env-read lint rule; "
        "no knob is registered, so nothing calls it yet"
    ),
}


@pytest.fixture(scope="module")
def parsed() -> Dict[Path, ast.Module]:
    """Every Python file of the scanned trees, parsed once."""
    return {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for root in SCAN_ROOTS
        for path in sorted((ROOT / root).rglob("*.py"))
    }


def _reads(node: ast.AST) -> Iterator[str]:
    """Names ``node`` reads: name loads and attribute accesses."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def _module_name(path: Path, package: Path) -> str:
    parts = path.relative_to(package.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _public_definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """``(name, node)`` of each public top-level def, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [
                name.id
                for target in node.targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            ]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def _package_modules(
    parsed: Dict[Path, ast.Module], package: Path
) -> Iterator[Tuple[Path, ast.Module]]:
    for path, tree in parsed.items():
        if path.is_relative_to(package):
            yield path, tree


def unread_definitions(
    parsed: Dict[Path, ast.Module], root: Path, allowlist: Dict[str, str]
) -> List[str]:
    """One line per public definition under ``root/src/repro`` that nothing
    in ``parsed`` reads outside its own body, and per stale allowlist entry."""
    package = root / "src" / "repro"
    reads = Counter(name for tree in parsed.values() for name in _reads(tree))
    unread: List[str] = []
    defined = set()
    for path, tree in _package_modules(parsed, package):
        for name, node in _public_definitions(tree):
            qualified = f"{_module_name(path, package)}.{name}"
            defined.add(qualified)
            is_read = reads[name] > sum(1 for read in _reads(node) if read == name)
            if not is_read and qualified not in allowlist:
                unread.append(f"{qualified} ({path.relative_to(root)}:{node.lineno})")
            elif is_read and qualified in allowlist:
                unread.append(f"{qualified}: stale allowlist entry, it is read now")
    unread.extend(
        f"{qualified}: stale allowlist entry, no such definition"
        for qualified in sorted(set(allowlist) - defined)
    )
    return unread


def _declared_all(tree: ast.Module) -> set:
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(parsed: Dict[Path, ast.Module], root: Path) -> List[str]:
    """One line per top-level import a module under ``root/src/repro`` never
    loads.  Imports nested in ``if TYPE_CHECKING:`` are not top-level, so
    exempt."""
    unused: List[str] = []
    for path, tree in _package_modules(parsed, root / "src" / "repro"):
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        exported = _declared_all(tree)
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused.extend(
                f"{path.relative_to(root)}:{node.lineno} {name}"
                for name in bound
                if name not in loaded and name not in exported
            )
    return unused


def test_every_public_definition_is_read(parsed):
    unread = unread_definitions(parsed, ROOT, ALLOWLIST)
    assert not unread, (
        "public definitions under src/repro that nothing in "
        f"{', '.join(SCAN_ROOTS)} reads (delete them, move a test-only "
        "reference under tests/, or allowlist with a reason):\n  "
        + "\n  ".join(unread)
    )


def test_every_top_level_import_is_used(parsed):
    unused = unused_imports(parsed, ROOT)
    assert not unused, "imports their module never uses:\n  " + "\n  ".join(unused)


# -- the checks on small synthetic trees ---------------------------------------

TREE = Path("/tree")


def _parse(files: Dict[str, str]) -> Dict[Path, ast.Module]:
    return {TREE / name: ast.parse(source) for name, source in files.items()}


def _unread(files: Dict[str, str], allowlist: Optional[Dict[str, str]] = None) -> List[str]:
    return unread_definitions(_parse(files), TREE, allowlist or {})


def _unread_names(files: Dict[str, str]) -> List[str]:
    return [line.split()[0] for line in _unread(files)]


def _unused(files: Dict[str, str]) -> List[str]:
    return unused_imports(_parse(files), TREE)


HELPER = "def helper():\n    return 1\n"
CALLER = "from repro.m import helper\n\nhelper()\n"


class TestUnreadDefinitions:
    def test_an_unread_public_function_is_reported(self):
        unread = _unread({"src/repro/core/feedback.py": "def unread_helper():\n    pass\n"})
        assert unread == [
            "repro.core.feedback.unread_helper (src/repro/core/feedback.py:1)"
        ]

    @pytest.mark.parametrize(
        "source",
        [
            HELPER,
            "async def helper():\n    return 1\n",
            "class helper:\n    pass\n",
            "helper = 1\n",
            "helper: int = 1\n",
        ],
        ids=["def", "async-def", "class", "assignment", "annotated-assignment"],
    )
    def test_every_kind_of_definition_is_checked(self, source):
        assert _unread_names({"src/repro/m.py": source}) == ["repro.m.helper"]

    def test_a_tuple_assignment_defines_each_name(self):
        assert _unread_names({"src/repro/m.py": "low, high = 0, 1\n"}) == [
            "repro.m.low",
            "repro.m.high",
        ]

    def test_private_names_are_not_checked(self):
        private = "def _helper():\n    pass\n\n_CACHE = {}\n"
        assert _unread({"src/repro/m.py": private}) == []

    def test_definitions_outside_the_package_are_not_checked(self):
        files = {
            "examples/tour.py": "def main():\n    pass\n",
            "benchmarks/conftest.py": "SIZE = 1\n",
        }
        assert _unread(files) == []

    def test_a_package_module_is_named_without_init(self):
        assert _unread({"src/repro/core/__init__.py": HELPER}) == [
            "repro.core.helper (src/repro/core/__init__.py:1)"
        ]

    def test_a_call_from_another_tree_is_a_read(self):
        assert _unread({"src/repro/m.py": HELPER, "examples/tour.py": CALLER}) == []

    def test_an_attribute_access_is_a_read(self):
        reader = "import repro.m\n\nrepro.m.helper()\n"
        assert _unread({"src/repro/m.py": HELPER, "benchmarks/test_m.py": reader}) == []

    def test_a_read_inside_its_own_body_does_not_count(self):
        recursive = "def helper(n):\n    return helper(n - 1) if n else 0\n"
        assert _unread_names({"src/repro/m.py": recursive}) == ["repro.m.helper"]

    @pytest.mark.parametrize(
        "mention",
        [
            "from repro.m import helper\n",
            "__all__ = ['helper']\n",
            "NAME = 'helper'\n",
            '"""Call helper() first."""\n',
        ],
        ids=["import", "__all__", "string", "docstring"],
    )
    def test_a_mention_that_is_not_a_read_does_not_count(self, mention):
        files = {"src/repro/m.py": HELPER, "examples/tour.py": mention}
        assert _unread_names(files) == ["repro.m.helper"]


class TestAllowlist:
    def test_an_allowlisted_unread_definition_passes(self):
        files = {"src/repro/constants.py": "def read_env(name):\n    return name\n"}
        assert _unread(files, {"repro.constants.read_env": "the env gate"}) == []

    def test_an_entry_for_a_read_definition_is_stale(self):
        files = {"src/repro/m.py": HELPER, "examples/tour.py": CALLER}
        assert _unread(files, {"repro.m.helper": "kept"}) == [
            "repro.m.helper: stale allowlist entry, it is read now"
        ]

    def test_an_entry_for_a_missing_definition_is_stale(self):
        allowlist = {"repro.core.local_graph.build_local_graphs": "kept"}
        assert _unread({"src/repro/core/feedback.py": ""}, allowlist) == [
            "repro.core.local_graph.build_local_graphs: "
            "stale allowlist entry, no such definition"
        ]


class TestUnusedImports:
    @pytest.mark.parametrize(
        "statement, bound",
        [
            ("import os", "os"),
            ("import os.path", "os"),
            ("import numpy as np", "np"),
            ("from os import path", "path"),
            ("from os import path as ospath", "ospath"),
            ("from . import sibling", "sibling"),
        ],
    )
    def test_an_unused_import_is_reported(self, statement, bound):
        assert _unused({"src/repro/m.py": statement + "\n"}) == [f"src/repro/m.py:1 {bound}"]

    @pytest.mark.parametrize(
        "source",
        [
            "import os\n\nCWD = os.getcwd()\n",
            "import os.path\n\nJOINED = os.path.join('a', 'b')\n",
            "import numpy as np\n\ndef zeros():\n    return np.zeros(1)\n",
            "from pathlib import Path\n\ndef name(path: Path) -> str:\n    return str(path)\n",
        ],
        ids=["module-level", "dotted", "in-a-function", "in-an-annotation"],
    )
    def test_a_loaded_import_is_used(self, source):
        assert _unused({"src/repro/m.py": source}) == []

    def test_a_name_only_in_a_string_is_unused(self):
        source = "import os\n\nNAME = 'os'\n"
        assert _unused({"src/repro/m.py": source}) == ["src/repro/m.py:1 os"]

    def test_names_in_all_are_exempt(self):
        reexport = "from .feedback import mapping_owner\n\n__all__ = ['mapping_owner']\n"
        assert _unused({"src/repro/core/__init__.py": reexport}) == []

    def test_imports_under_type_checking_are_exempt(self):
        source = (
            "from typing import TYPE_CHECKING\n\n"
            "if TYPE_CHECKING:\n    from .network import PDMSNetwork\n"
        )
        assert _unused({"src/repro/m.py": source}) == []

    def test_future_imports_are_exempt(self):
        assert _unused({"src/repro/m.py": "from __future__ import annotations\n"}) == []

    def test_modules_outside_the_package_are_not_checked(self):
        files = {"examples/tour.py": "import os\n", "benchmarks/conftest.py": "import sys\n"}
        assert _unused(files) == []
