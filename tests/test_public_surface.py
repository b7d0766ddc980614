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

The second test holds the public methods and properties of every class
under ``src/repro`` to the same rule.  A member is read by an attribute
access or by a ``getattr`` string — any string constant other than a
docstring, since the report tables keep the properties they print as
strings in their ``Column`` declarations — matched by name anywhere
outside the member's own body.  The ``visit_*`` methods of
``ast.NodeVisitor`` subclasses are called by the visitor and exempt;
deliberate exceptions go in :data:`MEMBER_ALLOWLIST`.

The third test keeps every module's imports used: a top-level import the
module never reads is dead weight on the import graph.  The checks are
functions, and the classes at the end run them on small synthetic trees.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCAN_ROOTS = ("src", "benchmarks", "e2ebench", "examples")

#: ``{qualified name: reason}`` of public definitions kept although nothing
#: in the scanned trees reads them.
ALLOWLIST: Dict[str, str] = {
    "repro.mapping.composition.round_trip_outcome": (
        "the checked §3.2.1 round trip of a raw mapping list, a top-level "
        "export; probe cycles check their chain once when built and are "
        "evaluated through image_of / compare_images"
    ),
    "repro.mapping.composition.parallel_paths_outcome": (
        "the checked comparison of two raw mapping paths; probe pairs check "
        "their chains once when built"
    ),
}

#: ``{qualified name: reason}`` of public methods and properties kept
#: although nothing in the scanned trees reads them.
MEMBER_ALLOWLIST: Dict[str, str] = {
    "repro.alignment.ontology.Ontology.concept_names": "aligner ground truth",
    "repro.alignment.ontology.Ontology.has_concept": "aligner ground truth",
    "repro.pdms.clock.VectorClock.as_dict": "gossip tests",
    "repro.pdms.clock.VectorClock.merge": "gossip tests",
    "repro.pdms.clock.VectorClock.concurrent_with": "gossip tests",
    "repro.pdms.network.PDMSNetwork.mappings_between": "replay and gossip tests",
    "repro.mapping.mapping.Mapping.is_correct_for": "generator ground truth",
    "repro.core.beliefs.PriorBeliefStore.set_prior": (
        "the §4.4 expert-validated (pinned) prior"
    ),
    "repro.core.quality.MappingQualityAssessor.assess_mapping": (
        "the §4.1 coarse mode"
    ),
    "repro.core.quality.MappingQualityAssessor.is_erroneous": "the θ decision",
    "repro.core.quality.MappingQualityAssessor.invalidate": (
        "the escape hatch after out-of-band surgery that ARCHITECTURE.md names"
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


def _report(
    found: Iterable[Tuple[str, str, bool]], allowlist: Dict[str, str], kind: str
) -> List[str]:
    """One line per unread, unallowlisted ``(qualified name, location,
    is_read)`` in ``found``, and per stale allowlist entry."""
    unread: List[str] = []
    defined = set()
    for qualified, location, is_read in found:
        defined.add(qualified)
        if not is_read and qualified not in allowlist:
            unread.append(f"{qualified} ({location})")
        elif is_read and qualified in allowlist:
            unread.append(f"{qualified}: stale allowlist entry, it is read now")
    unread.extend(
        f"{qualified}: stale allowlist entry, no such {kind}"
        for qualified in sorted(set(allowlist) - defined)
    )
    return unread


def unread_definitions(
    parsed: Dict[Path, ast.Module], root: Path, allowlist: Dict[str, str]
) -> List[str]:
    """One line per public definition under ``root/src/repro`` that nothing
    in ``parsed`` reads outside its own body, and per stale allowlist entry."""
    package = root / "src" / "repro"
    reads = Counter(name for tree in parsed.values() for name in _reads(tree))
    found = (
        (
            f"{_module_name(path, package)}.{name}",
            f"{path.relative_to(root)}:{node.lineno}",
            reads[name] > sum(1 for read in _reads(node) if read == name),
        )
        for path, tree in _package_modules(parsed, package)
        for name, node in _public_definitions(tree)
    )
    return _report(found, allowlist, "definition")


DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _member_reads(tree: ast.Module) -> Iterator[str]:
    """Names ``tree`` reads as members: attribute accesses and string
    constants other than docstrings (what ``getattr`` is given)."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False)
    }
    for child in ast.walk(tree):
        if isinstance(child, ast.Attribute):
            yield child.attr
        elif (
            isinstance(child, ast.Constant)
            and isinstance(child.value, str)
            and id(child) not in docstrings
        ):
            yield child.value


def _is_node_visitor(node: ast.ClassDef) -> bool:
    return any(
        (base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", ""))
        == "NodeVisitor"
        for base in node.bases
    )


def _public_members(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """``(Class.member, node)`` of each public method and property of every
    class in ``tree``, but the ``visit_*`` methods of a ``NodeVisitor``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        visitor = _is_node_visitor(node)
        for member in node.body:
            if (
                isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not member.name.startswith("_")
                and not (visitor and member.name.startswith("visit_"))
            ):
                yield f"{node.name}.{member.name}", member


def unread_members(
    parsed: Dict[Path, ast.Module], root: Path, allowlist: Dict[str, str]
) -> List[str]:
    """One line per public method or property of a class under
    ``root/src/repro`` whose name nothing in ``parsed`` reads as a member
    outside its own body, and per stale allowlist entry."""
    package = root / "src" / "repro"
    reads = Counter(name for tree in parsed.values() for name in _member_reads(tree))
    found = {
        f"{_module_name(path, package)}.{member}": (
            f"{path.relative_to(root)}:{node.lineno}",
            reads[node.name]
            > sum(1 for read in _member_reads(node) if read == node.name),
        )
        for path, tree in _package_modules(parsed, package)
        for member, node in _public_members(tree)
    }
    return _report(
        ((qualified, *entry) for qualified, entry in found.items()), allowlist, "member"
    )


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


def test_every_public_member_is_read(parsed):
    unread = unread_members(parsed, ROOT, MEMBER_ALLOWLIST)
    assert not unread, (
        "public methods and properties under src/repro whose name nothing in "
        f"{', '.join(SCAN_ROOTS)} reads as an attribute or a getattr string "
        "(delete them, move a test-only helper under tests/, or allowlist "
        "with a reason):\n  " + "\n  ".join(unread)
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
        files = {"src/repro/m.py": HELPER}
        assert _unread(files, {"repro.m.helper": "kept"}) == []

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


def _unread_members(
    files: Dict[str, str], allowlist: Optional[Dict[str, str]] = None
) -> List[str]:
    return unread_members(_parse(files), TREE, allowlist or {})


BOX = (
    "class Box:\n"
    "    def unread(self):\n"
    "        pass\n"
    "\n"
    "    @property\n"
    "    def size(self):\n"
    "        return 1\n"
)


class TestUnreadMembers:
    def test_unread_methods_and_properties_are_reported(self):
        assert _unread_members({"src/repro/m.py": BOX}) == [
            "repro.m.Box.unread (src/repro/m.py:2)",
            "repro.m.Box.size (src/repro/m.py:6)",
        ]

    @pytest.mark.parametrize(
        "reader",
        [
            "box.unread()\nbox.size\n",
            "getattr(box, 'unread')\ngetattr(box, 'size')\n",
            "COLUMNS = ('unread', 'size')\n",
        ],
        ids=["attribute", "getattr", "table-column"],
    )
    def test_a_member_read_by_attribute_or_string_passes(self, reader):
        files = {"src/repro/m.py": BOX, "examples/tour.py": reader}
        assert _unread_members(files) == []

    @pytest.mark.parametrize(
        "mention",
        [
            "unread = size = 1\nprint(unread, size)\n",
            '"""Call unread() and read size."""\n',
            "from repro.m import unread, size\n",
        ],
        ids=["name-load", "docstring", "import"],
    )
    def test_a_mention_that_is_not_a_member_read_does_not_count(self, mention):
        files = {"src/repro/m.py": BOX, "examples/tour.py": mention}
        assert len(_unread_members(files)) == 2

    def test_a_read_inside_its_own_body_does_not_count(self):
        delegating = (
            "class Box:\n"
            "    def invalidate(self):\n"
            "        self.cache.invalidate()\n"
        )
        assert _unread_members({"src/repro/m.py": delegating}) == [
            "repro.m.Box.invalidate (src/repro/m.py:2)"
        ]
        caller = {"examples/tour.py": "box.invalidate()\n"}
        assert _unread_members({"src/repro/m.py": delegating, **caller}) == []

    def test_private_and_dunder_members_are_not_checked(self):
        source = (
            "class Box:\n"
            "    def _helper(self):\n        pass\n\n"
            "    def __len__(self):\n        return 0\n"
        )
        assert _unread_members({"src/repro/m.py": source}) == []

    def test_members_of_classes_outside_the_package_are_not_checked(self):
        assert _unread_members({"examples/tour.py": BOX}) == []

    def test_only_a_node_visitors_visit_methods_are_exempt(self):
        visitor = (
            "import ast\n\n"
            "class V(ast.NodeVisitor):\n    def visit_Name(self, node):\n        pass\n"
        )
        plain = "class P:\n    def visit_Name(self, node):\n        pass\n"
        assert _unread_members({"src/repro/v.py": visitor}) == []
        assert _unread_members({"src/repro/p.py": plain}) == [
            "repro.p.P.visit_Name (src/repro/p.py:2)"
        ]

    def test_an_allowlisted_unread_member_passes(self):
        allowlist = {"repro.m.Box.unread": "kept", "repro.m.Box.size": "kept"}
        assert _unread_members({"src/repro/m.py": BOX}, allowlist) == []

    def test_a_stale_member_allowlist_entry_is_reported(self):
        files = {"src/repro/m.py": BOX, "examples/tour.py": "box.unread()\n"}
        allowlist = {"repro.m.Box.unread": "kept", "repro.m.Box.gone": "kept"}
        assert _unread_members(files, allowlist) == [
            "repro.m.Box.unread: stale allowlist entry, it is read now",
            "repro.m.Box.size (src/repro/m.py:6)",
            "repro.m.Box.gone: stale allowlist entry, no such member",
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
