"""Docs sanity: every relative link and API reference in README/docs resolves.

A tiny stand-in for a lychee run that needs no network: collects
markdown links from ``README.md`` and ``docs/*.md``, skips external
URLs and badge endpoints, and asserts every repository-relative target
exists.  Every backticked ``Class.attr`` whose class is defined under
``src/repro`` must name an attribute that class still has, and every
backticked dotted ``repro.…`` path must import and resolve.  Also pins
the docs site's minimum shape (architecture + operations pages) and
that every example script at least compiles.
"""

import ast
import importlib
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: ``[text](target)`` — good enough for our hand-written markdown.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Link targets that are not repository files.
_EXTERNAL = ("http://", "https://", "mailto:")

#: A backticked span that starts with ``Class.attr``.
_API_REFERENCE = re.compile(r"`([A-Z]\w*)\.([A-Za-z_]\w*)")

#: A backticked span that starts with a dotted ``repro.…`` path.
_MODULE_PATH = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")


def _markdown_files():
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return files


def _relative_links(path: pathlib.Path):
    for match in _LINK.finditer(path.read_text(encoding="utf-8")):
        target = match.group(1)
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        # Badge-style workflow links resolve outside the repo checkout.
        if target.startswith("../../actions/"):
            continue
        yield target.split("#", 1)[0]


def _class_definitions():
    """``name -> [(members, bases)]`` for every class under ``src/repro``.

    Members are what the class body defines (methods, properties, class
    attributes, dataclass fields) plus every ``self.<name> = ...`` in
    its methods; bases are the base-class names as written.
    """
    classes = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            members = set()
            for statement in node.body:
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    members.add(statement.name)
                targets = getattr(statement, "targets", [getattr(statement, "target", None)])
                members.update(target.id for target in targets if isinstance(target, ast.Name))
            for child in ast.walk(node):
                if (
                    isinstance(child, ast.Attribute)
                    and isinstance(child.ctx, ast.Store)
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "self"
                ):
                    members.add(child.attr)
            bases = [ast.unparse(base) for base in node.bases]
            classes.setdefault(node.name, []).append((members, bases))
    return classes


def _members(classes, name):
    """Every attribute of class ``name``, inherited ones included; ``None``
    when a base class is defined outside ``repro`` (its attributes are
    unknown here)."""
    found = set()
    for members, bases in classes[name]:
        found |= members
        for base in bases:
            if base not in classes:
                return None
            inherited = _members(classes, base)
            if inherited is None:
                return None
            found |= inherited
    return found


#: A Sphinx role naming a member: ``:meth:`member` ``, ``:attr:`~repro.pkg.Class.member` ``
#: or ``:meth:`text <target>` ``; group 1 is the target, without ``~`` and ``()``.
_ROLE = re.compile(r":(?:meth|attr):`(?:[^`<]*<)?~?([\w.]+?)(?:\(\))?>?`")


def _docstring_roles():
    """``(file, line, class or None, target)`` for each member role in a ``src/repro`` docstring.

    The class is the one whose body holds the docstring (its own, or a
    method's): the class a bare ``:meth:`member` `` names a member of.
    """
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(tree, None)]
        while scopes:
            node, owner = scopes.pop()
            docstring = None
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                docstring = ast.get_docstring(node, clean=False)
            if isinstance(node, ast.ClassDef):
                owner = node.name
            if docstring:
                for match in _ROLE.finditer(docstring):
                    line = node.body[0].lineno + docstring.count("\n", 0, match.start())
                    yield path.name, line, owner, match.group(1)
            scopes.extend((child, owner) for child in ast.iter_child_nodes(node))


def test_api_references_name_attributes_that_exist():
    """Backticked ``Class.attr`` spans in the docs, and member roles in docstrings.

    A qualified role (``Class.member``, with any package path before it)
    is checked when ``Class`` is defined under ``src/repro``; a bare one
    against the class whose body the docstring is in.  A bare role
    outside any class names a module-level function: not checked here.
    """
    classes = _class_definitions()
    references = []
    for path in _markdown_files():
        text = path.read_text(encoding="utf-8")
        for match in _API_REFERENCE.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            references.append((path.name, line, *match.groups()))
    roles = 0
    for name, line, owner, target in _docstring_roles():
        parts = target.split(".")
        cls = parts[-2] if len(parts) > 1 else owner
        references.append((name, line, cls, parts[-1]))
        roles += cls in classes
    assert roles > 0
    dead = []
    for name, line, cls, attribute in references:
        if cls not in classes:
            continue
        members = _members(classes, cls)
        if members is not None and attribute not in members:
            dead.append(f"{name}:{line}: {cls}.{attribute}")
    assert not dead, f"docs name attributes their classes do not have: {dead}"


def _resolve(dotted):
    """Import the longest module prefix of ``dotted``, then walk the rest as attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        name = ".".join(parts[:split])
        try:
            target = importlib.import_module(name)
        except ModuleNotFoundError as error:
            if error.name != name:  # the module exists but an import inside it failed
                raise
            continue
        for attribute in parts[split:]:
            target = getattr(target, attribute)
        return target
    raise ModuleNotFoundError(dotted)


def test_module_paths_resolve():
    references = 0
    unresolved = []
    for path in _markdown_files():
        text = path.read_text(encoding="utf-8")
        for match in _MODULE_PATH.finditer(text):
            references += 1
            try:
                _resolve(match.group(1))
            except (ImportError, AttributeError):
                line = text.count("\n", 0, match.start()) + 1
                unresolved.append(f"{path.name}:{line}: {match.group(1)}")
    assert references > 0
    assert not unresolved, f"docs name module paths that do not resolve: {unresolved}"


def test_docs_directory_has_the_operator_pages():
    assert (REPO_ROOT / "docs" / "architecture.md").is_file()
    assert (REPO_ROOT / "docs" / "operations.md").is_file()


@pytest.mark.parametrize("path", _markdown_files(), ids=lambda p: p.name)
def test_relative_links_resolve(path):
    missing = []
    for target in _relative_links(path):
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            missing.append(target)
    assert not missing, f"{path.name} has dead relative links: {missing}"


def test_readme_stays_a_quickstart_not_a_manual():
    """ISSUE 4: deep runtime documentation lives in docs/, and the
    README links out instead of growing further."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert readme.count("\n") <= 242
    assert "docs/architecture.md" in readme
    assert "docs/operations.md" in readme


def test_examples_compile():
    """Every example script is at least syntactically sound; CI runs
    them for real in the docs job."""
    examples = sorted((REPO_ROOT / "examples").glob("*.py"))
    assert examples
    for script in examples:
        compile(script.read_text(encoding="utf-8"), str(script), "exec")


#: Calls whose first argument names a metric family: the registry's own
#: get-or-create methods, and the ``_gauge`` helpers that forward theirs.
_METRIC_CALLS = {"counter", "gauge", "histogram", "_gauge"}

#: A backticked family name in the docs, with an optional label set.
_DOC_FAMILY = re.compile(r"`([a-z][a-z0-9_]*)(?:\{[^`]*\})?`")

#: The series a histogram family renders besides its own name.
_HISTOGRAM_SERIES = r"(?:_bucket|_sum|_count)?"


def _metric_families():
    """Every family ``src/repro`` registers, as a regex (an f-string's
    replacement fields read as ``\\w+``)."""
    families = set()
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            function = node.func
            name = getattr(function, "attr", getattr(function, "id", None))
            if name not in _METRIC_CALLS:
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                families.add(re.escape(first.value))
            elif isinstance(first, ast.JoinedStr):
                families.add(
                    "".join(
                        re.escape(part.value) if isinstance(part, ast.Constant) else r"\w+"
                        for part in first.values
                    )
                )
    return families


def test_the_metric_catalog_names_every_family_and_only_those():
    """Two ways: each family the code registers is in the catalog of
    docs/observability.md, and each family the catalog names exists.
    Catalog names are the backticked snake_case spans of its section
    that start with a layer prefix some family has (``serving_``, ...)."""
    families = _metric_families()
    text = (REPO_ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
    catalog = text.split("## Metric catalog", 1)[1].split("\n## ", 1)[0]
    prefixes = {family.split("_", 1)[0] for family in families}
    documented = {
        name
        for name in _DOC_FAMILY.findall(catalog)
        if name.split("_", 1)[0] in prefixes and "_" in name
    }
    undocumented = sorted(
        family
        for family in families
        if not any(re.fullmatch(family, name) for name in documented)
    )
    unknown = sorted(
        name
        for name in documented
        if not any(re.fullmatch(family + _HISTOGRAM_SERIES, name) for family in families)
    )
    assert len(families) > 40
    assert not undocumented, f"families missing from the metric catalog: {undocumented}"
    assert not unknown, f"the metric catalog names families no code registers: {unknown}"
