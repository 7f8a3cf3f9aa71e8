"""Package-level contracts: exports, reachability, errors, version, CLI."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro import errors


REPO = Path(__file__).resolve().parents[1]

# The reachability scan's allowlist, exactly two entries.
#: ``Executor`` dispatches its instruction handlers by ``getattr`` on a
#: name built from the opcode, so no code spells one.
ALLOWED_METHOD_PREFIX = "_op_"
#: The auxiliary-function kernels, which the cycle tier does not run yet
#: (ROADMAP item 1).
ALLOWED_MODULE = "repro.core.aux_kernels"


def _reads(tree):
    """Count the names ``tree`` reads, as ``(reads, self_reads)``.

    A name is read when code loads it as an ``ast.Name`` or as an
    ``ast.Attribute``, f-string expressions included, or spells it as a
    whole-identifier string constant (a ``getattr`` target).  An
    ``import`` alias reads nothing, and neither does an ``__all__`` entry.
    A ``self.<name>`` or ``cls.<name>`` read inside a class body goes to
    ``self_reads``, keyed by ``(class name, name)``, instead of ``reads``.
    """
    listed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if node.value is not None and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            listed.update(map(id, ast.walk(node.value)))
    reads = Counter()
    self_reads = Counter()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                reads[child.id] += 1
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                target = child.value
                if (
                    owner is not None
                    and isinstance(target, ast.Name)
                    and target.id in ("self", "cls")
                ):
                    self_reads[owner, child.attr] += 1
                else:
                    reads[child.attr] += 1
            elif (
                isinstance(child, ast.Constant)
                and isinstance(child.value, str)
                and child.value.isidentifier()
                and id(child) not in listed
            ):
                reads[child.value] += 1
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    visit(tree, None)
    return reads, self_reads


def _base_name(expr):
    """The class name a base-class expression spells, if any."""
    if isinstance(expr, ast.Subscript):
        expr = expr.value
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _lineages(trees):
    """Class name -> the names of the class, its bases and its subclasses,
    transitively, over every class the trees define."""
    bases = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                named = {_base_name(b) for b in node.bases} - {None}
                bases.setdefault(node.name, set()).update(named)

    def closure(start, step):
        seen, todo = set(), [start]
        while todo:
            for name in step(todo.pop()):
                if name not in seen:
                    seen.add(name)
                    todo.append(name)
        return seen

    def parents(name):
        return bases.get(name, ())

    def children(name):
        return [sub for sub, its in bases.items() if name in its]

    return {
        name: {name} | closure(name, parents) | closure(name, children)
        for name in bases
    }


def _members(tree):
    """``(qualname, node)`` of each top-level function and class of a
    module, and of each non-dunder method of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def unreached_members(root):
    """Dotted names of the ``src/repro`` members that no code under
    ``src/``, ``scripts/``, ``examples/`` or ``bench/`` (outside
    ``bench/tests/``) reaches from outside the member's own definition.

    The scan matches by name: any read of ``run`` reaches every ``run``,
    except that a ``self.run`` or ``cls.run`` read inside class ``C``
    reaches only the ``run`` methods of ``C``, its bases and its
    subclasses.
    """
    trees = {}
    for top in ("src", "scripts", "examples", "bench"):
        for path in sorted((root / top).rglob("*.py")):
            if path.relative_to(root).parts[:2] != ("bench", "tests"):
                trees[path] = ast.parse(path.read_text(), str(path))
    reads = Counter()
    self_reads = Counter()
    for tree in trees.values():
        general, selves = _reads(tree)
        reads.update(general)
        self_reads.update(selves)
    lineages = _lineages(trees.values())
    unreached = []
    for path, tree in trees.items():
        if not path.is_relative_to(root / "src" / "repro"):
            continue
        parts = path.relative_to(root / "src").with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        if module == ALLOWED_MODULE:
            continue
        for qualname, node in _members(tree):
            if node.name.startswith(ALLOWED_METHOD_PREFIX):
                continue
            total = reads[node.name]
            if "." in qualname:
                owner = qualname.split(".")[0]
                total += sum(
                    self_reads[kin, node.name] for kin in lineages[owner]
                )
            if total <= _reads(node)[0][node.name]:
                unreached.append(f"{module}.{qualname}")
    return unreached


#: A package whose ``repro.mod`` members cover each way of being reached.
SYNTHETIC_PACKAGE = {
    "src/repro/__init__.py": (
        '__all__ = ["listed"]\n'
        "from repro.mod import aliased as renamed\n"
    ),
    "src/repro/mod.py": (
        "def called(): ...\n"
        "def attribute(): ...\n"
        "def formatted(): ...\n"
        "def by_string(): ...\n"
        "def listed(): ...\n"
        "def aliased(): ...\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def tested(): ...\n"
    ),
    "scripts/run.py": (
        "import repro.mod as mod\n"
        "from repro.mod import called\n"
        "called()\n"
        "mod.attribute\n"
        'print(f"{mod.formatted()!r}")\n'
        'getattr(mod, "by_string")\n'
    ),
    "src/repro/kin.py": (
        "class Base:\n"
        "    def hook(self): ...\n"
        "class Sub(Base):\n"
        "    def run(self):\n"
        "        return self.hook()\n"
        "class Unrelated:\n"
        "    def hook(self): ...\n"
    ),
    "tests/test_mod.py": "from repro.mod import tested\ntested()\n",
}


class TestPublicAPI:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_every_module_exports_resolve(self):
        """Each ``repro.*`` module defines every name its ``__all__`` lists."""
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{info.name}.{name}"

    def test_every_member_is_reached_outside_tests(self):
        """Every function, class and method in ``src/repro`` is reached by
        shipped code, so code only the tests reach cannot grow back."""
        unreached = unreached_members(REPO)
        assert not unreached, "reached by nothing outside the tests:\n" + "\n".join(
            unreached
        )

    @pytest.mark.parametrize(
        "member, reached",
        [
            ("called", True),
            ("attribute", True),
            ("formatted", True),
            ("by_string", True),
            ("listed", False),
            ("aliased", False),
            ("recursive", False),
            ("tested", False),
            ("kin.Base.hook", True),
            ("kin.Unrelated.hook", False),
        ],
    )
    def test_reachability_scan_on_a_synthetic_package(self, tmp_path, member, reached):
        for rel, text in SYNTHETIC_PACKAGE.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        dotted = member if member.startswith("kin.") else f"mod.{member}"
        assert (f"repro.{dotted}" not in unreached_members(tmp_path)) is reached

    def test_version(self):
        major = int(repro.__version__.split(".")[0])
        assert major >= 1

    def test_quickstart_snippet(self):
        """The README's four-line quickstart works verbatim."""
        from repro import resnet18_spec, simulate

        result = simulate(resnet18_spec())
        assert result.latency_ms > 0


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError), name

    def test_specific_parentage(self):
        assert issubclass(errors.SliceIndexError, errors.CMemError)
        assert issubclass(errors.RowIndexError, errors.CMemError)
        assert issubclass(errors.AlignmentError, errors.MemoryMapError)
        assert issubclass(errors.CapacityError, errors.MappingError)
        assert issubclass(errors.PlacementError, errors.MappingError)
        assert issubclass(errors.ShapeError, errors.GraphError)

    def test_one_base_catches_everything(self):
        from repro.mapping.capacity import CapacityModel
        from repro.nn.workloads import ConvLayerSpec

        with pytest.raises(errors.ReproError):
            CapacityModel().vector_slots_per_slice(64)


class TestCLI:
    def test_list_flag(self, capsys):
        from repro.experiments.runner import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("table4", "table5", "table6", "table7", "figure9", "figure10"):
            assert name in out

    def test_single_experiment(self, capsys):
        from repro.experiments.runner import main

        assert main(["figure10"]) == 0
        assert "Figure 10" in capsys.readouterr().out
