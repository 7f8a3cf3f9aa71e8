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
    """Count the names ``tree`` reads.

    A name is read when code loads it as an ``ast.Name`` or as an
    ``ast.Attribute``, f-string expressions included, or spells it as a
    whole-identifier string constant (a ``getattr`` target).  An
    ``import`` alias reads nothing, and neither does an ``__all__`` entry.
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
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in listed
        ):
            reads[node.value] += 1
    return reads


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

    The scan matches by name: any read of ``run`` reaches every ``run``.
    """
    trees = {}
    for top in ("src", "scripts", "examples", "bench"):
        for path in sorted((root / top).rglob("*.py")):
            if path.relative_to(root).parts[:2] != ("bench", "tests"):
                trees[path] = ast.parse(path.read_text(), str(path))
    reads = Counter()
    for tree in trees.values():
        reads.update(_reads(tree))
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
            if reads[node.name] <= _reads(node)[node.name]:
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
        ],
    )
    def test_reachability_scan_on_a_synthetic_package(self, tmp_path, member, reached):
        for rel, text in SYNTHETIC_PACKAGE.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        assert (f"repro.mod.{member}" not in unreached_members(tmp_path)) is reached

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


class TestPlacementRendering:
    def test_render_marks_dcs_and_layers(self):
        from repro.core.perfmodel import PerformanceModel
        from repro.mapping.placement import zigzag_placement
        from repro.mapping.segmentation import HeuristicStrategy
        from repro.nn.workloads import resnet18_spec
        from repro.sim.config import SimConfig

        plan = HeuristicStrategy(SimConfig().array_size).plan(
            resnet18_spec(), PerformanceModel().layer_time_fn()
        )
        text = zigzag_placement(plan.segments[0]).render()
        assert text.count("D") == len(plan.segments[0].layers)
        assert "a" in text and "b" in text
