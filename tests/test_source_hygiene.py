"""Properties of the source tree itself."""

import ast
import importlib
import inspect
from pathlib import Path

import monobase

SOURCE = Path(monobase.__file__).resolve().parent


def test_no_assert_statements_in_source():
    # python -O strips assert statements, so every check in the package must
    # raise explicitly.
    paths = sorted(SOURCE.glob("*.py"))
    assert paths, SOURCE
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_no_module_imports_a_private_name_from_a_sibling():
    # A module's underscore names are its own; a sibling that needs one should
    # get a public function instead of reaching in.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "monobase":
                continue
            found += [
                f"{path.name}:{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert found == []


def test_case_rules_do_not_import_the_dedekind_oracle():
    # The case rules are checked against Dedekind's criterion, so they must
    # share no code path with it.
    path = SOURCE / "index_criteria.py"
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert "QuadrinomialSpec" in names
    assert [name for name in names if "dedekind" in name] == []


def test_the_dedekind_oracle_does_not_import_the_family_layers():
    # The converse: the oracle must stay blind to the family it checks, so it
    # cannot borrow a case rule such as double_root_divisibility_test.
    family_layers = {"discriminant", "index_criteria", "families", "report"}
    found = []
    for name in ("polynomials", "dedekind"):
        path = SOURCE / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                if (node.module or "monobase") == "monobase":  # from . import x
                    modules += [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            found += [
                f"{name}.py:{node.lineno} {module}"
                for module in modules
                if module.split(".")[-1] in family_layers
            ]
    assert found == []


def test_validated_dataclasses_are_frozen():
    # A __post_init__ that checks or normalises its fields holds only while
    # nothing can assign them afterwards.  Result records may be mutable
    # (they are built per call); validated values may not.
    validated, unfrozen = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or not any(
                isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                for item in node.body
            ):
                continue
            for d in node.decorator_list:
                call = d if isinstance(d, ast.Call) else None
                target = call.func if call else d
                if getattr(target, "id", getattr(target, "attr", None)) != "dataclass":
                    continue
                validated.append(node.name)
                frozen = {k.arg: k.value for k in call.keywords}.get("frozen") if call else None
                if not (isinstance(frozen, ast.Constant) and frozen.value is True):
                    unfrozen.append(f"{path.name}:{node.lineno} {node.name}")
    expected = {
        "QuadrinomialSpec", "IntFactorization", "ZPoly", "FpPoly", "EffortConfig", "FamilyTemplate"
    }
    assert expected <= set(validated), validated
    assert unfrozen == []


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_trees():
    paths = sorted(PERFBENCH.glob("*.py"))
    assert paths, PERFBENCH
    return [(p.name, ast.parse(p.read_text(encoding="utf-8"), filename=str(p))) for p in paths]


def test_perfbench_monobase_names_exist():
    # The benchmark lives outside the package and is not run by the tests, so
    # narrowing the public API could break it silently.  A name imported
    # `from monobase` must be in monobase.__all__; a `monobase.X` attribute
    # read must exist.
    missing = []
    for name, tree in _perfbench_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "monobase":
                used, known = [alias.name for alias in node.names], monobase.__all__
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "monobase"
            ):
                used, known = [node.attr], dir(monobase)
            else:
                continue
            missing += [f"{name}:{node.lineno} {u}" for u in used if u not in known]
    assert missing == []


def test_perfbench_traced_functions_resolve():
    # spans.TRACED names the functions the traced benchmark run rebinds; read
    # it from source, since perfbench is not importable from the tests.
    (tree,) = [t for name, t in _perfbench_trees() if name == "spans.py"]
    (traced,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    ]
    pairs = [(entry.elts[0].value, entry.elts[1].value) for entry in traced.elts]
    assert len(pairs) >= 10, pairs
    for module, function in pairs:
        mod = importlib.import_module(f"monobase.{module}")
        assert callable(getattr(mod, function, None)), (module, function)


def test_perfbench_dedekind_call_signature_binds():
    # perfbench/gates.py passes seed= to dedekind_divides_index.
    f = monobase.QuadrinomialSpec(7, 2, 4, 2).polynomial()
    inspect.signature(monobase.dedekind_divides_index).bind(f, 2, seed=1)
