"""Checks on the public signatures and the imports of the lwemassart package."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import lwemassart
from lwemassart import instances, learners, verify
from lwemassart.config import RunConfig
from lwemassart.instances import MassartConfig
from lwemassart.rejection import ReductionParams

import oracles

SRC = Path(lwemassart.__file__).parent
TESTS = Path(__file__).parent
# the modules that generate samples and instances; verify.py checks their output
GENERATOR_MODULES = {"gaussians", "lwe", "rejection", "instances"}


def _modules():
    for info in pkgutil.iter_modules(lwemassart.__path__):
        yield importlib.import_module(f"lwemassart.{info.name}")
    yield oracles


def _public_callables():
    for module in _modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                        yield f"{module.__name__}.{name}.{meth}", fn


def _imports(path):
    """(module, name) per imported name, package prefix dropped.

    "from .rejection import branch_acceptance" gives ("rejection",
    "branch_acceptance"); importing a whole module gives (module, "*").
    """
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("lwemassart").lstrip(".")
            for alias in node.names:
                yield (alias.name, "*") if module == "" else (module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.removeprefix("lwemassart."), "*"


def test_no_rng_parameter_has_a_default():
    # all randomness flows through a generator the caller seeds; a default
    # would let a call fall back to an unseeded one
    walked, defaulted = [], []
    for qualname, fn in _public_callables():
        walked.append(qualname)
        rng = inspect.signature(fn).parameters.get("rng")
        if rng is not None and rng.default is not inspect.Parameter.empty:
            defaulted.append(qualname)
    assert len(walked) > 50
    assert "oracles.reduce_batch" in walked
    assert defaulted == []


def test_verify_shares_two_names_with_the_generator():
    # the oracles and gates stay independent of the code they check: only
    # the exact branch acceptance and the planted region are shared
    shared = {(m, name) for m, name in _imports(SRC / "verify.py") if m in GENERATOR_MODULES}
    assert shared == {("rejection", "branch_acceptance"), ("instances", "ptf_region")}


def _callers(path, name):
    """Dotted scope (module, class, function) of each call of name in path."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                        getattr(child.func, "attr", None)):
                found.append(".".join(scope))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, scope + (child.name,) if named else scope)

    visit(ast.parse(path.read_text()), (path.stem,))
    return found


def test_massart_config_region_alone_builds_the_region():
    # one region per instance: the gates and the planted learner take it, never (t, eps, c')
    callers = [c for path in sorted(SRC.glob("*.py"))
               for c in _callers(path, "region_plus_intervals")]
    assert callers == ["instances.MassartConfig.region"]
    readers = (instances.ptf_region, instances.region_aligned_edges,
               verify.ptf_error_estimate, learners.PlantedRegionLearner)
    for fn in readers:
        params = inspect.signature(fn).parameters
        assert "region" in params and not params.keys() & {"t", "eps", "c_prime"}, fn


def test_each_file_and_its_sidecar_are_written_one_way():
    # a file writer writes its file and each command writes the sidecar beside
    # it; reports go through frames.write_json from cli.py, never a verify
    # wrapper, and every file goes through frames.part_file
    assert [n for m, n in _imports(SRC / "verify.py") if m == "frames"] == ["part_file"]
    openers = [c for path in sorted(SRC.glob("*.py")) for c in _callers(path, "part_file")]
    assert sorted(openers) == ["frames.write_json", "instances.write_labeled_file",
                               "lwe.write_batch", "verify.write_histogram_csv"]
    (writer,) = [node for node in ast.parse((SRC / "instances.py").read_text()).body
                 if isinstance(node, ast.FunctionDef) and node.name == "write_labeled_file"]
    assert [a.arg for a in writer.args.args + writer.args.kwonlyargs] == ["path", "n", "m_prime",
                                                                         "fill"]
    callers = [c for path in sorted(SRC.glob("*.py")) for c in _callers(path, "write_sidecar")]
    assert sorted(callers) == ["cli.cmd_gen_instance", "cli.cmd_gen_lwe", "cli.cmd_reduce_lwe"]


def test_config_imports_neither_click_nor_scipy():
    # the parameter rules load without the command line or the statistics stack
    found = {m.split(".")[0] for m, _ in _imports(SRC / "config.py")}
    assert "frames" in found
    assert not found & {"click", "scipy"}


def test_scipy_is_imported_by_verify_alone_and_only_special():
    # the generator, the config and the distinguisher load without scipy
    found = {(path.stem, m) for path in SRC.glob("*.py")
             for m, _ in _imports(path) if m.split(".")[0] == "scipy"}
    assert found == {("verify", "scipy.special")}


def test_learners_import_neither_click_nor_scipy():
    found = {m.split(".")[0] for m, _ in _imports(SRC / "learners.py")}
    assert found == {"dataclasses", "numpy", "instances"}


def test_rejection_reads_no_instance_field_and_cli_imports_nothing_from_it():
    # the parameter condition and the stream arithmetic live on MassartConfig:
    # the rejection core sees one branch, and cli.py only prints what they give
    instance_only = {"eta", "m_prime", "delta", "c_prime", "c_dprime", "mode"}
    read = {node.attr for node in ast.walk(ast.parse((SRC / "rejection.py").read_text()))
            if isinstance(node, ast.Attribute)}
    assert {"t", "psi", "B", "sigma"} <= read
    assert not read & instance_only
    assert [name for m, name in _imports(SRC / "cli.py") if m == "rejection"] == []


def test_reduction_params_holds_one_branchs_step_inputs():
    fields = [f.name for f in dataclasses.fields(ReductionParams)]
    assert fields == ["n", "t", "eps", "psi", "B", "sigma"]


def test_massart_config_fields_are_run_config_fields_without_defaults():
    # massart_config copies the fields from a RunConfig by name, so each must
    # exist there with the same annotation, and none may fall back to a default
    run = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    fields = dataclasses.fields(MassartConfig)
    assert len(fields) == 10
    for f in fields:
        assert run.get(f.name) == f.type, f.name
        assert f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING


def test_package_imports_nothing_from_the_tests():
    test_modules = {"tests"} | {p.stem for p in TESTS.glob("*.py")}
    found = [(path.name, m) for path in sorted(SRC.glob("*.py"))
             for m, _ in _imports(path) if m.split(".")[0] in test_modules]
    assert len(list(SRC.glob("*.py"))) > 5
    assert found == []
