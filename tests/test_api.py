"""Checks on the public signatures of the lwemassart package."""

import importlib
import inspect
import pkgutil

import lwemassart


def _public_callables():
    for info in pkgutil.iter_modules(lwemassart.__path__):
        module = importlib.import_module(f"lwemassart.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                        yield f"{module.__name__}.{name}.{meth}", fn


def test_no_rng_parameter_has_a_default():
    # all randomness flows through a generator the caller seeds; a default
    # would let a call fall back to an unseeded one
    walked, defaulted = 0, []
    for qualname, fn in _public_callables():
        walked += 1
        rng = inspect.signature(fn).parameters.get("rng")
        if rng is not None and rng.default is not inspect.Parameter.empty:
            defaulted.append(qualname)
    assert walked > 50
    assert defaulted == []
