"""The package's settable values and public names are counted, so a new knob or export shows up as an edit of this test.

A settable value is a function or method parameter with a default, other
than ``tol``, or a dataclass field, of a function or class defined in one
of the package's modules.  A public name is a name of ``dir(centropoly)``
that does not start with an underscore and is not a submodule: which
submodules appear there depends on what else has been imported.  A plain
``import centropoly`` binds six, so its ``dir`` holds 64 public names.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import centropoly

MAX_SETTABLE_VALUES = 33
MAX_PUBLIC_NAMES = 58


def defaulted_parameters(fn) -> list[str]:
    return [
        p.name
        for p in inspect.signature(fn).parameters.values()
        if p.default is not inspect.Parameter.empty and p.name != "tol"
    ]


def settable_values() -> list[str]:
    found = []
    for info in pkgutil.iter_modules(centropoly.__path__):
        module = importlib.import_module(f"centropoly.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported, counted where it is defined
            if inspect.isfunction(obj):
                found += [f"{module.__name__}.{name}({p})" for p in defaulted_parameters(obj)]
            elif inspect.isclass(obj):
                is_dataclass = dataclasses.is_dataclass(obj)
                if is_dataclass:
                    found += [f"{module.__name__}.{name}.{f.name}" for f in dataclasses.fields(obj)]
                for attr, fn in vars(obj).items():
                    if inspect.isfunction(fn) and not (is_dataclass and attr == "__init__"):
                        found += [f"{module.__name__}.{name}.{attr}({p})" for p in defaulted_parameters(fn)]
    return found


def test_settable_value_count():
    found = settable_values()
    assert len(found) <= MAX_SETTABLE_VALUES, "\n".join(found)


def test_public_name_count():
    found = [
        name for name in dir(centropoly)
        if not name.startswith("_") and not inspect.ismodule(getattr(centropoly, name))
    ]
    assert len(found) <= MAX_PUBLIC_NAMES, "\n".join(found)
