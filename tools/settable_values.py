"""Count the values a caller of gralab can set, per module and in total.

A settable value is a parameter of a public function or public method
(without self or cls) or an init field of a public dataclass, for every
public name a module defines itself.  The design-quality aim tracks this
total next to the source line count.

Run from the repository root: PYTHONPATH=src python tools/settable_values.py
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import gralab


def _parameters(function, bound: bool) -> int:
    return len(inspect.signature(function).parameters) - bound


def _class_values(cls) -> int:
    count = sum(f.init for f in dataclasses.fields(cls)) if dataclasses.is_dataclass(cls) else 0
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, (classmethod, staticmethod)):
            count += _parameters(member.__func__, isinstance(member, classmethod))
        elif inspect.isfunction(member):
            count += _parameters(member, True)
    return count


def module_values(module) -> int:
    count = 0
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            count += _class_values(obj)
        elif inspect.isfunction(obj):
            count += _parameters(obj, False)
    return count


def main() -> None:
    total = 0
    for info in sorted(pkgutil.iter_modules(gralab.__path__), key=lambda m: m.name):
        count = module_values(importlib.import_module(f"gralab.{info.name}"))
        print(f"{count:5d} {info.name}")
        total += count
    print(f"{total:5d} total")


if __name__ == "__main__":
    main()
