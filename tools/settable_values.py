"""Count the values a caller of gralab can set, per module and in total.

A settable value is a parameter of a public function or public method
(without self or cls) or an init field of a public dataclass, for every
public name a module defines itself.  The design-quality aim tracks this
total next to the source line count.  After the total it prints the
command-line options, global and per subcommand (every argument but help,
positionals included), and the keys a cascade config file may set: a flag
or a key is a knob that no function parameter counts.

Run from the repository root: PYTHONPATH=src python tools/settable_values.py
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import pkgutil

import gralab
from gralab import cascade, cli


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


def cli_options() -> dict[str, int]:
    """Options of the global parser and of each subcommand, by name."""
    parser = cli._build_parser()
    ignored = (argparse._HelpAction, argparse._SubParsersAction)

    def count(p) -> int:
        return sum(not isinstance(action, ignored) for action in p._actions)

    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {"global": count(parser), **{name: count(p) for name, p in sub.choices.items()}}


def main() -> None:
    total = 0
    for info in sorted(pkgutil.iter_modules(gralab.__path__), key=lambda m: m.name):
        count = module_values(importlib.import_module(f"gralab.{info.name}"))
        print(f"{count:5d} {info.name}")
        total += count
    print(f"{total:5d} total")
    options = cli_options()
    for name, count in options.items():
        print(f"{count:5d} options: {name}")
    print(f"{sum(options.values()):5d} options total")
    print(f"{len(cascade.KEYS):5d} cascade config keys")


if __name__ == "__main__":
    main()
