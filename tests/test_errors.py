"""Every package error has its own exit code, and ``ERROR_CLASSES`` lists them all in order."""

import importlib
import inspect
import pkgutil

import dataflex
from dataflex.errors import ERROR_CLASSES, IO_ERROR_EXIT_CODE, DataflexError


def package_error_classes():
    found = set()
    for info in pkgutil.iter_modules(dataflex.__path__):
        module = importlib.import_module(f"dataflex.{info.name}")
        found.update(cls for _, cls in inspect.getmembers(module, inspect.isclass) if issubclass(cls, DataflexError))
    return found


def test_error_classes_are_the_base_then_every_subclass_in_exit_code_order():
    subclasses = package_error_classes() - {DataflexError}
    assert ERROR_CLASSES == [DataflexError] + sorted(subclasses, key=lambda cls: cls.exit_code)


def test_exit_codes_are_distinct():
    codes = [0, 1, 2, IO_ERROR_EXIT_CODE] + [cls.exit_code for cls in ERROR_CLASSES]
    assert len(set(codes)) == len(codes)
