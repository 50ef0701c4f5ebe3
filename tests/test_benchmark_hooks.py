"""The names ``perfbench`` wraps and reads resolve in grlin.

``perfbench/tracing.py`` looks up each of its entry points with ``getattr``
when a traced run starts, so a rename or deletion in grlin breaks
``perfbench/run.py --trace 1``. The file is read here, not imported, so
nothing is written under ``perfbench/``.
"""

import importlib

from conftest import ROOT


def _tracing():
    path = ROOT / "perfbench" / "tracing.py"
    ns: dict = {}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), ns)
    return ns


def _module(name):
    return importlib.import_module(f"grlin.{name}")


def test_every_traced_name_resolves():
    tracing = _tracing()
    for module, attr, _ in tracing["FUNCTIONS"]:
        assert callable(getattr(_module(module), attr, None)), f"{module}.{attr}"
    for module, cls, attr, _ in tracing["METHODS"]:
        # the tracer reads the method from the class's own dict
        owner = getattr(_module(module), cls, None)
        assert callable(vars(owner).get(attr) if owner is not None else None), \
            f"{module}.{cls}.{attr}"
    deriving = _module("deriving")
    assert isinstance(deriving._memo, dict) and callable(deriving.clear_memo)


def test_perfbench_call_shapes_bind():
    """The calls ``perfbench/workloads.py`` makes still bind to grlin's
    signatures; nothing is run."""
    from inspect import signature
    from grlin import cli, deriving, evaluator, lawcheck, typecheck

    signature(evaluator.Evaluator).bind(evaluator.Fuel(1))
    signature(evaluator.Evaluator.normalize).bind(None, None, deep=True)
    signature(deriving.derive_pull).bind(None, {}, None, default_grade=None)
    signature(lawcheck.run_suite).bind("inverses", seed=0, only_case=0)
    signature(cli.main).bind([])
    signature(typecheck.check_program).bind(None)
    assert set(lawcheck.DEFAULT_CASES) == set(lawcheck.SUITES)
    assert isinstance(lawcheck.DEFAULT_SEED, int)
