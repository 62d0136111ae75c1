"""Cold start: each import path loads only the heavy packages it uses.

Every command starts a fresh interpreter, so what ``import repro`` pulls in
is paid on every sweep, replay and ``run``.  The package loads its
subpackages on first access, and networkx, scipy and sympy are imported
inside the functions that call them.  These tests import in a subprocess,
because the test session itself has long since loaded everything.
"""

import subprocess
import sys
import textwrap

import pytest

HEAVY = ("numpy", "scipy", "networkx", "sympy")


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter and return its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def _loaded_after(statement: str) -> set:
    out = _fresh(f"""
        import sys
        {statement}
        print(" ".join(m for m in {HEAVY!r} if m in sys.modules))
    """)
    return set(out.split())


def test_import_repro_loads_no_heavy_package():
    assert _loaded_after("import repro") == set()


#: import statement -> the heavy packages it may load
COMMAND_PATHS = {
    # the CLI module: each command imports what it runs inside its function
    "import repro.cli": set(),
    # the sweep and cache-replay path
    "import repro.experiments.runner, repro.experiments.scenarios, "
    "repro.experiments.cache, repro.graphs.properties": {"numpy"},
}


@pytest.mark.parametrize("statement", list(COMMAND_PATHS))
def test_command_paths_load_no_scipy_networkx_or_sympy(statement):
    assert _loaded_after(statement) <= COMMAND_PATHS[statement]


def test_every_public_name_resolves_lazily():
    out = _fresh("""
        import repro
        missing = [n for n in repro.__all__ if n not in dir(repro)]
        assert not missing, missing
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace), repro.__all__
        try:
            repro.no_such_name
        except AttributeError:
            print("ok")
    """)
    assert out.split() == ["ok"]


def test_networkx_function_runs_in_a_fresh_interpreter():
    out = _fresh("""
        import sys
        from repro.experiments import fig1_example_network
        from repro.graphs.properties import head_connectivity_witness
        from repro.sim.topology import GraphTrace
        snap, _ = fig1_example_network()
        before = "networkx" in sys.modules
        witness = head_connectivity_witness(GraphTrace.constant(snap, rounds=2), 0, 2)
        print(before, "networkx" in sys.modules, sorted(witness.nodes))
    """)
    assert out.strip().split(maxsplit=2) == ["False", "True", str(list(range(11)))]


#: ``repro.experiments`` submodules that only tables, figures and sweeps use
SWEEP_STACK = ("tables", "figures", "sweeps", "pareto", "emdg_study",
               "validation", "replication")


def test_cache_and_runner_load_no_sweep_stack():
    out = _fresh("""
        import sys
        import repro.experiments.cache, repro.experiments.runner
        print(" ".join(m for m in sys.modules
                       if m.startswith("repro.experiments.")))
    """)
    loaded = {name.rsplit(".", 1)[1] for name in out.split()}
    assert {"cache", "runner", "scenarios"} <= loaded
    assert not loaded & set(SWEEP_STACK), sorted(loaded)


def test_every_experiments_name_resolves_lazily():
    out = _fresh("""
        import sys
        import repro.experiments as experiments
        assert "repro.experiments.tables" not in sys.modules
        missing = [n for n in experiments.__all__ if n not in dir(experiments)]
        assert not missing, missing
        for name in experiments.__all__:
            assert getattr(experiments, name) is not None, name
        namespace = {}
        exec("from repro.experiments import *", namespace)
        assert set(experiments.__all__) <= set(namespace)
        from repro.experiments import tables
        assert experiments.tables is tables
        try:
            experiments.no_such_name
        except AttributeError:
            print("ok")
    """)
    assert out.split() == ["ok"]
